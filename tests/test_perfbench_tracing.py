"""The benchmark's tracer (perfbench/tracing.py) wraps package functions
under the names their callers look up, and its workloads
(perfbench/workloads.py) build configs from the package's config classes.
Renaming or moving one of them breaks ``perfbench/run.py`` runs, so check
them here."""

import importlib
import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves_to_a_callable():
    targets = _load("tracing").FULL
    assert targets
    missing = [
        f"{module}.{attr}"
        for module, attr, _ in targets
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert not missing, f"traced names not found: {missing}"


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_workload_config_builds(workload, tmp_path):
    cfg = _load("workloads").make_config(workload, 0, str(tmp_path))
    assert cfg.seed == 0
    assert cfg.output_dir == str(tmp_path)
