"""The package's own surface: the entry points are the CLI and the
submodules, so each submodule's ``__all__`` must name what it defines, and
``fedcoreset.__version__`` (which run manifests record) must be the
distribution's version."""

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import fedcoreset
from fedcoreset.data import NOISE_KINDS
from fedcoreset.federation import ALGO_KINDS

ROOT = Path(__file__).resolve().parent.parent
SUBMODULES = sorted(info.name for info in pkgutil.iter_modules(fedcoreset.__path__))


def test_the_submodules_are_found():
    assert {"cli", "config", "coreset", "data", "federation", "metrics", "model"} <= set(SUBMODULES)


@pytest.mark.parametrize("name", SUBMODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(f"fedcoreset.{name}")
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported)
    assert [attr for attr in exported if not hasattr(module, attr)] == []


def test_version_matches_pyproject():
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        project = tomllib.load(fh)["project"]
    assert fedcoreset.__version__ == project["version"]


@pytest.mark.parametrize("kind", NOISE_KINDS)
def test_no_run_imports_numpy_ma(kind, tmp_path):
    """``numpy.ma`` takes about 20 ms and 0.6 MB to import (``np.unique``
    without counts loads it), charged to whichever arm first calls it; no
    run of any noise kind, with every arm kind and a fine-tune, imports it."""
    argv = ["run", "--output_dir", str(tmp_path), "--noise.kind", kind, "--noise.ratio", "0.3",
            "--noise.severity", "1", "--arms", ",".join(ALGO_KINDS), "--fine_tune_epochs", "1",
            "--rounds", "2", "--refresh_period", "1", "--num_clients", "4",
            "--dataset.num_blobs", "4", "--dataset.dim", "3", "--dataset.samples_per_blob", "30"]
    script = (
        "import sys\n"
        "from fedcoreset import cli\n"
        f"assert cli.main({argv!r}) == 0\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, check=True)
    assert done.stdout.strip() == "False"
