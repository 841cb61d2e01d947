"""The package's own surface: the entry points are the CLI and the
submodules, so each submodule's ``__all__`` must name what it defines, and
``fedcoreset.__version__`` (which run manifests record) must be the
distribution's version."""

import importlib
import pkgutil
from pathlib import Path

import pytest

import fedcoreset

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
