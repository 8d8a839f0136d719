"""The package exports its names lazily: a module is imported on first use."""

import importlib
import subprocess
import sys
from pathlib import Path

import pytest

import similekit

SRC = Path(__file__).resolve().parent.parent / "src"
OTHERS = ["cli", "corpus", "evaluation", "harvest", "story", "systems", "tagging"]


def loaded_after(statement: str) -> list[str]:
    """The similekit modules a fresh interpreter holds after running statement."""
    code = (f"import sys\n{statement}\n"
            "print(' '.join(sorted(m for m in sys.modules if m.startswith('similekit'))))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={"PYTHONPATH": str(SRC)})
    return out.stdout.split()


def test_importing_lm_loads_only_what_lm_imports():
    loaded = loaded_after("import similekit.lm")
    assert loaded == ["similekit", "similekit.backends", "similekit.core", "similekit.lm"]
    assert not {f"similekit.{name}" for name in OTHERS} & set(loaded)


def test_importing_the_package_loads_no_module():
    assert loaded_after("import similekit; similekit.__version__") == ["similekit"]


def test_a_name_loads_its_module():
    assert loaded_after("from similekit import EmptyText") == [
        "similekit", "similekit.backends", "similekit.core", "similekit.lm"]


@pytest.mark.parametrize("name", similekit.__all__)
def test_every_export_is_its_module_object(name):
    module = importlib.import_module(f"similekit.{similekit._MODULE_OF[name]}")
    assert getattr(similekit, name) is getattr(module, name)


def test_star_import_and_dir_list_every_export():
    namespace = {}
    exec("from similekit import *", namespace)
    assert set(similekit.__all__) <= set(namespace)
    assert set(similekit.__all__) | {"__version__"} <= set(dir(similekit))
    assert len(set(similekit.__all__)) == len(similekit.__all__)


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        similekit.no_such_name
    assert not hasattr(similekit, "no_such_name")
    with pytest.raises(ImportError):
        exec("from similekit import no_such_name", {})


def test_submodules_import_as_before():
    namespace = {}
    exec("from similekit import corpus, evaluation, systems", namespace)
    assert namespace["corpus"] is importlib.import_module("similekit.corpus")
