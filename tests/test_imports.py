"""Every name a similekit module imports is used in that module.

A stdlib stand-in for a linter's unused-import rule.  `__init__.py` is
exempt, since it re-exports.  The only other exceptions are the names the
benchmark tracer probes on a module (`module:name` in perfbench/tracer.py's
PROBES, loaded read-only by path as tests/test_trace_targets.py does): the
tracer patches them there, so the module must bind them.  The command line
binds its library names from a table (`cli._NAMES`) when a command runs; the
same rule holds for that table.
"""

import ast
import importlib
from pathlib import Path

import pytest

from test_trace_targets import PROBES

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "similekit"
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def probed_names(module: str) -> set[str]:
    """The names the tracer patches on similekit.<module>; Class.method counts as Class."""
    return {target.partition(":")[2].split(".")[0] for target, *_ in PROBES
            if target.partition(":")[0] == f"similekit.{module}"}


def used_names(tree: ast.AST) -> set[str]:
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def unused_imports(source: str) -> set[str]:
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported |= {(alias.asname or alias.name).split(".")[0] for alias in node.names}
    return imported - used_names(tree)


@pytest.mark.parametrize("name", MODULES)
def test_no_unused_import(name):
    source = (PACKAGE / name).read_text(encoding="utf-8")
    assert unused_imports(source) - probed_names(name.removesuffix(".py")) == set()


def test_the_check_sees_an_unused_import():
    assert unused_imports("import os\nfrom json import dumps, loads\nloads('1')\n") == {
        "os", "dumps"}


def test_cli_name_table_is_bound_and_used():
    """Each name of cli._NAMES exists in its module and cli.py calls it, or the tracer does."""
    from similekit import cli

    used = used_names(ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8")))
    missing, unused = [], []
    for module, names in cli._NAMES.items():
        found = importlib.import_module(f"similekit.{module}")
        missing += [f"{module}.{name}" for name in names if not hasattr(found, name)]
        unused += [name for name in names if name not in used | probed_names("cli")]
    assert (missing, unused) == ([], [])
