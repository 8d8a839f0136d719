"""Every name a similekit module imports is used in that module.

A stdlib stand-in for a linter's unused-import rule.  `__init__.py` is
exempt, since it re-exports.  The only other exceptions are the names the
benchmark tracer probes on a module (`module:name` in perfbench/tracer.py's
PROBES, loaded read-only by path as tests/test_trace_targets.py does): the
tracer patches them there, so the module must bind them.  The command line
binds its library names from a table (`cli._NAMES`) when a command runs; the
same rule holds for that table.

Modules that a process loads only to run the code that uses them (LOADED_ON_USE)
are imported inside that code: an import of one outside every function fails.

Every top-level function and class, and every method, is reached: some code in
src/similekit/ (`__init__.py` aside), in perfbench/ or a tracer probe names it.
A definition only tests call is surface no command, benchmark step or probe
runs.  Names kept on purpose are listed, each with its reason, in KEPT.
"""

import ast
import importlib
from pathlib import Path

import pytest

from test_trace_targets import PROBES

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "similekit"
PERFBENCH = PACKAGE.parent.parent / "perfbench"
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
LOADED_ON_USE = {"configparser", "dataclasses", "hashlib", "selectors", "subprocess"}


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


def eager_imports(source: str) -> list[str]:
    """'<module> at line <n>' for each import of a LOADED_ON_USE module outside every function."""
    found = []

    def visit(node):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            if isinstance(child, ast.Import):
                names = [alias.name for alias in child.names]
            elif isinstance(child, ast.ImportFrom) and not child.level:
                names = [child.module]
            else:
                names = []
            found.extend(f"{name} at line {child.lineno}" for name in names
                         if name.partition(".")[0] in LOADED_ON_USE)
            visit(child)

    visit(ast.parse(source))
    return found


@pytest.mark.parametrize("name", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_no_module_level_import_of_a_module_loaded_on_use(name):
    found = eager_imports((PACKAGE / name).read_text(encoding="utf-8"))
    assert not found, f"src/similekit/{name} imports at module level: {', '.join(found)}"


def test_the_check_sees_a_module_level_import():
    source = ("import os, subprocess\n"
              "from dataclasses import dataclass\n"
              "try:\n    import configparser\nexcept ImportError:\n    pass\n"
              "class C:\n    import selectors\n"
              "def f():\n    import hashlib\n")
    assert eager_imports(source) == ["subprocess at line 1", "dataclasses at line 2",
                                     "configparser at line 4", "selectors at line 8"]


# Definitions that nothing in src/ or perfbench/ names, kept on purpose.
KEPT = {
    "harvest.HarvestedSimile.instance": "README gives `row.instance()` as the way from the "
                                        "rows harvest_similes returns to SimileInstances",
}


def definitions(module: str, tree: ast.Module):
    """(`module.Name` or `module.Class.method`, name) for each top-level function and
    class and each method, but command functions, dunders and Checked._make: the
    command table, Python and a named tuple's _replace call those."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            continue
        members = [(node.name, node)]
        if isinstance(node, ast.ClassDef):
            members += [(f"{node.name}.{item.name}", item) for item in node.body
                        if isinstance(item, ast.FunctionDef)]
        for path, item in members:
            command = any(isinstance(d, ast.Call) and getattr(d.func, "id", "") == "_command"
                          for d in item.decorator_list)
            if not (command or item.name.startswith("__") or path == "Checked._make"):
                yield f"{module}.{path}", item.name


def names_in(tree: ast.AST) -> set[str]:
    """The identifiers a tree names, as a Name or as an Attribute."""
    return {node.id if isinstance(node, ast.Name) else node.attr for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute))}


def unreached(sources: dict[str, str], others: list[str], probes: list[str]) -> list[str]:
    """The definitions of `sources` ({module: source}) that no source, no other file
    and no probe target (`module:name` or `module:Class.method`) names."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    named = set().union(*map(names_in, trees.values()),
                        *(names_in(ast.parse(source)) for source in others))
    named |= {part for target in probes for part in target.partition(":")[2].split(".")}
    return [qualified for module, tree in trees.items()
            for qualified, name in definitions(module, tree) if name not in named]


def test_every_definition_is_reached():
    sources = {name.removesuffix(".py"): (PACKAGE / name).read_text(encoding="utf-8")
               for name in MODULES}
    others = [path.read_text(encoding="utf-8") for path in sorted(PERFBENCH.glob("*.py"))]
    found = unreached(sources, others, [target for target, *_ in PROBES])
    stray = [name for name in found if name not in KEPT]
    assert not stray, f"reached by no command, perfbench step or probe: {', '.join(stray)}"
    assert sorted(set(KEPT) - set(found)) == [], "kept on purpose, but now reached"


def test_the_check_sees_an_unreached_definition():
    source = ("class A:\n    def used(self): pass\n    def unused(self): pass\n"
              "    def __len__(self): return 0\n"
              "def helper(): pass\ndef probed(): pass\n"
              "@_command('x')\ndef cmd_x(s): pass\n"
              "def f(a): return A().used(), helper\n")
    assert unreached({"m": source}, [], ["similekit.m:probed"]) == ["m.A.unused", "m.f"]
    assert unreached({"m": source}, ["f()"], ["similekit.m:probed"]) == ["m.A.unused"]
