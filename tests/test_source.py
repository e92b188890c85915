"""Static checks on the package source that a deletion leaves nothing
behind: no module imports a name it no longer uses, and no private
module-level function, class or constant outlives its last reader."""

import ast
from pathlib import Path

import pytest

import nashaxioms

PACKAGE = Path(nashaxioms.__file__).parent
MODULES = sorted(PACKAGE.glob("*.py"))


def imported_names(tree: ast.Module) -> set[str]:
    """The names the module's imports bind, ``__future__`` aside."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            out.update(a.asname or a.name for a in node.names)
    return out


def used_names(tree: ast.Module) -> set[str]:
    """The names the module reads, attribute names included; a name that
    is only bound (``x = ...``) is not read."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
    return out


def unused_imports(source: str) -> set[str]:
    tree = ast.parse(source)
    return imported_names(tree) - used_names(tree)


def private_definitions(tree: ast.Module) -> set[str]:
    """The module-level functions, classes and names bound by assignment
    whose names start with ``_`` (dunder names aside)."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return {n for n in names if n.startswith("_") and not n.startswith("__")}


def unreferenced_privates(sources: dict[str, str]) -> set[tuple[str, str]]:
    """(module, name) for each private definition that no module reads;
    a definition's own name is not a read of it, but a recursive call
    inside it is not told apart from an outside one."""
    trees = {name: ast.parse(src) for name, src in sources.items()}
    referenced = set().union(*map(used_names, trees.values()))
    return {
        (module, name)
        for module, tree in trees.items()
        for name in private_definitions(tree) - referenced
    }


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.name != "__init__.py"], ids=lambda p: p.name
)
def test_module_uses_every_name_it_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == set()


def test_every_private_definition_is_referenced():
    sources = {p.name: p.read_text(encoding="utf-8") for p in MODULES}
    assert unreferenced_privates(sources) == set()


def engine_reads(source: str) -> set[str]:
    """What of the engine's Nash route a module imports or reads: the
    ``concepts`` module, the fact memo's reader and the best-response
    table."""
    tree = ast.parse(source)
    modules = {
        (node.module or "").rpartition(".")[2]
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
    }
    names = imported_names(tree) | used_names(tree)
    return ({"concepts"} & (modules | names)) | (
        {"_fact", "_best_responses"} & names
    )


def test_oracle_is_independent_of_the_engine():
    """``verify_theorem1`` compares Nash with the brute-force oracle,
    which is a second route only while it shares nothing with ``nash``."""
    oracle = (PACKAGE / "oracles.py").read_text(encoding="utf-8")
    assert engine_reads(oracle) == set()
    assert engine_reads("from .concepts import eval_concept\n") == {"concepts"}
    assert engine_reads("from . import concepts\n") == {"concepts"}
    assert engine_reads(
        "from .games import _fact, _best_responses\n"
        "def f(g):\n"
        "    return _best_responses(g)\n"
    ) == {"_fact", "_best_responses"}


def test_checks_catch_what_a_deletion_leaves_behind():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "from .games import Game, _gone as gone, restrict\n"
        "def f(g: Game) -> None:\n"
        "    return restrict(g, [])\n"
        "def _orphan():\n"
        "    pass\n"
        "class _Used:\n"
        "    pass\n"
        "def _caller():\n"
        "    return _Used()\n"
        "_ORPHAN = 1\n"
        "_READ: dict = {}\n"
        "_READ[0] = f\n"
    )
    assert unused_imports(source) == {"os", "gone"}
    assert unreferenced_privates({"m.py": source}) == {
        ("m.py", "_orphan"),
        ("m.py", "_caller"),
        ("m.py", "_ORPHAN"),
    }
