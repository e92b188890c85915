"""Run the mutant catalogue: every mutant must make its named tests fail.

Usage, from the repository root::

    python tests/run_mutants.py

Each entry of ``tests/mutants.json`` names a file under ``src/``, an
``old`` text that occurs in it exactly once, the ``new`` text that
replaces it, and the test node ids that must catch the change.  The
runner copies ``src/`` and ``tests/`` to a temporary directory, checks
that the unmutated copy passes every named test, and then, one mutant
at a time, applies it and runs its tests there with pytest.  A mutant
whose tests all pass survives.

Exit status: 0 when every mutant is killed, 1 when some survive (they
are listed), 2 when the catalogue is stale or the unmutated tree fails.
"""

from __future__ import annotations

import ast
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CATALOGUE = ROOT / "tests" / "mutants.json"
FIELDS = {"name", "file", "old", "new", "tests"}


def load() -> list[dict]:
    return json.loads(CATALOGUE.read_text(encoding="utf-8"))


def _test_functions(path: Path) -> set[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return {n.name for n in tree.body if isinstance(n, ast.FunctionDef)}


def stale(entries: list[dict], root: Path = ROOT) -> list[str]:
    """One line per way the catalogue no longer fits the tree at ``root``:
    a malformed or repeated entry, an ``old`` text that does not occur
    exactly once in its file, or a named test function that does not
    exist."""
    problems, seen = [], set()
    for e in entries:
        name = e.get("name")
        if set(e) != FIELDS or name in seen or not e["tests"] or e["old"] == e["new"]:
            problems.append(f"{name}: malformed or repeated entry")
            continue
        seen.add(name)
        path = root / e["file"]
        if not (e["file"].startswith("src/") and path.is_file()):
            problems.append(f"{name}: {e['file']} is not a file under src/")
        elif (count := path.read_text(encoding="utf-8").count(e["old"])) != 1:
            problems.append(f"{name}: old text occurs {count} times in {e['file']}")
        for node in e["tests"]:
            file, _, rest = node.partition("::")
            func = rest.partition("[")[0]
            test_file = root / file
            if not (test_file.is_file() and func in _test_functions(test_file)):
                problems.append(f"{name}: no test function for {node}")
    return problems


def _pytest(tree: Path, nodes: list[str]) -> int:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider"]
    return subprocess.run(
        [*command, *nodes], cwd=tree, env=env, stdout=subprocess.DEVNULL
    ).returncode


def main() -> int:
    entries = load()
    problems = stale(entries)
    if problems:
        print("stale mutant catalogue:", *problems, sep="\n  ")
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp)
        for part in ("src", "tests"):
            shutil.copytree(
                ROOT / part, tree / part, ignore=shutil.ignore_patterns("__pycache__")
            )
        shutil.copy(ROOT / "pyproject.toml", tree)
        nodes = sorted({node for e in entries for node in e["tests"]})
        if _pytest(tree, nodes) != 0:
            print("the unmutated tree fails the catalogue's tests")
            return 2
        survivors = []
        for e in entries:
            path = tree / e["file"]
            original = path.read_text(encoding="utf-8")
            path.write_text(original.replace(e["old"], e["new"]), encoding="utf-8")
            try:
                code = _pytest(tree, e["tests"])
            finally:
                path.write_text(original, encoding="utf-8")
            print(f"{'killed ' if code == 1 else 'SURVIVED'} {e['name']}", flush=True)
            if code != 1:
                survivors.append(f"{e['name']} (pytest exit {code})")
    if survivors:
        print("surviving mutants:", *survivors, sep="\n  ")
        return 1
    print(f"all {len(entries)} mutants killed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
