"""The mutant catalogue (``tests/mutants.json``) is current: each entry's
old text occurs once in its file and each test it names exists.  Whether
the tests kill the mutants is for ``python tests/run_mutants.py``."""

from run_mutants import load, stale


def test_mutant_catalogue_is_current():
    entries = load()
    assert len(entries) >= 12
    assert stale(entries) == []


def test_stale_entries_are_named(tmp_path):
    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "m.py").write_text("x = 1\nx = 1\n")
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_m.py").write_text("def test_x():\n    pass\n")
    entry = {"name": "n", "file": "src/m.py", "old": "x = 1", "new": "x = 2"}
    assert stale([{**entry, "tests": ["tests/test_m.py::test_y[a]"]}], tmp_path) == [
        "n: old text occurs 2 times in src/m.py",
        "n: no test function for tests/test_m.py::test_y[a]",
    ]
    fits = {**entry, "old": "x = 1\nx", "tests": ["tests/test_m.py::test_x"]}
    assert stale([fits], tmp_path) == []
