import hashlib
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from nashaxioms import (
    NAMED_CLASSES,
    GameClass,
    build_named_class,
    d_closure,
    dump_game,
    strict_closure,
)
from nashaxioms.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_solve_bundled_game(capsys):
    code, out, err = run_cli(capsys, "solve", "ex2.game", "--concept", "nash")
    assert code == 0
    assert out.strip() == "(U,L) (D,R)"


def test_solve_empty_set(capsys):
    code, out, _ = run_cli(capsys, "solve", "ex2", "--concept", "empty")
    assert code == 0
    assert out.strip() == "{}"


def test_solve_game_file(tmp_path, capsys, ex5):
    path = tmp_path / "g.game"
    path.write_text(dump_game(ex5), encoding="utf-8")
    code, out, _ = run_cli(capsys, "solve", str(path), "--concept", "ex5_phi")
    assert code == 0
    assert out.strip() == "(U,L) (D,L)"


def test_solve_missing_file(capsys):
    code, _, err = run_cli(capsys, "solve", "no_such.game")
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize("label", [["x"], {"x": 1}])
def test_solve_rejects_unhashable_labels(capsys, tmp_path, label):
    path = tmp_path / "g.game"
    path.write_text(
        json.dumps(
            {"players": 1, "strategies": [[label, "y"]], "payoffs": [[1, 0]]}
        ),
        encoding="utf-8",
    )
    code, out, err = run_cli(capsys, "solve", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert "non-string labels" in err


@pytest.mark.parametrize(
    "text",
    [
        pytest.param("[" * 200_000, id="deeply-nested"),
        pytest.param(
            '{"players": 1, "strategies": [["a"]], "payoffs": [[' + "9" * 5000 + "]]}",
            id="over-long-integer",
        ),
    ],
)
def test_undecodable_game_file_is_named(capsys, tmp_path, text):
    path = tmp_path / "g.game"
    path.write_text(text, encoding="utf-8")
    code, out, err = run_cli(capsys, "solve", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {path}: ") and err.count("\n") == 1


def test_unknown_game_file_field_is_named(capsys, tmp_path):
    path = tmp_path / "g.game"
    path.write_text(
        json.dumps(
            {"players": 1, "strategies": [["a", "b"]], "payoffs": [[1, 0]], "note": 1}
        ),
        encoding="utf-8",
    )
    code, out, err = run_cli(capsys, "solve", str(path))
    assert code == 2
    assert out == ""
    assert err == f"error: {path}: game document has unknown field 'note'\n"


def test_a_repeated_key_is_named(capsys, tmp_path, ex2_dclosed):
    # ``json`` keeps the last value of a repeated key; a game file or a
    # manifest that repeats one is refused instead
    path = tmp_path / "g.game"
    text = (
        '{"players": 1, "strategies": [["a", "b"]], '
        '"ranks": [[0]], "ranks": [[1, 0]]}'
    )
    path.write_text(text, encoding="utf-8")
    code, out, err = run_cli(capsys, "solve", str(path))
    assert (code, out) == (2, "")
    why = "undecodable JSON: an object repeats the key 'ranks'"
    assert err == f"error: {path}: {why}\n"
    out_dir = ex2_dclosed.write_dir(tmp_path / "cls")
    manifest = out_dir / "manifest.json"
    text = manifest.read_text(encoding="utf-8")
    repeated = text.replace('"params": {', '"params": {}, "params": {')
    manifest.write_text(repeated, encoding="utf-8")
    code, out, err = run_cli(
        capsys, "check", "--axiom", "jo", "--concept", "nash", "--class", str(out_dir)
    )
    assert (code, out) == (2, "")
    assert err == f"error: {manifest}: an object repeats the key 'params'\n"


def test_solve_domain_error(capsys):
    code, _, err = run_cli(capsys, "solve", "cube222", "--concept", "ex5_phi")
    assert code == 2
    assert "2-player" in err


def test_check_named_class(capsys, tmp_path):
    report = tmp_path / "verdict.json"
    code, out, _ = run_cli(
        capsys,
        "check",
        "--axiom",
        "mc",
        "--concept",
        "strong_nash",
        "--class",
        "ex2_dclosed",
        "--report",
        str(report),
    )
    assert code == 0
    assert "result=violated" in out
    assert '"profile": ["D", "R"]' in out
    record = json.loads(report.read_text(encoding="utf-8"))[0]
    assert record["axiom"] == "mc"
    assert record["witness"]["profile"] == ["D", "R"]


def test_closure_and_check_directory(capsys, tmp_path):
    out_dir = tmp_path / "cls"
    code, out, _ = run_cli(
        capsys, "closure", "pd", "--mode", "d", "--out", str(out_dir)
    )
    assert code == 0
    assert "9 games" in out
    code, out, _ = run_cli(
        capsys,
        "check",
        "--axiom",
        "jo",
        "--concept",
        "empty",
        "--class",
        str(out_dir),
    )
    assert code == 0
    assert "result=violated" in out
    assert '["D", "D"]' in out


def test_malformed_member_file_is_named(capsys, tmp_path, ex2_dclosed):
    out_dir = ex2_dclosed.write_dir(tmp_path / "cls")
    member = sorted(out_dir.glob("*.game"))[0]
    member.write_text("{x", encoding="utf-8")
    code, out, err = run_cli(
        capsys, "check", "--axiom", "jo", "--concept", "nash", "--class", str(out_dir)
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert member.name in err


#: The error line of ``check --class DIR`` when the first member file is
#: missing or undecodable, with ``{file}`` the file's path as the error
#: names it; recorded before ``read_dir`` stopped joining ``Path`` objects.
MEMBER_ERRORS = {
    "missing": "error: {file}: [Errno 2] No such file or directory: '{file}'\n",
    "undecodable": "error: {file}: 'utf-8' codec can't decode byte 0xff in "
    "position 0: invalid start byte\n",
}


@pytest.mark.parametrize("spec", ["./cls", "cls/", "absolute", "."])
@pytest.mark.parametrize("case", sorted(MEMBER_ERRORS))
def test_member_load_error_text_is_pinned(
    capsys, tmp_path, monkeypatch, ex2_dclosed, case, spec
):
    out_dir = ex2_dclosed.write_dir(tmp_path / "cls")
    member = sorted(out_dir.glob("*.game"))[0]
    if case == "missing":
        member.unlink()
    else:
        member.write_bytes(b"\xff{}")
    monkeypatch.chdir(out_dir if spec == "." else tmp_path)
    named = {"absolute": f"{out_dir}/", ".": ""}.get(spec, "cls/") + member.name
    if spec == "absolute":
        spec = str(out_dir)
    code, out, err = run_cli(
        capsys, "check", "--axiom", "jo", "--concept", "nash", "--class", spec
    )
    assert (code, out) == (2, "")
    assert err == MEMBER_ERRORS[case].format(file=named)


def _edit_entry(edit, k=0):
    def rewrite(manifest):
        edit(manifest["games"][k])
        return json.dumps(manifest)

    return rewrite


@pytest.mark.parametrize(
    "rewrite",
    [
        pytest.param(lambda m: "{", id="malformed-json"),
        pytest.param(lambda m: b"\xff", id="not-utf-8"),
        pytest.param(lambda m: "[]", id="list"),
        pytest.param(lambda m: "[" * 200_000, id="deeply-nested"),
        pytest.param(lambda m: json.dumps({"params": {}}), id="no-games"),
        pytest.param(lambda m: json.dumps({**m, "games": []}), id="no-members"),
        *(
            pytest.param(
                _edit_entry(lambda e, key=key: e.pop(key)),
                id=f"entry-without-{key}",
            )
            for key in ("file", "id", "provenance")
        ),
        pytest.param(
            _edit_entry(lambda e: e.update(file="../../../etc/passwd")),
            id="file-escapes-directory",
        ),
        # an existing member reached through the parent directory
        pytest.param(
            _edit_entry(lambda e: e.update(file=f"../cls/{e['file']}")),
            id="file-path-via-parent",
        ),
        pytest.param(
            _edit_entry(lambda e: e["provenance"].update(kind="bogus")),
            id="unknown-provenance-kind",
        ),
        # entry 0 is the seed, which takes no parent at all
        pytest.param(
            _edit_entry(lambda e: e["provenance"].update(parent="0" * 64), k=1),
            id="provenance-parent-not-a-member",
        ),
        pytest.param(
            _edit_entry(
                lambda e: e["provenance"].update(parnet=e["provenance"].pop("parent")),
                k=1,
            ),
            id="provenance-unknown-field",
        ),
        pytest.param(
            _edit_entry(lambda e: e["provenance"].pop("parent"), k=1),
            id="provenance-without-parent",
        ),
        pytest.param(_edit_entry(lambda e: e.update(note="x")), id="entry-unknown-field"),
        pytest.param(
            lambda m: json.dumps({**m, "version": 1}), id="manifest-unknown-field"
        ),
        pytest.param(
            lambda m: json.dumps({**m, "games": m["games"] + m["games"][:1]}),
            id="duplicate-id",
        ),
        pytest.param(
            lambda m: json.dumps(m).replace('"kind"', '"kind": "seed", "kind"', 1),
            id="provenance-repeats-a-key",
        ),
        # provenance fields of the wrong type are not reshaped by tuple()
        pytest.param(
            _edit_entry(lambda e: e["provenance"].update(parent=["x"]), k=1),
            id="provenance-parent-not-a-string",
        ),
        pytest.param(
            _edit_entry(lambda e: e["provenance"].update(subsets=["U", "LR"]), k=1),
            id="provenance-subsets-of-strings",
        ),
        pytest.param(
            _edit_entry(lambda e: e["provenance"].update(fixed="UL")),
            id="provenance-fixed-a-string",
        ),
        pytest.param(
            _edit_entry(lambda e: e["provenance"].update(keep="01")),
            id="provenance-keep-a-string",
        ),
        pytest.param(
            _edit_entry(lambda e: e["provenance"].update(keep=[True])),
            id="provenance-keep-bools",
        ),
    ],
)
def test_malformed_manifest_is_named(capsys, tmp_path, ex2_dclosed, rewrite):
    out_dir = ex2_dclosed.write_dir(tmp_path / "cls")
    manifest = out_dir / "manifest.json"
    data = rewrite(json.loads(manifest.read_text(encoding="utf-8")))
    manifest.write_bytes(data if isinstance(data, bytes) else data.encode())
    code, out, err = run_cli(
        capsys, "check", "--axiom", "jo", "--concept", "nash", "--class", str(out_dir)
    )
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {manifest}: ") and err.count("\n") == 1


@pytest.mark.parametrize("params", [[], "d", 3, None])
def test_manifest_params_that_are_not_an_object_are_named(
    capsys, tmp_path, ex2_dclosed, params
):
    out_dir = ex2_dclosed.write_dir(tmp_path / "cls")
    manifest = out_dir / "manifest.json"
    data = json.loads(manifest.read_text(encoding="utf-8"))
    manifest.write_text(json.dumps({**data, "params": params}), encoding="utf-8")
    code, out, err = run_cli(
        capsys, "check", "--axiom", "jo", "--concept", "nash", "--class", str(out_dir)
    )
    assert (code, out) == (2, "")
    assert err == f"error: {manifest}: 'params' must be an object\n"


@pytest.mark.parametrize(
    "name,before,after",
    [
        pytest.param(
            "ex2_dclosed",
            {"subsets": [["U"], ["L"]]},
            {"subsets": [["D"], ["R"]]},
            id="subsets-of-another-member",
        ),
        pytest.param("ex3_cons", {"keep": [0]}, {"keep": [1]}, id="keep-another-player"),
    ],
)
def test_record_that_does_not_fit_its_game_is_named(
    capsys, tmp_path, name, before, after
):
    out_dir = build_named_class(name).write_dir(tmp_path / "cls")
    manifest = out_dir / "manifest.json"
    data = json.loads(manifest.read_text(encoding="utf-8"))
    record = data["games"][1]["provenance"]
    assert before.items() <= record.items()
    record.update(after)
    manifest.write_text(json.dumps(data), encoding="utf-8")
    code, out, err = run_cli(
        capsys, "check", "--axiom", "iis", "--concept", "nash", "--class", str(out_dir)
    )
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {manifest}: game entry 1: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(
            ("check", "--axiom", "jo", "--concept", "nash", "--class", "pd_dclosed"),
            id="check-report",
        ),
        pytest.param(
            ("construct", "--lemma", "1b", "--game", "ex2", "--profile", "U,L"),
            id="construct-report",
        ),
        pytest.param(("reproduce",), id="reproduce-report"),
        pytest.param(("closure", "pd", "--mode", "d", "--out"), id="closure-out"),
    ],
)
def test_unwritable_output_path_exits_2(capsys, tmp_path, argv):
    blocker = tmp_path / "a-file"
    blocker.write_text("", encoding="utf-8")
    flag = () if argv[-1] == "--out" else ("--report",)
    code, out, err = run_cli(capsys, *argv, *flag, str(blocker / "x"))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(blocker / "x") in err


def test_closure_budget_error(capsys):
    code, _, err = run_cli(
        capsys, "closure", "ex2", "--mode", "d", "--budget", "3", "--out", "x"
    )
    assert code == 2
    assert "budget" in err


def test_reduction_closure_budget_error_names_the_frontier(capsys, tmp_path):
    out_dir = tmp_path / "x"
    argv = ["closure", "ex2", "--mode", "reductions", "--budget", "3"]
    code, out, err = run_cli(capsys, *argv, "--out", str(out_dir))
    assert code == 2
    assert out == ""
    assert err == "error: 9 subset specs exceed the budget of 3; frontier size 1\n"
    assert not out_dir.exists()


def test_budget_above_sys_maxsize_caps_nothing(capsys, tmp_path):
    counts = []
    for flag in ([], ["--budget", "99999999999999999999"]):
        out_dir = tmp_path / f"x{len(flag)}"
        argv = ["closure", "ex2", "--mode", "reductions", *flag, "--out", str(out_dir)]
        code, out, err = run_cli(capsys, *argv)
        assert code == 0 and err == ""
        counts.append(out.rsplit("(", 1)[1])
    assert counts == ["9 games)\n"] * 2


def test_budget_flag_below_one_is_rejected(capsys, tmp_path):
    out_dir = tmp_path / "x"
    code, out, err = run_cli(
        capsys, "closure", "ex2", "--mode", "d", "--budget", "-1", "--out", str(out_dir)
    )
    assert code == 2
    assert out == ""
    assert err == "error: --budget must be at least 1, got -1\n"
    assert not out_dir.exists()


def test_closure_reductions_mode(capsys, tmp_path):
    out_dir = tmp_path / "reds"
    code, out, _ = run_cli(
        capsys, "closure", "ex5", "--mode", "reductions", "--out", str(out_dir)
    )
    assert code == 0
    assert "21 games" in out


GOLDEN_CLOSURES = Path(__file__).parent / "golden" / "closures.json"
CLOSURE_GAMES = ("pd", "ex2", "ex5", "cube222", "chain4")
CLOSURE_MODES = ("d", "strict", "reductions")


def closure_digests(out_dir) -> dict:
    """The sha256 of every file in a closure directory, by file name."""
    return {
        f.name: hashlib.sha256(f.read_bytes()).hexdigest()
        for f in sorted(Path(out_dir).iterdir())
    }


@pytest.mark.parametrize("mode", CLOSURE_MODES)
@pytest.mark.parametrize("game", CLOSURE_GAMES)
def test_closure_directory_matches_golden(capsys, tmp_path, game, mode):
    # every file the closure command writes is byte-identical to the record
    golden = json.loads(GOLDEN_CLOSURES.read_text(encoding="utf-8"))
    out_dir = tmp_path / "cls"
    code, _, _ = run_cli(capsys, "closure", game, "--mode", mode, "--out", str(out_dir))
    assert code == 0
    assert closure_digests(out_dir) == golden[f"{game} --mode {mode}"]


def test_construct_lemma_1a(capsys):
    code, out, _ = run_cli(
        capsys,
        "construct",
        "--lemma",
        "1a",
        "--game",
        "pd",
        "--concept",
        "all_profiles",
        "--profile",
        "C,C",
    )
    assert code == 0
    assert "violated axioms: isds" in out


def test_construct_lemma_1b(capsys):
    code, out, _ = run_cli(
        capsys, "construct", "--lemma", "1b", "--game", "ex2", "--profile", "U,L"
    )
    assert code == 0
    assert "H^1 equals G" in out


def test_construct_lemma_1b_precondition(capsys):
    code, _, err = run_cli(
        capsys, "construct", "--lemma", "1b", "--game", "ex2", "--profile", "U,R"
    )
    assert code == 2
    assert "Nash" in err


def test_construct_lemma_2(capsys, tmp_path):
    out_dir = tmp_path / "chain"
    run_cli(capsys, "closure", "chain4", "--mode", "strict", "--out", str(out_dir))
    code, out, _ = run_cli(
        capsys, "construct", "--lemma", "2", "--class", str(out_dir)
    )
    assert code == 0
    assert "nash: isds=pass jo=pass" in out


def test_construct_report_record(capsys, tmp_path):
    report = tmp_path / "rec.json"
    code, _, _ = run_cli(
        capsys,
        "construct",
        "--lemma",
        "1b",
        "--game",
        "cube222",
        "--profile",
        "a,a,a",
        "--report",
        str(report),
    )
    assert code == 0
    record = json.loads(report.read_text(encoding="utf-8"))[0]
    assert record["result"] == "pass"
    assert record["profile"] == ["a", "a", "a"]
    assert {c["role"] for c in record["constructed"]} == {
        "G^1",
        "G^2",
        "G^3",
        "H^1",
        "H^2",
    }


def test_written_game_reparses_identically(tmp_path, capsys, pd):
    # round-trip through the class directory format
    out_dir = tmp_path / "cls"
    run_cli(capsys, "closure", "pd", "--mode", "strict", "--out", str(out_dir))
    from nashaxioms import GameClass

    loaded = GameClass.read_dir(out_dir)
    assert pd.canonical_id in loaded.ids()


def test_reproduce_is_stable_and_green(capsys, tmp_path):
    report = tmp_path / "rows.json"
    code1, out1, _ = run_cli(capsys, "reproduce", "--report", str(report))
    code2, out2, _ = run_cli(capsys, "reproduce")
    assert code1 == code2 == 0
    assert out1 == out2
    assert "SUMMARY" in out1
    rows = json.loads(report.read_text(encoding="utf-8"))
    assert all(r["ok"] for r in rows)


def test_cli_subprocess_entrypoint():
    result = subprocess.run(
        [sys.executable, "-m", "nashaxioms", "solve", "ex5", "--concept", "nash"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert result.stdout.strip() == "(U,L) (C,R) (D,L)"


def test_unknown_arguments_exit_2():
    result = subprocess.run(
        [sys.executable, "-m", "nashaxioms", "frobnicate"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 2


def assert_one_error(code, out, err, message):
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


def test_closure_takes_a_class_directory_as_its_seeds(capsys, tmp_path, pd):
    one, two = tmp_path / "one", tmp_path / "two"
    run_cli(capsys, "closure", "pd", "--mode", "strict", "--out", str(one))
    code, out, err = run_cli(
        capsys, "closure", str(one), "--mode", "d", "--out", str(two)
    )
    assert (code, out, err) == (0, f"wrote {two} (9 games)\n", "")
    expected = d_closure(list(strict_closure([pd])))
    assert GameClass.read_dir(two).content_id() == expected.content_id()


def test_reductions_mode_refuses_a_class_of_several_seeds(capsys, tmp_path):
    one = tmp_path / "one"
    run_cli(capsys, "closure", "pd", "--mode", "strict", "--out", str(one))
    code, out, err = run_cli(capsys, "closure", str(one), "--mode", "reductions")
    assert_one_error(code, out, err, "reductions mode takes exactly one seed game")


def test_closure_names_its_default_directory_by_content(
    capsys, tmp_path, monkeypatch, pd
):
    monkeypatch.chdir(tmp_path)
    name = f"class_{strict_closure([pd]).content_id()[:12]}"
    code, out, err = run_cli(capsys, "closure", "pd", "--mode", "strict")
    assert (code, out, err) == (0, f"wrote {name} (4 games)\n", "")
    assert GameClass.read_dir(tmp_path / name).ids() == strict_closure([pd]).ids()


def test_check_prints_the_coverage_of_a_counting_axiom(capsys):
    code, out, err = run_cli(
        capsys, "check", "--axiom", "cons", "--concept", "nash", "--class", "ex3_cons"
    )
    assert (code, err) == (0, "")
    assert out == (
        "axiom=cons concept=nash class=ex3_cons result=pass\n"
        'coverage: {"checked": 4, "skipped": 0}\n'
    )


@pytest.mark.parametrize(
    "argv, message",
    [
        pytest.param(
            ("--lemma", "1a", "--game", "pd", "--profile", "C,C"),
            "--lemma 1a needs --game, --concept and --profile",
            id="1a-without-concept",
        ),
        pytest.param(
            ("--lemma", "1b", "--game", "pd"),
            "--lemma 1b needs --game and --profile",
            id="1b-without-profile",
        ),
        pytest.param(("--lemma", "2"), "--lemma 2 needs --class", id="2-without-class"),
        pytest.param(
            ("--lemma", "1b", "--game", "ex2", "--profile", "U"),
            "profile 'U' does not name one strategy per player",
            id="profile-names-no-profile",
        ),
        pytest.param(
            ("--lemma", "2", "--class", "chain_strict", "--game", "pd",
             "--concept", "nash", "--profile", "C,C"),
            "--lemma 2 does not take --game, --concept, --profile",
            id="2-with-game-concept-profile",
        ),
        pytest.param(
            ("--lemma", "1b", "--game", "pd", "--profile", "D,D",
             "--concept", "empty", "--class", "ex4"),
            "--lemma 1b does not take --concept, --class",
            id="1b-with-concept-class",
        ),
        pytest.param(
            ("--lemma", "1a", "--game", "pd", "--concept", "nash",
             "--profile", "D,D", "--class", "ex4"),
            "--lemma 1a does not take --class",
            id="1a-with-class",
        ),
        pytest.param(
            ("--lemma", "2", "--game", "pd"),
            "--lemma 2 does not take --game",
            id="2-with-game-without-class",
        ),
    ],
)
def test_construct_argument_errors(capsys, argv, message):
    assert_one_error(*run_cli(capsys, "construct", *argv), message)


def test_check_refuses_an_unknown_class(capsys):
    code, out, err = run_cli(
        capsys, "check", "--axiom", "iis", "--concept", "nash", "--class", "nope"
    )
    assert_one_error(
        code,
        out,
        err,
        "'nope' is neither a class directory nor a named class "
        "(pd_dclosed, ex2_dclosed, ex5_dclosed, ex3_cons, ex4, ex5, "
        "cube_dclosed, chain_strict)",
    )


def test_every_class_reproduce_reports_is_a_named_class(capsys):
    """The classes of the golden ``reproduce`` output are ``NAMED_CLASSES``,
    in its order, and ``check --class`` accepts each of them by name."""
    golden = Path(__file__).parent / "golden" / "reproduce.txt"
    reported = re.findall(
        r"mc-implies-ciis +mc pass forces ciis pass on (\S+)",
        golden.read_text(encoding="utf-8"),
    )
    assert tuple(reported) == NAMED_CLASSES
    for name in NAMED_CLASSES:
        code, out, err = run_cli(
            capsys, "check", "--axiom", "jo", "--concept", "nash", "--class", name
        )
        assert (code, err) == (0, "")
        assert f" class={name} " in out


def test_a_directory_with_a_named_class_name_needs_a_path(
    capsys, tmp_path, monkeypatch
):
    """A class spec that is both a named class and a directory is refused;
    ``./NAME`` reads the directory."""
    monkeypatch.chdir(tmp_path)
    run_cli(capsys, "closure", "chain4", "--mode", "strict", "--out", "ex4")
    for argv in (
        ("check", "--axiom", "jo", "--concept", "nash", "--class", "ex4"),
        ("construct", "--lemma", "2", "--class", "ex4"),
    ):
        assert_one_error(
            *run_cli(capsys, *argv),
            "'ex4' is both a named class and a directory; "
            "write ./ex4 for the directory",
        )
    code, out, err = run_cli(
        capsys, "check", "--axiom", "jo", "--concept", "nash", "--class", "./ex4"
    )
    assert (code, out, err) == (0, "axiom=jo concept=nash class=ex4 result=pass\n", "")
    # the one-player lemma runs on the 8-game chain class, not the named
    # 2-player ``ex4``
    code, _, err = run_cli(capsys, "construct", "--lemma", "2", "--class", "./ex4")
    assert (code, err) == (0, "")


def test_a_path_with_a_bundled_game_name_needs_a_path(
    capsys, tmp_path, monkeypatch, ex2
):
    """A game spec or closure source that is both a bundled game's name,
    with or without ``.game``, and an existing file or directory is
    refused; ``./NAME`` reads the path."""
    monkeypatch.chdir(tmp_path)
    Path("pd").write_text(dump_game(ex2), encoding="utf-8")
    Path("ex5.game").mkdir()
    for spec in ("pd", "ex5.game"):
        for argv in (
            ("solve", spec),
            ("construct", "--lemma", "1b", "--game", spec, "--profile", "U,L"),
            ("closure", spec, "--mode", "d", "--out", "out"),
        ):
            assert_one_error(
                *run_cli(capsys, *argv),
                f"'{spec}' is both a bundled game and a path; "
                f"write ./{spec} for the path",
            )
    assert not Path("out").exists()
    assert run_cli(capsys, "solve", "./pd") == (0, "(U,L) (D,R)\n", "")
    code, out, err = run_cli(
        capsys, "construct", "--lemma", "1b", "--game", "./pd", "--profile", "U,L"
    )
    assert (code, err) == (0, "")
    assert out.startswith(f"game {ex2.canonical_id[:12]} profile (U,L)\n")
    assert run_cli(capsys, "closure", "./pd", "--mode", "d", "--out", "out") == (
        0,
        "wrote out (9 games)\n",
        "",
    )
    assert GameClass.read_dir("out").content_id() == d_closure([ex2]).content_id()
    # the bundled names still work where no such path exists
    assert run_cli(capsys, "solve", "pd.game") == (0, "(D,D)\n", "")


GOLDEN_REPORTS = Path(__file__).parent / "golden" / "reports"

#: Per file under ``golden/reports``, the command whose ``--report`` it holds.
REPORT_COMMANDS = {
    "check_mc_strong_nash_ex2_dclosed": (
        "check --axiom mc --concept strong_nash --class ex2_dclosed"
    ),
    "construct_1a_pd_all_profiles_CC": (
        "construct --lemma 1a --game pd --concept all_profiles --profile C,C"
    ),
    "construct_1b_cube222_aaa": (
        "construct --lemma 1b --game cube222 --profile a,a,a"
    ),
    "construct_2_chain_strict": "construct --lemma 2 --class chain_strict",
    "reproduce": "reproduce",
}


@pytest.mark.parametrize("name", REPORT_COMMANDS)
def test_report_matches_golden(capsys, tmp_path, name):
    """Every field of each kind of ``--report`` record, byte for byte."""
    report = tmp_path / "report.json"
    argv = REPORT_COMMANDS[name].split()
    code, _, err = run_cli(capsys, *argv, "--report", str(report))
    assert (code, err) == (0, "")
    assert report.read_bytes() == (GOLDEN_REPORTS / f"{name}.json").read_bytes()
