import json
import subprocess
import sys

from nashaxioms import dump_game
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


def test_closure_budget_error(capsys):
    code, _, err = run_cli(
        capsys, "closure", "ex2", "--mode", "d", "--budget", "3", "--out", "x"
    )
    assert code == 2
    assert "budget" in err


def test_budget_env_var(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("NASHAXIOMS_BUDGET", "3")
    code, _, err = run_cli(
        capsys, "closure", "ex2", "--mode", "d", "--out", str(tmp_path / "x")
    )
    assert code == 2
    assert "budget" in err
    # an explicit flag overrides the environment
    code, out, _ = run_cli(
        capsys,
        "closure",
        "ex2",
        "--mode",
        "d",
        "--budget",
        "50",
        "--out",
        str(tmp_path / "y"),
    )
    assert code == 0
    assert "9 games" in out


def test_budget_flag_below_one_is_rejected(capsys, tmp_path):
    out_dir = tmp_path / "x"
    code, out, err = run_cli(
        capsys, "closure", "ex2", "--mode", "d", "--budget", "-1", "--out", str(out_dir)
    )
    assert code == 2
    assert out == ""
    assert err == "error: --budget must be at least 1, got -1\n"
    assert not out_dir.exists()


def test_budget_env_var_below_one_is_rejected(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("NASHAXIOMS_BUDGET", "-3")
    code, out, err = run_cli(
        capsys, "check", "--axiom", "mc", "--concept", "nash", "--class", "ex5"
    )
    assert code == 2
    assert out == ""
    assert err == (
        "error: environment variable NASHAXIOMS_BUDGET must be at least 1, got -3\n"
    )


def test_closure_reductions_mode(capsys, tmp_path):
    out_dir = tmp_path / "reds"
    code, out, _ = run_cli(
        capsys, "closure", "ex5", "--mode", "reductions", "--out", str(out_dir)
    )
    assert code == 0
    assert "21 games" in out


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
