"""Command-line interface.

Subcommands: ``solve`` evaluates a concept on a game file, ``closure``
builds a class directory, ``check`` runs one axiom checker, ``construct``
runs the proof gadgets, and ``reproduce`` runs the whole expectation
suite.  Game arguments accept a file path or the name of a bundled
game (pd, ex2, ex5, cube222, chain4, with or without ``.game``); class
arguments accept a class directory or a named class.  A name that is
also an existing path is refused; ``./NAME`` reads the path.

Exit codes: 0 on success, 1 when ``reproduce`` finds a failed
expectation (or a construct report fails), 2 on parse or domain errors
and when a ``--report`` or ``--out`` path cannot be written.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .axioms import AXIOM_IDS, check_axiom
from .closures import (
    NAMED_CLASSES,
    GameClass,
    build_named_class,
    d_closure,
    reduction_closure,
    strict_closure,
)
from .concepts import CONCEPT_IDS, ConceptDomainError, eval_concept
from .fixtures import FIXTURES, fixture_game
from .games import BudgetExceededError, DEFAULT_BUDGET, Game, GameFormatError
from .gamefiles import dump_json, load_game
from .suite import render, run_suite
from .theorems import (
    lemma1a_witness,
    lemma1b_construct,
    verify_one_player_lemma,
)

def _budget(flag: int | None) -> int:
    """The closure budget: ``--budget``, else the default.  A budget
    below 1 cannot admit even the seed games."""
    if flag is None:
        return DEFAULT_BUDGET
    if flag < 1:
        raise GameFormatError(f"--budget must be at least 1, got {flag}")
    return flag


def _resolve_game(spec: str) -> Game:
    path, key = Path(spec), spec.removesuffix(".game")
    if key in FIXTURES:
        if path.exists():
            raise GameFormatError(
                f"{spec!r} is both a bundled game and a path; "
                f"write ./{spec} for the path"
            )
        return fixture_game(key)
    if path.is_file():
        return load_game(path)
    raise GameFormatError(
        f"{spec!r} is neither a game file nor a bundled game name "
        f"({', '.join(FIXTURES)})"
    )


def _resolve_class(spec: str) -> tuple[str, GameClass]:
    path = Path(spec)
    if spec in NAMED_CLASSES:
        if path.is_dir():
            raise GameFormatError(
                f"{spec!r} is both a named class and a directory; "
                f"write ./{spec} for the directory"
            )
        return spec, build_named_class(spec)
    if path.is_dir():
        return path.name, GameClass.read_dir(path)
    raise GameFormatError(
        f"{spec!r} is neither a class directory nor a named class "
        f"({', '.join(NAMED_CLASSES)})"
    )


def _format_profiles(game: Game, profiles) -> str:
    ordered = sorted(profiles)
    if not ordered:
        return "{}"
    return " ".join(
        "(" + ",".join(game.labels_of(p)) + ")" for p in ordered
    )


def _parse_profile_arg(game: Game, raw: str):
    labels = tuple(part.strip() for part in raw.split(","))
    profile = game.profile_from_labels(labels)
    if profile is None:
        raise GameFormatError(
            f"profile {raw!r} does not name one strategy per player"
        )
    return profile


def _write_report(path: str | None, records: list[dict]) -> None:
    """Write the ``--report`` JSON, if asked for.  Commands call this
    before printing anything, so a failed write leaves no half-done run."""
    if path:
        Path(path).write_text(dump_json(records), encoding="utf-8")


def _cmd_solve(args) -> int:
    game = _resolve_game(args.game)
    profiles = eval_concept(args.concept, game)
    print(_format_profiles(game, profiles))
    return 0


def _cmd_closure(args) -> int:
    budget = _budget(args.budget)
    source = Path(args.source)
    if source.is_dir() and args.source.removesuffix(".game") not in FIXTURES:
        seeds = list(GameClass.read_dir(source))
    else:
        seeds = [_resolve_game(args.source)]
    if args.mode == "d":
        cls = d_closure(seeds, budget=budget)
    elif args.mode == "strict":
        cls = strict_closure(seeds, budget=budget)
    else:
        if len(seeds) != 1:
            raise GameFormatError(
                "reductions mode takes exactly one seed game"
            )
        cls = reduction_closure(seeds[0], budget=budget)
    out = Path(args.out) if args.out else Path(f"class_{cls.content_id()[:12]}")
    cls.write_dir(out)
    print(f"wrote {out} ({len(cls)} games)")
    return 0


def _cmd_check(args) -> int:
    class_name, cls = _resolve_class(args.class_spec)
    verdict = check_axiom(args.axiom, args.concept, cls)
    record = verdict.to_record(class_name)
    _write_report(args.report, [record])
    print(
        f"axiom={record['axiom']} concept={record['concept']} "
        f"class={record['class']} result={record['result']}"
    )
    if verdict.witness is not None:
        print("witness: " + json.dumps(verdict.witness, sort_keys=True))
    if verdict.coverage is not None:
        print("coverage: " + json.dumps(verdict.coverage, sort_keys=True))
    return 0


def _cmd_construct(args) -> int:
    if args.lemma == "2":
        flags = {
            "--game": args.game, "--concept": args.concept, "--profile": args.profile
        }
    else:
        flags = {"--concept": args.concept if args.lemma == "1b" else None}
        flags["--class"] = args.class_spec
    unread = [flag for flag, value in flags.items() if value is not None]
    if unread:
        raise GameFormatError(
            f"--lemma {args.lemma} does not take {', '.join(unread)}"
        )
    if args.lemma in ("1a", "1b"):
        if not (args.game and args.profile) or (
            args.lemma == "1a" and not args.concept
        ):
            needed = "--game and --profile"
            if args.lemma == "1a":
                needed = "--game, --concept and --profile"
            raise GameFormatError(f"--lemma {args.lemma} needs {needed}")
        game = _resolve_game(args.game)
        profile = _parse_profile_arg(game, args.profile)
        if args.lemma == "1a":
            report = lemma1a_witness(args.concept, game, profile)
        else:
            report = lemma1b_construct(game, profile)
        record = report.to_record()
        ok = report.all_passed
    else:  # lemma 2
        if not args.class_spec:
            raise GameFormatError("--lemma 2 needs --class")
        class_name, cls = _resolve_class(args.class_spec)
        report = verify_one_player_lemma(cls)
        record = report.to_record(class_name)
        ok = report.all_consistent
    _write_report(args.report, [record])
    print("\n".join(report.lines()))
    return 0 if ok else 1


def _cmd_reproduce(args) -> int:
    rows = run_suite()
    _write_report(args.report, [r.to_record() for r in rows])
    sys.stdout.write(render(rows))
    return 0 if all(r.ok for r in rows) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nashaxioms",
        description="Finite ordinal games: solution concepts, closures, "
        "and exhaustive axiom checking.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="evaluate a solution concept on a game")
    p.add_argument("game", help="game file or bundled game name")
    p.add_argument(
        "--concept",
        default="nash",
        choices=CONCEPT_IDS,
        help="solution concept id (default: %(default)s)",
    )
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("closure", help="build a game class directory")
    p.add_argument("source", help="seed game file/name, or a class directory")
    p.add_argument(
        "--mode",
        required=True,
        choices=("d", "strict", "reductions"),
        help="closure mode",
    )
    p.add_argument("--budget", type=int, default=None, help="max class size")
    p.add_argument("--out", default=None, help="output directory")
    p.set_defaults(func=_cmd_closure)

    p = sub.add_parser("check", help="run one axiom checker")
    p.add_argument("--axiom", required=True, choices=AXIOM_IDS)
    p.add_argument("--concept", required=True, choices=CONCEPT_IDS)
    p.add_argument(
        "--class",
        dest="class_spec",
        required=True,
        help="class directory or named class",
    )
    p.add_argument("--report", default=None, help="write a JSON record here")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("construct", help="run a proof construction")
    p.add_argument("--lemma", required=True, choices=("1a", "1b", "2"))
    p.add_argument("--game", default=None, help="game file or bundled name")
    p.add_argument("--concept", default=None, choices=CONCEPT_IDS)
    p.add_argument("--profile", default=None, help="comma-separated labels")
    p.add_argument("--class", dest="class_spec", default=None)
    p.add_argument("--report", default=None, help="write a JSON record here")
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("reproduce", help="run the full expectation suite")
    p.add_argument("--report", default=None, help="write JSON records here")
    p.set_defaults(func=_cmd_reproduce)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (
        GameFormatError,
        BudgetExceededError,
        ConceptDomainError,
        ValueError,
        OSError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
