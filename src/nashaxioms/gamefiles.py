"""Reading and writing the game file format.

A game file is a JSON document with three fields and no others:
``players`` (an integer), ``strategies`` (one list of labels per
player), and exactly one of ``payoffs`` or ``ranks`` (one flat list per
player, in linear-index order with player 1 most significant, so
profile (i1,...,in) sits at index ((i1*|S2|+i2)*|S3|+...)).
"""

from __future__ import annotations

import json
from pathlib import Path

from .games import Game, GameFormatError, build_game


def check_fields(data: dict, fields: tuple[str, ...], what: str) -> None:
    """Reject a decoded object holding a field outside ``fields``."""
    for key in data:
        if key not in fields:
            raise GameFormatError(f"{what} has unknown field {key!r}")


def unique_keys(pairs: list) -> dict:
    """``json``'s object hook: ``GameFormatError`` for a repeated key."""
    data = dict(pairs)
    if len(data) < len(pairs):
        keys = [k for k, _ in pairs]
        twice = max(keys, key=keys.count)
        raise GameFormatError(f"an object repeats the key {twice!r}")
    return data


def game_from_payload(data: dict) -> Game:
    """Validate a decoded game document and build the game."""
    if not isinstance(data, dict):
        raise GameFormatError("game document must be a JSON object")
    check_fields(data, ("players", "strategies", "payoffs", "ranks"), "game document")
    for field in ("players", "strategies"):
        if field not in data:
            raise GameFormatError(f"missing field {field!r}")
    players = data["players"]
    # ``type(x) is int``, since bool subclasses int (json makes no other).
    if type(players) is not int or players < 1:
        raise GameFormatError("'players' must be a positive integer")
    strategies = data["strategies"]
    if not isinstance(strategies, list) or not all(
        isinstance(s, list) for s in strategies
    ):
        raise GameFormatError("'strategies' must be a list of label lists")
    has_payoffs = "payoffs" in data
    has_ranks = "ranks" in data
    if has_payoffs == has_ranks:
        raise GameFormatError("give exactly one of 'payoffs' or 'ranks'")
    tables = data["payoffs"] if has_payoffs else data["ranks"]
    if not isinstance(tables, list) or not all(isinstance(t, list) for t in tables):
        raise GameFormatError("tables must be flat lists")
    if has_payoffs:
        return build_game(players, strategies, payoffs=tables)
    return build_game(players, strategies, ranks=tables)


def parse_game(text: str) -> Game:
    """Parse game file text; syntax errors carry line and column."""
    try:
        data = json.loads(text, object_pairs_hook=unique_keys)
    except json.JSONDecodeError as exc:
        raise GameFormatError(
            f"line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from None
    except (ValueError, RecursionError) as exc:  # long integers, nesting, repeated keys
        raise GameFormatError(f"undecodable JSON: {exc}") from None
    return game_from_payload(data)


def load_game(path: str | Path) -> Game:
    """Read and parse a game file; an error names the path."""
    try:
        with open(path, encoding="utf-8") as f:
            return parse_game(f.read())
    except (GameFormatError, OSError, UnicodeDecodeError) as exc:
        raise GameFormatError(f"{Path(path)}: {exc}") from None


def game_payload(game: Game) -> dict:
    """JSON-ready canonical document (ranks, not payoffs)."""
    return {
        "players": game.player_count,
        "strategies": [list(s) for s in game.strategies],
        "ranks": [list(r) for r in game.ranks],
    }


def dump_game(game: Game) -> str:
    return json.dumps(game_payload(game), indent=2, sort_keys=True) + "\n"
