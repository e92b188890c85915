"""Reading and writing the game file format.

A game file is a JSON document with three fields and no others:
``players`` (an integer), ``strategies`` (one list of labels per
player), and exactly one of ``payoffs`` or ``ranks`` (one flat list per
player, in linear-index order with player 1 most significant, so
profile (i1,...,in) sits at index ((i1*|S2|+i2)*|S3|+...)).

Every file the program writes is ``json.dumps(value, indent=2,
sort_keys=True)`` byte for byte; every file it reads goes through one decoder.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii as _quote
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


_DECODER = json.JSONDecoder(object_pairs_hook=unique_keys)


def decode_json(text: str):
    """``json.loads(text, object_pairs_hook=unique_keys)``, one decoder for all."""
    if text.startswith("\ufeff"):
        return json.loads(text)  # raises json's own byte-order-mark error
    return _DECODER.decode(text)


def game_from_payload(data: dict) -> Game:
    """The game of a decoded document; ``build_game`` checks its fields."""
    if not isinstance(data, dict):
        raise GameFormatError("game document must be a JSON object")
    check_fields(data, ("players", "strategies", "payoffs", "ranks"), "game document")
    for field in ("players", "strategies"):
        if field not in data:
            raise GameFormatError(f"missing field {field!r}")
    strategies = data["strategies"]
    if not isinstance(strategies, list) or not all(
        isinstance(s, list) for s in strategies
    ):
        raise GameFormatError("'strategies' must be a list of label lists")
    has_payoffs = "payoffs" in data
    has_ranks = "ranks" in data
    if has_payoffs == has_ranks:
        raise GameFormatError("give exactly one of 'payoffs' or 'ranks'")
    field = "payoffs" if has_payoffs else "ranks"
    tables = data[field]
    if not isinstance(tables, list) or not all(isinstance(t, list) for t in tables):
        raise GameFormatError("tables must be flat lists")
    return build_game(data["players"], strategies, **{field: tables})


def parse_game(text: str) -> Game:
    """Parse game file text; syntax errors carry line and column."""
    try:
        data = decode_json(text)
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
    except (OSError, ValueError) as exc:  # a NUL byte in the path included
        raise GameFormatError(f"{Path(path)}: {exc}") from None


def game_payload(game: Game) -> dict:
    """JSON-ready canonical document (ranks, not payoffs)."""
    return {
        "players": game.player_count,
        "strategies": [list(s) for s in game.strategies],
        "ranks": [list(r) for r in game.ranks],
    }


_SCALARS = {str: _quote, int: int.__repr__}


def _dump(value, newline: str) -> str:
    """``value`` as ``json.dumps(value, indent=2, sort_keys=True)`` writes
    it where its lines start with ``newline``."""
    kind = type(value)
    if kind is str or kind is int:
        return _SCALARS[kind](value)
    inner = newline + "  "
    if kind is dict and value and all(type(k) is str for k in value):
        items = [f"{_quote(k)}: {_dump(value[k], inner)}" for k in sorted(value)]
        return f"{{{inner}{(',' + inner).join(items)}{newline}}}"
    if (kind is list or kind is tuple) and value:
        first = type(value[0])
        if first in _SCALARS and all(type(v) is first for v in value):
            return _list(map(_SCALARS[first], value), newline)
        return _list([_dump(v, inner) for v in value], newline)
    # floats, None, booleans, empty containers, other keys, subclasses
    return json.dumps(value, indent=2, sort_keys=True).replace("\n", newline)


def _list(items, newline: str) -> str:
    """Written items as ``json.dumps`` lays out a non-empty list there."""
    inner = newline + "  "
    return f"[{inner}{(',' + inner).join(items)}{newline}]"


def dump_json(value) -> str:
    """Exactly ``json.dumps(value, indent=2, sort_keys=True) + "\n"`` (a
    cycle raises ``RecursionError``); ``json`` writes only what ``_dump`` cannot."""
    return _dump(value, "\n") + "\n"


def dump_game(game: Game) -> str:
    """``dump_json(game_payload(game))``, written from the fields: a
    game's lists are non-empty and hold labels or exact ints only."""
    ranks = _list([_list(map(int.__repr__, r), "\n    ") for r in game.ranks], "\n  ")
    labels = _list([_list(map(_quote, s), "\n    ") for s in game.strategies], "\n  ")
    return (
        f'{{\n  "players": {game.player_count},\n  "ranks": {ranks},\n'
        f'  "strategies": {labels}\n}}\n'
    )
