"""Fuzz the input boundary: game documents and class manifests.

Whatever JSON arrives, parsing ends in a valid ``Game``/``GameClass`` or
in ``GameFormatError``, the one error the CLI turns into a one-line
message and exit 2.  Beside these, the law that restriction composes,
which closures rely on, is checked on random games.  The runs are
derandomized, so a failure here reproduces on every run.
"""

import copy
import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from nashaxioms import (
    Game,
    GameClass,
    GameFormatError,
    build_game,
    d_closure,
    parse_game,
    restrict,
)
from nashaxioms.fixtures import fixture_game
from nashaxioms.gamefiles import game_payload

from naive_checks import naive_build_error, naive_dense, naive_game_error

FUZZ = settings(
    derandomize=True,
    database=None,
    max_examples=300,
    deadline=None,
)

JSON = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(min_value=-(10**20), max_value=10**20)
    | st.floats()
    | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=8), inner, max_size=3),
    max_leaves=6,
)

#: Valid game documents: one with payoffs, one with ranks.
DOCUMENTS = [
    {
        "players": 2,
        "strategies": [["U", "D"], ["L", "R"]],
        "payoffs": [[2, 0, 1, 1], [2, 0, 1, 1]],
    },
    game_payload(fixture_game("pd")),
]


def _paths(doc, prefix=()):
    """Every position in a JSON document, the root first."""
    yield prefix
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = enumerate(doc)
    else:
        return
    for key, value in items:
        yield from _paths(value, prefix + (key,))


@st.composite
def mutated(draw, doc):
    """``doc`` with one to three positions replaced by arbitrary JSON
    values or deleted."""
    doc = copy.deepcopy(doc)
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_paths(doc))))
        if not path:
            doc = draw(JSON)
            continue
        *head, last = path
        holder = doc
        for key in head:
            holder = holder[key]
        if draw(st.booleans()):
            del holder[last]
        else:
            holder[last] = draw(JSON)
    return doc


def _parse(text: str):
    try:
        return parse_game(text)
    except GameFormatError:
        return None


@settings(FUZZ, max_examples=150)
@given(JSON)
def test_parse_game_on_any_json_value(value):
    game = _parse(json.dumps(value))
    assert game is None or isinstance(game, Game)


@FUZZ
@given(st.sampled_from(DOCUMENTS).flatmap(mutated))
def test_parse_game_on_mutated_documents(doc):
    game = _parse(json.dumps(doc))
    assert game is None or isinstance(game, Game)


@pytest.fixture(scope="module")
def class_dir(tmp_path_factory):
    """A small class on disk, and its manifest as written."""
    path = tmp_path_factory.mktemp("fuzzclass")
    d_closure([fixture_game("ex2")]).write_dir(path)
    return path, json.loads((path / "manifest.json").read_text(encoding="utf-8"))


@settings(FUZZ, max_examples=200)
@given(data=st.data())
def test_read_dir_on_mutated_manifests(class_dir, data):
    path, manifest = class_dir
    text = json.dumps(data.draw(mutated(manifest)))
    (path / "manifest.json").write_text(text, encoding="utf-8")
    try:
        cls = GameClass.read_dir(path)
    except GameFormatError:
        return
    assert isinstance(cls, GameClass)
    assert all(isinstance(g, Game) for g in cls)


@st.composite
def games(draw):
    """A game of one to three players with up to three strategies each,
    its ranks drawn from two or three levels, so ties are common."""
    shape = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    levels = draw(st.integers(2, 3))
    total = 1
    for size in shape:
        total *= size
    tables = [
        draw(st.lists(st.integers(0, levels - 1), min_size=total, max_size=total))
        for _ in shape
    ]
    labels = [[f"p{i}s{k}" for k in range(size)] for i, size in enumerate(shape)]
    return build_game(len(shape), labels, ranks=tables)


def subsets(draw, strategies):
    """Per player, a non-empty subset of the labels, in any order."""
    return tuple(
        tuple(draw(st.lists(st.sampled_from(labels), min_size=1, unique=True)))
        for labels in strategies
    )


@FUZZ
@given(games(), st.data())
def test_restriction_composes(game, data):
    """``restrict(restrict(g, A), B) == restrict(g, B)`` for per-player
    label subsets B of A: the fact that lets a closure name each member
    by its seed and its labels."""
    outer = subsets(data.draw, game.strategies)
    inner = subsets(data.draw, outer)
    assert restrict(restrict(game, outer), inner) == restrict(game, inner)


class Rank(int):
    """An int subclass: a number, but not an int to a rank check."""


#: Table values of every kind the checks tell apart.
ODD_VALUES = [
    -1, True, False, 1.0, 2.5, math.nan, math.inf, -math.inf, 10**400,
    "1", None, [0], (1,), Rank(1),
]


@st.composite
def table_arguments(draw):
    """A player count, label lists and one table per player, each of
    which is off by a little now and then: a player count that does not
    match, an empty or repeated label list, a table of the wrong length,
    or values of mixed kinds."""

    def now_and_then():
        return draw(st.integers(0, 9)) == 0

    def off_by_one():
        return draw(st.sampled_from([1, -1])) if now_and_then() else 0

    shape = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    if now_and_then():
        shape = []
    elif now_and_then():
        shape[-1] = 0
    players = len(shape) + off_by_one()
    strategies = [[f"p{i}s{k}" for k in range(size)] for i, size in enumerate(shape)]
    if shape[0:1] >= [2] and now_and_then():
        strategies[0][1] = strategies[0][0]
    total = math.prod(shape)
    tables = []
    for _ in range(max(players + off_by_one(), 0)):
        size = max(total + off_by_one(), 0)
        # a narrow range of ints makes dense tables common
        values = st.integers(0, draw(st.integers(0, 5)))
        if draw(st.booleans()):
            values = values | st.sampled_from(ODD_VALUES)
        tables.append(draw(st.lists(values, min_size=size, max_size=size)))
    return players, strategies, tables


@settings(FUZZ, max_examples=400)
@given(table_arguments())
def test_table_checks_agree_with_naive(arguments):
    """``build_game`` and ``Game`` accept exactly the tables that a check
    value by value accepts, build the game it ranks by hand, and reject
    the others with the message that check names."""
    players, strategies, tables = arguments
    for field in ("payoffs", "ranks"):
        want = naive_build_error(players, strategies, **{field: tables})
        try:
            game = build_game(players, strategies, **{field: tables})
        except GameFormatError as exc:
            assert str(exc) == want
            continue
        assert want is None
        dense = [naive_dense(t, higher_first=field == "payoffs") for t in tables]
        expected = Game(players, strategies, dense)
        assert game == expected and game.canonical_id == expected.canonical_id
    want = naive_game_error(players, strategies, tables)
    try:
        game = Game(players, strategies, tables)
    except GameFormatError as exc:
        assert str(exc) == want
        return
    assert want is None
    rebuilt = build_game(players, strategies, ranks=tables)
    assert game == rebuilt and game.canonical_id == rebuilt.canonical_id
