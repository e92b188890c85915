"""Fuzz the input boundary: game documents and class manifests.

Whatever JSON arrives, parsing ends in a valid ``Game``/``GameClass`` or
in ``GameFormatError``, the one error the CLI turns into a one-line
message and exit 2.  The runs are derandomized, so a failure here
reproduces on every run.
"""

import copy
import json

import pytest
from hypothesis import given, settings, strategies as st

from nashaxioms import Game, GameClass, GameFormatError, d_closure, parse_game
from nashaxioms.fixtures import prisoners_dilemma, safe_coordination
from nashaxioms.gamefiles import game_payload

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
    game_payload(prisoners_dilemma()),
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
    d_closure([safe_coordination()]).write_dir(path)
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
