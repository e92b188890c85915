import json

import pytest

from nashaxioms import GameFormatError, build_game, dump_game, load_game, parse_game
from nashaxioms.fixtures import FIXTURES, fixture_game
from nashaxioms.gamefiles import decode_json, dump_json


def test_parse_payoffs_and_ranks_agree():
    by_payoffs = parse_game(
        '{"players": 1, "strategies": [["a", "b"]], "payoffs": [[5.5, 1.0]]}'
    )
    by_ranks = parse_game(
        '{"players": 1, "strategies": [["a", "b"]], "ranks": [[0, 7]]}'
    )
    assert by_payoffs == by_ranks


def test_roundtrip_preserves_canonical_id(tmp_path, ex5):
    path = tmp_path / "g.game"
    path.write_text(dump_game(ex5), encoding="utf-8")
    assert load_game(path).canonical_id == ex5.canonical_id


def test_parse_reports_line_numbers():
    with pytest.raises(GameFormatError) as err:
        parse_game('{\n  "players": 2,\n  "strategies" [["a"]]\n}')
    assert "line 3" in str(err.value)


def test_parse_field_errors():
    with pytest.raises(GameFormatError):
        parse_game('{"players": 2, "strategies": [["a"], ["x"]]}')
    with pytest.raises(GameFormatError):
        parse_game(
            '{"players": 1, "strategies": [["a"]], '
            '"payoffs": [[1]], "ranks": [[0]]}'
        )
    with pytest.raises(GameFormatError):
        parse_game('{"players": 0, "strategies": [], "payoffs": []}')
    with pytest.raises(GameFormatError):
        parse_game(
            '{"players": 1, "strategies": [["a", "b"]], "payoffs": [[1]]}'
        )


#: The canonical id of each bundled game, as its builder function gave it
#: before the ``data/*.game`` files became the only definition.
BUNDLED_IDS = {
    "pd": "f38f1fbbf30e3964ecb7b6d1399a4cc26e2b1be2930206148428b5a72c086461",
    "ex2": "bad6d6582037eada4ce85104eddd1bb0e70b0b73e749247e83cff9330f04e067",
    "ex5": "dd1f4b4de1d5b2140d980c52c6e59db4f5ac909b119eec233a2028f1d886b4ae",
    "cube222": "16da673ae28364f84cedf36cfef78b525e812946a7204f58fab8a44eb3db932b",
    "chain4": "2793a116d94dfc6d14f3f4c2cf15d9e7290ff68baba4de5fae0d53c4116177e9",
}


def test_bundled_games_keep_their_canonical_ids():
    assert FIXTURES == tuple(BUNDLED_IDS)
    for name, cid in BUNDLED_IDS.items():
        assert fixture_game(name).canonical_id == cid, name


def test_linear_order_is_player_one_most_significant():
    g = parse_game(
        '{"players": 2, "strategies": [["r0", "r1"], ["c0", "c1"]],'
        ' "payoffs": [[3, 2, 1, 0], [0, 1, 2, 3]]}'
    )
    # payoff 3 at (r0, c0) means rank 0 at linear index 0
    assert g.ranks[0] == (0, 1, 2, 3)
    assert g.labels_of(g.profile_at(1)) == ("r0", "c1")


def test_build_game_rejects_bad_nested_shape():
    with pytest.raises(GameFormatError):
        build_game(2, [["a", "b"], ["x"]], payoffs=[[[1], [2], [3]], [[1], [2]]])


@pytest.mark.parametrize(
    "text",
    [
        '{"players": true, "strategies": [["a"]], "payoffs": [[1]]}',
        '{"players": 1, "strategies": [["a", "b"]], "payoffs": [[true, 0]]}',
        '{"players": 1, "strategies": [["a", "b"]], "ranks": [[0, false]]}',
        '{"players": 1, "strategies": [["a", "b", "c"]], "payoffs": [[NaN, 1, NaN]]}',
        '{"players": 1, "strategies": [["a", "b"]], "payoffs": [[Infinity, 1]]}',
        '{"players": 1, "strategies": [["a", "b"]], "payoffs": [[-Infinity, 1]]}',
    ],
    ids=[
        "players-bool",
        "payoff-bool",
        "rank-bool",
        "payoff-nan",
        "payoff-inf",
        "payoff-minus-inf",
    ],
)
def test_parse_rejects_values_that_are_not_numbers(text):
    with pytest.raises(GameFormatError):
        parse_game(text)


def test_load_names_an_unreadable_file(tmp_path):
    path = tmp_path / "g.game"
    with pytest.raises(GameFormatError, match="g.game: .*No such file"):
        load_game(path)
    path.write_bytes(b"\xff")
    with pytest.raises(GameFormatError, match="g.game: 'utf-8' codec"):
        load_game(path)
    path = tmp_path / "a\0b.game"
    with pytest.raises(GameFormatError) as err:
        load_game(path)
    assert str(err.value) == f"{path}: embedded null byte"


def test_the_shared_decoder_keeps_no_state():
    # every file is read through one decoder object; a refused document
    # leaves nothing behind that changes how the next one reads
    repeated = '{"a": {"b": 1, "b": 2}}'
    for _ in range(2):
        with pytest.raises(GameFormatError, match="repeats the key 'b'"):
            decode_json(repeated)
        with pytest.raises(json.JSONDecodeError) as err:
            decode_json('{"a": [1, 2}')
        assert (err.value.lineno, err.value.colno) == (1, 12)
        text = '{"a": [1, {"b": "x"}], "b": {"b": 1}, "c": "x"}'
        assert decode_json(text) == json.loads(text)
        bom = "\N{ZERO WIDTH NO-BREAK SPACE}"
        with pytest.raises(json.JSONDecodeError, match="Unexpected UTF-8 BOM"):
            decode_json(bom + text)


class Label(str):
    """A str subclass: ``json`` writes it as a string."""


#: Values whose text a writer that is not ``json`` could get wrong: lists
#: of mixed types, booleans among ints, subclasses, keys that are not
#: strings or do not sort, empty and nested containers, escapes.
TRICKY_VALUES = {
    "int-then-str": [1, "a"],
    "str-then-int": ["a", 1],
    "int-then-bool": [1, True],
    "bool-then-int": [True, 1],
    "int-then-float": [1, 1.0],
    "str-then-none": ["a", None],
    "subclass-then-str": [Label("x"), "y"],
    "str-then-subclass": ["y", Label("x")],
    "empty-containers": [[], {}, ()],
    "tuples": (1, ("x", 2.5)),
    "nested-dicts": {"b": 1, "a": [2, "x"], "c": {"": ()}},
    "nan-and-infinities": {"k": [float("nan"), float("inf"), -float("inf")]},
    "int-keys": {2: [1], 1: {}},
    "keys-that-do-not-sort": {1: "a", "1": "b"},
    "subclass-key": {Label("k"): 1, "j": 2},
    "escapes": ["\u00e9\n\"\\", "\x00\x7f", "\U0001d11e"],
    "empty-string": "",
    "negative-zero": -0.0,
    "none": None,
    "nested-empty-list": [[[]]],
    "not-writable": [{1, 2}],
}


@pytest.mark.parametrize("value", TRICKY_VALUES.values(), ids=TRICKY_VALUES)
def test_dump_json_writes_what_json_dumps_writes(value):
    try:
        expected = json.dumps(value, indent=2, sort_keys=True) + "\n"
    except TypeError:
        with pytest.raises(TypeError):
            dump_json(value)
    else:
        assert dump_json(value) == expected
