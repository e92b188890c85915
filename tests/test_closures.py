import json
import math
import random
import sys

import pytest

from nashaxioms import (
    BudgetExceededError,
    GameClass,
    GameFormatError,
    build_game,
    build_named_class,
    d_closure,
    enumerate_reductions,
    is_reduction,
    reduce_players,
    reduction_closure,
    restrict,
    strict_closure,
)
import nashaxioms.closures as closures
from nashaxioms.closures import Provenance
from nashaxioms.theorems import audit_d_closed, audit_strictly_closed
from nashaxioms.fixtures import FIXTURES, fixture_game

from conftest import random_square_game, random_subsets, shaped_game
from naive_checks import naive_closure


# golden class sizes, frozen after the first fixpoint computation
GOLDEN_SIZES = {
    "pd_dclosed": 9,
    "ex2_dclosed": 9,
    "ex3_cons": 5,
    "ex4": 13,
    "ex5": 21,
    "ex5_dclosed": 21,
    "cube_dclosed": 27,
    "chain_strict": 8,
}


@pytest.mark.parametrize("name,size", sorted(GOLDEN_SIZES.items()))
def test_named_class_sizes(name, size):
    assert len(build_named_class(name)) == size


def test_every_named_class_has_a_golden_size():
    assert sorted(GOLDEN_SIZES) == sorted(closures.NAMED_CLASSES)


def test_named_classes_call_the_closures_through_the_module(monkeypatch):
    """A wrapper put on a closure function of the module, as the benchmark's
    tracer puts one, sees every closure the registry builds."""
    calls = []
    for fn in ("d_closure", "strict_closure", "reduction_closure"):

        def counted(seed, _fn=fn, _real=getattr(closures, fn)):
            calls.append(_fn)
            return _real(seed)

        monkeypatch.setattr(closures, fn, counted)
    for name in closures.NAMED_CLASSES:
        build_named_class(name)
    assert sorted(calls) == sorted(
        ["d_closure"] * 4 + ["strict_closure"] + ["reduction_closure"] * 2
    )


@pytest.mark.parametrize("name", closures.NAMED_CLASSES)
def test_a_named_class_reads_its_seed_file_once(bundled_reads, name):
    cls = build_named_class(name)
    assert len(bundled_reads) == 1
    # the seed is the first member, with a seed's record
    assert cls.provenance[cls.ids()[0]] == Provenance("seed")


def test_chain_strict_closure(chain_strict, chain):
    # exactly the label subsets retaining the undominated top strategy
    assert len(chain_strict) == 8
    label_sets = {g.strategies[0] for g in chain_strict}
    assert all("a" in s for s in label_sets)
    assert chain in chain_strict


def test_one_player_strict_closure_golden():
    g = build_game(1, [["a", "b", "c"]], payoffs=[[3, 2, 1]])
    cls = strict_closure([g])
    got = {m.strategies[0] for m in cls}
    assert got == {("a", "b", "c"), ("a", "b"), ("a", "c"), ("a",)}


def test_strict_closure_of_dilemma(pd):
    cls = strict_closure([pd])
    got = {m.strategies for m in cls}
    assert got == {
        (("C", "D"), ("C", "D")),
        (("D",), ("C", "D")),
        (("C", "D"), ("D",)),
        (("D",), ("D",)),
    }


def test_strict_closure_without_dominated_strategies(ex5):
    assert set(strict_closure([ex5]).ids()) == {ex5.canonical_id}


def test_d_closure_fixpoint_idempotent(ex2_dclosed):
    again = d_closure(list(ex2_dclosed))
    assert set(again.ids()) == set(ex2_dclosed.ids())


def test_d_closedness_audit(pd_dclosed, cube_dclosed):
    for cls in (pd_dclosed, cube_dclosed):
        for game in cls:
            for spec in enumerate_reductions(game, "dummy-or-quasi"):
                assert restrict(game, spec) in cls


def test_every_member_reduces_to_the_seed(ex2_dclosed, ex2):
    for game in ex2_dclosed:
        assert is_reduction(game, ex2)


def test_one_player_d_closure_excludes_plain_full():
    g = build_game(1, [["a", "b", "c"]], payoffs=[[3, 2, 1]])
    cls = d_closure([g])
    # the seed plus all 1- and 2-strategy restrictions
    assert len(cls) == 7
    sizes = sorted(m.shape[0] for m in cls)
    assert sizes == [1, 1, 1, 2, 2, 2, 3]


def test_reduction_closure_counts(ex2, ex5):
    assert len(reduction_closure(ex2)) == 9
    assert len(reduction_closure(ex5)) == 21
    single = build_game(1, [["a"]], payoffs=[[0]])
    assert len(reduction_closure(single)) == 1


def test_membership_by_id(ex2_dclosed, ex2, ex5):
    assert ex2.canonical_id in ex2_dclosed
    assert ex5.canonical_id not in ex2_dclosed
    assert "nope" not in ex2_dclosed


def test_provenance_replays(ex2_dclosed, ex3_cons, chain_strict):
    for cls in (ex2_dclosed, ex3_cons, chain_strict):
        for cid in cls.ids():
            replayed = cls.replay_provenance(cid)
            assert replayed.canonical_id == cid
        with pytest.raises(ValueError, match="'nope' is not a member"):
            cls.replay_provenance("nope")


def test_provenance_kinds(ex3_cons, ex4_class):
    kinds = {p.kind for p in ex3_cons.provenance.values()}
    assert kinds == {"seed", "player-reduction-of"}
    kinds = {p.kind for p in ex4_class.provenance.values()}
    assert kinds == {"seed", "reduction-of", "player-reduction-of"}


#: Shapes of the random seeds the closures are checked on.
_SHAPES = [
    (3,), (4,), (1, 3), (2, 2), (2, 3), (3, 3), (2, 4), (3, 4), (4, 4), (5, 3),
    (2, 2, 2), (3, 2, 2), (2, 2, 3),
]


def _seed_game(rng, shape):
    """A random game of this shape with ranks from two to four levels, so
    ties are common; games of one shape share their labels."""
    labels = [[f"p{i}s{k}" for k in range(size)] for i, size in enumerate(shape)]
    levels = rng.randint(2, 4)
    tables = [[rng.randrange(levels) for _ in range(math.prod(shape))] for _ in shape]
    return build_game(len(shape), labels, ranks=tables)


def _closure_seeds(rng, k):
    """Seed lists in turn: one game; two or three games of one shape
    (shared labels, other ranks); a game with one or two of its own
    reductions."""
    first = _seed_game(rng, rng.choice(_SHAPES))
    if k % 3 == 0:
        return [first]
    if k % 3 == 1:
        shape = first.shape
        return [first] + [_seed_game(rng, shape) for _ in range(rng.randint(1, 2))]
    return [first] + [
        restrict(first, random_subsets(rng, first)) for _ in range(rng.randint(1, 2))
    ]


def _as_pairs(cls):
    return [(cid, cls.provenance[cid].to_payload()) for cid in cls.ids()]


def reduction_closure_of(seeds, **budget):
    """``reduction_closure`` of the one game in ``seeds``."""
    return reduction_closure(*seeds, **budget)


@pytest.mark.parametrize(
    "mode,build",
    [
        ("d", d_closure),
        ("strict", strict_closure),
        ("reductions", reduction_closure_of),
    ],
)
def test_closures_match_the_naive_search(mode, build):
    """Members, insertion order and provenance agree with a search that
    restricts every spec of every member until nothing new turns up, so
    the d- and reduction closures' single pass over the seeds' specs is
    checked against the fixpoint.  ``reduction_closure`` takes one seed."""
    bundled = [fixture_game(name) for name in FIXTURES]
    seed_lists = [[g] for g in bundled] + [bundled]
    rng = random.Random(13)
    seed_lists += [_closure_seeds(rng, k) for k in range(210)]
    if mode == "reductions":
        seed_lists = [seeds for seeds in seed_lists if len(seeds) == 1]
    for seeds in seed_lists:
        assert _as_pairs(build(seeds)) == naive_closure(seeds, mode), seeds


@pytest.mark.parametrize("seed", ["cube", "ex2", "chain", "4x4"])
@pytest.mark.parametrize("build", [d_closure, strict_closure, reduction_closure_of])
def test_closure_restricts_once_per_new_member(seed, build, request, monkeypatch):
    """With one seed, each cut the closure engine makes from its plan
    (``games._cut``) is a new member."""
    if seed == "4x4":
        game = random_square_game(random.Random(4), 4)
    else:
        game = request.getfixturevalue(seed)
    calls = []
    real = closures._cut
    monkeypatch.setattr(
        closures, "_cut", lambda *args: calls.append(1) or real(*args)
    )
    cls = build([game])
    assert len(calls) == len(cls) - 1


_MODES = [
    ("d", d_closure), ("strict", strict_closure), ("reductions", reduction_closure_of)
]


def _assert_cuts_are_restrictions(cls):
    """Every member with subsets in its record equals ``restrict`` of its
    parent to them, in content and in its restriction record."""
    for cid in cls.ids():
        record = cls.provenance[cid]
        if record.subsets is None:  # a seed or a player reduction
            continue
        member, parent = cls.get(cid), cls.get(record.parent)
        expected = restrict(parent, record.subsets)
        assert member == expected, (cid, record)
        assert (
            member._restricts
            == expected._restricts
            == parent._restricts | {record.parent}
        ), (cid, record)


@pytest.mark.parametrize("name", closures.NAMED_CLASSES)
def test_named_class_members_are_their_restrictions(name):
    _assert_cuts_are_restrictions(build_named_class(name))


def test_closure_members_are_their_restrictions():
    """The engine cuts members from a plan shared per label structure; each
    of the three closures of every bundled seed and of random seeds that
    share labels within a shape is the naive search's, member by member,
    with every cut equal to ``restrict``'s.  One seed's three closures run
    in turn, and seeds of a shape share labels, so a plan read under
    another flavor, or a strict plan read for other ranks, shows."""
    rng = random.Random(33)
    seeds = [fixture_game(name) for name in FIXTURES] + [
        shaped_game(rng, shape)
        for shape in [(2, 2), (3, 3), (4, 4), (3, 3, 2)]
        for _ in range(3)
    ]
    for seed in seeds:
        for mode, build in _MODES:
            cls = build([seed])
            assert _as_pairs(cls) == naive_closure([seed], mode), (seed, mode)
            _assert_cuts_are_restrictions(cls)


def _budget_game(tag):
    """A 2x2 game whose labels no other test uses, so no plan is kept for
    them when the test starts: its d- and reduction closures each have 9
    specs and 9 members."""
    labels = [[f"{tag}U", f"{tag}D"], [f"{tag}L", f"{tag}R"]]
    return build_game(2, labels, ranks=[[0, 1, 2, 3], [3, 2, 1, 0]])


@pytest.mark.parametrize("build", [d_closure, reduction_closure_of])
def test_a_refused_budget_keeps_no_plan(build):
    """Refused, then given a larger budget, the same labels close."""
    game = _budget_game(f"refused-{build.__name__}-")
    with pytest.raises(
        BudgetExceededError,
        match="^9 subset specs exceed the budget of 8; frontier size 1$",
    ):
        build([game], budget=8)
    assert len(build([game], budget=9)) == 9


@pytest.mark.parametrize("build", [d_closure, reduction_closure_of])
def test_a_kept_plan_does_not_lift_a_smaller_budget(build):
    """Closed under one budget, the same labels still refuse a smaller one,
    with the refusal of the specs that names the frontier."""
    game = _budget_game(f"kept-{build.__name__}-")
    assert len(build([game], budget=9)) == 9
    with pytest.raises(
        BudgetExceededError,
        match="^9 subset specs exceed the budget of 8; frontier size 1$",
    ):
        build([game], budget=8)


def _count_enumerations(monkeypatch) -> list:
    """A list that grows by one on each ``enumerate_reductions`` call any
    module of the package makes through its own name for the function."""
    calls = []
    real = enumerate_reductions
    modules = [m for name, m in sys.modules.items() if name.startswith("nashaxioms")]
    for module in modules:
        if vars(module).get("enumerate_reductions") is real:
            monkeypatch.setattr(
                module,
                "enumerate_reductions",
                lambda *args, **kwargs: calls.append(1) or real(*args, **kwargs),
            )
    return calls


def test_d_closures_enumerate_specs_once_per_label_structure(monkeypatch):
    """Two 2x2 games with one set of labels, unused elsewhere: their
    d-closures enumerate the specs once between them, and their audits
    read the closures' plans, so each label structure among the members
    is enumerated once in all."""
    calls = _count_enumerations(monkeypatch)
    labels = [["countT", "countB"], ["countL", "countR"]]
    first = build_game(2, labels, ranks=[[0, 1, 2, 3], [3, 2, 1, 0]])
    second = build_game(2, labels, ranks=[[0, 0, 1, 0], [1, 0, 0, 0]])
    classes = [d_closure([first]), d_closure([second])]
    assert [len(cls) for cls in classes] == [9, 9]
    assert len(calls) == 1
    for cls in classes:
        audit_d_closed(cls)
    assert len(calls) == len({g.strategies for cls in classes for g in cls}) == 9


def test_strict_audits_read_the_closures_plans(monkeypatch):
    """A one-player chain's strict closure works out one plan per member
    content and its audit reads them; a chain with the same labels and
    other ranks gets plans of its own, and its own closure."""
    calls = _count_enumerations(monkeypatch)
    labels = [["shareA", "shareB", "shareC", "shareD"]]
    contents = set()
    for ranks in ([0, 1, 2, 3], [3, 2, 1, 0]):
        chain = build_game(1, labels, ranks=[ranks])
        cls = strict_closure([chain])
        assert _as_pairs(cls) == naive_closure([chain], "strict")
        contents.update(cls.ids())
        audit_strictly_closed(cls)
        assert len(calls) == len(contents)
    assert len(contents) == 16


def test_budget_exceeded_names_frontier(ex2):
    with pytest.raises(BudgetExceededError) as err:
        d_closure([ex2], budget=3)
    assert "frontier" in str(err.value)


def test_d_closure_of_10x10_fits_default_budget():
    # The seed and its 3,135 dummy or quasi-dummy reductions; the
    # 1,023 x 1,023 unfiltered subset specs would exceed the budget.
    g = random_square_game(random.Random(10), 10)
    assert len(d_closure([g])) == 3136


def test_budget_monotonicity(ex2):
    tight = d_closure([ex2], budget=9)
    loose = d_closure([ex2], budget=100_000)
    assert tight.ids() == loose.ids()


def test_add_rejects_foreign_parent(ex2, ex5):
    cls = GameClass()
    cls.add(ex2, Provenance("seed"))
    with pytest.raises(ValueError):
        cls.add(ex5, Provenance("reduction-of", parent="deadbeef"))


def test_add_rejects_a_parentless_reduction(ex2, pd):
    cls = GameClass()
    cls.add(ex2, Provenance("seed"))
    with pytest.raises(ValueError, match="needs 'parent'"):
        cls.add(pd, Provenance("reduction-of"))
    assert pd not in cls


#: Records for a member of a class seeded with ex2 (labels U, D and L, R):
#: the reduction to (U, L), and player 1's game with player 2 pinned at L.
_GOOD_RECORDS = {
    "reduction-of": {"subsets": (("U",), ("L",))},
    "player-reduction-of": {"keep": (0,), "fixed": ("U", "L")},
}


@pytest.mark.parametrize(
    "kind,changes,why",
    [
        pytest.param("seed", {}, "has no 'parent'", id="seed-with-parent"),
        pytest.param(
            "reduction-of", {"subsets": None}, "needs 'subsets'", id="no-subsets"
        ),
        pytest.param(
            "reduction-of", {"subsets": (("D",), ("R",))}, "subsets", id="other-subsets"
        ),
        pytest.param(
            "reduction-of", {"subsets": (("U",),)}, "subsets", id="too-few-subsets"
        ),
        pytest.param(
            "reduction-of", {"keep": (0,)}, "has no 'keep'", id="reduction-with-keep"
        ),
        pytest.param("player-reduction-of", {"keep": (0, 1)}, "keep", id="keep-all"),
        pytest.param("player-reduction-of", {"keep": ()}, "keep", id="keep-none"),
        pytest.param("player-reduction-of", {"keep": (2,)}, "keep", id="keep-too-high"),
        pytest.param("player-reduction-of", {"keep": (-1,)}, "keep", id="keep-negative"),
        pytest.param("player-reduction-of", {"keep": (0, 0)}, "keep", id="keep-repeated"),
        pytest.param(
            "player-reduction-of", {"keep": (1,)}, "strategies", id="keep-other-player"
        ),
        pytest.param(
            "player-reduction-of", {"fixed": ("U", "X")}, "fixed", id="fixed-unknown"
        ),
        pytest.param(
            "player-reduction-of", {"fixed": ("U",)}, "fixed", id="fixed-too-short"
        ),
        # fields of the wrong type are refused as the record is made
        pytest.param(
            "reduction-of", {"subsets": 5}, "'subsets' must be a list of lists",
            id="subsets-an-int",
        ),
        pytest.param(
            "player-reduction-of", {"keep": 5}, "'keep' must be a list of integers",
            id="keep-an-int",
        ),
        pytest.param(
            "reduction-of", {"parent": ["x"]}, "'parent' must be a string",
            id="parent-a-list",
        ),
    ],
)
def test_add_checks_that_a_record_fits_its_game(ex2, kind, changes, why):
    cls = GameClass()
    cls.add(ex2, Provenance("seed"))
    if kind == "player-reduction-of":
        game = reduce_players(ex2, (0,), ex2.profile_from_labels(("U", "L")))
    else:
        game = restrict(ex2, (("U",), ("L",)))
    fields = {"parent": ex2.canonical_id, **_GOOD_RECORDS.get(kind, {})}
    # a seed's record with a parent is refused as it is made
    with pytest.raises(ValueError, match=why):
        cls.add(game, Provenance(kind, **{**fields, **changes}))
    assert game not in cls
    if kind != "seed":
        assert cls.add(game, Provenance(kind, **fields))
        assert cls.replay_provenance(game.canonical_id) == game


@pytest.mark.parametrize(
    "payload,why",
    [
        pytest.param(
            {"kind": "seed", "parent": "x"},
            "has unknown field 'parent'",
            id="seed-with-parent",
        ),
        pytest.param(
            {"kind": "reduction-of", "parnet": "x", "subsets": [["U"], ["L"]]},
            "has unknown field 'parnet'",
            id="misspelled-parent",
        ),
        pytest.param(
            {"kind": "reduction-of", "subsets": [["U"], ["L"]]},
            "needs 'parent'",
            id="reduction-without-parent",
        ),
        pytest.param(
            {"kind": "player-reduction-of", "parent": "x", "keep": [0]},
            "needs 'fixed'",
            id="player-reduction-without-fixed",
        ),
    ],
)
def test_provenance_has_exactly_the_fields_of_its_kind(payload, why):
    with pytest.raises(GameFormatError, match=why):
        Provenance.from_payload(payload)


def test_read_dir_rejects_a_repeated_id(tmp_path, ex2_dclosed):
    out = ex2_dclosed.write_dir(tmp_path / "cls")
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    manifest["games"].append(manifest["games"][0])
    (out / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
    with pytest.raises(GameFormatError, match="game entry 9 repeats the id"):
        GameClass.read_dir(out)


def test_build_named_class_takes_no_budget():
    with pytest.raises(TypeError):
        build_named_class("ex5", budget=3)


def test_directory_roundtrip(tmp_path, ex2_dclosed):
    out = ex2_dclosed.write_dir(tmp_path / "cls")
    loaded = GameClass.read_dir(out)
    assert loaded.ids() == ex2_dclosed.ids()
    assert loaded.params == ex2_dclosed.params
    for cid in loaded.ids():
        assert loaded.provenance[cid] == ex2_dclosed.provenance[cid]
        assert loaded.replay_provenance(cid).canonical_id == cid


@pytest.mark.parametrize(
    "build",
    [
        lambda rng: d_closure([shaped_game(rng, (3, 2)), shaped_game(rng, (2, 3))]),
        lambda rng: strict_closure([fixture_game("chain4"), shaped_game(rng, (4,))]),
        lambda rng: reduction_closure(shaped_game(rng, (2, 2, 2))),
    ],
    ids=["d", "strict", "reductions"],
)
def test_closure_records_are_what_add_accepts(build, tmp_path):
    # A closure inserts the records it cuts without ``add``'s checks; read
    # back, every one passes them and equals its original, hash included,
    # as does the record its fields make through ``Provenance``.
    cls = build(random.Random(35))
    loaded = GameClass.read_dir(cls.write_dir(tmp_path / "cls"))
    assert loaded.ids() == cls.ids()
    kinds = set()
    for cid, record in cls.provenance.items():
        fields = {f: getattr(record, f) for f in ("parent", "subsets", "keep", "fixed")}
        for same in (loaded.provenance[cid], Provenance(record.kind, **fields)):
            assert same == record and hash(same) == hash(record)
            assert same.to_payload() == record.to_payload()
        kinds.add(record.kind)
    assert len(kinds) == 2


def test_unknown_class_name():
    with pytest.raises(ValueError):
        build_named_class("nonsense")


def test_closure_refuses_no_seeds_and_a_budget_it_outgrows(ex2, pd):
    with pytest.raises(ValueError, match="^closure needs at least one seed game$"):
        d_closure([])
    with pytest.raises(
        BudgetExceededError, match="^seeds alone exceed the budget of 1 games$"
    ):
        d_closure([ex2, pd], budget=1)
    # each seed's 9 specs fit a budget of 9, but their 18-game closure
    # does not: the first seed's 8 reductions take it to 10 games
    assert len(d_closure([ex2, pd])) == 18
    with pytest.raises(
        BudgetExceededError,
        match="^closure exceeded the budget of 9 games; frontier size 8$",
    ):
        d_closure([ex2, pd], budget=9)


def test_reduction_closure_refuses_a_budget_below_its_seed(ex2):
    with pytest.raises(
        BudgetExceededError, match="^seeds alone exceed the budget of 0 games$"
    ):
        reduction_closure(ex2, budget=0)
    with pytest.raises(
        BudgetExceededError,
        match="^9 subset specs exceed the budget of 8; frontier size 1$",
    ):
        reduction_closure(ex2, budget=8)
    assert len(reduction_closure(ex2, budget=9)) == 9


def test_read_dir_needs_a_manifest(tmp_path):
    with pytest.raises(GameFormatError) as exc:
        GameClass.read_dir(tmp_path)
    assert str(exc.value) == f"{tmp_path} has no manifest.json"
