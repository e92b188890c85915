import itertools
import hashlib
import json
import math
import random
from collections import Counter
from pathlib import Path

import pytest

from nashaxioms import (
    AXIOM_IDS,
    AxiomVerdict,
    ConceptDomainError,
    Game,
    GameClass,
    Provenance,
    build_game,
    check_axiom,
    d_closure,
    enumerate_reductions,
    eval_concept,
    reduce_players,
    reduction_closure,
    replay_witness,
    restrict,
    strict_closure,
)
from nashaxioms.axioms import _AXIOMS
from nashaxioms.concepts import CONCEPT_IDS
from nashaxioms.fixtures import fixture_game

from conftest import add_player_reductions, shaped_game
from naive_checks import (
    naive_check,
    naive_coverage,
    naive_is_reduction,
    naive_mc,
    naive_mc_witnesses,
)


def strategy_sets(cls, cid):
    return cls.get(cid).strategies


# ----------------------------------------------------------------------
# contraction: solutions survive into reductions
# ----------------------------------------------------------------------


def test_iis_nash_passes(ex2_dclosed):
    assert check_axiom("iis", "nash", ex2_dclosed).passed


def test_iis_indifference_closure_witness(ex2_dclosed, ex2):
    verdict = check_axiom("iis", "ne_indifference_closure", ex2_dclosed)
    assert verdict.violated
    w = verdict.witness
    assert w["game"] == ex2.canonical_id
    assert w["profile"] == ["D", "L"]
    assert strategy_sets(ex2_dclosed, w["reduction"]) == (("U", "D"), ("L",))
    assert replay_witness(verdict, ex2_dclosed)


def test_iis_empty_passes(pd_dclosed):
    assert check_axiom("iis", "empty", pd_dclosed).passed


# ----------------------------------------------------------------------
# expansion: merges keep common solutions
# ----------------------------------------------------------------------


def test_mc_strong_nash_witness(ex2_dclosed, ex2):
    verdict = check_axiom("mc", "strong_nash", ex2_dclosed)
    assert verdict.violated
    w = verdict.witness
    assert w["game"] == ex2.canonical_id
    assert w["profile"] == ["D", "R"]
    pair = {
        strategy_sets(ex2_dclosed, w["reduction_a"]),
        strategy_sets(ex2_dclosed, w["reduction_b"]),
    }
    assert pair == {(("U", "D"), ("R",)), (("D",), ("L", "R"))}
    assert replay_witness(verdict, ex2_dclosed)


def test_mc_nash_passes(ex5_dclosed):
    assert check_axiom("mc", "nash", ex5_dclosed).passed


def test_mc_ex5_concept_fails_on_reduction_class(ex5_class):
    verdict = check_axiom("mc", "ex5_phi", ex5_class)
    assert verdict.violated
    assert replay_witness(verdict, ex5_class)


# ----------------------------------------------------------------------
# invariance across strict reductions
# ----------------------------------------------------------------------


def test_isds_all_profiles_fails(pd_dclosed):
    verdict = check_axiom("isds", "all_profiles", pd_dclosed)
    assert verdict.violated
    assert verdict.witness["only_in_game"]
    assert replay_witness(verdict, pd_dclosed)


def test_isds_nash_passes(pd_dclosed):
    assert check_axiom("isds", "nash", pd_dclosed).passed


def test_isds_empty_passes(pd_dclosed):
    assert check_axiom("isds", "empty", pd_dclosed).passed


def test_isds_evaluates_concepts_on_strict_reductions_only(ex3_cons):
    # ex5_phi is undefined on the one-player members of ex3_cons, none of
    # which is a strict reduction of a member
    assert check_axiom("isds", "ex5_phi", ex3_cons).passed
    with pytest.raises(ConceptDomainError):
        for g in ex3_cons:
            eval_concept("ex5_phi", g)


# ----------------------------------------------------------------------
# joint optimality
# ----------------------------------------------------------------------


def test_jo_empty_witness(pd_dclosed, pd):
    verdict = check_axiom("jo", "empty", pd_dclosed)
    assert verdict.violated
    assert verdict.witness["game"] == pd.canonical_id
    assert verdict.witness["profile"] == ["D", "D"]
    assert replay_witness(verdict, pd_dclosed)


def test_jo_all_profiles_passes(pd_dclosed, ex2_dclosed):
    assert check_axiom("jo", "all_profiles", pd_dclosed).passed
    assert check_axiom("jo", "all_profiles", ex2_dclosed).passed


def test_jo_nash_passes(ex5_dclosed):
    assert check_axiom("jo", "nash", ex5_dclosed).passed


# ----------------------------------------------------------------------
# player-reduction and proper-reduction axioms
# ----------------------------------------------------------------------


def test_cons_parity_witness(ex3_cons, ex2):
    verdict = check_axiom("cons", "parity_ne", ex3_cons)
    assert verdict.violated
    w = verdict.witness
    assert w["game"] == ex2.canonical_id
    assert w["profile"] == ["U", "L"]
    assert w["players_kept"] == [0]
    assert verdict.coverage["checked"] >= 1
    assert replay_witness(verdict, ex3_cons)


def test_cocons_example4(ex4_class):
    bad = check_axiom("cocons", "ex4_phi", ex4_class)
    assert bad.violated
    assert replay_witness(bad, ex4_class)
    assert check_axiom("mc", "ex4_phi", ex4_class).passed
    good = check_axiom("cocons", "ex4_phi_prime", ex4_class)
    assert good.passed
    assert check_axiom("mc", "ex4_phi_prime", ex4_class).violated


def test_ciis_example5(ex5_class):
    assert check_axiom("ciis", "ex5_phi", ex5_class).passed


def test_cons_coverage_counts_skips(ex2_dclosed):
    # the d-closure holds no player-reduced games, so nothing is checkable
    verdict = check_axiom("cons", "nash", ex2_dclosed)
    assert verdict.passed
    assert verdict.coverage["checked"] == 0
    assert verdict.coverage["skipped"] > 0


def test_ciis_vacuous_profiles_are_flagged(ex3_cons):
    verdict = check_axiom("ciis", "empty", ex3_cons)
    assert verdict.passed
    assert verdict.coverage["vacuous"] > 0


@pytest.mark.parametrize(
    "axiom,concept,tamper",
    [
        pytest.param(
            "cons",
            "parity_ne",
            lambda w: {**w, "restricted_profile": ["nope"]},
            id="cons-restricted_profile",
        ),
        pytest.param(
            "cons",
            "parity_ne",
            lambda w: {**w, "players_kept": []},
            id="cons-no_players_kept",
        ),
        pytest.param(
            "cons",
            "parity_ne",
            lambda w: {**w, "game": ["x"]},
            id="cons-game_not_a_string",
        ),
        pytest.param(
            "cocons",
            "strong_nash",
            lambda w: {**w, "subgroups": w["subgroups"][:1]},
            id="cocons-subgroup_dropped",
        ),
        pytest.param("jo", "empty", lambda w: ["x"], id="jo-witness_not_a_dict"),
    ],
)
def test_tampered_witness_does_not_replay(axiom, concept, tamper, ex3_cons):
    verdict = check_axiom(axiom, concept, ex3_cons)
    assert replay_witness(verdict, ex3_cons)
    tampered = tamper(verdict.witness)
    assert tampered != verdict.witness
    forged = AxiomVerdict(axiom, concept, "violated", witness=tampered)
    assert replay_witness(forged, ex3_cons) is False


def test_unknown_ids(ex2_dclosed):
    with pytest.raises(ValueError):
        check_axiom("nope", "nash", ex2_dclosed)
    # axiom ids are exact: no case folding
    with pytest.raises(ValueError, match="unknown axiom 'IIS'"):
        check_axiom("IIS", "nash", ex2_dclosed)


@pytest.mark.parametrize("axiom", AXIOM_IDS)
@pytest.mark.parametrize("seed", ["chain4", "ex2"])
def test_unknown_concept_is_rejected_before_the_scan(axiom, seed):
    # cons and cocons skip one-player games, and isds parents with no
    # strict reduction, without evaluating the concept: the id must be
    # checked before any scan starts
    cls = strict_closure([fixture_game(seed)])
    with pytest.raises(ValueError, match="^unknown solution concept id: 'bogus'$"):
        check_axiom(axiom, "bogus", cls)


def test_domain_error_names_offending_game(ex4_class):
    with pytest.raises(ConceptDomainError) as err:
        check_axiom("mc", "ex5_phi", ex4_class)
    assert "[game " in str(err.value)


# ----------------------------------------------------------------------
# cross-checks against the naive double-loop scans
# ----------------------------------------------------------------------

SCAN_CASES = [
    ("iis", "nash"),
    ("iis", "ne_indifference_closure"),
    ("iis", "strong_nash"),
    ("mc", "nash"),
    ("mc", "strong_nash"),
    ("mc", "ne_indifference_closure"),
    ("isds", "nash"),
    ("isds", "all_profiles"),
    ("jo", "nash"),
    ("jo", "empty"),
    ("cons", "nash"),
    ("cons", "parity_ne"),
    ("cocons", "nash"),
    ("ciis", "nash"),
    ("ciis", "empty"),
]


@pytest.mark.parametrize("axiom,concept", SCAN_CASES)
def test_checkers_agree_with_naive_scans(
    axiom, concept, pd_dclosed, ex2_dclosed, ex3_cons, ex5_class, chain_strict
):
    for cls in (pd_dclosed, ex2_dclosed, ex3_cons, ex5_class, chain_strict):
        got = check_axiom(axiom, concept, cls).result
        want = naive_check(axiom, concept, list(cls))
        assert got == want, f"{axiom}/{concept} disagrees on a class"


def _random_reduction_closure(shape, seed):
    """The reduction closure of a random game."""
    return reduction_closure(shaped_game(random.Random(seed), shape))


@pytest.fixture(scope="module")
def closure_4x3():
    cls = _random_reduction_closure((4, 3), seed=0)
    assert len(cls) == 105
    return cls


@pytest.fixture(scope="module")
def closure_3x3():
    return _random_reduction_closure((3, 3), seed=0)


# naive mc costs about 0.7 s per concept on the 49-game 3x3 closure and
# grows with the cube of the class size, so mc runs on the smaller class
@pytest.mark.parametrize(
    "axiom,concept,closure",
    [
        ("iis", "nash", "closure_4x3"),
        ("iis", "ne_indifference_closure", "closure_4x3"),
        ("isds", "nash", "closure_4x3"),
        ("isds", "all_profiles", "closure_4x3"),
        ("ciis", "nash", "closure_4x3"),
        ("ciis", "ex5_phi", "closure_4x3"),
        ("mc", "nash", "closure_3x3"),
        ("mc", "strong_nash", "closure_3x3"),
        ("mc", "ex5_phi", "closure_3x3"),
    ],
)
def test_reduction_scans_agree_with_naive_on_random_closures(
    axiom, concept, closure, request
):
    cls = request.getfixturevalue(closure)
    got = check_axiom(axiom, concept, cls).result
    assert got == naive_check(axiom, concept, list(cls))


@pytest.fixture(scope="module")
def closure_4x3x2():
    cls = _random_reduction_closure((4, 3, 2), seed=0)
    assert len(cls) == 315
    return cls


# naive mc takes about 3 s on this class when it passes, and returns at
# the first violation otherwise
@pytest.mark.parametrize(
    "concept,want",
    [
        ("nash", "pass"),
        ("strong_nash", "violated"),
        ("ne_indifference_closure", "violated"),
    ],
)
def test_mc_agrees_with_naive_on_a_315_game_closure(concept, want, closure_4x3x2):
    assert check_axiom("mc", concept, closure_4x3x2).result == want
    assert naive_mc(concept, closure_4x3x2) == want


def _mc_stream(concept, cls) -> list[tuple]:
    """The full ``mc`` scan's witnesses, in scan order, in the form
    ``naive_mc_witnesses`` gives them."""
    found, _ = _all_witnesses("mc", concept, cls)
    return [
        (w["game"], w["reduction_a"], w["reduction_b"], tuple(w["profile"]))
        for w in found
    ]


# naive mc takes about 1.5 s per concept on the 370-game class
@pytest.mark.parametrize(
    "concept", ["strong_nash", "ex4_phi_prime", "ex5_phi", "parity_ne"]
)
def test_mc_witnesses_agree_with_naive_on_the_player_reduced_class(
    concept, player_reduced_3x3x2
):
    """Every witness of the full ``mc`` scan on the 3x3x2 player-reduced
    class, whose two- and one-player members share labels.  ``ex4_phi_prime``
    and ``ex5_phi`` are defined on at most two players: on the whole class
    both sides stop at the same domain error, and the witnesses are
    compared on the class of its two-player members."""
    cls = player_reduced_3x3x2
    if concept in ("ex4_phi_prime", "ex5_phi"):
        with pytest.raises(ConceptDomainError) as got:
            _mc_stream(concept, cls)
        with pytest.raises(ConceptDomainError) as want:
            list(naive_mc_witnesses(concept, cls))
        assert str(got.value).startswith(str(want.value))
        cls = GameClass()
        for g in player_reduced_3x3x2:
            if g.player_count == 2:
                cls.add(g, Provenance("seed"))
    stream = _mc_stream(concept, cls)
    assert len(set(stream)) == len(stream)
    assert set(stream) == set(naive_mc_witnesses(concept, cls))
    assert bool(stream) == (concept != "parity_ne")


def _payoff_game(rng: random.Random, shape):
    """A game of this shape with payoffs from ``range(5)`` and labels
    ``a1``, ``b1``, ..., drawn as the ``scan`` benchmark draws its seeds."""
    labels = [
        [f"{chr(ord('a') + i)}{k + 1}" for k in range(size)]
        for i, size in enumerate(shape)
    ]
    total = math.prod(shape)
    payoffs = [[rng.randrange(5) for _ in range(total)] for _ in shape]
    return build_game(len(shape), labels, payoffs=payoffs)


def test_mc_searches_no_partner_for_nash(monkeypatch):
    """``mc`` searches partners (``having``) only for the solvers of a
    profile whose solvers together cover the parent's labels.  For Nash a
    profitable deviation's label is missing from every solver of a
    non-equilibrium, so no search is made: on the seeded 961-game 5x5
    reduction closure, and on both classes of the ``scan`` benchmark at
    seed 0."""
    rng = random.Random("scan:0")
    scan_4x4 = reduction_closure(_payoff_game(rng, (4, 4)))
    scan_3x3x2 = reduction_closure(_payoff_game(rng, (3, 3, 2)))
    add_player_reductions(scan_3x3x2, list(scan_3x3x2))
    closure_961 = reduction_closure(_payoff_game(random.Random(1), (5, 5)))
    assert [len(scan_4x4), len(scan_3x3x2), len(closure_961)] == [225, 355, 961]
    for cls in (closure_961, scan_4x4, scan_3x3x2):
        for parent in cls:
            cls.reduction_bits(parent)
        searches = []
        with monkeypatch.context() as patch:
            real = GameClass.having
            patch.setattr(
                GameClass,
                "having",
                lambda self, mask, among: searches.append(1) or real(self, mask, among),
            )
            assert _mc_stream("nash", cls) == []
        assert searches == []


def _fits_without_reducing(cls) -> bool:
    """Some member's labels fit inside a member it is not a reduction
    of, so a scan that tested labels alone would misjudge the pair."""
    return any(
        g.player_count == h.player_count
        and all(set(a) <= set(b) for a, b in zip(g.strategies, h.strategies))
        and not naive_is_reduction(g, h)
        for g in cls
        for h in cls
    )


@pytest.fixture(scope="module")
def strict_closures():
    """Strict closures of random 2-player games that have a strictly
    dominated strategy, so each class holds a strict reduction."""
    rng = random.Random(5)
    out = []
    while len(out) < 12:
        shape = (rng.randint(2, 4), rng.randint(2, 3))
        cls = strict_closure([shaped_game(rng, shape)])
        if len(cls) > 1:
            out.append(cls)
    return out


def test_isds_agrees_with_naive_on_strict_closures(strict_closures):
    seen = Counter()
    for concept in CONCEPT_IDS:
        for cls in strict_closures:
            got = check_axiom("isds", concept, cls).result
            assert got == naive_check("isds", concept, list(cls)), concept
            seen[got] += 1
    assert seen["pass"] > 10 and seen["violated"] > 10


@pytest.fixture(scope="module")
def two_root_dclosure():
    """The d-closure of two random 3x2 games with the same labels."""
    rng = random.Random(1)
    cls = d_closure([shaped_game(rng, (3, 2)), shaped_game(rng, (3, 2))])
    assert len(cls) == 36 and _fits_without_reducing(cls)
    return cls


@pytest.fixture(scope="module")
def player_reduction_class():
    """A random 3x2 game's reduction closure, plus each game it reduces
    to by pinning one player and that game's reductions."""
    root = shaped_game(random.Random(0), (3, 2))
    cls = reduction_closure(root)
    for keep in ((0,), (1,)):
        for s in root.profiles():
            game = reduce_players(root, keep, s)
            cls.add(
                game,
                Provenance(
                    "player-reduction-of",
                    parent=root.canonical_id,
                    keep=keep,
                    fixed=root.labels_of(s),
                ),
            )
            for labels in enumerate_reductions(game):
                cls.add(
                    restrict(game, labels),
                    Provenance(
                        "reduction-of", parent=game.canonical_id, subsets=labels
                    ),
                )
    assert len(cls) == 36 and _fits_without_reducing(cls)
    return cls


def _coverage(verdict):
    """A verdict's result, coverage and witness without its clause, in
    the form ``naive_coverage`` gives them."""
    witness = verdict.witness
    if witness is not None:
        witness = {k: v for k, v in witness.items() if k != "clause"}
    return verdict.result, verdict.coverage, witness


@pytest.mark.parametrize("closure", ["two_root_dclosure", "player_reduction_class"])
@pytest.mark.parametrize("concept", ["nash", "strong_nash", "ne_indifference_closure"])
@pytest.mark.parametrize("axiom", ["iis", "mc", "isds", "ciis", "cons", "cocons"])
def test_reduction_scans_agree_with_naive_on_several_roots(
    axiom, concept, closure, request
):
    cls = request.getfixturevalue(closure)
    got = check_axiom(axiom, concept, cls)
    if axiom in ("cons", "cocons"):
        assert _coverage(got) == naive_coverage(axiom, concept, cls)
    else:
        assert got.result == naive_check(axiom, concept, list(cls))


#: The player subgroups of a three-player game, in ascending bitmask order.
_KEEP_3 = ((0,), (1,), (0, 1), (2,), (0, 2), (1, 2))


@pytest.fixture(scope="module")
def player_reduced_3x3x2():
    """A random 3x3x2 game's reduction closure plus every player reduction
    of each member, the shape of the benchmark's player-reduced class."""
    cls = _random_reduction_closure((3, 3, 2), seed=3)
    return add_player_reductions(cls, list(cls))


@pytest.fixture(scope="module")
def closure_5x5():
    """A random 5x5 game's reduction closure: two-player games only, so
    no player subgroup of any member is available."""
    cls = _random_reduction_closure((5, 5), seed=6)
    assert len(cls) == 961
    return cls


@pytest.fixture(scope="module")
def partly_player_reduced():
    """A random 3x3x2 game's reduction closure plus the player reductions
    of its seed alone: a member with a player who keeps all strategies
    has an available subgroup, and the others have none."""
    cls = _random_reduction_closure((3, 3, 2), seed=7)
    add_player_reductions(cls, [next(iter(cls))])
    present = {g.strategies for g in cls}
    available = [
        any(
            tuple(g.strategies[i] for i in keep) in present
            for size in (1, 2)
            for keep in itertools.combinations(range(3), size)
        )
        for g in cls
        if g.player_count == 3
    ]
    assert any(available) and not all(available)
    return cls


@pytest.fixture(scope="module")
def seeded_player_reduction():
    """A random 3x3x2 game's reduction closure plus every player reduction
    of each member, where the first player reduction of the seed entered
    as a seed of its own."""
    cls = _random_reduction_closure((3, 3, 2), seed=8)
    seed = next(iter(cls))
    cls.add(reduce_players(seed, (0,), next(seed.profiles())), Provenance("seed"))
    add_player_reductions(cls, list(cls))
    assert [p.kind for p in cls.provenance.values()].count("seed") == 2
    return cls


@pytest.fixture(scope="module")
def sparsely_player_reduced():
    """A random 3x3x2 game's reduction closure plus a seeded 30% of the
    distinct games its members reduce to by pinning players: of the
    player-reduced games a profile has available, all, some or none are
    present, so cocons stops early on some profiles and finds nothing on
    others."""
    cls = _random_reduction_closure((3, 3, 2), seed=9)
    rng = random.Random(9)
    chosen = {}
    for member in list(cls):
        for keep in _KEEP_3:
            for s in member.profiles():
                game = reduce_players(member, keep, s)
                if chosen.setdefault(game.canonical_id, rng.random() < 0.3):
                    cls.add(
                        game,
                        Provenance(
                            "player-reduction-of",
                            parent=member.canonical_id,
                            keep=keep,
                            fixed=member.labels_of(s),
                        ),
                    )
    strategies = {g.strategies for g in cls}
    seen = set()
    for g in cls:
        if g.player_count < 3:
            continue
        for s in g.profiles():
            found = [
                reduce_players(g, keep, s) in cls
                for keep in _KEEP_3
                if tuple(g.strategies[i] for i in keep) in strategies
            ]
            if found:
                seen.add((any(found), all(found)))
    assert seen == {(False, False), (True, False), (True, True)}
    return cls


def _seed_of(cls, cid):
    """The seed a member's provenance chain starts from."""
    while cls.provenance[cid].kind != "seed":
        cid = cls.provenance[cid].parent
    return cid


@pytest.fixture(scope="module")
def three_root_dclosure():
    """The d-closure of three random 4x4 games with the same labels: its
    members restrict three roots, and small members of one root often
    equal restrictions of another."""
    rng = random.Random(2)
    cls = d_closure([shaped_game(rng, (4, 4)) for _ in range(3)])
    assert len(cls) >= 300
    # a top's ``is_reduction`` calls take in candidates that restrict
    # another seed, so the class must hold such candidates of both answers
    across = Counter(
        naive_is_reduction(g, parent)
        for parent in cls
        for g in cls
        if _seed_of(cls, g.canonical_id) != _seed_of(cls, parent.canonical_id)
        and all(set(a) <= set(b) for a, b in zip(g.strategies, parent.strategies))
    )
    assert across[True] > 0 and across[False] > 0
    return cls


@pytest.mark.parametrize("closure", ["closure_5x5", "player_reduced_3x3x2"])
def test_games_built_from_checked_parts_equal_checked_games(closure, request):
    """``restrict`` and ``reduce_players`` build their games without
    ``Game``'s checks; each one must be the game those checks build from
    the same fields, with the same attributes set at construction.  The
    one attribute more is the record of the games a ``restrict``-built
    game restricts, and each of those must be a member that the naive
    check confirms."""
    lazy = ("canonical_id", "positions")
    cls = request.getfixturevalue(closure)
    for g in cls:
        checked = Game(g.player_count, g.strategies, g.ranks)
        built = {k: v for k, v in vars(g).items() if k not in lazy}
        record = built.pop("_restricts", None)
        restricted = cls.provenance[g.canonical_id].kind == "reduction-of"
        assert (record is not None) == restricted
        if restricted:
            parents = [cls.get(cid) for cid in record]
            assert parents and None not in parents
            assert all(naive_is_reduction(g, parent) for parent in parents)
        assert built == vars(checked)
        assert checked == g and checked.canonical_id == g.canonical_id
        assert (checked.shape, checked.num_profiles) == (g.shape, g.num_profiles)


@pytest.mark.parametrize(
    "closure",
    [
        "closure_5x5",
        "player_reduced_3x3x2",
        "partly_player_reduced",
        "sparsely_player_reduced",
        "seeded_player_reduction",
    ],
)
@pytest.mark.parametrize("concept", ["nash", "strong_nash", "ne_indifference_closure"])
@pytest.mark.parametrize("axiom", ["cons", "cocons"])
def test_player_reduction_coverage_agrees_with_naive(axiom, concept, closure, request):
    """Result, counts and witness of cons and cocons, where no member,
    every member or only some members have an available subgroup, where
    only some player-reduced games are present (so cocons stops early on
    some profiles and finds none on others), and where a player-reduced
    member entered as a seed."""
    cls = request.getfixturevalue(closure)
    assert _coverage(check_axiom(axiom, concept, cls)) == naive_coverage(
        axiom, concept, cls
    )


@pytest.fixture(scope="module")
def lying_class():
    """A random 3x2 game's reduction closure and its player reductions,
    plus three members whose records pass ``add``'s checks but do not
    replay: a reduction of the seed to two rows and player 1's game with
    player 2 pinned at its first strategy, both with other ranks, and a
    reduction to a label the seed does not have."""
    cls = _random_reduction_closure((3, 2), seed=4)
    seed = next(iter(cls))
    add_player_reductions(cls, [seed])
    pinned = seed.profile_from_labels(("p0s0", "p1s0"))
    records = [
        (
            restrict(seed, (("p0s0", "p0s1"), ("p1s0", "p1s1"))),
            {"kind": "reduction-of", "subsets": (("p0s0", "p0s1"), ("p1s0", "p1s1"))},
        ),
        (
            reduce_players(seed, (0,), pinned),
            {"kind": "player-reduction-of", "keep": (0,), "fixed": ("p0s0", "p1s0")},
        ),
    ]
    for honest, record in records:
        # the first rank tables on the honest game's labels that no member has
        liar = next(
            game
            for tables in itertools.product(
                itertools.permutations(range(honest.num_profiles)),
                repeat=honest.player_count,
            )
            if (game := Game(honest.player_count, honest.strategies, tables))
            not in cls
        )
        assert not naive_is_reduction(liar, seed)
        assert cls.add(liar, Provenance(parent=seed.canonical_id, **record))
        with pytest.raises(ValueError, match="different game"):
            cls.replay_provenance(liar.canonical_id)
    stray = Game(2, (("p0s0", "stray"), ("p1s0",)), ((0, 1), (0, 0)))
    assert cls.add(
        stray,
        Provenance("reduction-of", parent=seed.canonical_id, subsets=stray.strategies),
    )
    return cls


@pytest.mark.parametrize(
    "closure",
    [
        "two_root_dclosure",
        "player_reduction_class",
        "player_reduced_3x3x2",
        "lying_class",
        "three_root_dclosure",
    ],
)
def test_reductions_agree_with_naive_on_every_pair(closure, request):
    from nashaxioms.concepts import clear_cache

    cls = request.getfixturevalue(closure)
    clear_cache()
    for parent in cls:
        want = tuple(g for g in cls if naive_is_reduction(g, parent))
        assert cls.reductions(parent) == want, parent


@pytest.mark.parametrize("axiom", AXIOM_IDS)
def test_player_reduction_scans_build_no_game(
    axiom, two_root_dclosure, player_reduced_3x3x2, monkeypatch
):
    """``cons`` and ``cocons`` find a player-reduced member by the content
    of its pinned slice, and the reduction relation compares the rank
    tables of members, so no scan constructs a game."""
    import nashaxioms.games as games
    from nashaxioms.concepts import clear_cache

    built = []
    real = games._assemble
    monkeypatch.setattr(
        games, "_assemble", lambda *args: built.append(1) or real(*args)
    )
    clear_cache()
    if axiom in ("cons", "cocons"):
        # two-player games only: no one-player reduction is a member
        verdict = check_axiom(axiom, "nash", two_root_dclosure)
        assert verdict.coverage["checked"] == 0
    verdict = check_axiom(axiom, "nash", player_reduced_3x3x2)
    assert verdict.passed
    assert verdict.coverage is None or verdict.coverage["checked"] > 0
    assert not built


@pytest.mark.parametrize("shape", [(4, 4), (5, 3)])
def test_reductions_of_non_member_parents_agree_with_naive(shape):
    """A parent that is not a member has no top, so each candidate is
    checked for it alone: every member of two seeds' reduction closures
    outside the seeds' d-closure, queried as a parent."""
    rng = random.Random(4)
    seeds = [shaped_game(rng, shape) for _ in range(2)]
    cls = d_closure(seeds)
    outside = [h for seed in seeds for h in reduction_closure(seed) if h not in cls]
    assert len(outside) > 200
    for parent in outside:
        want = tuple(g for g in cls if naive_is_reduction(g, parent))
        assert cls.reductions(parent) == want, parent


@pytest.mark.parametrize(
    "closure",
    [
        "lying_class",
        "player_reduced_3x3x2",
        "seeded_player_reduction",
        "three_root_dclosure",
    ],
)
def test_replay_provenance_agrees_with_naive(closure, request):
    """``replay_provenance`` returns the member itself exactly when a
    naive replay of its record regenerates it, and raises otherwise."""
    from naive_checks import _naive_reduce_players

    cls = request.getfixturevalue(closure)
    liars = 0
    for cid in cls.ids():
        member, prov = cls.get(cid), cls.provenance[cid]
        parent = cls.get(prov.parent)
        if prov.kind == "seed":
            honest = True
        elif prov.kind == "player-reduction-of":
            fixed = parent.profile_from_labels(prov.fixed)
            honest = _naive_reduce_players(parent, prov.keep, fixed) == member
        else:
            honest = naive_is_reduction(member, parent)
        if honest:
            assert cls.replay_provenance(cid) is member
        else:
            liars += 1
            with pytest.raises(
                ValueError, match=f"replay for {cid[:12]} produced a different game"
            ):
                cls.replay_provenance(cid)
    assert liars == (3 if closure == "lying_class" else 0)


@pytest.mark.parametrize("axiom", ["cons", "cocons"])
def test_scans_find_a_player_reduced_member_added_after_a_scan(axiom):
    full = _random_reduction_closure((3, 2), seed=5)
    add_player_reductions(full, list(full))
    # all members but the last, a player reduction that the scans look up
    cls = GameClass()
    for cid in full.ids()[:-1]:
        cls.add(full.get(cid), full.provenance[cid])
    short = check_axiom(axiom, "nash", cls)
    assert check_axiom(axiom, "nash", cls) == short
    last = full.ids()[-1]
    cls.add(full.get(last), full.provenance[last])
    grown = check_axiom(axiom, "nash", cls)
    assert grown.coverage["checked"] > short.coverage["checked"]
    assert _coverage(grown) == naive_coverage(axiom, "nash", full)


def test_pinned_slices_agree_with_naive(player_reduced_3x3x2, sparsely_player_reduced):
    """Each pinned slice is the game ``reduce_players`` builds, and the
    column-indexed lookup of ``cons`` and ``cocons`` gives, for every
    (game, keep, profile), that game's member, or None when it is not a
    member: with every player reduction present, and with some absent."""
    from nashaxioms.axioms import _player_reduced, _subgroups
    from nashaxioms.games import _pinned_slice
    from naive_checks import _naive_reduce_players

    for cls in (player_reduced_3x3x2, sparsely_player_reduced):
        slices, members = 0, set()
        for g in cls:
            n = g.player_count
            keeps = [
                tuple(i for i in range(n) if mask >> i & 1)
                for mask in range(1, (1 << n) - 1)
            ]
            subgroups = _subgroups(cls, g)
            for p, s in enumerate(g.profiles()):
                found = list(_player_reduced(cls, g, subgroups, p))
                assert [keep for keep, _ in found] == keeps
                for keep, member in found:
                    want = _naive_reduce_players(g, keep, s)
                    assert _pinned_slice(g, keep, s) == (want.strategies, want.ranks)
                    assert member is cls.get(want.canonical_id)
                    members.add(member)
                    slices += 1
        assert slices > 1000 and len(members - {None}) > 50
        assert (None in members) == (cls is sparsely_player_reduced)


def test_scans_see_members_added_after_a_scan(ex2):
    full = reduction_closure(ex2)
    grown = GameClass()
    grown.add(ex2, full.provenance[ex2.canonical_id])
    assert grown.reductions(ex2) == (ex2,)
    assert check_axiom("iis", "ne_indifference_closure", grown).passed
    for cid in full.ids()[1:]:
        grown.add(full.get(cid), full.provenance[cid])
    assert grown.reductions(ex2) == tuple(full)
    for axiom in ("iis", "mc", "isds", "ciis"):
        for concept in ("ne_indifference_closure", "strong_nash"):
            again = check_axiom(axiom, concept, grown)
            fresh = check_axiom(axiom, concept, reduction_closure(ex2))
            assert again == fresh, (axiom, concept)
    assert not check_axiom("iis", "ne_indifference_closure", grown).passed


def test_solution_labels_are_worked_out_once_and_follow_add(ex2, monkeypatch):
    from nashaxioms.concepts import clear_cache

    clear_cache()
    made = Counter()
    real = Game.label_set
    monkeypatch.setattr(
        Game,
        "label_set",
        lambda g, profiles: made.update([g.canonical_id]) or real(g, profiles),
    )
    scans = ("iis", "mc", "isds", "ciis")
    cls = GameClass()
    cls.add(ex2, Provenance("seed"))
    first = [check_axiom(a, "ne_indifference_closure", cls) for a in scans]
    assert all(v.passed for v in first)
    assert made == {ex2.canonical_id: 1}
    assert [check_axiom(a, "ne_indifference_closure", cls) for a in scans] == first
    assert made == {ex2.canonical_id: 1}
    # the reduction that loses the solution (D, L) of ex2
    member = restrict(ex2, (("U", "D"), ("L",)))
    cls.add(member, Provenance("reduction-of", ex2.canonical_id, member.strategies))
    verdict = check_axiom("iis", "ne_indifference_closure", cls)
    assert verdict.violated and verdict.witness["reduction"] == member.canonical_id
    # ``add`` dropped the class's facts, but a label set is a fact of the
    # game's content, so the seed's survives and only the new member's is made
    assert made == {ex2.canonical_id: 1, member.canonical_id: 1}


def test_clear_cache_drops_the_reduction_relation(ex2, monkeypatch):
    import nashaxioms.closures as closures
    from nashaxioms.concepts import clear_cache

    cls = reduction_closure(ex2)
    calls = []
    real = closures.is_reduction
    monkeypatch.setattr(
        closures, "is_reduction", lambda g, h: calls.append(1) or real(g, h)
    )
    first = check_axiom("iis", "nash", cls)
    cold = len(calls)
    assert cold > 0
    assert check_axiom("iis", "nash", cls) == first
    assert len(calls) == cold
    clear_cache()
    assert check_axiom("iis", "nash", cls) == first
    assert len(calls) == 2 * cold


def _all_witnesses(axiom, concept, cls):
    """Every witness of the axiom's full scan, in scan order, and the
    scan's coverage tally."""
    tally = Counter()
    found = list(_AXIOMS[axiom][0](concept, cls, cls, tally))
    return found, tally


def _as_set(witnesses):
    """Witnesses compared across insertion orders: ``ciis`` lists the
    containing reductions in class order."""
    return {
        json.dumps(
            {k: sorted(v) if k == "reductions" else v for k, v in w.items()},
            sort_keys=True,
        )
        for w in witnesses
    }


@pytest.mark.parametrize(
    "closure", ["closure_4x3", "two_root_dclosure", "player_reduction_class"]
)
def test_insertion_order_does_not_change_reductions_or_witnesses(
    closure, request, monkeypatch
):
    import nashaxioms.closures as closures
    from nashaxioms.concepts import clear_cache

    cls = request.getfixturevalue(closure)
    members = list(cls)[::-1]
    reordered = GameClass()
    reordered.add(members[0], Provenance("seed"))
    # a relation exists before the other members and their labels arrive
    assert reordered.reductions(members[0]) == (members[0],)
    for game in members[1:]:
        reordered.add(game, Provenance("seed"))
    # one label-bit registry: every game has the same mask in both classes
    assert all(cls.mask_of(g) == reordered.mask_of(g) for g in members)
    calls = []
    real = closures.is_reduction
    monkeypatch.setattr(
        closures, "is_reduction", lambda g, h: calls.append(1) or real(g, h)
    )
    cold = []
    for each in (cls, reordered):
        clear_cache()
        calls.clear()
        for parent in members:
            each.reductions(parent)
        cold.append(len(calls))
    # the relation costs the same whatever records the members carry
    assert cold[0] == cold[1]
    for parent in members:
        assert set(cls.reductions(parent)) == set(reordered.reductions(parent))
    witnesses = 0
    for axiom in ("iis", "mc", "ciis"):
        for concept in ("nash", "strong_nash", "ne_indifference_closure"):
            found, tally = _all_witnesses(axiom, concept, cls)
            again, again_tally = _all_witnesses(axiom, concept, reordered)
            assert (_as_set(found), tally) == (_as_set(again), again_tally)
            assert (
                check_axiom(axiom, concept, cls).result
                == check_axiom(axiom, concept, reordered).result
            )
            witnesses += len(found)
    assert witnesses > 0


def test_one_label_registry_serves_every_pass(player_reduction_class):
    """Masks come from one process-wide registry, which ``clear_cache``
    leaves: a scan after it reads the same, every member's recorded mask
    is the registry's, and a repeated pass hands out no new bit."""
    from nashaxioms import games
    from nashaxioms.concepts import clear_cache

    cls = player_reduction_class

    def scan_pass():
        clear_cache()
        return [
            (check_axiom(axiom, concept, cls), _all_witnesses(axiom, concept, cls))
            for axiom in AXIOM_IDS
            for concept in ("nash", "strong_nash", "ne_indifference_closure")
        ]

    first = scan_pass()
    assert any(verdict.violated for verdict, _ in first)
    size = len(games._label_bits)
    assert scan_pass() == first
    assert len(games._label_bits) == size
    for member in cls:
        assert cls.mask_of(member) == games.label_mask(member.strategies)


def test_reductions_of_non_members_leave_later_scans_unchanged(player_reduction_class):
    cls = GameClass()
    for cid in player_reduction_class.ids():
        cls.add(player_reduction_class.get(cid), player_reduction_class.provenance[cid])
    root = next(iter(cls))
    # the root with one more row: every two-player member is its reduction
    wider = build_game(
        2,
        [root.strategies[0] + ("extra",), root.strategies[1]],
        ranks=[list(table) + [0] * root.shape[1] for table in root.ranks],
    )
    fresh = build_game(2, [["x", "y"], ["z"]], ranks=[[0, 1], [1, 0]])
    assert wider not in cls and fresh not in cls
    assert root in cls.reductions(wider)
    assert cls.reductions(fresh) == ()
    for axiom in AXIOM_IDS:
        for concept in ("nash", "strong_nash"):
            assert _all_witnesses(axiom, concept, cls) == _all_witnesses(
                axiom, concept, player_reduction_class
            )


def _count_label_masks(monkeypatch, count) -> None:
    """Make every module that calls ``label_mask`` call ``count`` first."""
    import nashaxioms.axioms as axioms
    import nashaxioms.closures as closures

    for module in (axioms, closures):
        monkeypatch.setattr(
            module, "label_mask", lambda s, real=module.label_mask: count() or real(s)
        )


def test_iis_and_mc_read_the_recorded_member_masks(closure_4x3, monkeypatch):
    edges = sum(len(closure_4x3.reductions(p)) for p in closure_4x3)
    calls = []
    _count_label_masks(monkeypatch, lambda: calls.append(1))
    for axiom in ("iis", "mc"):
        _all_witnesses(axiom, "nash", closure_4x3)
    assert len(calls) < edges


@pytest.mark.parametrize("closure", ["ex2_dclosed", "closure_4x4"])
def test_concept_free_facts_are_shared_across_concepts(closure, request, monkeypatch):
    import nashaxioms.closures as closures
    from nashaxioms.concepts import clear_cache

    cls = request.getfixturevalue(closure)
    calls = Counter()
    is_reduction = closures.is_reduction
    monkeypatch.setattr(
        closures,
        "is_reduction",
        lambda g, h: calls.update(["is_reduction"]) or is_reduction(g, h),
    )
    _count_label_masks(monkeypatch, lambda: calls.update(["label_mask"]))

    def cold_run(concepts):
        clear_cache()
        calls.clear()
        for concept in concepts:
            for axiom in ("iis", "mc", "isds", "ciis"):
                try:
                    _all_witnesses(axiom, concept, cls)
                except ConceptDomainError:
                    pass
        return dict(calls)

    alone = cold_run(["nash"])
    assert alone["is_reduction"] > 0 and alone["label_mask"] > 0
    # the relation, the cells' masks and the undominated masks are worked
    # out for the first concept and read by the other eight
    assert cold_run(CONCEPT_IDS) == alone


def test_mc_implies_ciis_on_all_classes(
    pd_dclosed, ex2_dclosed, ex3_cons, ex4_class, ex5_class, cube_dclosed, chain_strict
):
    classes = (
        pd_dclosed,
        ex2_dclosed,
        ex3_cons,
        ex4_class,
        ex5_class,
        cube_dclosed,
        chain_strict,
    )
    for cls in classes:
        for concept in CONCEPT_IDS:
            try:
                mc = check_axiom("mc", concept, cls)
                ciis = check_axiom("ciis", concept, cls)
            except ConceptDomainError:
                continue
            if mc.passed:
                assert ciis.passed


def test_all_violated_verdicts_replay(
    pd_dclosed, ex2_dclosed, ex3_cons, ex4_class, ex5_class, chain_strict
):
    axioms = ("iis", "mc", "isds", "jo", "cons", "cocons", "ciis")
    classes = (pd_dclosed, ex2_dclosed, ex3_cons, ex4_class, ex5_class, chain_strict)
    replayed = 0
    for cls in classes:
        for concept in CONCEPT_IDS:
            for axiom in axioms:
                try:
                    verdict = check_axiom(axiom, concept, cls)
                except ConceptDomainError:
                    continue
                if verdict.violated:
                    assert replay_witness(verdict, cls), (
                        axiom,
                        concept,
                    )
                    replayed += 1
    assert replayed > 10


# ----------------------------------------------------------------------
# every verdict on the bundled classes, witnesses included
# ----------------------------------------------------------------------

GOLDEN_VERDICTS = Path(__file__).parent / "golden" / "verdicts.jsonl"

GOLDEN_CLASSES = (
    "pd_dclosed",
    "ex2_dclosed",
    "ex3_cons",
    "ex4",
    "ex5",
    "ex5_dclosed",
    "cube_dclosed",
    "chain_strict",
)


def verdict_lines(classes) -> str:
    """One sorted-key JSON line per (class, axiom, concept) check; a
    domain error is recorded with its message."""
    lines = []
    for name, cls in classes.items():
        for axiom in AXIOM_IDS:
            for concept in CONCEPT_IDS:
                try:
                    record = check_axiom(axiom, concept, cls).to_record(name)
                except ConceptDomainError as exc:
                    record = {
                        "axiom": axiom,
                        "concept": concept,
                        "class": name,
                        "error": f"ConceptDomainError: {exc}",
                    }
                lines.append(json.dumps(record, sort_keys=True) + "\n")
    return "".join(lines)


def test_verdicts_match_golden(request):
    classes = {
        name: request.getfixturevalue(
            {"ex4": "ex4_class", "ex5": "ex5_class"}.get(name, name)
        )
        for name in GOLDEN_CLASSES
    }
    assert verdict_lines(classes) == GOLDEN_VERDICTS.read_text(encoding="utf-8")


# ----------------------------------------------------------------------
# every verdict on classes of the benchmark's size, witnesses included
# ----------------------------------------------------------------------

GOLDEN_SCAN_WITNESSES = Path(__file__).parent / "golden" / "scan_witnesses.jsonl"


@pytest.fixture(scope="module")
def closure_4x4():
    cls = _random_reduction_closure((4, 4), seed=0)
    assert len(cls) == 225
    return cls


def test_witnesses_at_benchmark_size_match_golden(closure_4x4, player_reduced_3x3x2):
    """The first witness and the coverage of every axiom and concept on a
    225-game 4x4 reduction closure and a 3x3x2 reduction closure with its
    player reductions, the two kinds of class the ``scan`` benchmark
    checks for Nash alone."""
    classes = {
        "closure_4x4": closure_4x4,
        "player_reduced_3x3x2": player_reduced_3x3x2,
    }
    assert verdict_lines(classes) == GOLDEN_SCAN_WITNESSES.read_text(encoding="utf-8")


GOLDEN_SCAN_STREAMS = Path(__file__).parent / "golden" / "scan_streams.jsonl"


def stream_lines(classes) -> str:
    """One sorted-key JSON line per (class, axiom, concept): the number of
    witnesses of the axiom's full scan and the sha256 of all of them in
    scan order, its coverage tally, and the message of a domain error
    that stopped it (None when none did)."""
    lines = []
    for name, cls in classes.items():
        for axiom in AXIOM_IDS:
            for concept in CONCEPT_IDS:
                found, tally, error = [], Counter(), None
                try:
                    found.extend(_AXIOMS[axiom][0](concept, cls, cls, tally))
                except ConceptDomainError as exc:
                    error = f"ConceptDomainError: {exc}"
                stream = json.dumps(found).encode("utf-8")
                record = {
                    "axiom": axiom,
                    "concept": concept,
                    "class": name,
                    "count": len(found),
                    "sha256": hashlib.sha256(stream).hexdigest(),
                    "tally": dict(sorted(tally.items())),
                    "error": error,
                }
                lines.append(json.dumps(record, sort_keys=True) + "\n")
    return "".join(lines)


def test_witness_streams_at_benchmark_size_match_golden(
    closure_4x4, player_reduced_3x3x2
):
    """Every witness of every full scan, in order, on the two classes of
    ``test_witnesses_at_benchmark_size_match_golden``: what
    ``replay_witness`` reads, where that golden file pins only the first."""
    classes = {
        "closure_4x4": closure_4x4,
        "player_reduced_3x3x2": player_reduced_3x3x2,
    }
    assert stream_lines(classes) == GOLDEN_SCAN_STREAMS.read_text(encoding="utf-8")
