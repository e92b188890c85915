import itertools
import math
import random

import pytest

from nashaxioms import build_game, build_named_class, reduce_players
import nashaxioms.fixtures as fixtures
from nashaxioms.closures import Provenance
from nashaxioms.fixtures import fixture_game


@pytest.fixture(scope="session")
def ex2():
    return fixture_game("ex2")


@pytest.fixture(scope="session")
def ex5():
    return fixture_game("ex5")


@pytest.fixture(scope="session")
def pd():
    return fixture_game("pd")


@pytest.fixture(scope="session")
def cube():
    return fixture_game("cube222")


@pytest.fixture(scope="session")
def chain():
    return fixture_game("chain4")


@pytest.fixture(scope="session")
def pd_dclosed():
    return build_named_class("pd_dclosed")


@pytest.fixture(scope="session")
def ex2_dclosed():
    return build_named_class("ex2_dclosed")


@pytest.fixture(scope="session")
def ex3_cons():
    return build_named_class("ex3_cons")


@pytest.fixture(scope="session")
def ex4_class():
    return build_named_class("ex4")


@pytest.fixture(scope="session")
def ex5_class():
    return build_named_class("ex5")


@pytest.fixture(scope="session")
def ex5_dclosed():
    return build_named_class("ex5_dclosed")


@pytest.fixture(scope="session")
def cube_dclosed():
    return build_named_class("cube_dclosed")


@pytest.fixture(scope="session")
def chain_strict():
    return build_named_class("chain_strict")


@pytest.fixture
def bundled_reads(monkeypatch):
    """The paths of the bundled game files read while the test runs."""
    reads = []
    load = fixtures.load_game

    def counted(path):
        reads.append(path)
        return load(path)

    monkeypatch.setattr(fixtures, "load_game", counted)
    return reads


def random_game(
    rng: random.Random,
    max_players: int = 3,
    max_strategies: int = 3,
    levels: int | None = None,
):
    """A random game; ranks come from ``range(levels)``, or from one
    level per profile when ``levels`` is None."""
    n = rng.randint(1, max_players)
    shape = [rng.randint(1, max_strategies) for _ in range(n)]
    labels = [[f"p{i}s{k}" for k in range(shape[i])] for i in range(n)]
    total = 1
    for k in shape:
        total *= k
    tables = [
        [rng.randrange(0, levels or total) for _ in range(total)] for _ in range(n)
    ]
    return build_game(n, labels, ranks=tables)


def shaped_game(rng: random.Random, shape, levels: int = 3):
    """A game of this shape with ranks from ``range(levels)``, so ties are
    common; the labels depend on the shape only, so games drawn alike
    share them."""
    labels = [[f"p{i}s{k}" for k in range(size)] for i, size in enumerate(shape)]
    total = math.prod(shape)
    ranks = [[rng.randrange(levels) for _ in range(total)] for _ in shape]
    return build_game(len(shape), labels, ranks=ranks)


def add_player_reductions(cls, members):
    """Add every player reduction of each of ``members`` to ``cls``."""
    for member in members:
        n = member.player_count
        for mask in range(1, (1 << n) - 1):
            keep = tuple(i for i in range(n) if mask >> i & 1)
            for s in member.profiles():
                cls.add(
                    reduce_players(member, keep, s),
                    Provenance(
                        "player-reduction-of",
                        parent=member.canonical_id,
                        keep=keep,
                        fixed=member.labels_of(s),
                    ),
                )
    return cls


def random_square_game(rng: random.Random, k: int):
    """A random two-player k x k game with ranks from ``range(5)``."""
    labels = [[f"p{i}s{j}" for j in range(k)] for i in range(2)]
    tables = [[rng.randrange(5) for _ in range(k * k)] for _ in range(2)]
    return build_game(2, labels, ranks=tables)


def random_subsets(rng: random.Random, game):
    """Random non-empty per-player label subsets, in the game's order."""
    out = []
    for labels in game.strategies:
        kept = set(rng.sample(range(len(labels)), rng.randint(1, len(labels))))
        out.append(tuple(lab for k, lab in enumerate(labels) if k in kept))
    return tuple(out)


def weak_ordinal_2x2_games():
    """All 5625 two-player 2x2 games with weak-ordinal preferences: one
    dense rank table per player, each a weak order on the four profiles."""
    orders = [
        ranks
        for ranks in itertools.product(range(4), repeat=4)
        if set(ranks) == set(range(max(ranks) + 1))
    ]
    labels = [["T", "B"], ["L", "R"]]
    return [build_game(2, labels, ranks=[a, b]) for a in orders for b in orders]
