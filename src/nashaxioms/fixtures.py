"""Bundled benchmark games.

Each fixture exists both as a builder here and as a ``.game`` file
under ``nashaxioms/data``.  The CLI resolves a bare name like ``ex2``
or ``ex2.game`` that is not an existing file by calling the builder;
the ``.game`` files are sample game files, and the tests assert the
two stay in sync.
"""

from __future__ import annotations

from importlib import resources
from pathlib import Path

from .games import Game, build_game


def prisoners_dilemma() -> Game:
    """Canonical Prisoner's Dilemma, T > R > P > S."""
    return build_game(
        2,
        [["C", "D"], ["C", "D"]],
        payoffs=[[2, 0, 3, 1], [2, 3, 0, 1]],
    )


def safe_coordination() -> Game:
    """Two-by-two game with a (2,2) coordination outcome at (U,L) and a
    safe row D paying (1,1) against either column."""
    return build_game(
        2,
        [["U", "D"], ["L", "R"]],
        payoffs=[[2, 0, 1, 1], [2, 0, 1, 1]],
    )


def duplicate_row_game() -> Game:
    """Three-by-two game whose rows U and D are identical for both
    players, with opposed favorite outcomes at (U,L) and (C,R)."""
    return build_game(
        2,
        [["U", "C", "D"], ["L", "R"]],
        payoffs=[[2, 0, 0, 1, 2, 0], [1, 0, 0, 2, 1, 0]],
    )


def three_player_cube() -> Game:
    """2x2x2 game where each player's first strategy is strictly
    dominant and spills one payoff unit onto the previous player, so
    (a,a,a) is jointly optimal."""
    return build_game(
        3,
        [["a", "b"], ["a", "b"], ["a", "b"]],
        payoffs=[
            [3, 3, 2, 2, 1, 1, 0, 0],
            [3, 2, 1, 0, 3, 2, 1, 0],
            [3, 1, 3, 1, 2, 0, 2, 0],
        ],
    )


def one_player_chain() -> Game:
    """One player, four strategies, a strict chain with one tie:
    a beats b, b ties c, c beats d."""
    return build_game(1, [["a", "b", "c", "d"]], payoffs=[[3, 2, 2, 0]])


FIXTURES = {
    "pd": prisoners_dilemma,
    "ex2": safe_coordination,
    "ex5": duplicate_row_game,
    "cube222": three_player_cube,
    "chain4": one_player_chain,
}


def fixture_game(name: str) -> Game:
    key = name.removesuffix(".game")
    try:
        return FIXTURES[key]()
    except KeyError:
        raise KeyError(
            f"unknown fixture {name!r}; known: {', '.join(FIXTURES)}"
        ) from None


def fixture_path(name: str) -> Path:
    """Filesystem path of a bundled .game file."""
    key = name.removesuffix(".game")
    if key not in FIXTURES:
        raise KeyError(
            f"unknown fixture {name!r}; known: {', '.join(FIXTURES)}"
        )
    return Path(str(resources.files("nashaxioms") / "data" / f"{key}.game"))
