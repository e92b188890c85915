"""Bundled benchmark games.

Each bundled game is one ``.game`` file under ``nashaxioms/data``, the
only place its payoffs are written down:

- ``pd``: the Prisoner's Dilemma, T > R > P > S;
- ``ex2``: 2x2, coordination at (U,L) and a safe row D paying (1,1);
- ``ex5``: 3x2, rows U and D identical, opposed favorites (U,L) and (C,R);
- ``cube222``: 2x2x2, first strategies strictly dominant and (a,a,a)
  jointly optimal;
- ``chain4``: one player, a beats b, b ties c, c beats d.

The CLI loads the bundled file for a name like ``ex2`` or ``ex2.game``,
and refuses such a name that is also an existing path (``./ex2`` reads it).
"""

from __future__ import annotations

from importlib import resources
from pathlib import Path

from .gamefiles import load_game
from .games import Game

#: The bundled games' names, in the order the CLI lists them.
FIXTURES = ("pd", "ex2", "ex5", "cube222", "chain4")


def fixture_path(name: str) -> Path:
    """Filesystem path of a bundled .game file."""
    key = name.removesuffix(".game")
    if key not in FIXTURES:
        raise KeyError(
            f"unknown fixture {name!r}; known: {', '.join(FIXTURES)}"
        )
    return Path(str(resources.files("nashaxioms") / "data" / f"{key}.game"))


def fixture_game(name: str) -> Game:
    """The bundled game of this name, loaded from its file."""
    return load_game(fixture_path(name))
