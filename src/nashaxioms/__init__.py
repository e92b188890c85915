"""Finite ordinal normal-form games, solution concepts, and exhaustive
axiom checking with witness extraction."""

from .axioms import (
    AXIOM_IDS,
    AxiomVerdict,
    check_axiom,
    replay_witness,
)
from .closures import (
    NAMED_CLASSES,
    GameClass,
    Provenance,
    build_named_class,
    d_closure,
    reduction_closure,
    strict_closure,
)
from .concepts import (
    CONCEPT_IDS,
    CONCEPTS,
    ConceptDomainError,
    eval_concept,
    jointly_optimal,
    nash,
    strong_nash,
)
from .gamefiles import dump_game, load_game, parse_game
from .games import (
    DEFAULT_BUDGET,
    BudgetExceededError,
    Game,
    GameFormatError,
    Profile,
    build_game,
    enumerate_reductions,
    is_cut,
    is_reduction,
    is_strict_reduction,
    merge,
    reduce_players,
    restrict,
)
from .oracles import nash_bruteforce
from .theorems import (
    ConstructionReport,
    lemma1a_witness,
    lemma1b_construct,
    verify_one_player_lemma,
    verify_theorem1,
)

__version__ = "0.1.0"
