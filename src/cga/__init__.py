"""Quasi-realtime counter automata and counter-graph-automatic groups:
normal-form computation, closure constructions, and verified structures for
the Baumslag-Solitar groups and the free group of infinite rank.
"""

from .automata import (
    CounterAutomaton,
    Transition,
    accepts,
    counter_growth_bound,
    validate,
)
from .langops import (
    LetterHomomorphism,
    convolve,
    image,
    intersect,
    pad_lift,
    preimage,
    quotient,
    swap_rows,
    union_all,
)
from .shortlex import (
    OrderedAlphabet,
    geodesic_length,
    geodesic_normal_form,
    successor,
)
from .gastructure import (
    GeneratorSet,
    GraphAutomaticStructure,
    GrowthPolicy,
    SearchBoundExceeded,
    verify,
)
from .groups import (
    BSNormalPair,
    BSOracle,
    FreeGroupOracle,
    bs_canonicalize,
    bs_decode,
    bs_encode,
    bs_structure,
    change_generators,
    direct_product,
    finf_structure,
    free_product,
    free_reduce,
    oracle_from_expr,
    structure_from_expr,
    z_structure,
)

__all__ = [name for name in dir() if not name.startswith("_")]
