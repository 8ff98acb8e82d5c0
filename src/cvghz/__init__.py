"""Continuous-variable GHZ paradoxes from lattice Weyl operators.

Exact rational-phase operator algebra (`weyl`), paradox verdicts, LHV
evaluation and exhaustive search (`paradox`), a clock-and-shift matrix
oracle (`oracle`), Gaussian comb-state simulation (`states`) and a
command-line front end (`cli`).
"""

from .weyl import (LatticeParams, RationalPhase, WeylWord, commutation_phase,
                   dagger, identity_word, is_scalar, make_generator, multiply,
                   product)
from .paradox import (LhvAssignment, OperatorSet, ParadoxReport, Refusal,
                      SearchSpaceError, builtin, canonicalize, lhv_value,
                      search, set_from_rows, verify)

__all__ = [
    "LatticeParams", "RationalPhase", "WeylWord", "commutation_phase",
    "dagger", "identity_word", "is_scalar", "make_generator", "multiply",
    "product", "LhvAssignment", "OperatorSet", "ParadoxReport", "Refusal",
    "SearchSpaceError", "builtin", "canonicalize", "lhv_value", "search",
    "set_from_rows", "verify",
]

__version__ = "0.1.0"
