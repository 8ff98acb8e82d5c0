"""Continuous-variable GHZ paradoxes from lattice Weyl operators.

Exact operator algebra with phases as integers mod d (`weyl`), paradox
verdicts and exhaustive search (`paradox`, with the search's walk in
`orderly`), a clock-and-shift matrix oracle (`oracle`), Gaussian comb-state
simulation (`states`) and a command-line front end (`cli`).
"""

from .weyl import (LatticeParams, RationalPhase, WeylWord, commutation_phase,
                   identity_word, is_scalar, multiply, product)
from .paradox import (OperatorSet, ParadoxReport, Refusal, SearchSpaceError,
                      builtin, search, set_from_rows, verify)

__all__ = [
    "LatticeParams", "RationalPhase", "WeylWord", "commutation_phase",
    "identity_word", "is_scalar", "multiply", "product",
    "OperatorSet", "ParadoxReport", "Refusal", "SearchSpaceError",
    "builtin", "search", "set_from_rows", "verify",
]

__version__ = "0.1.0"
