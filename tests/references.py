"""Independent references that more than one test file checks against.

`quadrature_check` integrates the comb wavefunctions on a grid, so it shares
no code with the closed-form sums in `cvghz.states`; `product_in_turns` and
`commutator_in_turns` reorder words in `fractions.Fraction` turns, sharing
none with `cvghz.weyl`. `dagger` and `lhv_value` are the adjoint and the
classical value that the tests hold the algebra and the paradox verdicts
to; the CLI needs neither.
"""

import cmath
import math
from fractions import Fraction

import numpy as np

from cvghz.weyl import WeylWord, crossing


def product_in_turns(d: int, a, b):
    """(exponent rows, phase) of the normal form of a*b, for words a and b
    given as (exponent rows, phase), each phase a Fraction of a turn, the
    result's reduced mod 1.

    Per party, X^m Y^n X^m' Y^n' = e^{-2*pi*i*n*m'/d} X^(m+m') Y^(n+n'):
    moving X^m' left past Y^n costs n*m'/d turn.
    """
    (rows_a, turns_a), (rows_b, turns_b) = a, b
    rows, turns = [], turns_a + turns_b
    for (m, n), (m2, n2) in zip(rows_a, rows_b, strict=True):
        rows.append((m + m2, n + n2))
        turns -= Fraction(n * m2, d)
    return tuple(rows), turns % 1


def commutator_in_turns(d: int, rows_a, rows_b) -> Fraction:
    """The phi, a Fraction of a turn in [0, 1), with
    a*b = e^{2*pi*i*phi} b*a: per party, X^m Y^n and X^m' Y^n' give
    (m*n' - m'*n)/d turn."""
    return sum((Fraction(m * n2 - m2 * n, d)
                for (m, n), (m2, n2) in zip(rows_a, rows_b, strict=True)),
               Fraction(0)) % 1


def dagger(word: WeylWord) -> WeylWord:
    """Normal form of the Hermitian adjoint of word.

    (X^m Y^n)^dag = Y^-n X^-m, and reordering that costs
    crossing(w, w) = sum m*n over the parties: the adjoint's phase is
    -phase - crossing, in 1/d turns.
    """
    cross = crossing(word.exponents, word.exponents)
    return WeylWord(word.params, tuple((-m, -n) for m, n in word.exponents),
                    -word.phase - cross)


def lhv_value(op_set, positions, momenta) -> complex:
    """Product of the classical unit-modulus values assigned to the set.

    Hidden outcomes (x_j, p_j) per party, in dimensionless units:
    X_j^{m*a0} is assigned exp(2*pi*i*m*x_j/sqrt(2d)) and Y_j^{n*b0} is
    assigned exp(2*pi*i*n*p_j/sqrt(2d)), the operator exponentials at the
    hidden outcomes. When all column sums vanish the total exponent cancels
    and the product is exactly 1.
    """
    if not len(positions) == len(momenta) == op_set.n_parties:
        raise ValueError("assignment does not cover all parties")
    scale = 2.0 * math.pi / math.sqrt(2.0 * op_set.params.d)
    total = 0.0
    for row in op_set.rows:
        for (m, n), x, p in zip(row, positions, momenta):
            total += scale * (m * x + n * p)
    return cmath.exp(1j * total)


def _comb_wavefunction(comb, x):
    """The comb's wavefunction on the numpy array of points x."""
    norm = (2.0 * math.pi * comb.delta ** 2) ** -0.25
    psi = np.zeros_like(x, dtype=complex)
    for c, w in zip(comb.centers, comb.weights):
        psi += w * np.exp(-(x - c) ** 2 / (4.0 * comb.delta ** 2))
    return norm * psi


def quadrature_check(state, word, n_points: int = 40001) -> complex:
    """Same expectation as `states.weyl_expectation`, by grid integration.

    Evaluates the comb wavefunctions pointwise and integrates per party with
    the trapezoid rule: X^m Y^n multiplies by e^{i*mu*x} with
    mu = m*pi*sqrt(2/d) and translates the argument by n*sqrt(2/d). Raises
    if the grid is too coarse to resolve the peak width.
    """
    if word.n_parties != state.n_parties:
        raise ValueError("word and state party counts differ")
    base = math.sqrt(2.0 / word.params.d)
    action = [(m * math.pi * base, n * base) for m, n in word.exponents]
    reach = max(abs(c) for _, f in state.terms
                for comb in f for c in comb.centers)
    delta = state.terms[0][1][0].delta
    shift_max = max(abs(s) for _, s in action)
    x_max = reach + shift_max + 12.0 * delta + 2.0
    x = np.linspace(-x_max, x_max, n_points)
    spacing = x[1] - x[0]
    min_delta = min(comb.delta for _, f in state.terms for comb in f)
    if spacing > min_delta / 4.0:
        raise ValueError(
            f"grid spacing {spacing:.3g} too coarse for peak width "
            f"{min_delta:.3g}; increase n_points")
    total = 0.0 + 0.0j
    for ct, ft in state.terms:
        for cu, fu in state.terms:
            val = ct.conjugate() * cu
            for bra, ket, (mu, shift) in zip(ft, fu, action):
                integrand = (np.conj(_comb_wavefunction(bra, x))
                             * np.exp(1j * mu * x)
                             * _comb_wavefunction(ket, x + shift))
                val *= np.trapezoid(integrand, x)
            total += val
    return cmath.exp(2j * math.pi * word.phase / word.params.d) * total
