"""Independent references that more than one test file checks against.

`quadrature_check` integrates the comb wavefunctions on a grid, so it shares
no code with the closed-form sums in `cvghz.states`.
"""

import math

import numpy as np


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
    return word.phase.to_complex() * total
