"""Finitely squeezed Gaussian comb states and closed-form Weyl expectations.

Unit conventions: positions are the dimensionless x with [x, p] = i/pi
(any physical length scale L drops out of these variables). On a comb of
Gaussian peaks a lattice Weyl word acts factor by factor:

    (X^{m*a0} Y^{n*b0} psi)(x) = exp(i*m*a0*x) * psi(x + n*b0/pi)

with a0 = b0 = pi*sqrt(2/d), so Y translates the wavefunction argument by
s = n*sqrt(2/d) (for d = 2, exactly the peak spacing) and X multiplies by a
position phase. All overlaps and matrix elements between equal-width
Gaussian peaks are evaluated in closed form, in plain Python. A comb's
peaks sit on the unit lattice, so a matrix element between two combs
takes at most len(bra) + len(ket) - 1 peak offsets, each one C-level pass.
"""

from __future__ import annotations

import cmath
import math
from itertools import repeat
from operator import add, mul

from . import oracle
from .paradox import Refusal, builtin
from .weyl import LatticeParams, WeylWord, _Frozen, identity_word

OVERLAP_CUTOFF = 1e-16  # peak pairs below this Gaussian factor are dropped
# Peaks per side of a comb. Beyond about 38.6 envelope widths a peak's
# weight exp(-k^2 / (2 w^2)) underflows to 0, so this covers every
# envelope up to about 259.
MAX_PEAKS = 10_000


def _check_width(name: str, width: float, factor: float) -> None:
    """Reject a width w unless w > 0 and factor * w * w is positive and finite.

    The closed forms divide by factor * w * w, so a width whose square
    underflows to 0 or overflows to inf is as unusable as a NaN.
    """
    if not (width > 0 and 0 < factor * width * width < math.inf):
        raise ValueError(f"{name} must be positive and finite, and so must "
                         f"{factor:g} times its square; got {width!r}")


class GaussianComb(_Frozen):
    """One-party state: weighted sum of Gaussian peaks of common width delta.

    Peak k has weight weights[k] and center first + k. Each is the normalized
    wavefunction (2*pi*delta^2)^(-1/4) * exp(-(x - center)^2 / (4*delta^2)),
    so delta is the standard deviation of each peak's position distribution.
    """

    __slots__ = ("first", "weights", "delta")

    def __init__(self, first: float, weights: tuple, delta: float):
        if not weights:
            raise ValueError("comb needs at least one peak")
        if not math.isfinite(first):
            raise ValueError(f"first must be finite; got {first!r}")
        _check_width("delta", delta, 8.0)
        super().__init__(first, weights, delta)

    @property
    def centers(self) -> tuple[float, ...]:
        return tuple([self.first + k for k in range(len(self.weights))])


class ProductStateSum(_Frozen):
    """Multi-party state: sum of coefficient * (product of one comb per party)."""

    __slots__ = ("terms",)

    def __init__(self,
                 terms: tuple[tuple[complex, tuple[GaussianComb, ...]], ...]):
        if not terms:
            raise ValueError("state needs at least one term")
        n = len(terms[0][1])
        if any(len(factors) != n for _, factors in terms):
            raise ValueError("all terms must have the same party count")
        super().__init__(terms)

    @property
    def n_parties(self) -> int:
        return len(self.terms[0][1])


def comb_matrix_element(bra: GaussianComb, ket: GaussianComb,
                        mu: float, shift: float) -> complex:
    """<bra| e^{i*mu*x} T_shift |ket> where (T_s psi)(x) = psi(x + s).

    For equal-width Gaussians the integral per peak pair (a in bra,
    b in ket) is
        exp(-(a - b + s)^2 / (8 delta^2))
      * exp(i*mu*(a + b - s)/2) * exp(-mu^2 delta^2 / 2).

    Pairs whose Gaussian factor is below OVERLAP_CUTOFF are dropped; only
    pairs with |a - b + s| <= sqrt(8 delta^2 ln(1/OVERLAP_CUTOFF)) (about
    17 delta) can pass.  Bra peak i and ket peak i + k lie offset - k apart,
    offset = bra.first - ket.first + s, so the band is one run of offsets k
    for all bra peaks: at most len(bra) + len(ket) - 1 of them, each one exp
    and one C-level pass over the peaks it pairs, in ket peak order.  The
    phase factors into e^{i*mu*a/2} per bra peak, e^{i*mu*(b - s)/2} per ket.
    """
    if bra.delta != ket.delta:
        raise ValueError("matrix element requires equal peak widths")
    d2 = bra.delta * bra.delta
    scale = 8.0 * d2
    reach = math.sqrt(scale * math.log(1.0 / OVERLAP_CUTOFF))
    fa = [w.conjugate() for w in bra.weights]
    fb = ket.weights
    if mu:  # a pure translation has unit phases
        half = 0.5j * mu
        fb = [w * cmath.exp(half * (c - shift))
              for c, w in zip(ket.centers, fb)]
        fa = [w * cmath.exp(half * a) for a, w in zip(bra.centers, fa)]
    offset = bra.first - ket.first + shift
    lo = max(1 - len(fa), offset - reach)  # offsets that pair some peaks,
    hi = min(len(fb) - 1, offset + reach)  # none if offset is infinite
    band = [0j] * len(fa)
    for k in range(math.ceil(lo), math.floor(hi) + 1) if lo <= hi else ():
        gap = offset - k
        gauss = math.exp(-gap * gap / scale)  # as the dense sum has it
        if gauss >= OVERLAP_CUTOFF:
            i, j = max(0, -k), min(len(fa), len(fb) - k)  # bra peaks i..j-1
            band[i:j] = map(add, band[i:j],
                            map(mul, repeat(gauss), fb[i + k:j + k]))
    total = 0j
    for f, g in zip(fa, band):  # Python 3.14's sum() compensates complex sums
        total += f * g
    return math.exp(-0.5 * mu * mu * d2) * total


def make_comb(kind: str, delta: float, n_peaks: int,
              envelope_width: float) -> GaussianComb:
    """Normalized up/down comb: peaks at integers k in [-n_peaks, n_peaks].

    Even-k peaks get weight 1; odd-k peaks get +i (up) or -i (down). All
    weights are damped by the envelope exp(-k^2 / (2*envelope_width^2)).
    """
    if kind not in ("up", "down"):
        raise ValueError(f"kind must be 'up' or 'down', got {kind!r}")
    _check_width("envelope_width", envelope_width, 2.0)  # delta: GaussianComb
    if n_peaks < 0:
        raise ValueError("n_peaks must be >= 0")
    if n_peaks > MAX_PEAKS:
        raise Refusal(f"{n_peaks} peaks per side exceed the ceiling "
                      f"{MAX_PEAKS}")
    odd = 1j if kind == "up" else -1j
    var2 = 2.0 * envelope_width * envelope_width
    weights = tuple([(1.0 if k % 2 == 0 else odd) * math.exp(-k * k / var2)
                     for k in range(-n_peaks, n_peaks + 1)])
    comb = GaussianComb(float(-n_peaks), weights, delta)
    norm = math.sqrt(comb_matrix_element(comb, comb, 0.0, 0.0).real)
    if norm <= 0:
        raise ValueError("comb has zero norm")
    return GaussianComb(comb.first, tuple(w / norm for w in weights), delta)


def ghz_state(delta: float, n_peaks: int,
              envelope_width: float) -> ProductStateSum:
    """The three-party comb GHZ state (up,up,up) - (down,down,down), normalized."""
    up = make_comb("up", delta, n_peaks, envelope_width)
    down = make_comb("down", delta, n_peaks, envelope_width)
    amp = 1.0 / math.sqrt(2.0)
    state = ProductStateSum(((amp, (up, up, up)), (-amp, (down, down, down))))
    # the squared norm, from the closed-form Gram matrix of the two terms
    total = weyl_expectation(state, identity_word(LatticeParams(2),
                                                  state.n_parties))
    if total.real <= 0:
        raise ValueError("state has non-positive norm")
    norm = math.sqrt(total.real)
    return ProductStateSum(tuple((c / norm, f) for c, f in state.terms))


def _word_action(word: WeylWord) -> list[tuple[float, float]]:
    """Per-party (mu, shift): multiply by e^{i*mu*x}, translate arg by shift."""
    base = math.sqrt(2.0 / word.params.d)
    return [(m * math.pi * base, n * base) for m, n in word.exponents]


def _expectations(state: ProductStateSum,
                  words: list[WeylWord]) -> list[complex]:
    """<state| word |state> for each word, by closed-form Gaussian integrals.

    Each distinct one-party matrix element <bra| e^{i*mu*x} T_shift |ket>
    is computed once and shared by every term pair and word that needs it.
    """
    memo: dict[tuple[int, int, float, float], complex] = {}
    out = []
    for word in words:
        if word.n_parties != state.n_parties:
            raise ValueError("word and state party counts differ")
        action = _word_action(word)
        total = 0.0 + 0.0j
        for ct, ft in state.terms:
            for cu, fu in state.terms:
                val = ct.conjugate() * cu
                for bra, ket, (mu, shift) in zip(ft, fu, action):
                    # `state` holds every comb until we return, so ids
                    # are not reused
                    key = (id(bra), id(ket), mu, shift)
                    if key not in memo:
                        memo[key] = comb_matrix_element(bra, ket, mu, shift)
                    val *= memo[key]
                total += val
        out.append(word.phase.to_complex() * total)
    return out


def weyl_expectation(state: ProductStateSum, word: WeylWord) -> complex:
    """<state| word |state> by closed-form Gaussian integrals (no quadrature)."""
    return _expectations(state, [word])[0]


class ConvergenceRow(_Frozen):
    __slots__ = ("delta", "expectations", "deviation")


def convergence_study(deltas: list[float], n_peaks: int = 20,
                      envelope_width: float = 10.0) -> list[ConvergenceRow]:
    """Expectation values of the built-in 3-party set on GHZ comb states.

    For each peak width delta (given positive and descending) computes all
    four operator expectations and the worst-case deviation from the exact
    eigenvalues of the corresponding qubit GHZ state.
    """
    for delta in deltas:  # all inputs checked before any work
        _check_width("delta", delta, 8.0)
    _check_width("envelope_width", envelope_width, 2.0)
    if any(b >= a for a, b in zip(deltas, deltas[1:])):
        raise ValueError("delta values must be strictly descending")
    if not deltas:
        return []
    op_set = builtin("v4")
    lam = oracle.ghz_comb_eigenvalues(op_set)
    rows = []
    for delta in deltas:
        state = ghz_state(delta, n_peaks, envelope_width)
        exps = tuple(_expectations(state, op_set.operators))
        deviation = max(abs(e - l) for e, l in zip(exps, lam))
        rows.append(ConvergenceRow(delta, exps, float(deviation)))
    return rows
