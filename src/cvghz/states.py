"""Finitely squeezed Gaussian comb states and closed-form Weyl expectations.

Unit conventions: positions are the dimensionless x with [x, p] = i/pi
(any physical length scale L drops out of these variables). On a comb of
Gaussian peaks a lattice Weyl word acts factor by factor:

    (X^{m*a0} Y^{n*b0} psi)(x) = exp(i*m*a0*x) * psi(x + n*b0/pi)

with a0 = b0 = pi*sqrt(2/d), so Y translates the wavefunction argument by
s = n*sqrt(2/d) (for d = 2, exactly the peak spacing) and X multiplies by a
position phase. All overlaps and matrix elements between equal-width
Gaussian peaks are evaluated in closed form, in plain Python.
"""

from __future__ import annotations

import cmath
import math
from bisect import bisect_left, bisect_right

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

    Each peak is the normalized wavefunction
    (2*pi*delta^2)^(-1/4) * exp(-(x - center)^2 / (4*delta^2)), so delta is
    the standard deviation of each peak's position distribution.
    """

    __slots__ = ("centers", "weights", "delta")

    def __init__(self, centers: tuple[float, ...],
                 weights: tuple[complex, ...], delta: float):
        if not centers:
            raise ValueError("comb needs at least one peak")
        if len(centers) != len(weights):
            raise ValueError("centers and weights must have equal length")
        _check_width("delta", delta, 8.0)
        super().__init__(centers, weights, delta)


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


def comb_overlap(bra: GaussianComb, ket: GaussianComb) -> complex:
    """<bra|ket> in closed form, including all inter-peak cross terms."""
    return comb_matrix_element(bra, ket, mu=0.0, shift=0.0)


def comb_matrix_element(bra: GaussianComb, ket: GaussianComb,
                        mu: float, shift: float) -> complex:
    """<bra| e^{i*mu*x} T_shift |ket> where (T_s psi)(x) = psi(x + s).

    For equal-width Gaussians the integral per peak pair (a in bra,
    b in ket) is
        exp(-(a - b + s)^2 / (8 delta^2))
      * exp(i*mu*(a + b - s)/2) * exp(-mu^2 delta^2 / 2).

    Pairs whose Gaussian factor is below OVERLAP_CUTOFF are dropped.  Only
    pairs in the band |a - b + s| <= sqrt(8 delta^2 ln(1/OVERLAP_CUTOFF))
    (about 17 delta) can pass it, so the sum runs over that band alone:
    the shifted ket centers are sorted once and each bra peak finds its
    band with `bisect`, costing O(P log P + pairs in the band) instead of
    O(P^2) for P peaks.  The phase factors into e^{i*mu*a/2} per bra peak
    and e^{i*mu*(b - s)/2} per ket peak.
    """
    if bra.delta != ket.delta:
        raise ValueError("matrix element requires equal peak widths")
    d2 = bra.delta * bra.delta
    scale = 8.0 * d2
    reach = math.sqrt(scale * math.log(1.0 / OVERLAP_CUTOFF))
    # shifted ket centers, sorted by center alone: weights never compare
    order = sorted(range(len(ket.centers)), key=ket.centers.__getitem__)
    b = [ket.centers[k] - shift for k in order]
    fb = [ket.weights[k] for k in order]
    fa = [w.conjugate() for w in bra.weights]
    if mu:  # a pure translation has unit phases
        half = 0.5j * mu
        fb = [w * cmath.exp(half * c) for c, w in zip(b, fb)]
        fa = [w * cmath.exp(half * a) for a, w in zip(bra.centers, fa)]
    total = 0j
    for a, f in zip(bra.centers, fa):
        lo = bisect_left(b, a - reach)
        band = 0j
        for j in range(lo, bisect_right(b, a + reach, lo)):
            gap = a - b[j]
            gauss = math.exp(-gap * gap / scale)  # as the dense sum has it
            if gauss >= OVERLAP_CUTOFF:
                band += gauss * fb[j]
        total += f * band
    return math.exp(-0.5 * mu * mu * d2) * total


def normalized_comb(comb: GaussianComb) -> GaussianComb:
    norm = math.sqrt(comb_overlap(comb, comb).real)
    if norm <= 0:
        raise ValueError("comb has zero norm")
    return GaussianComb(comb.centers,
                        tuple(w / norm for w in comb.weights), comb.delta)


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
    odd_weight = 1j if kind == "up" else -1j
    centers = []
    weights = []
    for k in range(-n_peaks, n_peaks + 1):
        base = 1.0 if k % 2 == 0 else odd_weight
        centers.append(float(k))
        weights.append(base * math.exp(-k * k / (2.0 * envelope_width
                                                 * envelope_width)))
    return normalized_comb(GaussianComb(tuple(centers), tuple(weights),
                                        delta))


def state_norm(state: ProductStateSum) -> float:
    """Norm from the closed-form Gram matrix of the product terms."""
    total = weyl_expectation(state, identity_word(LatticeParams(2),
                                                  state.n_parties))
    if total.real <= 0:
        raise ValueError("state has non-positive norm")
    return math.sqrt(total.real)


def normalized_state(state: ProductStateSum) -> ProductStateSum:
    norm = state_norm(state)
    return ProductStateSum(tuple((c / norm, f) for c, f in state.terms))


def ghz_state(delta: float, n_peaks: int,
              envelope_width: float) -> ProductStateSum:
    """The three-party comb GHZ state (up,up,up) - (down,down,down), normalized."""
    up = make_comb("up", delta, n_peaks, envelope_width)
    down = make_comb("down", delta, n_peaks, envelope_width)
    amp = 1.0 / math.sqrt(2.0)
    state = ProductStateSum((
        (amp, (up, up, up)),
        (-amp, (down, down, down)),
    ))
    return normalized_state(state)


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
