"""Clock-and-shift matrix oracle for the lattice Weyl algebra.

Every lattice Weyl word has a faithful image in the d-dimensional
generalized Pauli group (Gottesman, quant-ph/9802007): X maps to the clock
matrix diag(1, w, w^2, ...) with w = exp(2*pi*i/d) and Y to the cyclic
shift |j> -> |j+1>, so that X Y = w Y X. Each image is a monomial matrix
of entries w^p, p an integer mod d, held exactly as a permutation and a
list of exponents: composing gathers the one and adds the other mod d, and
`check_set` compares exactly, at O(D) in the dimension D = d^n. The joint
eigenvector is exact too, its phases integers mod d^2; only `represent`,
the dense matrix for tests, uses numpy.
"""

import cmath
import math
from functools import reduce
from itertools import combinations

# perfbench/spans.py patches `cvghz.oracle.verify`; nothing here calls it.
from .paradox import OperatorSet, Refusal, verify  # noqa: F401
from .weyl import RationalPhase, WeylWord, _Frozen, is_scalar, product

DEFAULT_DIM_CEILING = 4096


class DimensionCeilingError(Refusal):
    """Raised when the dimension d^n_parties exceeds the ceiling; `dim` is
    the dimension, or a text bounding it when it was too long to build."""

    def __init__(self, dim: int | str, ceiling: int):
        self.dim = dim
        self.ceiling = ceiling
        super().__init__(
            f"dense dimension {dim} exceeds ceiling {ceiling}")


def _check_dimension(d: int, n_parties: int, ceiling: int) -> None:
    """Refuse a dense dimension d ** n_parties above the ceiling.

    d ** n_parties >= 2 ** low; when low is at least the ceiling's bit
    length, the power exceeds the ceiling whatever its digits. Above 64
    bits such a power is neither built nor printed, both of which take
    time that grows with its length, and the refusal names 2^low instead.
    """
    low = n_parties * (d.bit_length() - 1)
    if low >= 64 and low >= ceiling.bit_length():
        raise DimensionCeilingError(f"at least 2^{low}", ceiling)
    dim = d ** n_parties  # below 4 ** low: 128 bits, or twice the ceiling's
    if dim > ceiling:
        raise DimensionCeilingError(dim, ceiling)


def _roots_of_unity(d: int) -> list[complex]:
    return [cmath.exp(2j * math.pi * k / d) for k in range(d)]


class Monomial(_Frozen):
    """D x D matrix whose row i holds w^power[i] at column perm[i] only.
    Powers are in range(d), so equal matrices have equal fields; but a
    Monomial is equal only to itself, as the lists it holds are not
    hashable."""

    __slots__ = ("d", "perm", "power")
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __matmul__(self, other: "Monomial") -> "Monomial":
        d, perm = self.d, self.perm
        wrap = list(range(d)) * 2  # p + q mod d
        return Monomial(d, list(map(other.perm.__getitem__, perm)), [
            wrap[p + q] for p, q in
            zip(self.power, map(other.power.__getitem__, perm))])

    def coefficients(self) -> list[complex]:
        """The D entries, read from one table of the d roots."""
        return list(map(_roots_of_unity(self.d).__getitem__, self.power))

    def distance(self, other: "Monomial") -> float:
        """Frobenius norm of self - other, 0 for equal fields and otherwise
        summed over the entries that differ."""
        if self._fields() == other._fields():
            return 0.0
        roots = _roots_of_unity(self.d)
        return math.sqrt(math.fsum([
            abs(roots[p] - roots[q]) ** 2 if i == j else 2.0  # two units
            for i, j, p, q in zip(self.perm, other.perm, self.power,
                                  other.power)
            if i != j or p != q]))


def monomial(word: WeylWord,
             dim_ceiling: int = DEFAULT_DIM_CEILING) -> Monomial:
    """The tensor product of the parties' X^m Y^n, times the word's phase.

    Per site (party 0 is the leading digit), row r of X^m Y^n holds w^{m r}
    at column (r - n) mod d, for any integer m and n, as X^d = Y^d = I. A
    phase of k/d turn folds into the powers as w^k; any other raises
    ValueError (the CLI's operators have none, their product k/d turn)."""
    d = word.params.d
    _check_dimension(d, word.n_parties, dim_ceiling)
    k, rest = divmod(word.phase.numerator * d, word.phase.denominator)
    if rest:
        raise ValueError(f"phase {word.phase} turn is not a multiple of "
                         f"1/{d} turn")
    perm, power = [0], [k]
    for m, n in word.exponents:
        cols = [(r - n) % d for r in range(d)]
        steps = [m * r % d for r in range(d)]
        perm = [j * d + c for j in perm for c in cols]
        power = [(p + s) % d for p in power for s in steps]
    return Monomial(d, perm, power)


def represent(word: WeylWord, dim_ceiling: int = DEFAULT_DIM_CEILING):
    """The word's image as a dense D x D numpy matrix, for any phase, for
    tests and small D; it imports numpy, and nothing in the CLI calls it."""
    import numpy as np

    mon = monomial(WeylWord(word.params, word.exponents), dim_ceiling)
    dim = len(mon.perm)
    mat = np.zeros((dim, dim), dtype=complex)
    mat[np.arange(dim), mon.perm] = np.multiply(mon.coefficients(),
                                                word.phase.to_complex())
    return mat


class OracleReport(_Frozen):
    """The operators' images, the phase of their symbolic product (None if
    it is not a scalar), and the exact checks' Frobenius norms."""

    __slots__ = ("monomials", "product_phase", "dimension",
                 "max_commutator_norm", "product_deviation",
                 "max_unitarity_defect")


def check_set(op_set: OperatorSet,
              dim_ceiling: int = DEFAULT_DIM_CEILING) -> OracleReport:
    """Build the set's images and confirm commutation and the symbolic
    product exactly; a monomial with unit-modulus entries is unitary by
    construction. The first `monomial` refuses a dimension above the
    ceiling before anything is allocated."""
    mons = tuple(monomial(w, dim_ceiling) for w in op_set.operators)
    word = product(op_set.operators)
    return OracleReport(
        mons, is_scalar(word), len(mons[0].perm),
        max(((a @ b).distance(b @ a) for a, b in combinations(mons, 2)),
            default=0.0),
        reduce(Monomial.__matmul__, mons).distance(
            monomial(word, dim_ceiling)),
        0.0)


def _eigenvalues(mons, state: dict[int, int]) -> list[int]:
    """Each image's eigenvalue on a state of equal-modulus entries, held as
    basis index -> phase k (turn k/d^2), as k mod d^2.

    (M v)[i] = w^power[i] v[perm[i]], so M v = lam v holds exactly when
    perm keeps the support and every entry gives one lam = d power[i] +
    v[perm[i]] - v[i]; ValueError if some image has no such lam."""
    vals = []
    for mon in mons:
        d, perm, power = mon.d, mon.perm, mon.power
        lams = {(d * power[i] + state[perm[i]] - k) % (d * d)
                if perm[i] in state else None for i, k in state.items()}
        if len(lams) != 1 or None in lams:
            raise ValueError("state is not a joint eigenvector of the set")
        vals.append(lams.pop())
    return vals


def joint_eigenvector(report: OracleReport, seed: int = 0
                      ) -> tuple[dict[int, int], list[RationalPhase]]:
    """One simultaneous eigenvector of a commuting set, with its eigenvalues,
    from the images and commutator norm of the set's `check_set` report.

    The vector is exact: basis index -> phase k (turn k/d^2), every entry
    of modulus 1/sqrt(len), the orbit of basis state x0 = seed mod D under
    the images (the stabilizer-state construction; Gottesman,
    quant-ph/9802007). From x0 at phase 0, each image M carries the support
    forward along perm, v[perm[i]] = lam w^(-power[i]) v[i], and first
    returns to it after L steps; commuting images permute one another's
    supports, so the L pieces are disjoint and only x0's walk closes the
    cycle, at c = L lam mod d^2. An eigenvalue of M is a multiple of
    1/d^2 turn and L divides d, so c is a multiple of L and lam = c // L
    is exact; piece t adds t lam. Each lam is then read, and checked, on
    the whole vector.
    """
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    if report.max_commutator_norm:
        raise ValueError("operator set is not commuting")
    mons = report.monomials
    dd = mons[0].d ** 2
    x0 = seed % report.dimension
    vec = {x0: 0}
    for mon in mons:
        d, perm, power = mon.d, mon.perm, mon.power
        x, c, steps = perm[x0], d * power[x0], 1
        while x not in vec:
            x, c, steps = perm[x], c + d * power[x], steps + 1
        lam = (vec[x] + c) % dd // steps
        piece = vec
        for _ in range(steps - 1):
            piece = {perm[i]: (k + lam - d * power[i]) % dd
                     for i, k in piece.items()}
            vec.update(piece)
    return vec, [RationalPhase(k, dd) for k in _eigenvalues(mons, vec)]


def ghz_comb_eigenvalues(op_set: OperatorSet) -> list[complex]:
    """Eigenvalues of a d=2 set on the qudit image of the GHZ comb state.

    The comb states map to the qubit states (|0> +/- i|1>)/sqrt(2); the GHZ
    superposition (up...up - down...down)/sqrt(2) is their entangled
    combination: up...up has phase |x|/4 turn on basis string x and
    down...down the conjugate, so their difference lives on the odd-weight
    strings at phase |x|/4 turn. Raises if the state is not a joint
    eigenvector.
    """
    if op_set.params.d != 2:
        raise ValueError("GHZ comb reference state is defined for d = 2")
    state = {x: x.bit_count() % 4 for x in range(2 ** op_set.n_parties)
             if x.bit_count() % 2}
    return [RationalPhase(k, 4).to_complex() for k in
            _eigenvalues(map(monomial, op_set.operators), state)]
