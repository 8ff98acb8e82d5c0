"""Clock-and-shift matrix oracle for the lattice Weyl algebra.

Every lattice Weyl word has a faithful image in the d-dimensional
generalized Pauli group (Gottesman, quant-ph/9802007): X maps to the clock
matrix diag(1, w, w^2, ...) with w = exp(2*pi*i/d) and Y to the cyclic
shift |j> -> |j+1>, so that X Y = w Y X. Each image is a monomial matrix
of entries w^p, p an integer mod d, held exactly as a permutation and a
list of exponents: composing gathers the one and adds the other mod d, and
`check_set` compares exactly, at O(D) in the dimension D = d^n. Only the
eigenvector is floating point; only `represent`, the dense matrix for
tests, uses numpy.
"""

import cmath
import math
import random
from functools import reduce
from itertools import combinations
from operator import add, mul, sub

# perfbench/spans.py patches `cvghz.oracle.verify`; nothing here calls it.
from .paradox import OperatorSet, Refusal, verify  # noqa: F401
from .weyl import WeylWord, _Frozen, is_scalar, product

DEFAULT_DIM_CEILING = 4096
EIGEN_TOL = 1e-8  # tolerance of the eigenvector checks and of |lambda| = 1


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


def _norm(vec: list[complex]) -> float:
    return math.hypot(*map(abs, vec))


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

    def apply(self, vec: list[complex]) -> list[complex]:
        """self @ vec for one vector of length D."""
        return list(map(mul, self.coefficients(),
                        map(vec.__getitem__, self.perm)))

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


def _powers(mon: Monomial, coeffs: list[complex], vec: list[complex]):
    """v, M v .. M^{d-1} v for M = mon, made one at a time."""
    yield vec
    for _ in range(mon.d - 1):
        vec = list(map(mul, coeffs, map(vec.__getitem__, mon.perm)))
        yield vec


def _eigenvalues(mons, vec: list) -> tuple[list[complex], float]:
    """<v, M v> for each image M and unit vector v, and the largest
    residual |M v - <v, M v> v|; one image of the vector at a time."""
    conj = [x.conjugate() for x in vec]  # entries may be float
    vals, resid = [], 0.0
    for mon in mons:
        image = mon.apply(vec)
        vals.append(lam := sum(map(mul, conj, image)))
        resid = max(resid, _norm(list(map(sub, image, map(lam.__mul__, vec)))))
    return vals, resid


def joint_eigenvector(report: OracleReport, seed: int = 0
                      ) -> tuple[list[complex], list[complex]]:
    """One simultaneous eigenvector of a commuting set, with its eigenvalues,
    from the images and commutator norm of the set's `check_set` report.

    Projects a seeded random vector onto an eigenspace of each image M in
    turn: M^d = c is a scalar, so P = (1/d) sum_t lam^{-t} M^t projects onto
    the eigenspace of each root lam of lam^d = c, and the largest projection
    wins. |P v|^2 = <v, P v> for an orthogonal projector, so the d inner
    products <v, M^t v> rank the roots and only the winner's P v is formed.
    One M^t v is held at a time: the winner's pass makes them again.
    """
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    if report.max_commutator_norm >= EIGEN_TOL:
        raise ValueError("operator set is not commuting")
    mons = report.monomials
    d, roots = mons[0].d, _roots_of_unity(mons[0].d)
    rng = random.Random(seed)
    vec = [complex(rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0))
           for _ in range(report.dimension)]
    for mon in mons:
        coeffs, perm = mon.coefficients(), mon.perm
        c, k = 1 + 0j, 0
        for _ in range(d):  # M^d = c: follow row 0 through d factors of M
            c, k = c * coeffs[k], perm[k]
        root = c ** (1 / d)
        conj = list(map(complex.conjugate, vec))
        dots = [root ** -t * sum(map(mul, conj, u))
                for t, u in enumerate(_powers(mon, coeffs, vec))]
        norms = [sum([roots[-j * t % d] * x for t, x in enumerate(dots)]).real
                 for j in range(d)]  # d <v, P v> for lam = root w^j
        best = max(range(d), key=norms.__getitem__)
        powers = _powers(mon, coeffs, vec)
        proj = [x / d for x in next(powers)]
        for t, im in enumerate(powers, start=1):
            weight = (root * roots[best]) ** -t / d
            proj = list(map(add, proj, map(weight.__mul__, im)))
        vec = list(map(complex(1 / _norm(proj)).__mul__, proj))
    vals, resid = _eigenvalues(mons, vec)
    if resid >= EIGEN_TOL:
        raise RuntimeError("no joint eigenvector isolated; "
                           f"projection residual {resid:.3g}")
    return vec, vals


def ghz_comb_eigenvalues(op_set: OperatorSet) -> list[complex]:
    """Eigenvalues of a d=2 set on the qudit image of the GHZ comb state.

    The comb states map to the qubit states (|0> +/- i|1>)/sqrt(2); the GHZ
    superposition (up...up - down...down)/sqrt(2) is their entangled
    combination. Raises if the state is not a joint eigenvector.
    """
    if op_set.params.d != 2:
        raise ValueError("GHZ comb reference state is defined for d = 2")
    site = (1 / math.sqrt(2), 1j / math.sqrt(2))
    up = [1.0]
    for _ in range(op_set.n_parties):
        up = [u * s for u in up for s in site]
    # down...down = conj(up...up)
    state = [(u - u.conjugate()) / math.sqrt(2) for u in up]
    vals, resid = _eigenvalues(map(monomial, op_set.operators), state)
    if resid >= EIGEN_TOL:
        raise ValueError("GHZ comb state is not a joint eigenvector "
                         "of the given set")
    return vals
