"""Clock-and-shift matrix oracle for the lattice Weyl algebra.

Every lattice Weyl word has a faithful image in the d-dimensional
generalized Pauli group (Gottesman, quant-ph/9802007): X maps to the clock
matrix diag(1, w, w^2, ...) with w = exp(2*pi*i/d) and Y to the cyclic
shift |j> -> |j+1>, so that X Y = w Y X. Each image is a monomial matrix
of entries w^p, p an integer mod d, held exactly as a permutation and a
list of exponents (and the word's phase where it is not a multiple of 1/d
turn): composing gathers the one and adds the other mod d, and the checks
compare exactly, at O(D) in the dimension D = d^n. Only the eigenvector is
floating point; only `represent`, the dense matrix for tests, uses numpy.
"""

import cmath
import math
import random
from functools import reduce
from itertools import combinations
from operator import add, mul, sub

# perfbench/spans.py patches `cvghz.oracle.verify`; nothing here calls it.
from .paradox import OperatorSet, Refusal, verify  # noqa: F401
from .weyl import RationalPhase, WeylWord, _Frozen, product

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


def _split(phase: RationalPhase, d: int) -> tuple[int, RationalPhase]:
    """(k, rest) with phase = k/d + rest turns and 0 <= rest < 1/d."""
    k = phase.numerator * d // phase.denominator
    return k, RationalPhase(phase.numerator * d - k * phase.denominator,
                            phase.denominator * d)


class Monomial(_Frozen):
    """D x D matrix whose row i holds e^{2*pi*i*phase} w^power[i] at column
    perm[i] only. Powers are in range(d) and the phase below 1/d turn, so
    equal matrices have equal fields; but a Monomial is equal only to
    itself, as the lists it holds are not hashable."""

    __slots__ = ("d", "perm", "power", "phase")
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __matmul__(self, other: "Monomial") -> "Monomial":
        d, perm = self.d, self.perm
        k, phase = _split(self.phase + other.phase, d)
        wrap = [(s + k) % d for s in range(2 * d - 1)]  # p + q + k mod d
        return Monomial(d, list(map(other.perm.__getitem__, perm)), [
            wrap[p + q] for p, q in
            zip(self.power, map(other.power.__getitem__, perm))], phase)

    def coefficients(self) -> list[complex]:
        """The D entries, read from one table of the d roots."""
        table = [self.phase.to_complex() * w for w in _roots_of_unity(self.d)]
        return list(map(table.__getitem__, self.power))

    def apply(self, vec: list[complex]) -> list[complex]:
        """self @ vec for one vector of length D."""
        return list(map(mul, self.coefficients(),
                        map(vec.__getitem__, self.perm)))

    def distance(self, other: "Monomial") -> float:
        """Frobenius norm of self - other, 0 for equal fields and otherwise
        summed over the entries that differ."""
        if self._fields() == other._fields():
            return 0.0
        same = self.phase == other.phase
        return math.sqrt(math.fsum([
            abs(a - b) ** 2 if i == j else 2.0  # two unit entries
            for i, j, p, q, a, b in zip(self.perm, other.perm, self.power,
                                        other.power, self.coefficients(),
                                        other.coefficients())
            if i != j or p != q or not same]))


def monomial(word: WeylWord,
             dim_ceiling: int = DEFAULT_DIM_CEILING) -> Monomial:
    """e^{2*pi*i*phase} times the tensor product of the parties' X^m Y^n.

    Per site (party 0 is the leading digit), row r of X^m Y^n holds w^{m r}
    at column (r - n) mod d, for any integer m and n, as X^d = Y^d = I."""
    d = word.params.d
    _check_dimension(d, word.n_parties, dim_ceiling)
    k, phase = _split(word.phase, d)
    perm, power = [0], [k]
    for m, n in word.exponents:
        cols = [(r - n) % d for r in range(d)]
        steps = [m * r % d for r in range(d)]
        perm = [j * d + c for j in perm for c in cols]
        power = [(p + s) % d for p in power for s in steps]
    return Monomial(d, perm, power, phase)


def represent(word: WeylWord, dim_ceiling: int = DEFAULT_DIM_CEILING):
    """The word's image as a dense D x D numpy matrix, for tests and small
    D; it imports numpy, and nothing in the CLI calls it."""
    import numpy as np

    mon = monomial(word, dim_ceiling)
    dim = len(mon.perm)
    mat = np.zeros((dim, dim), dtype=complex)
    mat[np.arange(dim), mon.perm] = mon.coefficients()
    return mat


class Images(_Frozen):
    """A set's clock-and-shift images, which both checks read: the
    operators' monomials, the image of their symbolic product, and the
    largest Frobenius norm of a pairwise commutator."""

    __slots__ = ("d", "monomials", "product", "commutator_norm")


def images(op_set: OperatorSet,
           dim_ceiling: int = DEFAULT_DIM_CEILING) -> Images:
    """The set's images; the first `monomial` refuses a dimension above
    the ceiling before anything is allocated."""
    mons = tuple(monomial(w, dim_ceiling) for w in op_set.operators)
    return Images(op_set.params.d, mons,
                  monomial(product(op_set.operators), dim_ceiling),
                  max(((a @ b).distance(b @ a)
                       for a, b in combinations(mons, 2)), default=0.0))


class OracleReport(_Frozen):
    __slots__ = ("dimension", "max_commutator_norm", "product_deviation",
                 "max_unitarity_defect")


def check_set(imgs: Images) -> OracleReport:
    """Confirm commutation and the symbolic product exactly; a monomial
    with unit-modulus entries is unitary by construction."""
    mons = imgs.monomials
    deviation = reduce(Monomial.__matmul__, mons).distance(imgs.product)
    return OracleReport(len(mons[0].perm), imgs.commutator_norm, deviation,
                        0.0)


def joint_eigenvector(imgs: Images, seed: int = 0
                      ) -> tuple[list[complex], list[complex]]:
    """One simultaneous eigenvector of a commuting set, with its eigenvalues.

    Projects a seeded random vector onto an eigenspace of each image M in
    turn: M^d = c is a scalar, so P = (1/d) sum_t lam^{-t} M^t projects onto
    the eigenspace of each root lam of lam^d = c, and the largest projection
    wins. |P v|^2 = <v, P v> for an orthogonal projector, so the d inner
    products <v, M^t v> rank the roots and only the winner's P v is formed.
    """
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    if imgs.commutator_norm >= EIGEN_TOL:
        raise ValueError("operator set is not commuting")
    mons = imgs.monomials
    d, dim, roots = imgs.d, len(mons[0].perm), _roots_of_unity(imgs.d)
    rng = random.Random(seed)
    vec = [complex(rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0))
           for _ in range(dim)]
    for mon in mons:
        coeffs, perm = mon.coefficients(), mon.perm
        mv = [vec]  # v, M v .. M^{d-1} v
        for _ in range(d - 1):
            mv.append(list(map(mul, coeffs, map(mv[-1].__getitem__, perm))))
        c, k = 1 + 0j, 0
        for _ in range(d):  # M^d = c: follow row 0 through d factors of M
            c, k = c * coeffs[k], perm[k]
        root = c ** (1 / d)
        conj = list(map(complex.conjugate, vec))
        dots = [root ** -t * sum(map(mul, conj, u)) for t, u in enumerate(mv)]
        norms = [sum([roots[-j * t % d] * x for t, x in enumerate(dots)]).real
                 for j in range(d)]  # d <v, P v> for lam = root w^j
        best = max(range(d), key=norms.__getitem__)
        proj = [x / d for x in vec]
        for t, im in enumerate(mv[1:], start=1):
            weight = (root * roots[best]) ** -t / d
            proj = list(map(add, proj, map(weight.__mul__, im)))
        vec = list(map(complex(1 / _norm(proj)).__mul__, proj))
    conj = list(map(complex.conjugate, vec))
    vals, resid = [], 0.0
    for mon in mons:  # one image of the vector at a time
        image = mon.apply(vec)
        vals.append(lam := sum(map(mul, conj, image)))
        resid = max(resid, _norm(list(map(sub, image, map(lam.__mul__, vec)))))
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
    vals = []
    for w in op_set.operators:
        image = monomial(w).apply(state)
        lam = sum(s.conjugate() * x for s, x in zip(state, image))
        if _norm([x - lam * s for x, s in zip(image, state)]) > EIGEN_TOL:
            raise ValueError("GHZ comb state is not a joint eigenvector "
                             "of the given set")
        vals.append(lam)
    return vals
