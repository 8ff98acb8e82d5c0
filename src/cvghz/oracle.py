"""Clock-and-shift matrix oracle for the lattice Weyl algebra.

Every lattice Weyl word has a faithful image (up to phases that are d-th
roots of unity, which is all the symbolic algebra ever produces) in the
d-dimensional generalized Pauli group: X maps to the clock matrix
diag(1, w, w^2, ...) with w = exp(2*pi*i/d) and Y to the cyclic shift
|j> -> |j+1>, so that X Y = w Y X. Each image is a generalized permutation
matrix, so every check below costs O(D) in the dimension D = d^n.

The checks use only the standard library, so `cvghz oracle` starts without
numpy; only `represent`, the dense matrix for tests, imports it.
"""

import cmath
import math
import random
from functools import reduce
from itertools import accumulate, combinations

# perfbench/spans.py patches `cvghz.oracle.verify`; nothing here calls it.
from .paradox import OperatorSet, Refusal, verify  # noqa: F401
from .weyl import WeylWord, _Frozen, product

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
    return math.sqrt(math.fsum([z.real * z.real + z.imag * z.imag
                                for z in vec]))


class Monomial(_Frozen):
    """D x D matrix whose column k holds coeff[k] at row image[k] only.

    `image` is a permutation of range(D). Equal only to itself, as the
    lists it holds are not hashable.
    """

    __slots__ = ("image", "coeff")
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    @classmethod
    def scalar(cls, dim: int, value: complex) -> "Monomial":
        return cls(list(range(dim)), [complex(value)] * dim)

    def __matmul__(self, other: "Monomial") -> "Monomial":
        image, coeff = self.image, self.coeff
        return Monomial([image[j] for j in other.image],
                        [c * coeff[j]
                         for j, c in zip(other.image, other.coeff)])

    def dagger(self) -> "Monomial":
        inverse = [0] * len(self.image)
        for k, j in enumerate(self.image):
            inverse[j] = k
        coeff = self.coeff
        return Monomial(inverse, [coeff[k].conjugate() for k in inverse])

    def apply(self, vec: list[complex]) -> list[complex]:
        """self @ vec for one vector of length D."""
        out = [0j] * len(vec)
        for j, c, v in zip(self.image, self.coeff, vec):
            out[j] = c * v
        return out

    def distance(self, other: "Monomial") -> float:
        """Frobenius norm of self - other."""
        return math.sqrt(math.fsum([
            abs(a - b) ** 2 if i == j else abs(a) ** 2 + abs(b) ** 2
            for i, j, a, b in zip(self.image, other.image,
                                  self.coeff, other.coeff)]))


def monomial(word: WeylWord,
             dim_ceiling: int = DEFAULT_DIM_CEILING) -> Monomial:
    """e^{2*pi*i*phase} times the tensor product of the parties' X^m Y^n.

    Per site (party 0 is the leading digit), Y^n maps digit k to
    k' = (k + n) mod d and X^m then multiplies by w^{m k'}. X^d = Y^d = I,
    so m and n are taken mod d first; any integer exponent is accepted.
    """
    d = word.params.d
    _check_dimension(d, word.n_parties, dim_ceiling)
    image, power = [0], [0]
    for m, n in word.exponents:
        m, n = m % d, n % d
        shifted = [(k + n) % d for k in range(d)]
        image = [i * d + s for i in image for s in shifted]
        power = [(p + m * s) % d for p in power for s in shifted]
    scale = word.phase.to_complex()
    phases = [scale * w for w in _roots_of_unity(d)]
    return Monomial(image, [phases[p] for p in power])


def represent(word: WeylWord, dim_ceiling: int = DEFAULT_DIM_CEILING):
    """The word's image as a dense D x D numpy matrix (tests and small D).

    Needs numpy, which it imports; nothing in the CLI calls it.
    """
    import numpy as np

    mon = monomial(word, dim_ceiling)
    dim = len(mon.image)
    mat = np.zeros((dim, dim), dtype=complex)
    mat[mon.image, np.arange(dim)] = mon.coeff
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
    """Numerically confirm commutation, unitarity and the symbolic product."""
    mons = imgs.monomials
    eye = Monomial.scalar(len(mons[0].image), 1.0)
    return OracleReport(
        dimension=len(eye.image),
        max_commutator_norm=imgs.commutator_norm,
        product_deviation=reduce(Monomial.__matmul__, mons).distance(
            imgs.product),
        max_unitarity_defect=max((m @ m.dagger()).distance(eye)
                                 for m in mons),
    )


def joint_eigenvector(imgs: Images, seed: int = 0
                      ) -> tuple[list[complex], list[complex]]:
    """One simultaneous eigenvector of a commuting set, with its eigenvalues.

    Projects a seeded random vector onto an eigenspace of each image M in
    turn: M^d = c is a scalar, so (1/d) sum_t lam^{-t} M^t projects onto the
    eigenspace of each root lam of lam^d = c. The largest projection wins.
    """
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    if imgs.commutator_norm >= EIGEN_TOL:
        raise ValueError("operator set is not commuting")
    mons = imgs.monomials
    d, dim = imgs.d, len(mons[0].image)
    rng = random.Random(seed)
    vec = [complex(rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0))
           for _ in range(dim)]
    for mon in mons:
        powers = list(accumulate([mon] * d, Monomial.__matmul__))  # M..M^d
        c = powers[-1].coeff[0]
        if powers[-1].distance(Monomial.scalar(dim, c)) >= EIGEN_TOL:
            raise RuntimeError("an operator's d-th power is not a scalar")
        images = [p.apply(vec) for p in powers[:-1]]  # M v .. M^{d-1} v
        root = c ** (1 / d)
        projections = []
        for w in _roots_of_unity(d):
            proj = [x / d for x in vec]
            for t, image in enumerate(images, start=1):
                weight = (root * w) ** -t / d
                proj = [p + weight * x for p, x in zip(proj, image)]
            projections.append(proj)
        norms = [_norm(p) for p in projections]
        best = max(range(d), key=norms.__getitem__)
        vec = [z / norms[best] for z in projections[best]]
    images = [m.apply(vec) for m in mons]
    vals = [sum(v.conjugate() * x for v, x in zip(vec, image))
            for image in images]
    resid = max(_norm([x - lam * v for x, v in zip(image, vec)])
                for image, lam in zip(images, vals))
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
