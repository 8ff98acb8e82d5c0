"""Clock-and-shift matrix oracle for the lattice Weyl algebra.

Every lattice Weyl word has a faithful image (up to phases that are d-th
roots of unity, which is all the symbolic algebra ever produces) in the
d-dimensional generalized Pauli group: X maps to the clock matrix
diag(1, w, w^2, ...) with w = exp(2*pi*i/d) and Y to the cyclic shift
|j> -> |j+1>, so that X Y = w Y X. Each image is a generalized permutation
matrix, so every check below costs O(D) in the dimension D = d^n.
"""

from dataclasses import dataclass
from functools import reduce
from itertools import accumulate, combinations

import numpy as np

# perfbench/spans.py patches `cvghz.oracle.verify`; nothing here calls it.
from .paradox import OperatorSet, verify  # noqa: F401
from .weyl import LatticeParams, WeylWord, product

DEFAULT_DIM_CEILING = 4096
EIGEN_TOL = 1e-8  # tolerance of the eigenvector checks and of |lambda| = 1


class DimensionCeilingError(ValueError):
    """Raised when the dimension d^n_parties exceeds the ceiling."""

    def __init__(self, dim: int, ceiling: int):
        self.dim = dim
        self.ceiling = ceiling
        super().__init__(
            f"dense dimension {dim} exceeds ceiling {ceiling}")


def clock_shift(d: int) -> tuple[np.ndarray, np.ndarray]:
    """The d x d clock X = diag(w^j) and shift Y: |j> -> |j+1 mod d>."""
    params = LatticeParams(d)
    return (represent(WeylWord(params, ((1, 0),))),
            represent(WeylWord(params, ((0, 1),))))


@dataclass(frozen=True, eq=False)
class Monomial:
    """D x D matrix whose column k holds coeff[k] at row image[k] only."""

    image: np.ndarray  # intp, a permutation of range(D)
    coeff: np.ndarray  # complex128

    @classmethod
    def scalar(cls, dim: int, value: complex) -> "Monomial":
        return cls(np.arange(dim), np.full(dim, value, dtype=complex))

    def __matmul__(self, other: "Monomial") -> "Monomial":
        return Monomial(self.image[other.image],
                        other.coeff * self.coeff[other.image])

    def dagger(self) -> "Monomial":
        inverse = np.empty_like(self.image)
        inverse[self.image] = np.arange(len(inverse))
        return Monomial(inverse, self.coeff[inverse].conj())

    def apply(self, vecs: np.ndarray) -> np.ndarray:
        """self @ vecs, for a vector or the columns of a matrix."""
        out = np.empty(vecs.shape, dtype=complex)
        out[self.image] = (self.coeff * vecs.T).T
        return out

    def distance(self, other: "Monomial") -> float:
        """Frobenius norm of self - other."""
        sq = np.where(self.image == other.image,
                      abs(self.coeff - other.coeff) ** 2,
                      abs(self.coeff) ** 2 + abs(other.coeff) ** 2)
        return float(np.sqrt(sq.sum()))


def monomial(word: WeylWord,
             dim_ceiling: int = DEFAULT_DIM_CEILING) -> Monomial:
    """e^{2*pi*i*phase} times the tensor product of the parties' X^m Y^n.

    Per site (party 0 is the leading digit), Y^n maps digit k to
    k' = (k + n) mod d and X^m then multiplies by w^{m k'}. X^d = Y^d = I,
    so m and n are taken mod d first; any integer exponent is accepted.
    """
    d = word.params.d
    dim = d ** word.n_parties
    if dim > dim_ceiling:
        raise DimensionCeilingError(dim, dim_ceiling)
    image = power = np.zeros(1, dtype=np.intp)
    for m, n in word.exponents:
        m, n = m % d, n % d
        shifted = (np.arange(d) + n) % d
        image = (image[:, None] * d + shifted).ravel()
        power = (power[:, None] + m * shifted).ravel() % d
    omega = np.exp(2j * np.pi * np.arange(d) / d)
    return Monomial(image, word.phase.to_complex() * omega[power])


def represent(word: WeylWord,
              dim_ceiling: int = DEFAULT_DIM_CEILING) -> np.ndarray:
    """The word's image as a dense D x D matrix (tests and small D)."""
    mon = monomial(word, dim_ceiling)
    return mon.apply(np.eye(len(mon.image)))


def _max_commutator_norm(mons: list[Monomial]) -> float:
    return max(((a @ b).distance(b @ a) for a, b in combinations(mons, 2)),
               default=0.0)


@dataclass(frozen=True)
class OracleReport:
    dimension: int
    max_commutator_norm: float
    product_deviation: float
    max_unitarity_defect: float


def check_set(op_set: OperatorSet,
              dim_ceiling: int = DEFAULT_DIM_CEILING) -> OracleReport:
    """Numerically confirm commutation, unitarity and the symbolic product."""
    mons = [monomial(w, dim_ceiling) for w in op_set.operators]
    eye = Monomial.scalar(len(mons[0].image), 1.0)
    prod_word = product(op_set.operators)
    return OracleReport(
        dimension=len(eye.image),
        max_commutator_norm=_max_commutator_norm(mons),
        product_deviation=reduce(Monomial.__matmul__, mons).distance(
            monomial(prod_word, dim_ceiling)),
        max_unitarity_defect=max((m @ m.dagger()).distance(eye)
                                 for m in mons),
    )


def joint_eigenvector(op_set: OperatorSet, seed: int = 0,
                      dim_ceiling: int = DEFAULT_DIM_CEILING
                      ) -> tuple[np.ndarray, list[complex]]:
    """One simultaneous eigenvector of a commuting set, with its eigenvalues.

    Projects a seeded random vector onto an eigenspace of each image M in
    turn: M^d = c is a scalar, so (1/d) sum_t lam^{-t} M^t projects onto the
    eigenspace of each root lam of lam^d = c. The largest projection wins.
    """
    mons = [monomial(w, dim_ceiling) for w in op_set.operators]
    if _max_commutator_norm(mons) >= EIGEN_TOL:
        raise ValueError("operator set is not commuting")
    d, dim = op_set.params.d, len(mons[0].image)
    rng = np.random.default_rng(seed)
    vec = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    for mon in mons:
        powers = list(accumulate([mon] * d, Monomial.__matmul__))  # M..M^d
        c = complex(powers[-1].coeff[0])
        if powers[-1].distance(Monomial.scalar(dim, c)) >= EIGEN_TOL:
            raise RuntimeError("an operator's d-th power is not a scalar")
        images = np.array([vec] + [p.apply(vec) for p in powers[:-1]])
        roots = c ** (1 / d) * np.exp(2j * np.pi * np.arange(d) / d)
        projections = (roots[:, None] ** -np.arange(d) / d) @ images
        best = projections[np.argmax(np.linalg.norm(projections, axis=1))]
        vec = best / np.linalg.norm(best)
    vals = [complex(np.vdot(vec, m.apply(vec))) for m in mons]
    resid = max(np.linalg.norm(m.apply(vec) - lam * vec)
                for m, lam in zip(mons, vals))
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
    up = np.ones(1)
    for _ in range(op_set.n_parties):
        up = np.outer(up, np.array([1.0, 1j]) / np.sqrt(2)).ravel()
    state = (up - up.conj()) / np.sqrt(2)  # down...down = conj(up...up)
    vals = []
    for w in op_set.operators:
        image = monomial(w).apply(state)
        lam = complex(np.vdot(state, image))
        if np.linalg.norm(image - lam * state) > EIGEN_TOL:
            raise ValueError("GHZ comb state is not a joint eigenvector "
                             "of the given set")
        vals.append(lam)
    return vals
