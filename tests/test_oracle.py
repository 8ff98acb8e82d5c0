"""Clock-and-shift matrix checks against the symbolic algebra."""

import cmath
import gc
import math
import sys
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvghz.oracle import (DimensionCeilingError, check_set,
                          ghz_comb_eigenvalues, images, joint_eigenvector,
                          monomial, represent)
from cvghz.paradox import OperatorSet, builtin, set_from_rows, verify
from cvghz.weyl import (LatticeParams, RationalPhase, WeylWord,
                        commutation_phase, dagger, identity_word, multiply)


def reference_represent(word):
    """The dense construction: np.kron over parties of X^m Y^n."""
    d = word.params.d
    omega = np.exp(2j * np.pi / d)
    mat = np.array([[word.phase.to_complex()]], dtype=complex)
    for m, n in word.exponents:
        site = np.zeros((d, d), dtype=complex)
        cols = np.arange(d)
        rows_ = (cols + n) % d
        site[rows_, cols] = omega ** (rows_ * m)
        mat = np.kron(mat, site)
    return mat


def dense(mon):
    """A monomial's D x D matrix, built entry by entry from its exact
    fields: row i holds exp(2 pi i (phase + power[i] / d)) at perm[i]."""
    dim = len(mon.perm)
    mat = np.zeros((dim, dim), dtype=complex)
    turns = mon.phase.numerator / mon.phase.denominator
    for i, (j, p) in enumerate(zip(mon.perm, mon.power)):
        mat[i, j] = cmath.exp(2j * math.pi * (turns + p / mon.d))
    return mat


def clock_and_shift(d):
    """The d x d clock X and shift Y: `represent` of the X and Y words."""
    params = LatticeParams(d)
    return (represent(WeylWord(params, ((1, 0),))),
            represent(WeylWord(params, ((0, 1),))))


def random_word(rng, params, n_parties, max_exp=4):
    exps = tuple((int(rng.integers(-max_exp, max_exp + 1)),
                  int(rng.integers(-max_exp, max_exp + 1)))
                 for _ in range(n_parties))
    phase = RationalPhase(int(rng.integers(0, 2 * params.d)), 2 * params.d)
    return WeylWord(params, exps, phase)


class TestClockShift:
    def test_d2_anticommutes(self):
        x, y = clock_and_shift(2)
        assert np.linalg.norm(x @ y + y @ x) < 1e-15

    def test_d4_quarter_phase(self):
        x, y = clock_and_shift(4)
        assert np.linalg.norm(x @ y - 1j * y @ x) < 1e-15

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 7])
    def test_commutation_and_order(self, d):
        x, y = clock_and_shift(d)
        omega = np.exp(2j * np.pi / d)
        assert np.linalg.norm(x @ y - omega * y @ x) < 1e-12
        assert np.linalg.norm(np.linalg.matrix_power(x, d) - np.eye(d)) < 1e-12
        assert np.linalg.norm(np.linalg.matrix_power(y, d) - np.eye(d)) < 1e-12

    def test_d_below_two_rejected(self):
        with pytest.raises(ValueError):
            clock_and_shift(1)

    def test_matches_represent_convention(self):
        # (m, n) -> X^m Y^n must agree with the generator matrices
        x, y = clock_and_shift(3)
        p = LatticeParams(3)
        w = WeylWord(p, ((2, 1),))
        expected = np.linalg.matrix_power(x, 2) @ y
        assert np.linalg.norm(represent(w) - expected) < 1e-12


@st.composite
def word_pairs(draw):
    """Two words on one lattice: d in 2..5, 1-3 parties, exponents in
    [-4, 4] and a random global phase in turns of 1/(2d)."""
    d = draw(st.integers(2, 5))
    n = draw(st.integers(1, 3))
    pair = st.tuples(st.integers(-4, 4), st.integers(-4, 4))

    def word():
        exps = tuple(draw(st.lists(pair, min_size=n, max_size=n)))
        return WeylWord(LatticeParams(d), exps,
                        RationalPhase(draw(st.integers(0, 2 * d - 1)), 2 * d))
    return word(), word()


class TestMonomial:
    @settings(max_examples=200, deadline=None)
    @given(word_pairs())
    def test_matches_dense_reference(self, words):
        a, b = words
        dense_a, dense_b = reference_represent(a), reference_represent(b)
        assert np.linalg.norm(represent(a) - dense_a) < 1e-12
        ma, mb = monomial(a), monomial(b)
        assert np.linalg.norm(dense(ma) - dense_a) < 1e-12
        assert np.linalg.norm(dense(ma @ mb) - dense_a @ dense_b) < 1e-12
        # the exact composition equals the image of the symbolic product,
        # whatever the words' phases
        assert (ma @ mb).distance(monomial(multiply(a, b))) == 0.0
        assert abs(ma.distance(mb) - np.linalg.norm(dense_a - dense_b)) < 1e-12
        vec = list(np.exp(1j * np.arange(len(ma.perm))))  # unit entries
        assert np.linalg.norm(np.asarray(ma.apply(vec))
                              - dense_a @ np.asarray(vec)) < 1e-12


class TestRepresent:
    def test_identity(self):
        m = represent(identity_word(LatticeParams(3), 2))
        assert np.linalg.norm(m - np.eye(9)) < 1e-15

    def test_global_phase(self):
        w = WeylWord(LatticeParams(2), ((0, 0),), RationalPhase(1, 2))
        assert np.linalg.norm(represent(w) + np.eye(2)) < 1e-15

    def test_v4_product_is_minus_identity(self):
        mats = [represent(w) for w in builtin("v4").operators]
        prod = mats[0] @ mats[1] @ mats[2] @ mats[3]
        assert np.linalg.norm(prod + np.eye(8)) < 1e-10

    def test_unitarity(self):
        rng = np.random.default_rng(3)
        p = LatticeParams(4)
        for _ in range(20):
            m = represent(random_word(rng, p, 2))
            assert np.linalg.norm(m @ m.conj().T - np.eye(16)) < 1e-10

    def test_ceiling(self):
        with pytest.raises(DimensionCeilingError):
            represent(identity_word(LatticeParams(4), 7))

    def test_homomorphism_random_pairs(self):
        rng = np.random.default_rng(5)
        for d in (2, 3, 4):
            p = LatticeParams(d)
            for _ in range(40):
                n = int(rng.integers(1, 4))
                a = random_word(rng, p, n)
                b = random_word(rng, p, n)
                lhs = represent(multiply(a, b))
                rhs = represent(a) @ represent(b)
                assert np.linalg.norm(lhs - rhs) < 1e-10

    def test_dagger_is_conjugate_transpose(self):
        rng = np.random.default_rng(9)
        for d in (2, 3, 4):
            p = LatticeParams(d)
            for _ in range(20):
                a = random_word(rng, p, 2)
                assert np.linalg.norm(
                    represent(dagger(a)) - represent(a).conj().T) < 1e-12

    def test_commutation_phase_matches_matrices(self):
        rng = np.random.default_rng(13)
        for d in (2, 3, 5):
            p = LatticeParams(d)
            for _ in range(20):
                a = random_word(rng, p, 2)
                b = random_word(rng, p, 2)
                phi = commutation_phase(a, b).to_complex()
                ma, mb = represent(a), represent(b)
                assert np.linalg.norm(ma @ mb - phi * mb @ ma) < 1e-10


class TestCheckSet:
    def test_v4(self):
        report = check_set(images(builtin("v4")))
        assert report.dimension == 8
        assert report.max_commutator_norm == 0
        assert report.product_deviation == 0
        assert report.max_unitarity_defect == 0

    def test_w6_is_exact(self):
        # the images are compared exactly: no float noise at D = 1024
        report = check_set(images(builtin("w6")))
        assert report.dimension == 1024
        assert (report.max_commutator_norm, report.product_deviation,
                report.max_unitarity_defect) == (0, 0, 0)

    def test_noncommuting_pair_reported(self):
        # {X_A, Y_A} at d=2: Frobenius norm of [X, Y] = 2*sqrt(2),
        # cross-checked against the direct 2x2 computation
        rows = [((1, 0),), ((0, 1),)]
        report = check_set(images(set_from_rows(2, rows)))
        x, y = clock_and_shift(2)
        direct = np.linalg.norm(x @ y - y @ x)
        assert abs(report.max_commutator_norm - direct) < 1e-12
        assert abs(direct - 2 * np.sqrt(2)) < 1e-12

    def test_identity_set(self):
        s = set_from_rows(2, [((0, 0), (0, 0))])
        report = check_set(images(s))
        assert report.product_deviation < 1e-15


class TestJointEigenvector:
    def test_v4_eigenvalue_product(self):
        _, vals = joint_eigenvector(images(builtin("v4")), seed=0)
        assert len(vals) == 4
        for v in vals:
            assert abs(abs(v) - 1) < 1e-8
        prod = np.prod(vals)
        assert abs(prod + 1) < 1e-8

    def test_w6_eigenvalue_product(self):
        _, vals = joint_eigenvector(images(builtin("w6")), seed=0)
        assert len(vals) == 6
        for v in vals:
            assert abs(abs(v) - 1) < 1e-8
        assert abs(np.prod(vals) + 1) < 1e-8

    def test_identity_set(self):
        s = set_from_rows(2, [((0, 0),)])
        _, vals = joint_eigenvector(images(s), seed=1)
        assert abs(vals[0] - 1) < 1e-10

    def test_residual_is_small(self):
        s = builtin("v4")
        v, vals = joint_eigenvector(images(s), seed=2)
        v = np.asarray(v)
        for w, lam in zip(s.operators, vals):
            m = represent(w)
            assert np.linalg.norm(m @ v - lam * v) < 1e-8

    @pytest.mark.parametrize("d", [2, 4])
    def test_operator_whose_dth_power_is_minus_one(self, d):
        # (XY)^d = -1 at d = 2 and d = 4: its eigenvalues are d-th roots of
        # -1, not of 1, so the projection must take c's own root
        s = set_from_rows(d, [((1, 1),)])
        mat = reference_represent(s.operators[0])
        assert np.linalg.norm(np.linalg.matrix_power(mat, d)
                              + np.eye(d)) < 1e-12
        for seed in range(5):
            v, vals = joint_eigenvector(images(s), seed=seed)
            v = np.asarray(v)
            assert abs(vals[0] ** d + 1) < 1e-8
            assert np.linalg.norm(mat @ v - vals[0] * v) < 1e-8

    def test_noncommuting_rejected(self):
        s = set_from_rows(2, [((1, 0),), ((0, 1),)])
        with pytest.raises(ValueError):
            joint_eigenvector(images(s))

    def test_negative_seed_rejected(self):
        # random.Random(-1) would silently run as seed 1
        with pytest.raises(ValueError, match="seed"):
            joint_eigenvector(images(builtin("v4")), seed=-1)

    @pytest.mark.parametrize("seed", range(10))
    @pytest.mark.parametrize("name", ["v4", "w6"])
    def test_builtin_over_seeds(self, name, seed):
        s = builtin(name)
        v, vals = joint_eigenvector(images(s), seed=seed)
        v = np.asarray(v)
        assert abs(np.linalg.norm(v) - 1) < 1e-12
        for w, lam in zip(s.operators, vals):
            assert abs(abs(lam) - 1) < 1e-8
            assert np.linalg.norm(represent(w) @ v - lam * v) < 1e-8
        want = cmath.exp(2j * math.pi * verify(s).product_phase.turns)
        assert abs(np.prod(vals) - want) < 1e-8

    def test_same_seed_same_vector(self):
        a, vals_a = joint_eigenvector(images(builtin("w6")), seed=7)
        b, vals_b = joint_eigenvector(images(builtin("w6")), seed=7)
        assert np.array_equal(np.asarray(a), np.asarray(b))
        assert vals_a == vals_b


def test_padded_v4_at_dimension_2_pow_16():
    # v4 on 3 of 16 parties: D = 2**16, far beyond any dense matrix
    rows = [row + ((0, 0),) * 13 for row in builtin("v4").rows]
    s = set_from_rows(2, rows)
    start = time.perf_counter()
    imgs = images(s, dim_ceiling=2 ** 16)
    report = check_set(imgs)
    _, vals = joint_eigenvector(imgs, seed=0)
    assert time.perf_counter() - start < 5.0
    assert report.dimension == 2 ** 16
    assert report.max_commutator_norm < 1e-8
    assert report.product_deviation < 1e-8
    assert report.max_unitarity_defect < 1e-8
    assert abs(np.prod(vals) + 1) < 1e-8


def test_nothing_held_after_the_checks():
    # the images of v4 padded to D = 2**16 take about 15 MiB in some 330,000
    # interpreter blocks; once the caller drops them, the oracle must keep
    # none of them
    rows = [row + ((0, 0),) * 13 for row in builtin("v4").rows]
    gc.collect()
    before = sys.getallocatedblocks()
    s = set_from_rows(2, rows)
    imgs = images(s, dim_ceiling=2 ** 16)
    check_set(imgs)
    joint_eigenvector(imgs, seed=0)
    del s, imgs
    gc.collect()
    assert sys.getallocatedblocks() - before < 10_000


class TestGhzCombEigenvalues:
    def test_v4_values(self):
        vals = ghz_comb_eigenvalues(builtin("v4"))
        assert abs(vals[0] + 1) < 1e-12
        for v in vals[1:]:
            assert abs(v - 1) < 1e-12
        assert abs(np.prod(vals) + 1) < 1e-12

    def test_requires_d2(self):
        with pytest.raises(ValueError):
            ghz_comb_eigenvalues(builtin("w6"))
