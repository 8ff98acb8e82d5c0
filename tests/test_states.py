"""Gaussian comb states: construction, closed-form expectations, oracles."""

import math

import numpy as np
import pytest

from cvghz import oracle
from cvghz.paradox import builtin
from cvghz.states import (GaussianComb, ProductStateSum, comb_overlap,
                          convergence_study, ghz_state, make_comb,
                          quadrature_check, state_norm, weyl_expectation)
from cvghz.weyl import LatticeParams, RationalPhase, WeylWord, identity_word

D2 = LatticeParams(2)


def single_party_state(comb):
    return ProductStateSum(((1.0, (comb,)),))


def word1(m, n, phase=RationalPhase(0)):
    return WeylWord(D2, ((m, n),), phase)


class TestMakeComb:
    def test_trivial_truncation(self):
        c = make_comb("up", 0.1, 0, 10.0)
        assert c.centers == (0.0,)
        assert abs(c.weights[0] - 1.0) < 1e-12

    def test_weight_pattern(self):
        c = make_comb("up", 0.05, 3, 1e6)  # effectively flat envelope
        # weights alternate 1, i, 1, i ... up to common normalization;
        # normalize against the k=0 peak (index n_peaks)
        base = c.weights[3]
        for k, w in zip(range(-3, 4), c.weights):
            expected = 1.0 if k % 2 == 0 else 1j
            assert abs(w / base - expected) < 1e-9

    def test_down_comb_conjugate_pattern(self):
        c = make_comb("down", 0.05, 2, 1e6)
        ratio = [w / c.weights[0] for w in c.weights]
        assert abs(ratio[1] + 1j) < 1e-9  # odd center -> -i

    def test_normalized(self):
        for kind in ("up", "down"):
            c = make_comb(kind, 0.07, 10, 5.0)
            assert abs(comb_overlap(c, c) - 1) < 1e-12

    def test_up_down_nearly_orthogonal(self):
        # residual overlap is set by the truncation boundary; once the
        # peak range comfortably covers the envelope it is negligible
        coarse = abs(comb_overlap(make_comb("up", 0.05, 20, 10.0),
                                  make_comb("down", 0.05, 20, 10.0)))
        fine = abs(comb_overlap(make_comb("up", 0.05, 40, 10.0),
                                make_comb("down", 0.05, 40, 10.0)))
        assert coarse < 1e-2
        assert fine < 1e-6

    @pytest.mark.parametrize("kwargs", [
        dict(delta=-0.1, n_peaks=3, envelope_width=5.0),
        dict(delta=0.1, n_peaks=-1, envelope_width=5.0),
        dict(delta=0.1, n_peaks=3, envelope_width=0.0),
        dict(delta=math.nan, n_peaks=3, envelope_width=5.0),
        dict(delta=math.inf, n_peaks=3, envelope_width=5.0),
        dict(delta=0.1, n_peaks=3, envelope_width=math.inf),
    ])
    def test_bad_parameters(self, kwargs):
        with pytest.raises(ValueError):
            make_comb("up", **kwargs)

    def test_bad_kind(self):
        with pytest.raises(ValueError):
            make_comb("sideways", 0.1, 3, 5.0)


class TestGhzState:
    def test_normalized(self):
        state = ghz_state(0.05, 20, 10.0)
        assert abs(state_norm(state) - 1) < 1e-12

    def test_two_terms_three_parties(self):
        state = ghz_state(0.1, 5, 5.0)
        assert len(state.terms) == 2
        assert state.n_parties == 3

    def test_party_swap_symmetry(self):
        # the state is symmetric under party exchange, so swapping two
        # parties of any operator leaves its expectation unchanged
        state = ghz_state(0.08, 10, 8.0)
        for w in builtin("v4").operators:
            swapped = WeylWord(w.params,
                               (w.exponents[1], w.exponents[0],
                                w.exponents[2]), w.phase)
            a = weyl_expectation(state, w)
            b = weyl_expectation(state, swapped)
            assert abs(a - b) < 1e-10


class TestWeylExpectation:
    def test_identity_is_one(self):
        state = ghz_state(0.1, 8, 6.0)
        v = weyl_expectation(state, identity_word(D2, 3))
        assert abs(v - 1) < 1e-12

    def test_unitary_bound(self):
        rng = np.random.default_rng(21)
        up = make_comb("up", 0.07, 8, 6.0)
        state = single_party_state(up)
        for _ in range(30):
            w = word1(int(rng.integers(-3, 4)), int(rng.integers(-3, 4)))
            assert abs(weyl_expectation(state, w)) <= 1 + 1e-10

    def test_global_phase_invariance(self):
        state = ghz_state(0.06, 12, 8.0)
        phased = ProductStateSum(tuple((c * 1j, f) for c, f in state.terms))
        lam = oracle.ghz_comb_eigenvalues(builtin("v4"))
        for w, l in zip(builtin("v4").operators, lam):
            a = abs(weyl_expectation(state, w) - l)
            b = abs(weyl_expectation(phased, w) - l)
            assert abs(a - b) < 1e-12

    def test_word_phase_carried(self):
        state = single_party_state(make_comb("up", 0.05, 6, 5.0))
        w = word1(0, 0, RationalPhase(1, 2))
        assert abs(weyl_expectation(state, w) + 1) < 1e-12

    def test_party_mismatch_rejected(self):
        state = single_party_state(make_comb("up", 0.05, 6, 5.0))
        with pytest.raises(ValueError):
            weyl_expectation(state, identity_word(D2, 2))


class TestQuadratureAgreement:
    def test_identity(self):
        state = single_party_state(make_comb("up", 0.05, 6, 5.0))
        assert abs(quadrature_check(state, word1(0, 0)) - 1) < 1e-8

    @pytest.mark.parametrize("m,n", [(1, 0), (0, 1), (-1, 0), (0, -1),
                                     (1, 1), (2, -1)])
    def test_pure_and_mixed_words(self, m, n):
        state = single_party_state(make_comb("up", 0.05, 8, 6.0))
        closed = weyl_expectation(state, word1(m, n))
        grid = quadrature_check(state, word1(m, n))
        assert abs(closed - grid) < 1e-8

    def test_randomized_sample(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            kind = "up" if rng.integers(2) else "down"
            delta = float(rng.uniform(0.04, 0.15))
            comb = make_comb(kind, delta, 6, 5.0)
            state = single_party_state(comb)
            w = word1(int(rng.integers(-2, 3)), int(rng.integers(-2, 3)))
            closed = weyl_expectation(state, w)
            grid = quadrature_check(state, w)
            assert abs(closed - grid) < 1e-8

    def test_grid_too_coarse_rejected(self):
        state = single_party_state(make_comb("up", 0.05, 6, 5.0))
        with pytest.raises(ValueError):
            quadrature_check(state, word1(1, 0), n_points=101)


class TestConvergence:
    def test_monotone_and_final(self):
        rows = convergence_study([0.2, 0.1, 0.05], n_peaks=20,
                                 envelope_width=10.0)
        devs = [r.deviation for r in rows]
        assert all(a >= b for a, b in zip(devs, devs[1:]))
        assert devs[-1] < 0.05

    def test_single_delta(self):
        rows = convergence_study([0.05], n_peaks=20, envelope_width=10.0)
        assert len(rows) == 1
        assert rows[0].deviation < 0.05

    def test_empty(self):
        assert convergence_study([]) == []

    def test_zero_peaks_gives_null_state(self):
        # with a single peak the up and down combs coincide and the
        # two-term difference state vanishes identically
        with pytest.raises(ValueError):
            convergence_study([0.05], n_peaks=0, envelope_width=10.0)

    def test_negative_control_minimal_comb(self):
        # a 3-peak comb barely has comb structure; expectations stray far
        # from the eigenvalues
        rows = convergence_study([0.05], n_peaks=1, envelope_width=10.0)
        assert rows[0].deviation > 0.5

    def test_bad_deltas(self):
        with pytest.raises(ValueError):
            convergence_study([0.05, 0.1])
        with pytest.raises(ValueError):
            convergence_study([-0.1])
        for bad in ([math.nan], [math.inf], [0.1, math.nan]):
            with pytest.raises(ValueError, match="finite"):
                convergence_study(bad)
        with pytest.raises(ValueError, match="finite"):
            convergence_study([0.1], envelope_width=math.inf)


class TestValidation:
    def test_comb_invariants(self):
        with pytest.raises(ValueError):
            GaussianComb((), (), 0.1)
        with pytest.raises(ValueError):
            GaussianComb((0.0,), (1.0,), -0.1)
        with pytest.raises(ValueError):
            GaussianComb((0.0, 1.0), (1.0,), 0.1)

    def test_overlap_requires_equal_width(self):
        a = make_comb("up", 0.05, 2, 5.0)
        b = make_comb("up", 0.08, 2, 5.0)
        with pytest.raises(ValueError):
            comb_overlap(a, b)

    def test_state_party_count_consistency(self):
        up = make_comb("up", 0.05, 2, 5.0)
        with pytest.raises(ValueError):
            ProductStateSum(((1.0, (up,)), (1.0, (up, up))))
