"""Gaussian comb states: construction, closed-form expectations, oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvghz import oracle, states
from cvghz.paradox import Refusal, builtin
from cvghz.states import (MAX_PEAKS, OVERLAP_CUTOFF, GaussianComb,
                          ProductStateSum, comb_matrix_element, comb_overlap,
                          convergence_study, ghz_state, make_comb,
                          state_norm, weyl_expectation)
from cvghz.weyl import LatticeParams, RationalPhase, WeylWord, identity_word
from references import quadrature_check

D2 = LatticeParams(2)
# the largest |a - b + s| whose Gaussian factor can reach OVERLAP_CUTOFF
BAND_REACH = math.sqrt(8.0 * math.log(1.0 / OVERLAP_CUTOFF))  # times delta


def reference_comb_matrix_element(bra, ket, mu, shift):
    """`comb_matrix_element` over the full P x P matrix of peak pairs.

    Every pair is evaluated and the pairs under OVERLAP_CUTOFF are zeroed;
    the reference that the banded sum must equal.
    """
    d2 = bra.delta * bra.delta
    a = np.asarray(bra.centers)
    b = np.asarray(ket.centers) - shift
    wa = np.asarray(bra.weights).conj()
    wb = np.asarray(ket.weights)
    gap = a[:, None] - b[None, :]
    gauss = np.exp(-gap * gap / (8.0 * d2))
    gauss[gauss < OVERLAP_CUTOFF] = 0.0
    phase = np.exp(0.5j * mu * (a[:, None] + b[None, :]))
    damping = math.exp(-0.5 * mu * mu * d2)
    return complex(damping * (wa[:, None] * wb[None, :]
                              * gauss * phase).sum())


def unshared_expectation(state, word):
    """`weyl_expectation` with every matrix element evaluated afresh."""
    base = math.sqrt(2.0 / word.params.d)
    total = 0j
    for ct, ft in state.terms:
        for cu, fu in state.terms:
            val = ct.conjugate() * cu
            for bra, ket, (m, n) in zip(ft, fu, word.exponents):
                val *= reference_comb_matrix_element(
                    bra, ket, m * math.pi * base, n * base)
            total += val
    return word.phase.to_complex() * total


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
        dict(delta=1e-300, n_peaks=3, envelope_width=5.0),  # 8*delta^2 = 0
        dict(delta=1e200, n_peaks=3, envelope_width=5.0),  # 8*delta^2 = inf
        dict(delta=0.1, n_peaks=3, envelope_width=1e-300),
        dict(delta=0.1, n_peaks=3, envelope_width=1e300),
    ])
    def test_bad_parameters(self, kwargs):
        with pytest.raises(ValueError):
            make_comb("up", **kwargs)

    def test_bad_kind(self):
        with pytest.raises(ValueError):
            make_comb("sideways", 0.1, 3, 5.0)

    def test_peak_ceiling(self):
        # up to an envelope of about 259 the outermost admitted peaks
        # already weigh exactly 0, so more of them would change nothing
        assert make_comb("up", 0.2, MAX_PEAKS, 259.0).weights[0] == 0
        with pytest.raises(Refusal, match="peaks per side"):
            make_comb("up", 0.2, MAX_PEAKS + 1, 259.0)


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


# unsorted centers, with repeats (integers) and off-lattice values
_centers = st.lists(st.one_of(st.integers(-20, 20).map(float),
                              st.floats(-20, 20)), min_size=1, max_size=12)
_weights = st.complex_numbers(max_magnitude=10, allow_nan=False,
                              allow_infinity=False)


@st.composite
def comb_pairs(draw):
    delta = draw(st.floats(1e-3, 1))
    combs = []
    for _ in range(2):
        centers = draw(_centers)
        weights = draw(st.lists(_weights, min_size=len(centers),
                                max_size=len(centers)))
        combs.append(GaussianComb(tuple(centers), tuple(weights), delta))
    return combs


class TestBandedMatrixElement:
    @settings(max_examples=200, deadline=None)
    @given(comb_pairs(), st.floats(-10, 10),
           # |shift| >= 60 puts every pair outside the band
           st.one_of(st.floats(-5, 5), st.floats(60, 100),
                     st.floats(-100, -60)))
    def test_matches_dense_reference(self, combs, mu, shift):
        bra, ket = combs
        got = comb_matrix_element(bra, ket, mu, shift)
        want = reference_comb_matrix_element(bra, ket, mu, shift)
        scale = (sum(map(abs, bra.weights))
                 * sum(map(abs, ket.weights)))
        assert abs(got - want) <= 1e-12 * scale
        reach = BAND_REACH * bra.delta
        if all(abs(a - b + shift) > 1.01 * reach  # clear of rounding
               for a in bra.centers for b in ket.centers):
            assert got == 0

    def test_peaks_on_both_band_edges_kept(self):
        # ket peaks exactly at a - reach and a + reach: a pair on the
        # edge is summed whenever the cutoff keeps it
        kept = 0
        for delta in np.linspace(0.01, 1.0, 40):
            reach = math.sqrt(8.0 * delta * delta
                              * math.log(1.0 / OVERLAP_CUTOFF))
            bra = GaussianComb((0.0,), (1.0,), delta)
            ket = GaussianComb((-reach, reach), (1.0, 2.0), delta)
            want = reference_comb_matrix_element(bra, ket, 0.0, 0.0)
            if want == 0:
                continue
            kept += 1
            assert comb_matrix_element(bra, ket, 0.0, 0.0) == want
        assert kept


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

    def test_shared_elements_match_unshared(self):
        # an asymmetric comb, so that <c|T_s|c> and <c|T_-s|c> differ,
        # repeated over parties that the words shift both ways
        c = GaussianComb((0.0, 1.0, 2.5), (1.0, 1j, 0.5 - 0.5j), 0.4)
        d = GaussianComb((-1.0, 0.5), (2.0, -1j), 0.4)
        state = ProductStateSum(((1.0, (c, c, d)), (0.5j, (d, c, c))))
        for exps in ([(0, 1), (0, -1), (0, 1)], [(1, 0), (-1, 0), (0, 0)],
                     [(1, 1), (1, -1), (-1, 1)]):
            w = WeylWord(D2, tuple(exps), RationalPhase(1, 4))
            got = weyl_expectation(state, w)
            assert abs(got - unshared_expectation(state, w)) < 1e-12

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

    def test_each_matrix_element_once_per_delta(self, monkeypatch):
        seen = []
        element = states.comb_matrix_element

        def record(bra, ket, mu, shift):
            seen.append((bra, ket, mu, shift))
            return element(bra, ket, mu, shift)

        monkeypatch.setattr(states, "comb_matrix_element", record)
        convergence_study([0.2, 0.1], n_peaks=20, envelope_width=10.0)
        # per delta: the two comb normalizations, then the 4 (bra, ket)
        # comb pairs under the 5 distinct (mu, shift) of I and the v4 words
        assert len(seen) == len(set(seen)) == 2 * (2 + 4 * 5)

    def test_equals_unshared_reference_sum(self, monkeypatch):
        deltas = [0.2, 0.1, 0.05]
        rows = convergence_study(deltas, n_peaks=20, envelope_width=10.0)
        monkeypatch.setattr(states, "comb_matrix_element",
                            reference_comb_matrix_element)
        op_set = builtin("v4")
        lam = oracle.ghz_comb_eigenvalues(op_set)
        for delta, row in zip(deltas, rows):
            state = ghz_state(delta, 20, 10.0)
            want = [unshared_expectation(state, w) for w in op_set.operators]
            for got, ref in zip(row.expectations, want):
                assert abs(got - ref) < 1e-12
            deviation = max(abs(e - l) for e, l in zip(want, lam))
            assert abs(row.deviation - deviation) < 1e-12

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
        for delta in (1e-300, 1e200, math.nan):
            with pytest.raises(ValueError, match="finite"):
                GaussianComb((0.0,), (1.0,), delta)

    def test_overlap_requires_equal_width(self):
        a = make_comb("up", 0.05, 2, 5.0)
        b = make_comb("up", 0.08, 2, 5.0)
        with pytest.raises(ValueError):
            comb_overlap(a, b)

    def test_state_party_count_consistency(self):
        up = make_comb("up", 0.05, 2, 5.0)
        with pytest.raises(ValueError):
            ProductStateSum(((1.0, (up,)), (1.0, (up, up))))
