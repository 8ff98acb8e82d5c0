"""Paradox verdicts, LHV evaluation, canonicalization and small searches."""

import cmath
import itertools
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvghz import paradox
from cvghz.paradox import (LhvAssignment, OperatorSet, SearchSpaceError,
                           builtin, canonical_rows, canonicalize,
                           column_sums, lhv_value, search, set_from_rows,
                           verify)
from cvghz.weyl import LatticeParams, RationalPhase, WeylWord

HALF = RationalPhase(1, 2)


def random_assignment(rng, n):
    return LhvAssignment(tuple(rng.uniform(-5, 5, n)),
                         tuple(rng.uniform(-5, 5, n)))


class TestBuiltins:
    def test_v4_shape(self):
        s = builtin("v4")
        assert s.params.d == 2
        assert s.n_parties == 3
        assert len(s.rows) == 4
        assert s.rows[0] == ((1, 0), (1, 0), (1, 0))
        # second operator: X_A^-pi Y_B^-pi Y_C^pi
        assert s.rows[1] == ((-1, 0), (0, -1), (0, 1))

    def test_w6_shape(self):
        s = builtin("w6")
        assert s.params.d == 4
        assert s.n_parties == 5
        assert len(s.rows) == 6
        # last operator: Y_A^-3q Y_B^q Y_C^q Y_D^q X_E^-q
        assert s.rows[5] == ((0, -3), (0, 1), (0, 1), (0, 1), (-1, 0))

    def test_all_builtin_words_phase_free(self):
        for name in ("v4", "w6"):
            assert all(w.phase.is_zero for w in builtin(name).operators)

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            builtin("v5")


class TestOperatorSet:
    def test_empty_matrix_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            OperatorSet(LatticeParams(2), ())

    def test_ragged_matrix_rejected(self):
        with pytest.raises(ValueError, match="party count"):
            set_from_rows(2, [((1, 0), (0, 1)), ((1, 0),)])

    def test_operators_are_the_rows_as_phase_free_words(self):
        s = set_from_rows(3, [[[1, 2], [0, -1]], [[-1, 0], [2, 2]]])
        assert s.rows == (((1, 2), (0, -1)), ((-1, 0), (2, 2)))
        assert s.n_parties == 2
        assert s.operators == (WeylWord(s.params, s.rows[0]),
                               WeylWord(s.params, s.rows[1]))
        assert all(w.phase.is_zero for w in s.operators)


class TestVerify:
    @pytest.mark.parametrize("name", ["v4", "w6"])
    def test_builtin_is_paradox(self, name):
        report = verify(builtin(name))
        assert report.is_commuting
        assert report.is_lhv_trivial
        assert report.product_phase == HALF
        assert report.is_paradox
        k = len(builtin(name).operators)
        for i in range(k):
            for j in range(k):
                assert report.pairwise_phases[i][j].is_zero

    def test_single_generator_not_paradox(self):
        s = set_from_rows(2, [((1, 0), (0, 0), (0, 0))])
        report = verify(s)
        assert not report.is_lhv_trivial
        assert report.product_phase is None
        assert not report.is_paradox

    def test_commuting_but_trivial_phase_not_paradox(self):
        # {W, W^dagger-pattern} with product = +I: conditions 1-2 hold,
        # condition 3 fails.
        rows = [((1, 0),), ((-1, 0),)]
        report = verify(set_from_rows(2, rows))
        assert report.is_commuting and report.is_lhv_trivial
        assert report.product_phase == RationalPhase(0)
        assert not report.is_paradox

    def test_order_invariance(self):
        s = builtin("v4")
        base = verify(s)
        perm = OperatorSet(s.params,
                           (s.rows[2], s.rows[0], s.rows[3], s.rows[1]))
        report = verify(perm)
        assert report.is_paradox == base.is_paradox
        assert report.product_phase == base.product_phase


class TestLhv:
    @pytest.mark.parametrize("name", ["v4", "w6"])
    def test_builtin_forced_to_plus_one(self, name):
        s = builtin(name)
        rng = np.random.default_rng(7)
        for _ in range(25):
            v = lhv_value(s, random_assignment(rng, s.n_parties))
            assert abs(v - 1) < 1e-12

    def test_zero_assignment_single_generator(self):
        s = set_from_rows(2, [((1, 0),)])
        v = lhv_value(s, LhvAssignment((0.0,), (0.0,)))
        assert abs(v - 1) < 1e-15

    def test_single_generator_sweep_matches_exponential(self):
        # d=2: X_A^pi is assigned e^{i*pi*x_A}
        s = set_from_rows(2, [((1, 0),)])
        for x in np.linspace(-3, 3, 13):
            v = lhv_value(s, LhvAssignment((float(x),), (0.0,)))
            assert abs(v - cmath.exp(1j * math.pi * x)) < 1e-12
            assert abs(abs(v) - 1) < 1e-15

    def test_soundness_random_zero_column_sets(self):
        # any set with vanishing column sums yields exactly +1
        rng = np.random.default_rng(11)
        for _ in range(50):
            d = int(rng.integers(2, 5))
            n = int(rng.integers(1, 4))
            k = int(rng.integers(2, 5))
            rows = rng.integers(-3, 4, size=(k - 1, n, 2))
            last = -rows.sum(axis=0)
            mat = np.concatenate([rows, last[None]], axis=0)
            s = set_from_rows(d, [[tuple(p) for p in row] for row in mat])
            assert all(c == (0, 0) for c in column_sums(s))
            v = lhv_value(s, random_assignment(rng, n))
            assert abs(v - 1) < 1e-12

    def test_missing_party_rejected(self):
        s = builtin("v4")
        with pytest.raises(ValueError):
            lhv_value(s, LhvAssignment((0.0,), (0.0,)))


def reference_canonical_rows(rows, n_parties):
    """Brute-force canonical form: minimum over all n!*2^n relabelings."""
    rows = tuple(rows)
    best = None
    for perm in itertools.permutations(range(n_parties)):
        permuted = [tuple(row[p] for p in perm) for row in rows]
        for signs in itertools.product((1, -1), repeat=n_parties):
            cand = tuple(sorted(
                tuple((s * m, s * n) for s, (m, n) in zip(signs, row))
                for row in permuted))
            if best is None or cand < best:
                best = cand
    return best


@st.composite
def exponent_matrices(draw):
    """(rows, n_parties) with 1-5 parties and 1-6 rows.

    Entries come from a small per-example alphabet that always holds
    (0, 0), so tied entries and sign-free zero entries are common.
    """
    n = draw(st.integers(1, 5))
    k = draw(st.integers(1, 6))
    pair = st.tuples(st.integers(-2, 2), st.integers(-2, 2))
    alphabet = draw(st.lists(pair, min_size=1, max_size=4)) + [(0, 0)]
    entry = st.sampled_from(alphabet)
    rows = draw(st.lists(st.tuples(*[entry] * n), min_size=k, max_size=k))
    return rows, n


class TestCanonicalization:
    @settings(max_examples=300, deadline=None)
    @given(exponent_matrices())
    def test_matches_brute_force(self, case):
        rows, n = case
        assert canonical_rows(rows) == reference_canonical_rows(rows, n)

    @settings(max_examples=300, deadline=None)
    @given(exponent_matrices(), st.data())
    def test_invariant_under_relabeling(self, case, data):
        rows, n = case
        perm = data.draw(st.permutations(range(n)))
        signs = data.draw(st.lists(st.sampled_from((1, -1)),
                                   min_size=n, max_size=n))
        relabeled = [tuple((s * row[p][0], s * row[p][1])
                           for s, p in zip(signs, perm)) for row in rows]
        relabeled = data.draw(st.permutations(relabeled))
        assert canonical_rows(relabeled) == canonical_rows(rows)

    def test_idempotent(self):
        s = canonicalize(builtin("v4"))
        assert canonicalize(s).rows == s.rows

    def test_keeps_params_and_name(self):
        s = canonicalize(builtin("w6"))
        assert (s.params, s.name) == (builtin("w6").params, "w6")
        assert s.rows == canonical_rows(builtin("w6").rows)

    def test_party_relabeling_merges(self):
        rows = builtin("v4").rows
        relabeled = [(r[2], r[0], r[1]) for r in rows]
        assert canonical_rows(rows) == canonical_rows(relabeled)

    def test_per_party_negation_merges(self):
        rows = builtin("v4").rows
        flipped = [((-r[0][0], -r[0][1]), r[1], r[2]) for r in rows]
        assert canonical_rows(rows) == canonical_rows(flipped)

    def test_preserves_paradox(self):
        assert verify(canonicalize(builtin("v4"))).is_paradox


def reference_search(d, n_parties, n_operators, max_exponent,
                     allowed_pairs=None):
    """Canonical forms of every row multiset that `verify` calls a paradox.

    Brute force over `combinations_with_replacement`, with none of the
    search's pruning; the reference that `search` must equal.
    """
    if allowed_pairs is None:
        r = range(-max_exponent, max_exponent + 1)
        allowed_pairs = [(m, n) for m in r for n in r]
    zero_row = ((0, 0),) * n_parties
    rows = [row for row in itertools.product(sorted(set(allowed_pairs)),
                                             repeat=n_parties)
            if row != zero_row]
    found = set()
    for combo in itertools.combinations_with_replacement(rows,
                                                         n_operators):
        if any(map(sum, zip(*[sum(row, ()) for row in combo]))):
            continue  # some column sum is nonzero
        if verify(set_from_rows(d, combo)).is_paradox:
            found.add(reference_canonical_rows(combo, n_parties))
    return found


def search_keys(results):
    return [s.rows for s in results]


UNIT_PAIRS = [(m, n) for m in (-1, 0, 1) for n in (-1, 0, 1)]


@st.composite
def small_searches(draw):
    """(d, n_parties, n_operators, pairs): a sub-alphabet of [-1, 1]^2.

    The operator count is capped so that the brute force visits at most
    5,000 row multisets.
    """
    d = draw(st.integers(2, 4))
    n_parties = draw(st.integers(1, 2))
    pairs = draw(st.lists(st.sampled_from(UNIT_PAIRS), min_size=1,
                          max_size=9, unique=True))
    n_rows = len(pairs) ** n_parties - ((0, 0) in pairs)
    k_max = max([k for k in range(2, 5)
                 if math.comb(n_rows + k - 1, k) <= 5000], default=2)
    n_operators = draw(st.integers(2, k_max))
    return d, n_parties, n_operators, pairs


class TestSearch:
    @pytest.mark.parametrize("d,n_parties,n_operators,max_exponent,classes", [
        (2, 2, 3, 1, 13), (3, 2, 3, 1, 12), (4, 2, 3, 1, 12),
        (2, 1, 4, 2, 14), (4, 1, 4, 2, 10),
    ])
    def test_matches_brute_force(self, d, n_parties, n_operators,
                                 max_exponent, classes):
        want = reference_search(d, n_parties, n_operators, max_exponent)
        got = search(LatticeParams(d), n_parties, n_operators, max_exponent)
        assert search_keys(got) == sorted(want)
        assert len(want) == classes

    # alphabets not closed under negation: only party permutations may
    # move a class member to its first-row form
    @pytest.mark.parametrize("d,n_parties,n_operators,pairs,classes", [
        (2, 2, 3, [(-1, 1), (0, -1), (0, 1), (1, -1), (1, 0)], 3),
        (4, 2, 3, [(-1, 0), (0, 1), (1, -1)], 3),
        (4, 2, 3, [(-1, -1), (0, 0), (0, 1), (1, 0)], 3),
        (3, 2, 4, [(-1, -1), (0, 1), (1, -1), (1, 1)], 2),
        (3, 1, 4, [(-1, 1), (0, 0), (1, -1), (1, 0)], 1),
        (3, 1, 2, [(-1, -1), (-1, 1), (0, 1), (1, -1), (1, 1)], 2),
    ])
    def test_matches_brute_force_non_closed(self, d, n_parties, n_operators,
                                            pairs, classes):
        want = reference_search(d, n_parties, n_operators, 1, pairs)
        got = search(LatticeParams(d), n_parties, n_operators, 1,
                     allowed_pairs=pairs)
        assert search_keys(got) == sorted(want)
        assert len(want) == classes

    @settings(max_examples=300, deadline=None)
    @given(small_searches())
    def test_matches_brute_force_on_sub_alphabets(self, case):
        d, n_parties, n_operators, pairs = case
        got = search(LatticeParams(d), n_parties, n_operators, 1,
                     allowed_pairs=pairs)
        want = reference_search(d, n_parties, n_operators, 1, pairs)
        assert search_keys(got) == sorted(want)

    @pytest.mark.parametrize("d,n_parties,n_operators,pairs", [
        (2, 3, 3, None), (3, 2, 4, None),
        (2, 2, 3, [(-1, 1), (0, -1), (0, 1), (1, -1), (1, 0)]),
        (4, 2, 3, [(-1, -1), (0, 0), (0, 1), (1, 0)]),
    ])
    def test_hits_are_in_first_row_form(self, monkeypatch, d, n_parties,
                                        n_operators, pairs):
        # every hit the DFS canonicalizes starts from its least row r in
        # folded sorted form, and no other row's folded key is below r
        closed = pairs is None or all((-m, -n) in pairs for m, n in pairs)
        fold = (lambda e: min(e, (-e[0], -e[1]))) if closed else (lambda e: e)
        hits = []

        def recording(rows):
            hits.append(list(rows))
            return canonical_rows(rows)

        monkeypatch.setattr(paradox, "canonical_rows", recording)
        search(LatticeParams(d), n_parties, n_operators, 1,
               allowed_pairs=pairs)
        assert hits
        for rows in hits:
            first = min(rows)
            assert rows[0] == first
            assert first == tuple(sorted(map(fold, first)))
            assert min(tuple(sorted(map(fold, row))) for row in rows) \
                == first

    def test_single_operator_finds_nothing(self):
        assert search(LatticeParams(2), 1, 1, 1) == []

    def test_single_party_pairs(self):
        results = search(LatticeParams(2), 1, 2, 1)
        assert results
        for s in results:
            assert verify(s).is_paradox

    def test_two_party_results_all_verify(self):
        results = search(LatticeParams(2), 2, 4, 1)
        assert results
        for s in results:
            assert verify(s).is_paradox
            assert canonicalize(s).rows == s.rows

    def test_deterministic(self):
        a = search(LatticeParams(2), 2, 3, 1)
        b = search(LatticeParams(2), 2, 3, 1)
        assert [s.rows for s in a] == [s.rows for s in b]

    def test_refusal_with_size_estimate(self):
        with pytest.raises(SearchSpaceError) as exc:
            search(LatticeParams(2), 4, 6, 2, space_ceiling=1e6)
        assert exc.value.estimate > 1e6

    def test_refusal_decided_before_rows_are_built(self):
        # 49^6 - 1 rows: building them would take far longer than this
        start = time.perf_counter()
        with pytest.raises(SearchSpaceError):
            search(LatticeParams(2), 6, 6, 3, space_ceiling=1e6)
        assert time.perf_counter() - start < 1.0

    def test_refusal_charges_the_mask_build(self):
        # 25^3 - 1 rows: only 15,624 pairs, but 2.4e8 mask entries
        start = time.perf_counter()
        with pytest.raises(SearchSpaceError) as exc:
            search(LatticeParams(2), 3, 2, 2, space_ceiling=1e6)
        assert time.perf_counter() - start < 1.0
        assert exc.value.estimate == 15624 ** 2

    def test_nan_ceiling_rejected(self):
        with pytest.raises(ValueError, match="NaN") as exc:
            search(LatticeParams(2), 1, 2, 1, space_ceiling=float("nan"))
        assert not isinstance(exc.value, SearchSpaceError)

    def test_infinite_ceiling_means_no_ceiling(self):
        assert search(LatticeParams(2), 1, 2, 1, space_ceiling=math.inf) \
            == search(LatticeParams(2), 1, 2, 1)

    def test_empty_alphabet_finds_nothing(self):
        assert search(LatticeParams(2), 2, 2, 1, allowed_pairs=[]) == []

    def test_allowed_pairs_must_fit_bound(self):
        with pytest.raises(ValueError):
            search(LatticeParams(4), 2, 3, 1, allowed_pairs=[(0, -3), (1, 0)])


def test_search_snapshot_d3():
    # frozen regression count for the exhaustive d=3 enumeration
    results = search(LatticeParams(3), 3, 4, 1)
    assert len(results) == 1910
    for s in results[::100]:
        assert verify(s).is_paradox


@pytest.mark.slow
def test_search_rediscovers_w6_pattern():
    # restricted to the five-party pattern's alphabet, the exhaustive
    # search must rediscover the built-in six-operator class
    pairs = [(1, 0), (-1, 0), (0, 1), (0, -3)]
    results = search(LatticeParams(4), 5, 6, 3, allowed_pairs=pairs,
                     space_ceiling=1e14)
    target = canonicalize(builtin("w6"))
    assert target.rows in {s.rows for s in results}
    for s in results:
        assert verify(s).is_paradox
