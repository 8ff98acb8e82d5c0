"""Paradox verdicts, LHV evaluation, canonicalization and small searches."""

import cmath
import gc
import itertools
import math
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvghz import orderly, paradox
from cvghz.paradox import (OperatorSet, SearchSpaceError, builtin,
                           canonical_rows, search, set_from_rows, verify)
from cvghz.weyl import (LatticeParams, RationalPhase, WeylWord,
                        commutation_phase, symplectic)
from references import lhv_value

HALF = RationalPhase(1, 2)


def random_assignment(rng, n):
    """Hidden positions and momenta for n parties."""
    return rng.uniform(-5, 5, n), rng.uniform(-5, 5, n)


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
            assert all(w.phase == 0 for w in builtin(name).operators)

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            builtin("v5")


class TestOperatorSet:
    def test_empty_matrix_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            OperatorSet(LatticeParams(2), ())

    def test_ragged_matrix_rejected(self):
        rows = [((1, 0), (0, 1)), ((1, 0),)]
        with pytest.raises(ValueError, match="party count"):
            set_from_rows(2, rows)
        # library callers pass rows to canonical_rows directly
        for ragged in (rows, rows[::-1]):
            with pytest.raises(ValueError):
                canonical_rows(ragged)

    def test_operators_are_the_rows_as_phase_free_words(self):
        s = set_from_rows(3, [[[1, 2], [0, -1]], [[-1, 0], [2, 2]]])
        assert s.rows == (((1, 2), (0, -1)), ((-1, 0), (2, 2)))
        assert s.n_parties == 2
        assert s.operators == (WeylWord(s.params, s.rows[0]),
                               WeylWord(s.params, s.rows[1]))
        assert all(w.phase == 0 for w in s.operators)


@st.composite
def verify_cases(draw):
    """(d, rows): d 2-5, 1-4 parties, 1-6 rows with entries in [-3, 3].

    Entries come from a small per-example alphabet, so that commuting sets
    are common; half the cases replace the last row by minus the sum of
    the others, so that the column sums are zero.
    """
    d = draw(st.integers(2, 5))
    n = draw(st.integers(1, 4))
    k = draw(st.integers(1, 6))
    pair = st.tuples(st.integers(-3, 3), st.integers(-3, 3))
    entry = st.sampled_from(draw(st.lists(pair, min_size=1, max_size=3)))
    rows = draw(st.lists(st.tuples(*[entry] * n), min_size=k, max_size=k))
    if k > 1 and draw(st.booleans()):
        rows[-1] = tuple((-sum(row[p][0] for row in rows[:-1]),
                          -sum(row[p][1] for row in rows[:-1]))
                         for p in range(n))
    return d, rows


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
                assert report.pairwise_phases[i][j] == 0

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

    @pytest.mark.parametrize("seed", range(5))
    def test_pairwise_phases_are_every_ordered_pair(self, monkeypatch, seed):
        # one commutation_phase call per unordered pair fills the matrix
        calls = []

        def counted(a, b):
            calls.append((a, b))
            return commutation_phase(a, b)

        monkeypatch.setattr(paradox, "commutation_phase", counted)
        rng = np.random.default_rng(seed)
        d, n, k = 2 + seed, 3, 12
        s = set_from_rows(d, rng.integers(-3, 4, (k, n, 2)).tolist())
        phases = verify(s).pairwise_phases
        assert len(calls) == k * (k - 1) // 2
        ops = s.operators
        assert phases == tuple(tuple(commutation_phase(a, b) for b in ops)
                               for a in ops)
        for i in range(k):
            assert phases[i][i] == 0
            for j in range(k):
                assert phases[j][i] == -phases[i][j] % d

    @settings(max_examples=300, deadline=None)
    @given(verify_cases())
    def test_report_matches_independent_sums(self, case):
        d, rows = case
        report = verify(set_from_rows(d, rows))
        k, n = len(rows), len(rows[0])
        sums = tuple((sum(row[p][0] for row in rows),
                      sum(row[p][1] for row in rows)) for p in range(n))
        assert report.column_sums == sums == report.product.exponents
        trivial = all(s == (0, 0) for s in sums)
        assert report.is_lhv_trivial == trivial
        assert (report.product_phase is None) == (not report.is_lhv_trivial)
        if trivial:
            # -sum over i < j of crossing(row_i, row_j) / d, mod 1
            cross = sum(rows[j][p][0] * rows[i][p][1] for p in range(n)
                        for i in range(k) for j in range(i + 1, k))
            phase = Fraction(-cross, d) % 1
            assert (report.product_phase.numerator,
                    report.product_phase.denominator) \
                == (phase.numerator, phase.denominator)
        commuting = all(report.pairwise_phases[i][j] == 0
                        for i in range(k) for j in range(i + 1, k))
        assert report.is_paradox == (
            commuting and trivial and report.product_phase.numerator != 0)


class TestLhv:
    @pytest.mark.parametrize("name", ["v4", "w6"])
    def test_builtin_forced_to_plus_one(self, name):
        s = builtin(name)
        rng = np.random.default_rng(7)
        for _ in range(25):
            v = lhv_value(s, *random_assignment(rng, s.n_parties))
            assert abs(v - 1) < 1e-12

    def test_zero_assignment_single_generator(self):
        s = set_from_rows(2, [((1, 0),)])
        v = lhv_value(s, (0.0,), (0.0,))
        assert abs(v - 1) < 1e-15

    def test_single_generator_sweep_matches_exponential(self):
        # d=2: X_A^pi is assigned e^{i*pi*x_A}
        s = set_from_rows(2, [((1, 0),)])
        for x in np.linspace(-3, 3, 13):
            v = lhv_value(s, (float(x),), (0.0,))
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
            assert all(c == (0, 0) for c in verify(s).column_sums)
            v = lhv_value(s, *random_assignment(rng, n))
            assert abs(v - 1) < 1e-12

    def test_missing_party_rejected(self):
        s = builtin("v4")
        with pytest.raises(ValueError):
            lhv_value(s, (0.0,), (0.0,))


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
        rows = canonical_rows(builtin("v4").rows)
        assert canonical_rows(rows) == rows

    def test_keeps_params_and_name(self):
        s = set_from_rows(4, canonical_rows(builtin("w6").rows), "w6")
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

    def test_shared_memo_gives_the_same_forms(self):
        # `search` shares one memo between all its hits
        hits = []
        orderly.walk(orderly.tables(4, 3, 4, UNIT_PAIRS), hits.append)
        memo = {}
        assert [canonical_rows(rows, memo) for rows in hits] \
            == [canonical_rows(rows) for rows in hits]

    def test_preserves_paradox(self):
        rows = canonical_rows(builtin("v4").rows)
        assert verify(set_from_rows(2, rows)).is_paradox


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

# (d, n_parties, n_operators, pairs, classes): alphabets not closed under
# negation, so only party permutations may move a class member to its
# first-row form
NON_CLOSED = [
    (2, 2, 3, [(-1, 1), (0, -1), (0, 1), (1, -1), (1, 0)], 3),
    (4, 2, 3, [(-1, 0), (0, 1), (1, -1)], 3),
    (4, 2, 3, [(-1, -1), (0, 0), (0, 1), (1, 0)], 3),
    (3, 2, 4, [(-1, -1), (0, 1), (1, -1), (1, 1)], 2),
    (3, 1, 4, [(-1, 1), (0, 0), (1, -1), (1, 0)], 1),
    (3, 1, 2, [(-1, -1), (-1, 1), (0, 1), (1, -1), (1, 1)], 2),
]


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

    @pytest.mark.parametrize("d,n_parties,n_operators,pairs,classes",
                             NON_CLOSED)
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
    def test_hits_are_in_first_row_form(self, d, n_parties, n_operators,
                                        pairs):
        # every hit of the walk starts from its least row r in folded
        # sorted form, and no other row's folded key is below r
        closed = pairs is None or all((-m, -n) in pairs for m, n in pairs)
        fold = (lambda e: min(e, (-e[0], -e[1]))) if closed else (lambda e: e)
        tables = orderly.tables(d, n_parties, n_operators,
                                sorted(pairs or UNIT_PAIRS))
        hits = []
        orderly.walk(tables, hits.append)
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
            assert canonical_rows(s.rows) == s.rows

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

    def test_one_party_tables_are_keyed_by_residue(self):
        # 61^2 - 1 rows: one-party tables keyed by pair rather than by
        # pair mod d make this take about 10 s on a 2-core x86 VM
        start = time.perf_counter()
        results = search(LatticeParams(2), 1, 2, 30)
        assert time.perf_counter() - start < 2.0
        assert len(results) == 450

    def test_many_parties_fold_without_recursion(self):
        # one row of 3,000 parties: a mask build that recursed once per
        # party would exceed the recursion limit
        start = time.perf_counter()
        assert search(LatticeParams(2), 3000, 2, 1, allowed_pairs=[(1, 0)]) \
            == []
        assert time.perf_counter() - start < 1.0

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

    def test_nothing_left_to_the_cyclic_collector(self):
        # a reference cycle through the walk's recursive closure would keep
        # its caches, and through visit the found set and memo, allocated
        # until the collector's next full pass
        gc.collect()
        gc.disable()
        try:
            assert len(search(LatticeParams(4), 3, 4, 1)) > 0
            assert gc.collect() == 0
        finally:
            gc.enable()


def orbit_count(rows, pairs):
    """n(c): the distinct sorted images of the row multiset under party
    permutations and per-party sign flips whose entries all stay in the
    alphabet `pairs`."""
    alphabet = set(map(tuple, pairs))
    n_parties = len(rows[0])
    images = set()
    for perm in itertools.permutations(range(n_parties)):
        for signs in itertools.product((1, -1), repeat=n_parties):
            image = tuple(sorted(
                tuple((s * row[p][0], s * row[p][1])
                      for s, p in zip(signs, perm))
                for row in rows))
            if all(e in alphabet for row in image for e in row):
                images.add(image)
    return len(images)


def orbit_sum(classes, pairs):
    return sum(orbit_count(s.rows, pairs) for s in classes)


def raw_count(d, n_parties, n_operators, pairs):
    """R: the number of paradox row multisets over the alphabet.

    The search's own walk over its own tables, but with every row allowed
    as the first row and no hit canonicalized.
    """
    pairs = sorted(set(map(tuple, pairs)))
    if len(pairs) ** n_parties - ((0, 0) in pairs) == 0:
        return 0
    tables = orderly.tables(d, n_parties, n_operators, pairs)
    fields = dict(zip(tables.__slots__, tables._fields()))
    fields["first_rows"] = (1 << len(tables.rows)) - 1
    hits = []
    orderly.walk(orderly.Tables(**fields),
                 lambda rows: hits.append(tuple(sorted(rows))))
    assert len(set(hits)) == len(hits)  # each multiset once
    return len(hits)


class TestOrbitCount:
    """Orbit-stabilizer: the classes' orbit sizes inside the alphabet sum
    to R, the number of paradox row multisets. A class that the search
    drops or splits, or a multiset that the walk misses, breaks the sum;
    this checks the search at sizes the brute force cannot reach."""

    def test_d3_snapshot(self):
        classes = search(LatticeParams(3), 3, 4, 1)
        assert orbit_sum(classes, UNIT_PAIRS) \
            == raw_count(3, 3, 4, UNIT_PAIRS) == 57390

    @pytest.mark.parametrize("d,n_parties,n_operators,pairs,classes",
                             NON_CLOSED)
    def test_non_closed_alphabets(self, d, n_parties, n_operators, pairs,
                                  classes):
        found = search(LatticeParams(d), n_parties, n_operators, 1,
                       allowed_pairs=pairs)
        assert len(found) == classes
        assert orbit_sum(found, pairs) \
            == raw_count(d, n_parties, n_operators, pairs)

    @settings(max_examples=300, deadline=None)
    @given(small_searches())
    def test_sub_alphabets(self, case):
        d, n_parties, n_operators, pairs = case
        found = search(LatticeParams(d), n_parties, n_operators, 1,
                       allowed_pairs=pairs)
        assert orbit_sum(found, pairs) \
            == raw_count(d, n_parties, n_operators, pairs)

    def test_non_closed_alphabet_beyond_the_unit_box(self):
        # entries of size 2 and no negation closure: the sums of entries
        # fill only part of their bounding box
        pairs = [(1, 0), (-1, 0), (0, 1), (0, -1), (2, 1), (1, 2)]
        found = search(LatticeParams(2), 3, 4, 2, allowed_pairs=pairs)
        assert len(found) == 88
        assert orbit_sum(found, pairs) == raw_count(2, 3, 4, pairs) == 1024

    @pytest.mark.slow
    def test_acceptance_search(self):
        classes = search(LatticeParams(2), 3, 4, 1)
        assert orbit_sum(classes, UNIT_PAIRS) \
            == raw_count(2, 3, 4, UNIT_PAIRS) == 106824


@pytest.mark.parametrize("d,n_parties,n_operators,pairs", [
    *[(d, n_parties, 4, UNIT_PAIRS)
      for d in range(2, 6) for n_parties in (1, 2, 3)],
    (4, 2, 6, [(-1, 0), (0, -3), (0, 1), (1, 0)]),  # w6's alphabet
    (4, 3, 6, [(-1, 0), (0, -3), (0, 1), (1, 0)]),
    (2, 2, 3, [(-1, 1), (0, -1), (0, 1), (1, -1), (1, 0)]),  # not closed
])
def test_tables_match_their_definitions(d, n_parties, n_operators, pairs):
    """The walk reads the tables as facts; here each is rebuilt from its
    definition. A table defect that drops the same multisets from every
    walk would pass the orbit-count identity, but not this."""
    tables = orderly.tables(d, n_parties, n_operators, pairs)
    rows = tables.rows
    zero_row = ((0, 0),) * n_parties
    assert sorted(rows) == [row for row in itertools.product(
        pairs, repeat=n_parties) if row != zero_row]
    for i, a in enumerate(rows):
        assert tables.comm[i] == sum(1 << j for j, b in enumerate(rows)
                                     if symplectic(a, b) % d == 0)
    assert len(set(tables.code)) == len(rows)
    assert all(tables.code_index[c] == i for i, c in enumerate(tables.code))
    closed = all((-m, -n) in pairs for m, n in pairs)
    fold = (lambda e: min(e, (-e[0], -e[1]))) if closed else (lambda e: e)
    assert tables.first_rows == sum(
        1 << i for i, row in enumerate(rows)
        if row == tuple(sorted(map(fold, row))))


def walk_hits(d, n_parties, n_operators, pairs):
    """The hits of the search's own walk, each as a sorted multiset."""
    tables = orderly.tables(d, n_parties, n_operators,
                            sorted(set(map(tuple, pairs))))
    hits = set()
    orderly.walk(tables, lambda rows: hits.add(tuple(sorted(rows))))
    return hits


def negation_closure(case):
    d, n_parties, n_operators, pairs = case
    return d, n_parties, n_operators, sorted(
        set(pairs) | {(-m, -n) for m, n in pairs})


class TestCanonicalFormsAreHits:
    """On an alphabet closed under negation, every class's canonical form
    C, as a sorted multiset, is one of the walk's hits.

    Proof: the relabelings keep the alphabet and paradox-hood, so C is a
    paradox row multiset over the alphabet. Its least row R0 is the least
    key of its rows, and key(R0) = R0, so R0 is a first row. Every other
    row r of C has key(r) >= R0, so its index is at least R0's. That is the
    first-row form in which `orderly.walk` visits every paradox multiset.
    """

    @pytest.mark.parametrize("d,classes,hits", [
        (3, 1910, 3325),  # the d=3 snapshot
        (4, 1562, 2761),  # the d=4 benchmark search
    ])
    def test_unit_box(self, d, classes, hits):
        found = search(LatticeParams(d), 3, 4, 1)
        walked = walk_hits(d, 3, 4, UNIT_PAIRS)
        assert (len(found), len(walked)) == (classes, hits)
        assert {s.rows for s in found} <= walked

    @settings(max_examples=200, deadline=None)
    @given(small_searches().map(negation_closure))
    def test_closed_sub_alphabets(self, case):
        d, n_parties, n_operators, pairs = case
        found = search(LatticeParams(d), n_parties, n_operators, 1,
                       allowed_pairs=pairs)
        assert {s.rows for s in found} \
            <= walk_hits(d, n_parties, n_operators, pairs)


def test_search_snapshot_d3():
    # frozen regression count for the exhaustive d=3 enumeration
    results = search(LatticeParams(3), 3, 4, 1)
    assert len(results) == 1910
    for s in results[::100]:
        assert verify(s).is_paradox


def test_search_rediscovers_w6_pattern():
    # restricted to the five-party pattern's alphabet, the exhaustive
    # search must rediscover the built-in six-operator class
    pairs = [(1, 0), (-1, 0), (0, 1), (0, -3)]
    results = search(LatticeParams(4), 5, 6, 3, allowed_pairs=pairs,
                     space_ceiling=1e14)
    target = canonical_rows(builtin("w6").rows)
    assert target in {s.rows for s in results}
    for s in results:
        assert verify(s).is_paradox
    # the raw walk that gives R = 2,048 takes about 13 s, so R is pinned
    assert orbit_sum(results, pairs) == 2048
