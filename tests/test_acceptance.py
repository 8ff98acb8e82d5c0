"""Acceptance suite: one test per criterion, printed pass/fail lines.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Each test pins its stated tolerance; nothing is calibrated at run
time.
"""

import json
import time

import numpy as np
import pytest

from cvghz import cli, oracle, paradox, states
from cvghz.paradox import builtin, canonical_rows, search, verify
from cvghz.weyl import LatticeParams, RationalPhase, WeylWord, multiply
from references import lhv_value, quadrature_check

HALF = RationalPhase(1, 2)


def report_line(n, label):
    print(f"\nACCEPTANCE criterion {n} ({label}): PASS")


def test_criterion_1_exact_v4_verification(capsys):
    start = time.perf_counter()
    code = cli.main(["verify", "--set", "v4", "--json"])
    elapsed = time.perf_counter() - start
    data = json.loads(capsys.readouterr().out)
    assert code == 0
    report = verify(builtin("v4"))
    # exact integer arithmetic: structural equality, no tolerances
    for i in range(4):
        for j in range(4):
            assert report.pairwise_phases[i][j] == 0
    assert report.column_sums == ((0, 0),) * 3
    assert report.product_phase == HALF
    assert data["product_phase"] == "1/2"
    assert elapsed < 1.0
    with capsys.disabled():
        report_line(1, "exact v4 verification")


def test_criterion_2_exact_w6_verification(capsys):
    start = time.perf_counter()
    code = cli.main(["verify", "--set", "w6"])
    elapsed = time.perf_counter() - start
    capsys.readouterr()
    assert code == 0
    report = verify(builtin("w6"))
    pairs = [(i, j) for i in range(6) for j in range(i + 1, 6)]
    assert len(pairs) == 15
    for i, j in pairs:
        assert report.pairwise_phases[i][j] == 0
    assert report.product_phase == HALF
    assert elapsed < 1.0
    with capsys.disabled():
        report_line(2, "exact w6 verification")


def test_criterion_3_lhv_contradiction(capsys):
    rng = np.random.default_rng(2026)
    for name in ("v4", "w6"):
        op_set = builtin(name)
        assert verify(op_set).product_phase == HALF  # quantum side: -1
        for _ in range(100):
            value = lhv_value(op_set,
                              rng.uniform(-5, 5, op_set.n_parties),
                              rng.uniform(-5, 5, op_set.n_parties))
            assert abs(value - 1) < 1e-12  # classical side: +1
    with capsys.disabled():
        report_line(3, "LHV product +1 vs quantum -1")


def test_criterion_4_oracle_equivalence(capsys):
    rng = np.random.default_rng(41)
    checked = 0
    for d in (2, 3, 4):
        params = LatticeParams(d)
        for _ in range(170):
            n = int(rng.integers(1, 4))
            words = []
            for _ in range(2):
                exps = tuple((int(rng.integers(-4, 5)),
                              int(rng.integers(-4, 5))) for _ in range(n))
                words.append(WeylWord(params, exps, int(rng.integers(0, d))))
            a, b = words
            lhs = oracle.represent(multiply(a, b))
            rhs = oracle.represent(a) @ oracle.represent(b)
            assert np.linalg.norm(lhs - rhs) < 1e-10
            checked += 1
    assert checked >= 500

    for name in ("v4", "w6"):
        start = time.perf_counter()
        report = oracle.check_set(builtin(name))
        elapsed = time.perf_counter() - start
        assert report.max_commutator_norm < 1e-10
        assert report.product_deviation < 1e-10
        assert report.max_unitarity_defect < 1e-10
        if name == "w6":
            assert report.dimension == 1024
            assert elapsed < 1.0
        else:
            assert report.dimension == 8
    with capsys.disabled():
        report_line(4, f"matrix homomorphism on {checked} pairs + "
                       f"v4/w6 oracle")


def test_criterion_5_eigenvalue_product(capsys):
    _, phases = oracle.joint_eigenvector(oracle.check_set(builtin("v4")),
                                         seed=0)
    vals = [RationalPhase(k, 4).to_complex() for k in phases]  # k/d^2
    assert len(vals) == 4
    for v in vals:
        assert abs(abs(v) - 1) < 1e-8
    assert abs(np.prod(vals) + 1) < 1e-8
    with capsys.disabled():
        report_line(5, "joint eigenvalue product -1")


def test_criterion_6_search_rediscovery(capsys):
    start = time.perf_counter()
    results = search(LatticeParams(2), 3, 4, 1)
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    target = canonical_rows(builtin("v4").rows)
    assert target in {s.rows for s in results}
    for s in results:
        assert verify(s).is_paradox
    with capsys.disabled():
        report_line(6, f"search rediscovers v4 class "
                       f"({len(results)} classes, {elapsed:.1f}s)")


def test_criterion_7_finite_squeezing_convergence(capsys):
    rows = states.convergence_study([0.2, 0.1, 0.05], n_peaks=20,
                                    envelope_width=10.0)
    devs = [r.deviation for r in rows]
    assert all(a >= b for a, b in zip(devs, devs[1:]))
    assert devs[-1] < 0.05
    with capsys.disabled():
        report_line(7, f"comb convergence, final deviation {devs[-1]:.4f}")


def test_criterion_8_integral_oracle_agreement(capsys):
    rng = np.random.default_rng(88)
    d2 = LatticeParams(2)
    cases = [(1, 0), (2, 0), (-1, 0),        # pure X
             (0, 1), (0, 2), (0, -1),        # pure Y
             (1, 1), (-1, 2), (2, -1)]       # mixed
    while len(cases) < 20:
        m = int(rng.integers(-2, 3))
        n = int(rng.integers(-2, 3))
        cases.append((m, n))
    for i, (m, n) in enumerate(cases):
        kind = "up" if i % 2 == 0 else "down"
        delta = [0.05, 0.08, 0.12][i % 3]
        comb = states.make_comb(kind, delta, 8, 6.0)
        state = states.ProductStateSum(((1.0, (comb,)),))
        word = WeylWord(d2, ((m, n),))
        closed = states.weyl_expectation(state, word)
        grid = quadrature_check(state, word)
        assert abs(closed - grid) < 1e-8
    with capsys.disabled():
        report_line(8, f"closed form vs quadrature on {len(cases)} cases")
