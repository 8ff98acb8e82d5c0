"""Tests of the benchmark itself: checks, span arithmetic and tracing.

Run from the root of a checkout:  python3 -m pytest -q perfbench
"""

from __future__ import annotations

import importlib
import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

import checks
import spans
import workloads
from spans import Span
from workloads import Job

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

SEARCH = Job(("search", "--parties", "2"), "search")
LISTING = b"2 paradox class(es) found\n-- class 0:\n   X_A^pi\n-- class 1:\n"


def search_expected(listing: bytes = LISTING) -> dict:
    return {SEARCH.key: {"sha256": checks.digest(listing), "classes": 2}}


def test_search_listing_must_match_byte_for_byte():
    expected = search_expected()
    assert checks.check(SEARCH, 0, LISTING, b"", expected) is None
    for i in range(len(LISTING)):
        flipped = bytearray(LISTING)
        flipped[i] ^= 0x01
        assert checks.check(SEARCH, 0, bytes(flipped), b"", expected)


def test_class_count_line_is_checked():
    wrong = LISTING.replace(b"2 paradox", b"3 paradox")
    assert checks.check(SEARCH, 0, wrong, b"", search_expected(wrong))


def test_wrong_exit_codes_fail():
    assert checks.check(SEARCH, 1, LISTING, b"", search_expected())
    refusal = Job(("oracle", "--set", "w6", "--max-dim", "512"), "refusal")
    assert checks.check(refusal, 3, b"", b"refused: too big\n", {}) is None
    assert checks.check(refusal, 0, b"", b"refused: too big\n", {})
    assert checks.check(refusal, 3, b"x", b"refused: too big\n", {})
    assert checks.check(refusal, 3, b"", b"error\n", {})
    d, rows = workloads.V4
    job = Job(("verify", "--file", "v4.json"), "verify-file",
              {"name": "v4", "d": d, "rows": rows})
    assert checks.check(job, 1, b"", b"", {}).startswith("exit 1")


@pytest.mark.parametrize("key", [
    "simulate --delta 0.2,0.1,0.05",
    "simulate --delta 0.2,0.1,0.05,0.02,0.01,0.005 --peaks 120 "
    "--envelope 40",
])
def test_simulate_cell_off_by_1e_3_fails(key):
    expected = checks.load_expected()
    job = Job(tuple(key.split()), "simulate")
    csv = expected[key]["csv"]
    assert checks.check(job, 0, csv.encode(), b"", expected) is None
    lines = csv.split("\n")
    cells = lines[2].split(",")
    cells[3] = repr(float(cells[3]) + 1e-3)
    lines[2] = ",".join(cells)
    assert checks.check(job, 0, "\n".join(lines).encode(), b"", expected)


W6_ORACLE = """\
  dimension: 1024
  max_commutator_norm: 6.78768152784e-15
  product_deviation: 7.33153398755e-15
  max_unitarity_defect: 0
  product_phase: 1/2
  joint eigenvalues: -4.6e-16-1j, -8.2e-17+1j, -1-9.0e-17j, 1+8.5e-17j, \
-9.0e-17+1j, 8.7e-17-1j
  eigenvalue product: -1+2.60208521397e-17j
  pass: True
"""


def test_oracle_eigenvalue_product_is_checked():
    job = Job(("oracle", "--set", "w6"), "oracle", {"set": "w6"})
    assert checks.check(job, 0, W6_ORACLE.encode(), b"", {}) is None
    bad = W6_ORACLE.replace("product: -1+", "product: -0.99+")
    assert checks.check(job, 0, bad.encode(), b"", {})
    bad = W6_ORACLE.replace("dimension: 1024", "dimension: 512")
    assert checks.check(job, 0, bad.encode(), b"", {})


def test_self_time_on_nested_trace():
    trace = [
        Span("root", 0.0, 10.0, None, 0),
        Span("a", 1.0, 4.0, 0, 0),
        Span("b", 3.0, 5.0, 0, 0),     # overlaps a: covered once
        Span("c", 9.0, 12.0, 0, 0),    # runs past root: clipped
        Span("a.child", 2.0, 3.0, 1, 0),
    ]
    assert spans.self_times(trace) == pytest.approx([5.0, 2.0, 2.0, 3.0, 1.0])


def _targets():
    out = []
    for _, targets in spans.TRACED:
        for target in targets:
            mod_name, attr = target.rsplit(".", 1)
            mod = importlib.import_module(mod_name)
            out.append((mod, attr, getattr(mod, attr)))
    return out


def test_tracer_restores_originals():
    before = _targets()
    with pytest.raises(RuntimeError):
        with spans.Tracer():
            for mod, attr, orig in before:
                assert getattr(mod, attr) is not orig
            raise RuntimeError("leave the block early")
    for mod, attr, orig in before:
        assert getattr(mod, attr) is orig


def test_traced_search_counts():
    import cvghz.cli
    argv = ["search", "--parties", "2", "--dim", "2", "--operators", "2",
            "--max-exp", "1"]
    with spans.Tracer() as tracer, redirect_stdout(io.StringIO()) as out:
        assert tracer.call("cli.main", cvghz.cli.main, argv) == 0
    m = spans.layer_metrics(tracer.spans)
    classes = int(out.getvalue().split(" ", 1)[0])
    assert m["paradox.search.calls"] == 1
    assert m["paradox.search.rows"] == 3 ** 4 - 1
    assert m["paradox.search.classes"] == classes > 0
    assert m["paradox.canonical_rows.calls"] > 0
    assert m["paradox.search.canon_yield"] == (
        classes / m["paradox.canonical_rows.calls"])
    assert m["weyl.multiply.calls"] == 0


@pytest.mark.parametrize("seed", range(5))
def test_generated_sets_agree_with_cvghz(seed):
    from cvghz import paradox
    sets = workloads.generated_sets(seed)
    for name, d, rows in sets:
        want = workloads.verdict(d, rows)
        got = paradox.verify(paradox.set_from_rows(d, rows))
        assert want.paradox == got.is_paradox == (not name.endswith("broken"))
        assert want.commuting == got.is_commuting
        assert want.column_sums == got.column_sums
        if want.phase is not None:
            assert want.phase == got.product_phase.turns


def test_declared_metrics_are_the_measured_ones():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    layer = set(spans.layer_metrics([])) | {
        "import.numpy_s", "import.cvghz_s", "trace.overhead_s"}
    assert {m["name"] for m in bench["per_layer"]} == layer
    assert {w["name"] for w in bench["workloads"]} == set(workloads.NAMES)
    assert [m["name"] for m in bench["end_to_end"]
            if m["name"] == "setup_s"] == ["setup_s"]
