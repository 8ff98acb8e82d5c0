"""Output checks: each job's exit code, stdout and stderr against the truth.

`check` returns None for a correct result and a one-line reason otherwise.
Search listings and the fixed verify reports must match, byte for byte, the
digests recorded at the seed commit in expected.json.  Verdicts on generated
files and oracle eigenvalue products are checked against the independent
arithmetic in `workloads`.  Simulation cells are compared to the recorded
CSV within SIM_TOL.
"""

from __future__ import annotations

import cmath
import hashlib
import json
import math
from pathlib import Path

from workloads import BUILTINS, Job, verdict

EXPECTED_PATH = Path(__file__).with_name("expected.json")
SIM_TOL = 1e-9  # absolute, per CSV cell; the output has 12 significant digits
EIG_TOL = 1e-8


def load_expected() -> dict:
    return json.loads(EXPECTED_PATH.read_text(encoding="utf-8"))


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def check(job: Job, code, out: bytes, err: bytes, expected: dict):
    """None if the job's result is correct, else the reason it is not."""
    if job.kind == "refusal":
        if code != 3:
            return f"exit {code}, want 3"
        if out:
            return "refusal wrote to stdout"
        if not err.startswith(b"refused:"):
            return "stderr lacks 'refused:'"
        return None
    want_code = 0
    if job.kind == "verify-file":
        want_code = 0 if _verdict_of(job).paradox else 1
    if code != want_code:
        return f"exit {code}, want {want_code}"
    if job.kind == "help":
        return None if out.startswith(b"usage: cvghz") else "no usage text"
    if err:
        return "unexpected stderr"
    text = out.decode("utf-8", "replace")
    if job.kind in ("search", "verify-digest"):
        rec = expected[job.key]
        if job.kind == "search":
            first = text.split("\n", 1)[0]
            if first != f"{rec['classes']} paradox class(es) found":
                return f"class count line {first!r}"
        return None if digest(out) == rec["sha256"] else "stdout digest"
    if job.kind == "verify-file":
        return _check_verify_file(job, text)
    if job.kind == "oracle":
        return _check_oracle(job, text)
    if job.kind == "simulate":
        return _check_simulate(text, expected[job.key]["csv"])
    raise ValueError(f"unknown job kind {job.kind!r}")


def _verdict_of(job: Job):
    return verdict(job.expect["d"], job.expect["rows"])


def _check_verify_file(job: Job, text: str):
    v = _verdict_of(job)
    rows = job.expect["rows"]
    lines = text.split("\n")
    k = len(rows)
    if len(lines) != k + 6 or lines[-1] != "":
        return f"{len(lines)} lines"
    head = (f"operator set {job.expect['name']}: d={job.expect['d']}, "
            f"{len(rows[0])} parties, {k} operators")
    want = {
        0: head,
        k + 1: f"  all pairs commute:   {v.commuting}",
        k + 2: (f"  column sums zero:    {v.trivial} "
                f"{[list(s) for s in v.column_sums]}"),
        k + 4: f"  GHZ paradox:         {v.paradox}",
    }
    for i, line in want.items():
        if lines[i] != line:
            return f"line {i}: {lines[i]!r}"
    for i in range(1, k + 1):
        if not lines[i].startswith(f"  [{i}] "):
            return f"operator line {i}"
    if v.phase is None:
        prefix = "  product:             not scalar ("
    else:
        ph = v.phase
        prefix = (f"  product:             scalar, phase "
                  f"{ph.numerator}/{ph.denominator} turn (")
    return None if lines[k + 3].startswith(prefix) else "product line"


def _parse_complex(s: str) -> complex:
    return complex(s.replace(" ", ""))


def _check_oracle(job: Job, text: str):
    d, rows = BUILTINS[job.expect["set"]]
    v = verdict(d, rows)
    if job.expect.get("json"):
        data = json.loads(text)
        eigs = data.get("eigenvalues", [])
        prod = data.get("eigenvalue_product")
    else:
        data, eigs, prod = {}, [], None
        for line in text.splitlines():
            key, _, val = line.strip().partition(": ")
            if key == "joint eigenvalues":
                eigs = val.split(", ")
            elif key == "eigenvalue product":
                prod = val
            else:
                data[key] = val
        data["pass"] = data.get("pass") == "True"
        data["dimension"] = int(data.get("dimension", -1))
    if data["pass"] is not True:
        return "pass is not true"
    if data["dimension"] != d ** len(rows[0]):
        return f"dimension {data['dimension']}"
    phase = f"{v.phase.numerator}/{v.phase.denominator}"
    if data.get("product_phase") != phase:
        return f"product_phase {data.get('product_phase')!r}"
    if len(eigs) != len(rows) or prod is None:
        return "eigenvalues missing"
    want = cmath.exp(2j * math.pi * v.phase)
    if abs(_parse_complex(prod) - want) > EIG_TOL:
        return f"eigenvalue product {prod}"
    if any(abs(abs(_parse_complex(e)) - 1) > EIG_TOL for e in eigs):
        return "eigenvalue off the unit circle"
    return None


def _cells(text: str):
    lines = text.rstrip("\n").split("\n")
    return lines[0], [[float(c) for c in line.split(",")]
                      for line in lines[1:]]


def _check_simulate(text: str, want_csv: str):
    try:
        header, rows = _cells(text)
    except ValueError:
        return "unparsable CSV"
    want_header, want_rows = _cells(want_csv)
    if header != want_header or len(rows) != len(want_rows):
        return "CSV shape"
    for row, want in zip(rows, want_rows):
        if len(row) != len(want):
            return "CSV row length"
        for got, ref in zip(row, want):
            if abs(got - ref) > SIM_TOL:
                return f"CSV cell {got!r}, want {ref!r}"
    devs = [row[-1] for row in rows]
    if any(b > a for a, b in zip(devs, devs[1:])):
        return "deviation increased"
    return None
