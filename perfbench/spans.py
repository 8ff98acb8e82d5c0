"""Spans around the calls into cvghz's public functions, and their totals.

A `Tracer` replaces each traced function by a wrapper under every name its
callers look it up by (`paradox.verify` and `oracle.verify` are one layer),
and puts the originals back on exit.  Each call records a span: name, start,
end, parent span and job id.  Spans stay in memory until the run writes
them out.  A span's self time is its duration minus the part of it that its
child spans cover.
"""

from __future__ import annotations

import importlib
import time
from dataclasses import dataclass, field

# (span name, module attributes to patch).  Each attribute is where some
# caller looks the function up, so the wrapper sees every call.
TRACED = (
    ("cli.load_set", ("cvghz.cli.load_set",)),
    ("weyl.multiply", ("cvghz.weyl.multiply",)),
    ("weyl.commutation_phase", ("cvghz.weyl.commutation_phase",
                                "cvghz.paradox.commutation_phase")),
    ("paradox.verify", ("cvghz.paradox.verify", "cvghz.oracle.verify")),
    ("paradox.canonical_rows", ("cvghz.paradox.canonical_rows",)),
    ("paradox.set_from_rows", ("cvghz.paradox.set_from_rows",)),
    ("paradox.search", ("cvghz.paradox.search",)),
    ("oracle.represent", ("cvghz.oracle.represent",)),
    ("oracle.check_set", ("cvghz.oracle.check_set",)),
    ("oracle.joint_eigenvector", ("cvghz.oracle.joint_eigenvector",)),
    ("states.convergence_study", ("cvghz.states.convergence_study",)),
    ("states.ghz_state", ("cvghz.states.ghz_state",)),
    ("states.weyl_expectation", ("cvghz.states.weyl_expectation",)),
    ("states.comb_matrix_element", ("cvghz.states.comb_matrix_element",)),
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index of the parent span, None at the root
    job: int
    args: tuple = ()
    error: str | None = None  # exception type name if the call raised
    outcome: int | None = None  # an int result, or len() of a sized one


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    job: int = 0
    _stack: list[int] = field(default_factory=list)
    _saved: list = field(default_factory=list)

    def call(self, name: str, fn, /, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span called `name`."""
        span = Span(name, 0.0, 0.0,
                    self._stack[-1] if self._stack else None, self.job, args)
        idx = len(self.spans)
        self.spans.append(span)
        self._stack.append(idx)
        span.start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            span.error = type(exc).__name__
            raise
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
        if isinstance(result, int):
            span.outcome = result
        elif hasattr(result, "__len__"):
            span.outcome = len(result)
        return result

    def wrap(self, name: str, fn):
        def wrapper(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        return wrapper

    def __enter__(self):
        for name, targets in TRACED:
            for target in targets:
                mod_name, attr = target.rsplit(".", 1)
                mod = importlib.import_module(mod_name)
                orig = getattr(mod, attr)
                self._saved.append((mod, attr, orig))
                setattr(mod, attr, self.wrap(name, orig))
        return self

    def __exit__(self, *exc):
        while self._saved:
            mod, attr, orig = self._saved.pop()
            setattr(mod, attr, orig)
        return False


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(i, ())):
            lo, hi = max(lo, s.start), min(hi, s.end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((s.end - s.start) - covered)
    return out


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer counts and times of one traced pass over a workload."""
    selfs = self_times(spans)
    calls: dict[str, int] = {}
    total: dict[str, float] = {}
    self_s: dict[str, float] = {}
    for s, st in zip(spans, selfs):
        calls[s.name] = calls.get(s.name, 0) + 1
        total[s.name] = total.get(s.name, 0.0) + (s.end - s.start)
        self_s[s.name] = self_s.get(s.name, 0.0) + st

    m = {}
    for name in ("weyl.multiply", "weyl.commutation_phase", "paradox.verify",
                 "paradox.canonical_rows", "paradox.set_from_rows",
                 "paradox.search", "oracle.represent",
                 "states.weyl_expectation", "states.comb_matrix_element"):
        m[f"{name}.calls"] = calls.get(name, 0)
        m[f"{name}.s"] = total.get(name, 0.0)
    for name in ("cli.load_set", "oracle.check_set",
                 "oracle.joint_eigenvector", "states.convergence_study",
                 "states.ghz_state"):
        m[f"{name}.s"] = total.get(name, 0.0)
    for name in ("cli.main", "paradox.canonical_rows", "paradox.search",
                 "oracle.check_set", "oracle.joint_eigenvector"):
        m[f"{name}.self_s"] = self_s.get(name, 0.0)

    searches = [s for s in spans if s.name == "paradox.search"]
    refused = [s for s in searches if s.error == "SearchSpaceError"]
    m["paradox.search.classes"] = sum(s.outcome or 0 for s in searches)
    m["paradox.search.canon_yield"] = (
        m["paradox.search.classes"] / m["paradox.canonical_rows.calls"]
        if m["paradox.canonical_rows.calls"] else 0.0)
    # search(params, n_parties, n_operators, max_exponent): the row
    # alphabet is every non-identity choice of one (m, n) pair per party.
    m["paradox.search.rows"] = sum(
        (2 * s.args[3] + 1) ** (2 * s.args[1]) - 1 for s in searches)
    m["paradox.search.refusals"] = len(refused)
    m["paradox.search.refusal_s"] = sum(s.end - s.start for s in refused)

    dims = [s.args[0].params.d ** s.args[0].n_parties for s in spans
            if s.name == "oracle.represent"]
    m["oracle.dense_dim"] = max(dims, default=0)
    m["oracle.dense_bytes"] = sum(16 * dim * dim for dim in dims)
    m["oracle.refusals"] = sum(
        1 for s in spans if s.name == "cli.main" and s.args[0][0] == "oracle"
        and s.outcome == 3)
    m["states.peak_pairs"] = sum(
        len(s.args[0].centers) * len(s.args[1].centers) for s in spans
        if s.name == "states.comb_matrix_element")
    return m
