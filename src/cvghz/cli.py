"""Command-line entry point: verify, search, oracle, simulate.

Exit codes are a stable contract, and only `main` maps exceptions to them:
  0  success (paradox confirmed / checks passed)
  1  well-formed negative result
  2  input error, any `ValueError`: bad flags or values, a malformed file,
     an output that cannot be written (stdout included)
  3  resource refusal, a `paradox.Refusal`: search space or matrix
     dimension too large
Any other exception is a bug and keeps its traceback.

Operator-set files are JSON::

    {"name": "v4", "d": 2, "parties": 3,
     "operators": [[[1,0],[1,0],[1,0]], ...]}

storing lattice exponents only; every operator row has exactly `parties`
[m, n] integer pairs.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from collections import Counter

from . import paradox
from .paradox import OperatorSet, Refusal
from .weyl import ZERO_PHASE, LatticeParams, WeylWord

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INPUT = 2
EXIT_REFUSED = 3


class InputError(ValueError):
    """A bad flag, file or output, named in the CLI's own terms."""


def _fmt(x: float) -> str:
    """Fixed 12-significant-digit float rendering for deterministic output."""
    return format(float(x), ".12g")


def _fmt_complex(z: complex) -> str:
    return f"{_fmt(z.real)}{'+' if z.imag >= 0 else '-'}{_fmt(abs(z.imag))}j"


# ---------------------------------------------------------------------------
# Operator-set file format

def set_to_dict(op_set: OperatorSet) -> dict:
    data = {
        "d": op_set.params.d,
        "parties": op_set.n_parties,
        "operators": [[[m, n] for m, n in row] for row in op_set.rows],
    }
    if op_set.name is not None:
        data["name"] = op_set.name
    return data


def _is_int(value) -> bool:
    """A JSON integer; JSON true/false load as bool, a subclass of int."""
    return isinstance(value, int) and not isinstance(value, bool)


def set_from_dict(data: dict) -> OperatorSet:
    if not isinstance(data, dict):
        raise InputError("operator-set file must contain a JSON object")
    for field in ("d", "parties", "operators"):
        if field not in data:
            raise InputError(f"missing field {field!r}")
    d = data["d"]
    parties = data["parties"]
    if not _is_int(d) or d < 2:
        raise InputError(f"field 'd' must be an integer >= 2, got {d!r}")
    if not _is_int(parties) or parties < 1:
        raise InputError(f"field 'parties' must be a positive integer")
    ops = data["operators"]
    if not isinstance(ops, list) or not ops:
        raise InputError("field 'operators' must be a non-empty list")
    for i, row in enumerate(ops):
        if not isinstance(row, list) or len(row) != parties:
            raise InputError(
                f"operator {i}: expected {parties} [m, n] pairs")
        for j, pair in enumerate(row):
            if (not isinstance(pair, list) or len(pair) != 2
                    or not all(map(_is_int, pair))):
                raise InputError(
                    f"operator {i}, party {j}: entry must be an "
                    f"[m, n] integer pair, got {pair!r}")
    name = data.get("name")
    if name is not None and not isinstance(name, str):
        raise InputError(f"field 'name' must be a string, got {name!r}")
    return paradox.set_from_rows(d, ops, name=name)


def _unique_keys(pairs: list) -> dict:
    """A JSON object's pairs as a dict; a repeated key is an input error."""
    counts = Counter(key for key, _ in pairs)
    for key, _ in pairs:  # name the first repeated key in file order
        if counts[key] > 1:
            raise InputError(f"duplicate key {key!r}")
    return dict(pairs)


def load_set(spec: str | None, path: str | None) -> OperatorSet:
    if (spec is None) == (path is None):
        raise InputError("give exactly one of --set or --file")
    if spec is not None:
        try:
            return paradox.builtin(spec)
        except KeyError as exc:
            raise InputError(str(exc)) from None
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh, object_pairs_hook=_unique_keys)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: invalid JSON at line {exc.lineno}, "
                         f"column {exc.colno}: {exc.msg}") from None
    return set_from_dict(data)


# ---------------------------------------------------------------------------
# Rendering

_PARTY_LETTERS = "ABCDEFGHIJKLMNOPQRSTUVWXYZ"


def _party_label(j: int) -> str:
    """A to Z for parties 0-25, then AA, AB, .., ZZ, AAA: bijective base 26."""
    label = _PARTY_LETTERS[j % 26]
    while j >= 26:
        j = j // 26 - 1
        label = _PARTY_LETTERS[j % 26] + label
    return label


def _terms(d: int, exponents) -> list[str]:
    """An exponent row's factors on lattice d, e.g. ['X_A^pi', 'Y_B^-2pi']."""
    unit = {2: "pi", 4: "q"}.get(d, "a0")
    terms = []
    for j, pair in enumerate(exponents):
        label = _party_label(j)
        for sym, e in zip("XY", pair):
            if e:
                coeff = {1: "", -1: "-"}.get(e, str(e))
                terms.append(f"{sym}_{label}^{coeff}{unit}")
    return terms


def render_word(word: WeylWord) -> str:
    """Human-readable rendering, e.g. X_A^pi Y_B^-pi for d=2."""
    parts = _terms(word.params.d, word.exponents)
    if not word.phase.is_zero:
        parts.insert(0, f"e^(2*pi*i*{word.phase})")
    return " ".join(parts) if parts else "I"


_PIPE_BUF = 4096  # POSIX: a pipe write of at most this size is atomic


def _write(chunks) -> None:
    """Write ASCII chunks to stdout in blocks of at most PIPE_BUF bytes.

    Under PYTHONUNBUFFERED, stdout's text layer drops the rest of a short
    write, as a pipe whose reader leaves can make of a larger one.
    """
    block = ""
    for chunk in chunks:
        block += chunk
        if len(block) >= _PIPE_BUF:  # sliced by index: linear time
            for start in range(0, len(block) - _PIPE_BUF + 1, _PIPE_BUF):
                sys.stdout.write(block[start:start + _PIPE_BUF])
            block = block[start + _PIPE_BUF:]
    sys.stdout.write(block)
    sys.stdout.flush()  # so that a failed write raises here


def _write_file(path: str, text: str) -> None:
    """Write text to the file at path; a failure is an input error."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}") from None


def report_to_dict(op_set: OperatorSet,
                   report: paradox.ParadoxReport) -> dict:
    return {
        "name": op_set.name,
        "d": op_set.params.d,
        "parties": op_set.n_parties,
        "operators": [render_word(w) for w in op_set.operators],
        "pairwise_phases": [[str(p) for p in row]
                            for row in report.pairwise_phases],
        "column_sums": [list(s) for s in report.column_sums],
        "is_commuting": report.is_commuting,
        "is_lhv_trivial": report.is_lhv_trivial,
        "product_phase": (str(report.product_phase)
                          if report.product_phase is not None else None),
        "is_paradox": report.is_paradox,
    }


def report_lines(op_set: OperatorSet, report: paradox.ParadoxReport):
    """The lines of `verify`'s human-readable report."""
    name = op_set.name or "(unnamed)"
    yield (f"operator set {name}: d={op_set.params.d}, "
           f"{op_set.n_parties} parties, {len(op_set.operators)} operators\n")
    for i, w in enumerate(op_set.operators, start=1):
        yield f"  [{i}] {render_word(w)}\n"
    yield f"  all pairs commute:   {report.is_commuting}\n"
    yield (f"  column sums zero:    {report.is_lhv_trivial} "
           f"{list(map(list, report.column_sums))}\n")
    if report.product_phase is not None:
        scalar = report.product_phase.to_complex()
        yield (f"  product:             scalar, phase "
               f"{report.product_phase} turn ({_fmt_complex(scalar)})\n")
    else:
        yield (f"  product:             not scalar "
               f"({render_word(report.product)})\n")
    yield f"  GHZ paradox:         {report.is_paradox}\n"


# ---------------------------------------------------------------------------
# Subcommands

def cmd_verify(args) -> int:
    op_set = load_set(args.set, args.file)
    report = paradox.verify(op_set)
    if args.json:
        _write([json.dumps(report_to_dict(op_set, report), indent=2), "\n"])
    else:
        _write(report_lines(op_set, report))
    return EXIT_OK if report.is_paradox else EXIT_NEGATIVE


def cmd_search(args) -> int:
    if not args.max_space > 0:  # NaN compares False with every estimate
        raise InputError(f"--max-space must be > 0 and not NaN, "
                         f"got {args.max_space}")
    # the search checks its arguments and may refuse, so --emit is made only
    # after it; a target that cannot be a directory costs no search, and
    # it can be one only if its nearest existing ancestor is a directory
    if args.emit:
        ancestor = os.path.abspath(args.emit)
        while not os.path.exists(ancestor):
            ancestor = os.path.dirname(ancestor)
        if not os.path.isdir(ancestor):
            raise InputError(f"cannot create {args.emit}: not a directory")
    results = paradox.search(LatticeParams(args.dim), args.parties,
                             args.operators, args.max_exp,
                             space_ceiling=args.max_space)
    if args.emit:  # files first, so that a failed write leaves stdout empty
        try:
            os.makedirs(args.emit, exist_ok=True)
        except OSError as exc:
            raise InputError(f"cannot create {args.emit}: {exc}") from None
        for i, op_set in enumerate(results):
            _write_file(os.path.join(args.emit, f"paradox_{i:04d}.json"),
                        json.dumps(set_to_dict(op_set), indent=2) + "\n")
    _write(_listing(args.dim, results))
    return EXIT_OK if results else EXIT_NEGATIVE


def _listing(d: int, results: list[OperatorSet]):
    """The search listing's lines, each distinct row rendered once."""
    yield f"{len(results)} paradox class(es) found\n"
    lines: dict = {}
    for i, op_set in enumerate(results):
        yield f"-- class {i}:\n"
        for row in op_set.rows:
            line = lines.get(row)
            if line is None:
                line = lines[row] = f"   {' '.join(_terms(d, row)) or 'I'}\n"
            yield line


def cmd_oracle(args) -> int:
    from . import oracle  # the checks need only the standard library

    if not math.isfinite(args.tol):
        raise InputError(f"--tol must be finite, got {args.tol}")
    if args.seed < 0:
        raise InputError(f"--seed must be >= 0, got {args.seed}")
    if args.max_dim is not None and args.max_dim < 1:
        raise InputError(f"--max-dim must be >= 1, got {args.max_dim}")
    op_set = load_set(args.set, args.file)
    report = oracle.check_set(op_set, oracle.DEFAULT_DIM_CEILING
                              if args.max_dim is None else args.max_dim)
    data = {
        "dimension": report.dimension,
        "max_commutator_norm": _fmt(report.max_commutator_norm),
        "product_deviation": _fmt(report.product_deviation),
        "max_unitarity_defect": _fmt(report.max_unitarity_defect),
        "product_phase": (None if report.product_phase is None
                          else str(report.product_phase)),
    }
    ok = all(x < args.tol for x in (report.max_commutator_norm,
             report.product_deviation, report.max_unitarity_defect))
    if report.max_commutator_norm == 0:  # the solver's own gate
        _, vals = oracle.joint_eigenvector(report, seed=args.seed)
        total = sum(vals, ZERO_PHASE)
        data["eigenvalues"] = [_fmt_complex(v.to_complex()) for v in vals]
        data["eigenvalue_product"] = _fmt_complex(total.to_complex())
        ok = ok and report.product_phase in (None, total)
    data["pass"] = ok
    if args.json:
        _write([json.dumps(data, indent=2), "\n"])
    else:
        labels = {"eigenvalues": "joint eigenvalues",
                  "eigenvalue_product": "eigenvalue product"}
        _write([f"  {labels.get(key, key)}: "
                f"{', '.join(val) if isinstance(val, list) else val}\n"
                for key, val in data.items()])
    return EXIT_OK if ok else EXIT_NEGATIVE


def cmd_simulate(args) -> int:
    from . import states  # only simulate needs the comb states

    if not math.isfinite(args.max_dev):
        raise InputError(f"--max-dev must be finite, got {args.max_dev}")
    try:  # an empty or blank item is not a number either
        deltas = [float(s) for s in args.delta.split(",")]
    except ValueError as exc:
        raise InputError(f"bad --delta list: {exc}") from None
    if args.peaks < 1:  # --peaks 0 is one peak: up and down combs are equal
        raise InputError(f"--peaks must be >= 1, got {args.peaks}")
    # the study checks these too, but names its own parameters
    for delta in deltas:
        states._check_width("--delta", delta, 8.0)
    states._check_width("--envelope", args.envelope, 2.0)
    # --out is opened only after the study has accepted every argument, so
    # that a rejected run leaves the file as it was; a missing directory,
    # or a directory in its place, costs no study
    if args.out and os.path.isdir(args.out):
        raise InputError(f"cannot write {args.out}: is a directory")
    if args.out and not os.path.isdir(os.path.dirname(args.out) or "."):
        raise InputError(f"cannot write {args.out}: no such directory")
    rows = states.convergence_study(deltas, n_peaks=args.peaks,
                                    envelope_width=args.envelope)
    header = ["delta"]
    for k in range(1, 5):
        header += [f"re_V{k}", f"im_V{k}"]
    header.append("deviation")
    lines = [",".join(header)]
    for row in rows:
        cells = [_fmt(row.delta)]
        for z in row.expectations:
            cells += [_fmt(z.real), _fmt(z.imag)]
        cells.append(_fmt(row.deviation))
        lines.append(",".join(cells))
    text = "\n".join(lines) + "\n"
    if args.out:
        _write_file(args.out, text)
    else:
        _write([text])  # before any verdict goes to stderr
    monotone = all(a.deviation >= b.deviation - 1e-12
                   for a, b in zip(rows, rows[1:]))
    final_ok = rows[-1].deviation < args.max_dev
    if not monotone:
        print("check failed: deviations are not non-increasing",
              file=sys.stderr)
    if not final_ok:
        print(f"check failed: final deviation {_fmt(rows[-1].deviation)} "
              f">= {_fmt(args.max_dev)}", file=sys.stderr)
    return EXIT_OK if (monotone and final_ok) else EXIT_NEGATIVE


# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """A parser whose --help goes to stdout through `_write`.

    argparse's own writer swallows OSError, so help sent to a full device
    would exit 0; through `_write` the failure reaches `main`. Subparsers
    inherit the class.
    """

    def print_help(self, file=None) -> None:
        if file is not None:
            return super().print_help(file)
        _write([self.format_help()])


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="cvghz",
        description="Continuous-variable GHZ paradox verifier, searcher "
                    "and simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="check a set for the GHZ paradox "
                                      "conditions (exact arithmetic)")
    p.add_argument("--set", help="built-in set name (v4 or w6)")
    p.add_argument("--file", help="operator-set JSON file")
    p.add_argument("--json", action="store_true",
                   help="machine-readable output")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("search", help="exhaustively search for paradoxes")
    p.add_argument("--parties", type=int, required=True)
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--operators", type=int, required=True)
    p.add_argument("--max-exp", type=int, required=True)
    p.add_argument("--emit", help="write each found set to this directory")
    p.add_argument("--max-space", type=float,
                   default=paradox.DEFAULT_SPACE_CEILING,
                   help="refuse enumerations estimated above this size")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("oracle", help="clock-and-shift matrix numerical "
                       "re-check")
    p.add_argument("--set", help="built-in set name (v4 or w6)")
    p.add_argument("--file", help="operator-set JSON file")
    p.add_argument("--max-dim", type=int)  # None: the oracle's default
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--seed", type=int, default=0,
                   help="the joint eigenvector starts from basis state "
                   "seed mod D")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("simulate",
                       help="GHZ comb-state convergence study (CSV)")
    p.add_argument("--delta", required=True,
                   help="comma-separated descending peak widths")
    p.add_argument("--peaks", type=int, default=20)
    p.add_argument("--envelope", type=float, default=10.0)
    p.add_argument("--max-dev", type=float, default=0.05)
    p.add_argument("--out", help="CSV output path (default: stdout)")
    p.set_defaults(func=cmd_simulate)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as exc:
            # argparse exits 2 on bad flags, matching the input-error
            # contract, and 0 after --help
            return EXIT_INPUT if exc.code else EXIT_OK
        return args.func(args)
    except Refusal as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return EXIT_REFUSED
    except ValueError as exc:  # InputError, or a library's argument check
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except OSError as exc:
        # A failed `_write` of help or of a subcommand's output, since a
        # file that a subcommand opens fails as an InputError: a full disk,
        # or a reader that closed the pipe.
        # Python flushes stdout again at exit, so point it at devnull first,
        # as the `signal` docs' note on SIGPIPE does.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print(f"input error: cannot write stdout: {exc}", file=sys.stderr)
        return EXIT_INPUT


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
