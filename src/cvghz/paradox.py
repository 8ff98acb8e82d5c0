"""GHZ paradox verdicts and exhaustive search.

A set of lattice Weyl words is a GHZ paradox when three conditions hold:

  1. all pairs commute (every pairwise commutation phase is 0),
  2. every party's X- and Y-exponent column sums are zero, which forces any
     local-hidden-variable product to +1 regardless of the hidden values,
  3. the operator product of the set is a scalar with nonzero phase.

Conditions 2 and 3 together are the all-or-nothing contradiction: quantum
mechanics forces the eigenvalue product to the scalar of condition 3 while
classical assignments are stuck at +1.
"""

from __future__ import annotations

import itertools
import math
import sys
from collections.abc import Iterable, Sequence
from math import comb as binomial

from .weyl import (LatticeParams, RationalPhase, WeylWord, _Frozen,
                   commutation_phase, product)

DEFAULT_SPACE_CEILING = 2e13

Rows = tuple[tuple[tuple[int, int], ...], ...]  # an exponent matrix


class Refusal(ValueError):
    """A request too large to run, refused before its resources are spent."""


class SearchSpaceError(Refusal):
    """The enumeration is too large to exhaust; `estimate` is an int or inf."""

    def __init__(self, estimate: float, ceiling: float):
        self.estimate = estimate
        self.ceiling = ceiling
        shown = math.inf if estimate > sys.float_info.max else estimate
        super().__init__(
            f"estimated enumeration size {shown:.3g} exceeds ceiling "
            f"{ceiling:.3g}; tighten the bounds")


class OperatorSet(_Frozen):
    """An ordered list of lattice Weyl words, held as its exponent matrix.

    `rows[i][j] = (m, n)` puts X_j^{m*a0} Y_j^{n*b0} on party j of word i.
    """

    __slots__ = ("params", "rows", "name")

    def __init__(self, params: LatticeParams, rows: Rows,
                 name: str | None = None):
        if not rows:
            raise ValueError("operator set must be non-empty")
        if any(len(row) != len(rows[0]) for row in rows):
            raise ValueError("all operators must have the same party count")
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "name", name)

    @property
    def n_parties(self) -> int:
        return len(self.rows[0])

    @property
    def operators(self) -> tuple[WeylWord, ...]:
        """The rows as phase-free words."""
        return tuple(WeylWord(self.params, row) for row in self.rows)


class ParadoxReport(_Frozen):
    __slots__ = ("pairwise_phases", "column_sums", "product", "is_commuting",
                 "is_lhv_trivial", "product_phase", "is_paradox")


def verify(op_set: OperatorSet) -> ParadoxReport:
    """Run the three-condition paradox test and fill the full report, whose
    pairwise phases are the ints mod d of `commutation_phase`.

    The product's exponents are the column sums, so one product decides
    conditions 2 and 3: the set is LHV-trivial exactly when the product is
    a scalar, and then its phase is the product phase.
    """
    ops = op_set.operators
    d, k = op_set.params.d, len(ops)
    # each unordered pair once: the phase of (b, a) is minus that of (a, b)
    phases = [[0] * k for _ in range(k)]
    for i, j in itertools.combinations(range(k), 2):
        phases[i][j] = commutation_phase(ops[i], ops[j])
        phases[j][i] = -phases[i][j] % d
    commuting = not any(map(any, phases))
    prod = product(ops)
    lhv_trivial = all(s == (0, 0) for s in prod.exponents)
    return ParadoxReport(
        pairwise_phases=tuple(map(tuple, phases)),
        column_sums=prod.exponents,
        product=prod,
        is_commuting=commuting,
        is_lhv_trivial=lhv_trivial,
        product_phase=RationalPhase(prod.phase, d) if lhv_trivial else None,
        is_paradox=commuting and lhv_trivial and prod.phase != 0,
    )


# ---------------------------------------------------------------------------
# Built-in sets

# 3 parties, d=2 (a0 = pi): rows of (m, n) lattice exponents per party.
_V4_ROWS = (
    ((1, 0), (1, 0), (1, 0)),
    ((-1, 0), (0, -1), (0, 1)),
    ((0, 1), (-1, 0), (0, -1)),
    ((0, -1), (0, 1), (-1, 0)),
)

# 5 parties, d=4 (a0 = q = pi/sqrt(2)).
_W6_ROWS = (
    ((1, 0), (1, 0), (1, 0), (1, 0), (1, 0)),
    ((-1, 0), (0, -3), (0, 1), (0, 1), (0, 1)),
    ((0, 1), (-1, 0), (0, -3), (0, 1), (0, 1)),
    ((0, 1), (0, 1), (-1, 0), (0, -3), (0, 1)),
    ((0, 1), (0, 1), (0, 1), (-1, 0), (0, -3)),
    ((0, -3), (0, 1), (0, 1), (0, 1), (-1, 0)),
)

_BUILTINS = {
    "v4": (2, _V4_ROWS),
    "w6": (4, _W6_ROWS),
}


def set_from_rows(d: int, rows: Sequence[Sequence[tuple[int, int]]],
                  name: str | None = None) -> OperatorSet:
    """An OperatorSet on lattice d from rows given as nested sequences."""
    return OperatorSet(LatticeParams(d),
                       tuple(tuple(map(tuple, row)) for row in rows), name)


def builtin(name: str) -> OperatorSet:
    """The built-in paradox sets: 'v4' (3 parties, d=2), 'w6' (5 parties, d=4)."""
    try:
        d, rows = _BUILTINS[name]
    except KeyError:
        raise KeyError(f"unknown builtin set {name!r}; "
                       f"known: {sorted(_BUILTINS)}") from None
    return set_from_rows(d, rows, name=name)


# ---------------------------------------------------------------------------
# Canonicalization and search

def canonical_rows(rows: Iterable[tuple[tuple[int, int], ...]],
                   _memo: dict | None = None) -> Rows:
    """Lexicographically minimal representative of the exponent matrix.

    Quotient group: party relabeling, operator reordering, and joint
    (m, n) -> (-m, -n) negation per party. All three preserve pairwise
    commutation phases, column-sum triviality and the product phase.

    The minimum's first row is the least row any relabeling can produce,
    R0 = min over rows of sorted(min(e, -e) for e in row). So only the
    relabelings that map some row onto R0 are tried: parties move only
    among positions of R0 holding their folded entry, and a party's sign
    is free only where that row's entry is (0, 0).

    That per-row work depends on the row alone; `search` passes one
    `_memo` dict per search so that it is done once per distinct row.
    """
    rows = tuple(rows)
    if not rows:
        return ()
    memo = {} if _memo is None else _memo
    # per row: [row + its negation, sorted folded key, relabelings onto
    # the key]
    infos = []
    for row in rows:
        info = memo.get(row)
        if info is None:
            neg = tuple([(-m, -n) for m, n in row])
            info = memo[row] = [row + neg, sorted(map(min, row, neg)), None]
        infos.append(info)
    r0 = min([info[1] for info in infos])
    n = len(rows[0])
    # cols[p] is party p's entries down the rows, cols[n + p] their negation
    cols = list(zip(*[info[0] for info in infos], strict=True))
    best = start = None
    for info in infos:
        # one start per row that reaches R0; a repeat of the last start
        # (equal rows share an entry) adds no candidates
        if info is start or info[1] != r0:
            continue
        start = info
        if info[2] is None:  # the relabelings, as index lists into cols
            row = info[0][:n]
            folded = list(map(min, row, info[0][n:]))
            blocks: dict = {}
            for p, f in enumerate(folded):
                blocks.setdefault(f, []).append(p)
            signs = [(0, n) if e == (0, 0) else ((e != f) * n,)
                     for e, f in zip(row, folded)]
            info[2] = []
            for perm in itertools.product(*[itertools.permutations(blocks[f])
                                            for f in sorted(blocks)]):
                order = [p for block in perm for p in block]
                info[2] += itertools.product(*[[p + s for s in signs[p]]
                                               for p in order])
        for picks in info[2]:
            cand = sorted(zip(*map(cols.__getitem__, picks)))
            if best is None or cand < best:
                best = cand
    return tuple(best)


def search(params: LatticeParams, n_parties: int, n_operators: int,
           max_exponent: int,
           allowed_pairs: Sequence[tuple[int, int]] | None = None,
           space_ceiling: float = DEFAULT_SPACE_CEILING) -> list[OperatorSet]:
    """Exhaustively enumerate paradox sets, canonicalized and de-duplicated.

    Enumerates exponent matrices with per-party (m, n) entries drawn from
    [-max_exponent, max_exponent]^2 (or `allowed_pairs`), keeping sets that
    pass all three paradox conditions. Identity rows are excluded (an
    identity operator adds nothing to a paradox). `orderly.tables` builds
    the rows and masks, `orderly.walk` finds each class at least once in
    first-row form, and `canonical_rows` de-duplicates the hits.
    """
    if max_exponent < 1:
        raise ValueError("max_exponent must be >= 1")
    if n_operators < 1 or n_parties < 1:
        raise ValueError("n_operators and n_parties must be >= 1")
    if math.isnan(space_ceiling):
        raise ValueError("space_ceiling must not be NaN")
    if allowed_pairs is None:
        # the whole box, in sorted order without repeats. It is counted
        # here and listed only once the search is admitted; a generator,
        # since `itertools.product` would copy its ranges at once.
        r = range(-max_exponent, max_exponent + 1)
        pairs = ((m, n) for m in r for n in r)
        n_pairs, has_zero = len(r) ** 2, True
    else:
        pairs = sorted(set(map(tuple, allowed_pairs)))
        for m, n in pairs:
            if max(abs(m), abs(n)) > max_exponent:
                raise ValueError(f"allowed pair {(m, n)} exceeds "
                                 f"max_exponent")
        n_pairs, has_zero = len(pairs), (0, 0) in pairs

    if n_operators < 2:
        return []
    # More than 2^520 rows square to beyond float range, so every finite
    # ceiling refuses them: decide that before the power, which has
    # millions of digits for a huge n_parties.
    if n_pairs > 1 and space_ceiling < math.inf \
            and n_parties > 521 / math.log2(n_pairs):
        raise SearchSpaceError(math.inf, space_ceiling)
    # every choice of one pair per party except the identity row
    n_rows = n_pairs ** n_parties - has_zero
    if n_rows == 0:
        return []

    # The DFS visits row multisets; the commutation masks cost n_rows^2.
    # With s = min(n_rows, n_operators) - 1 > 1024 there are at least
    # C(2s, s) >= 2^s multisets, above every finite ceiling, and the exact
    # count can have millions of digits.
    estimate = math.inf if min(n_rows, n_operators) > 1025 else max(
        binomial(n_rows + n_operators - 2, n_operators - 1), n_rows ** 2)
    if estimate > space_ceiling:  # exact, even beyond float range
        raise SearchSpaceError(estimate, space_ceiling)
    if n_operators > sys.getrecursionlimit() // 2:  # the walk nests that deep
        raise Refusal(f"search depth {n_operators} exceeds half the "
                      f"recursion limit, {sys.getrecursionlimit()}")

    from . import orderly  # only an admitted search needs the walk

    found: set = set()
    memo: dict = {}  # canonical_rows' per-row work, shared by the hits
    tables = orderly.tables(params.d, n_parties, n_operators, list(pairs))
    orderly.walk(tables, lambda hit: found.add(canonical_rows(hit, memo)))
    return [OperatorSet(params, key) for key in sorted(found)]
