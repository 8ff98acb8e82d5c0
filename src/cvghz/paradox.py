"""GHZ paradox verdicts, local-hidden-variable evaluation and exhaustive search.

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

import cmath
import itertools
import math
import sys
from collections.abc import Iterable, Sequence
from math import comb as binomial

from .weyl import (LatticeParams, WeylWord, _Frozen, commutation_phase,
                   crossing, is_scalar, product, symplectic)

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


class LhvAssignment(_Frozen):
    """Hidden outcome values (x_j, p_j) per party, in dimensionless units."""

    __slots__ = ("positions", "momenta")

    def __init__(self, positions: tuple[float, ...],
                 momenta: tuple[float, ...]):
        if len(positions) != len(momenta):
            raise ValueError("positions and momenta must have equal length")
        for v in (*positions, *momenta):
            if not math.isfinite(v):
                raise ValueError("hidden values must be finite")
        super().__init__(positions, momenta)


def column_sums(op_set: OperatorSet) -> tuple[tuple[int, int], ...]:
    return tuple((sum(m for m, _ in col), sum(n for _, n in col))
                 for col in zip(*op_set.rows))


def verify(op_set: OperatorSet) -> ParadoxReport:
    """Run the three-condition paradox test and fill the full report."""
    ops = op_set.operators
    k = len(ops)
    phases = tuple(
        tuple(commutation_phase(ops[i], ops[j]) for j in range(k))
        for i in range(k))
    commuting = all(phases[i][j].is_zero
                    for i in range(k) for j in range(i + 1, k))
    sums = column_sums(op_set)
    lhv_trivial = all(s == (0, 0) for s in sums)
    prod = product(ops)
    phase = is_scalar(prod)
    paradox = (commuting and lhv_trivial
               and phase is not None and not phase.is_zero)
    return ParadoxReport(
        pairwise_phases=phases,
        column_sums=sums,
        product=prod,
        is_commuting=commuting,
        is_lhv_trivial=lhv_trivial,
        product_phase=phase,
        is_paradox=paradox,
    )


def lhv_value(op_set: OperatorSet, assignment: LhvAssignment) -> complex:
    """Product of the classical unit-modulus values assigned to the set.

    Convention: X_j^{m*a0} is assigned exp(2*pi*i*m*x_j/sqrt(2d)) and
    Y_j^{n*b0} is assigned exp(2*pi*i*n*p_j/sqrt(2d)), i.e. the operator
    exponentials evaluated at the hidden outcomes. When all column sums
    vanish the total exponent cancels and the product is exactly 1.
    """
    if len(assignment.positions) != op_set.n_parties:
        raise ValueError("assignment does not cover all parties")
    scale = 2.0 * math.pi / math.sqrt(2.0 * op_set.params.d)
    total = 0.0
    for row in op_set.rows:
        for (m, n), x, p in zip(row, assignment.positions,
                                assignment.momenta):
            total += scale * (m * x + n * p)
    return cmath.exp(1j * total)


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

def canonical_rows(rows: Iterable[tuple[tuple[int, int], ...]]) -> Rows:
    """Lexicographically minimal representative of the exponent matrix.

    Quotient group: party relabeling, operator reordering, and joint
    (m, n) -> (-m, -n) negation per party. All three preserve pairwise
    commutation phases, column-sum triviality and the product phase.

    The minimum's first row is the least row any relabeling can produce,
    R0 = min over rows of sorted(min(e, -e) for e in row). So only the
    relabelings that map some row onto R0 are tried: parties move only
    among positions of R0 holding their folded entry, and a party's sign
    is free only where that row's entry is (0, 0).
    """
    rows = tuple(rows)
    if not rows:
        return ()
    neg_rows = [tuple([(-m, -n) for m, n in row]) for row in rows]
    # cols[s][p]: party p's entries down the rows, negated when s is 1
    cols = (list(zip(*rows)), list(zip(*neg_rows)))
    folded = [list(map(min, row, neg)) for row, neg in zip(rows, neg_rows)]
    keys = [sorted(f) for f in folded]
    r0 = min(keys)
    best = None
    # one start per distinct row that reaches R0; equal rows give equal specs
    for i in {rows[i]: i for i, key in enumerate(keys) if key == r0}.values():
        blocks: dict = {}
        for p, f in enumerate(folded[i]):
            blocks.setdefault(f, []).append(p)
        signs = [(0, 1) if e == (0, 0) else (e != f,)
                 for e, f in zip(rows[i], folded[i])]
        for perm in itertools.product(*[itertools.permutations(blocks[f])
                                        for f in sorted(blocks)]):
            order = [p for block in perm for p in block]
            for sign in itertools.product(*[signs[p] for p in order]):
                cand = sorted(zip(*[cols[s][p] for p, s in zip(order, sign)]))
                if best is None or cand < best:
                    best = cand
    return tuple(best)


def canonicalize(op_set: OperatorSet) -> OperatorSet:
    """Canonical representative of op_set's exponent matrix."""
    return OperatorSet(op_set.params, canonical_rows(op_set.rows),
                       op_set.name)


class _SearchTables(_Frozen):
    """The tables of one search, as `_tables` builds them for `_walk`."""

    __slots__ = ("d", "n_operators", "rows", "first_rows", "flat", "weights",
                 "code", "code_index", "comm", "lo", "hi")


def _tables(d: int, n_parties: int, n_operators: int,
            pairs: Sequence[tuple[int, int]]) -> _SearchTables:
    """Rows, codes, commutation masks and windows over distinct `pairs`.

    First-row rule (orderly generation): party permutations keep a row
    multiset inside the alphabet, and so do per-party sign flips when the
    alphabet is closed under negation. With fold(e) = min(e, -e) for a
    closed alphabet and fold(e) = e otherwise, and key(row) =
    sorted(fold(e) for e in row), every class therefore has a member whose
    smallest row r equals key(r) and whose other rows all have key >= r.
    The rows are indexed in (key(row), row) order, and `first_rows` holds
    the rows with row == key(row). Folding and sorting never increase a
    tuple, so key(row) <= row, every other row with key r sorts after r,
    and "index >= r's" is exactly "key >= r".

    Commutation masks are built party by party: symplectic(a, b) is the sum
    of the one-party forms symplectic((a_t,), (b_t,)), so for each residue
    class the rows whose partial form is s mod d are folded over the parties
    from one bitmask per (party, pair mod d).
    """
    zero_row = ((0, 0),) * n_parties
    closed = {(-m, -n) for m, n in pairs} == set(pairs)
    keyed = sorted(
        (tuple(sorted(map(min, row, [(-m, -n) for m, n in row])
                      if closed else row)), row)
        for row in itertools.product(pairs, repeat=n_parties)
        if row != zero_row)
    rows = [row for _, row in keyed]
    first_rows = sum(1 << i for i, (key, row) in enumerate(keyed)
                     if key == row)
    flat = [tuple(v for pair in row for v in pair) for row in rows]
    # Balanced mixed-radix code of a flat exponent vector: linear, and
    # injective on vectors with every entry in [-span, span], which covers
    # every partial column sum of up to n_operators rows.
    span = n_operators * max(abs(v) for pair in pairs for v in pair)
    weights = [(2 * span + 1) ** c for c in range(2 * n_parties)]
    code = [sum(map(int.__mul__, f, weights)) for f in flat]
    code_index = {c: i for i, c in enumerate(code)}

    # Commutation bitmasks: bit j of comm[i] set iff rows i and j commute.
    # The one-party form mod d depends only on the pairs mod d, so the
    # tables below are keyed by residue pair: at most d^2 keys, however
    # large the alphabet.
    # forms[t][a][v]: rows whose party-t pair b has symplectic((a,), (b,))
    # = v mod d. Folding them over the parties tracks, for each s, the rows
    # whose form with row i over the parties so far is s mod d. That
    # depends only on row i mod d, so it is done once per residue class.
    residue_pairs = sorted({(m % d, n % d) for m, n in pairs})
    holds = [dict.fromkeys(residue_pairs, 0) for _ in range(n_parties)]
    for i, row in enumerate(rows):
        for t, (m, n) in enumerate(row):
            holds[t][m % d, n % d] |= 1 << i
    forms = []
    for held in holds:
        table = {a: [0] * d for a in residue_pairs}
        for a, b in itertools.product(residue_pairs, repeat=2):
            table[a][symplectic((a,), (b,)) % d] |= held[b]
        forms.append(table)
    class_comm: dict = {}
    comm = []
    for row in rows:
        residues = tuple((m % d, n % d) for m, n in row)
        if residues not in class_comm:
            partial = forms[0][residues[0]]
            for t in range(1, n_parties):
                by_value = forms[t][residues[t]]
                # the sets for distinct v are disjoint, so + is |
                partial = [sum(partial[(s - v) % d] & by_value[v]
                               for v in range(d))
                           for s in (range(d) if t < n_parties - 1 else (0,))]
            class_comm[residues] = partial[0]
        comm.append(class_comm[residues])

    # Per-column bounds of a single row's contribution, for sum pruning.
    lo = [min(f[c] for f in flat) for c in range(2 * n_parties)]
    hi = [max(f[c] for f in flat) for c in range(2 * n_parties)]
    return _SearchTables(d, n_operators, rows, first_rows, flat, weights,
                         code, code_index, comm, lo, hi)


def _walk(tables: _SearchTables, visit) -> None:
    """Call visit(rows) once for each paradox row multiset in first-row form.

    A DFS over sorted row multisets: it starts only from `first_rows` and
    never steps to a smaller index. Commutation is pruned incrementally
    through the masks, and each partial column sum must stay inside the
    window that the remaining rows can still cancel. The last row is forced
    by the zero-column-sum condition and found by its code.
    """
    (d, n_operators, rows, first_rows, flat, weights, code, code_index,
     comm, lo, hi) = tables._fields()
    k_free = n_operators - 1  # last row is forced by the column sums

    def extend(depth: int, mask: int, cands: int,
               sums: tuple[int, ...]) -> None:
        # try each row of mask at this depth; later rows come from cands
        if depth == k_free - 1:
            # last free row: the completion is forced, so skip the window
            # check (the lookup rejects out-of-alphabet completions) and
            # touch the candidate mask only on a hit
            target = -sum(map(int.__mul__, sums, weights))
            while mask:
                lsb = mask & -mask
                i = lsb.bit_length() - 1
                mask ^= lsb
                fi = code_index.get(target - code[i])
                if fi is not None and fi >= i \
                        and (cands & comm[i]) >> fi & 1:
                    # Commutation and zero column sums hold by construction;
                    # only the product phase, -sum over i < j of
                    # crossing(row_i, row_j) / d, decides paradox-hood here.
                    # Swapping two rows changes that sum by their symplectic
                    # form, 0 mod d for commuting rows, so the phase mod d
                    # does not depend on the order the DFS chose.
                    hit = [rows[j] for j in _stack] + [rows[i], rows[fi]]
                    if sum(crossing(a, b)
                           for a, b in itertools.combinations(hit, 2)) % d:
                        visit(hit)
            return
        remaining = n_operators - depth - 1  # rows still to place after this one
        # future rows keep column c's reachable window in [-r*hi, -r*lo]
        win_lo = [-remaining * h for h in hi]
        win_hi = [-remaining * l for l in lo]
        while mask:
            lsb = mask & -mask
            i = lsb.bit_length() - 1
            mask ^= lsb
            new_sums = tuple(map(int.__add__, sums, flat[i]))
            for s, wl, wh in zip(new_sums, win_lo, win_hi):
                if s < wl or s > wh:
                    break
            else:
                _stack.append(i)
                child = (cands & comm[i]) >> i << i  # index >= i
                extend(depth + 1, child, child, new_sums)
                _stack.pop()

    _stack: list[int] = []
    extend(0, first_rows, (1 << len(rows)) - 1, (0,) * len(weights))


def search(params: LatticeParams, n_parties: int, n_operators: int,
           max_exponent: int,
           allowed_pairs: Sequence[tuple[int, int]] | None = None,
           space_ceiling: float = DEFAULT_SPACE_CEILING) -> list[OperatorSet]:
    """Exhaustively enumerate paradox sets, canonicalized and de-duplicated.

    Enumerates exponent matrices with per-party (m, n) entries drawn from
    [-max_exponent, max_exponent]^2 (or `allowed_pairs`), keeping sets that
    pass all three paradox conditions. Identity rows are excluded (an
    identity operator adds nothing to a paradox). `_tables` builds the rows
    and masks, `_walk` finds each class at least once in first-row form,
    and `canonical_rows` de-duplicates the hits.
    """
    if max_exponent < 1:
        raise ValueError("max_exponent must be >= 1")
    if n_operators < 1 or n_parties < 1:
        raise ValueError("n_operators and n_parties must be >= 1")
    if math.isnan(space_ceiling):
        raise ValueError("space_ceiling must not be NaN")
    d = params.d
    if allowed_pairs is None:
        r = range(-max_exponent, max_exponent + 1)
        allowed_pairs = itertools.product(r, repeat=2)
    pairs = sorted(set(map(tuple, allowed_pairs)))
    for m, n in pairs:
        if max(abs(m), abs(n)) > max_exponent:
            raise ValueError(f"allowed pair {(m, n)} exceeds max_exponent")

    # every choice of one pair per party except the identity row
    n_rows = len(pairs) ** n_parties - ((0, 0) in pairs)
    if n_rows == 0 or n_operators < 2:
        return []

    # The DFS visits row multisets; the commutation masks cost n_rows^2.
    # With s = min(n_rows, n_operators) - 1 > 1024 there are at least
    # C(2s, s) >= 2^s multisets, above every finite ceiling, and the exact
    # count can have millions of digits.
    estimate = math.inf if min(n_rows, n_operators) > 1025 else max(
        binomial(n_rows + n_operators - 2, n_operators - 1), n_rows ** 2)
    if estimate > space_ceiling:  # exact, even beyond float range
        raise SearchSpaceError(estimate, space_ceiling)
    if n_operators > sys.getrecursionlimit() // 2:  # `_walk` nests that deep
        raise Refusal(f"search depth {n_operators} exceeds half the "
                      f"recursion limit, {sys.getrecursionlimit()}")

    found: set = set()
    _walk(_tables(d, n_parties, n_operators, pairs),
          lambda hit: found.add(canonical_rows(hit)))
    return [set_from_rows(d, key) for key in sorted(found)]
