"""The search's walk: its tables and its DFS over row multisets.

`tables` builds the rows, codes and commutation masks of one search, the
masks by one DFS over residue prefixes; `walk` visits each paradox row
multiset in first-row form (orderly generation: R. C. Read, "Every one a
winner", Ann. Discrete Math. 2, 1978). Only `paradox.search` imports it.
"""

import itertools
from collections.abc import Sequence
from operator import itemgetter

from .weyl import _Frozen, crossing, symplectic


class Tables(_Frozen):
    """The tables of one search, as `tables` builds them for `walk`."""

    __slots__ = ("d", "n_operators", "rows", "first_rows", "code",
                 "code_index", "comm", "exact")


def tables(d: int, n_parties: int, n_operators: int,
           pairs: Sequence[tuple[int, int]]) -> Tables:
    """Rows, codes, commutation masks and per-party masks over `pairs`.

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

    Row i has code[i] = sum over t of (m_t * width + n_t) * width^(2t):
    a balanced base-width number, digits n_0, m_0, n_1, m_1 and so on. The
    code is linear. Every coordinate of a sum of up to n_operators rows
    lies in [-h, h] with h = n_operators * max|v| = (width - 1) / 2, so it
    is one balanced digit, and distinct sums have distinct codes: `walk`
    looks up a forced last row by its code.

    The commutation masks come from one DFS over the residue prefixes of
    the rows, which folds each prefix once. `exact[t][e]` is the bitmask
    of the rows whose party-t entry is e; `walk` builds its window masks
    from them.
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
    del keyed  # one key tuple per row: not held through the masks
    width = 2 * n_operators * max(abs(v) for pair in pairs for v in pair) + 1
    powers = [width ** (2 * t) for t in range(n_parties)]
    code = [sum([(m * width + n) * p for (m, n), p in zip(row, powers)])
            for row in rows]
    code_index = {c: i for i, c in enumerate(code)}

    exact = [dict.fromkeys(pairs, 0) for _ in range(n_parties)]
    for i, row in enumerate(rows):
        for held, e in zip(exact, row):
            held[e] |= 1 << i

    # Commutation bitmasks: bit j of comm[i] set iff rows i and j commute.
    # symplectic(a, b) sums the one-party forms symplectic((a_t,), (b_t,)),
    # which mod d depend only on the pairs mod d: the tables are keyed by
    # residue pair (at most d^2 keys however large the alphabet), and each
    # form is taken once. forms[t][a][v]: rows whose party-t pair b has
    # form(a, b) = v mod d, for the values v that occur, so that no table
    # grows with d. A prefix's fold maps each s to the rows whose form with
    # the prefix is s mod d; it depends only on the prefix, so one DFS over
    # the residue prefixes of the classes makes each fold once.
    residue = {(m, n): (m % d, n % d) for m, n in pairs}
    residue_pairs = sorted(set(residue.values()))
    by_residue = [dict.fromkeys(residue_pairs, 0) for _ in exact]
    for held, merged in zip(exact, by_residue):
        for e, bits in held.items():
            merged[residue[e]] |= bits
    forms = [{} for _ in exact]
    for a in residue_pairs:
        values = [symplectic((a,), (b,)) % d for b in residue_pairs]
        for table, merged in zip(forms, by_residue):
            by_value = table[a] = {}
            for v, bits in zip(values, merged.values()):
                by_value[v] = by_value.get(v, 0) | bits
    del by_residue  # not held through the DFS
    # residue class -> itself, shared by its rows; then -> its mask
    classes: dict = {}
    residues = [classes.setdefault(key, key) for key in (
        tuple(map(residue.__getitem__, row)) for row in rows)]
    # (t, group, fold) on a stack, not a recursion: the classes of group
    # share their first t + 1 residue pairs; fold is that of their first t
    root = {0: (1 << len(rows)) - 1}
    stack = [(0, list(group), root)
             for _, group in itertools.groupby(sorted(classes), itemgetter(0))]
    while stack:
        t, group, fold = stack.pop()
        by_value = forms[t][group[0][t]]
        if t == n_parties - 1:  # one class; only its sum 0 is read
            # the sets for distinct s are disjoint, so + is |
            classes[group[0]] = sum([bits & by_value.get(-s % d, 0)
                                     for s, bits in fold.items()])
            continue
        step: dict = {}
        for s, bits in fold.items():
            for v, held in by_value.items():
                key = (s + v) % d
                step[key] = step.get(key, 0) | bits & held
        stack += [(t + 1, list(sub), step) for _, sub
                  in itertools.groupby(group, itemgetter(t + 1))]
    comm = list(map(classes.__getitem__, residues))
    return Tables(d, n_operators, rows, first_rows, code, code_index, comm,
                  exact)


def walk(tables: Tables, visit) -> None:
    """Call visit(rows) once for each paradox row multiset in first-row form.

    A DFS over sorted row multisets: it starts only from `first_rows` and
    never steps to a smaller index. Commutation is pruned incrementally
    through the masks. Before a node loops, its mask is ANDed with one
    window mask per party, cached per (rows left, party, partial sum s):
    the rows whose party-t entry e leaves -(s + e) a sum of as many
    entries as there are rows left after this one. At the last free level
    that sum is a single entry, so the window keeps exactly the candidates
    whose forced last row is inside the alphabet, as the code lookup would;
    at the levels above, it prunes whole subtrees (in the full box once
    there are five or more operators, and at every level on an alphabet
    that is not closed). A window is built the first time its key is seen.
    reach[r], the set of sums of r alphabet pairs held as a bitset, serves
    every party's windows.

    The product phase, -sum over i < j of crossing(row_i, row_j) / d,
    equals -sum over j of crossing(S_j, row_j) / d with S_j the column sums
    of the rows before j. The DFS carries that sum with the column sums,
    so a completion costs two `crossing` calls.
    """
    d, n_operators, rows, first_rows, code, code_index, comm, exact = \
        tables._fields()
    # reach[r] has bit (a + r h) * span + b + r h for each sum (a, b) of r
    # pairs (|a|, |b| <= r h; span is wide enough that no two sums a window
    # compares share a bit). Adding (m, n) moves a sum's bit up by shift.
    h = max(abs(v) for pair in exact[0] for v in pair)
    span = 2 * n_operators * h + 1
    shift = [(m + h) * span + n + h for m, n in exact[0]]
    reach = [1]
    windows = [[{} for _ in exact] for _ in range(n_operators)]

    def window(t: int, left: int, s: tuple[int, int]) -> int:
        while len(reach) <= left:
            acc = 0
            for k in shift:
                acc |= reach[-1] << k
            reach.append(acc)
        # the rows of each entry e of party t with -(s + e), at bit
        # base - shift(e), in reach[left]; the sets are disjoint, so + is |
        base = ((left + 1) * h - s[0]) * span + (left + 1) * h - s[1]
        return sum([bits for k, bits in zip(shift, exact[t].values())
                    if k <= base and reach[left] >> base - k & 1])

    def extend(left: int, mask: int, cands: int, sums: tuple,
               scode: int, phase: int) -> None:
        # try each row of mask with `left` rows to place after it; later
        # rows come from cands. sums: the stack's column sums as pairs,
        # scode: their code, phase: the carried crossing sum
        for t, (cache, s) in enumerate(zip(windows[left], sums)):
            bits = cache.get(s)
            if bits is None:
                bits = cache[s] = window(t, left, s)
            mask &= bits
        if left == 1:
            # last free row: the completion is forced, and found by its code
            while mask:
                lsb = mask & -mask
                i = lsb.bit_length() - 1
                mask ^= lsb
                fi = code_index.get(-scode - code[i])
                if fi is not None and fi >= i:
                    # The sums before fi are -rows[fi], so fi commutes with
                    # every row by bilinearity and the column sums are 0:
                    # only the product phase decides paradox-hood. Swapping
                    # two rows changes the phase by their symplectic form,
                    # 0 mod d for commuting rows, so the phase mod d does
                    # not depend on the order the DFS chose.
                    if (phase + crossing(sums, rows[i])
                            - crossing(rows[fi], rows[fi])) % d:
                        visit([rows[j] for j in _stack] + [rows[i], rows[fi]])
            return
        while mask:
            lsb = mask & -mask
            i = lsb.bit_length() - 1
            mask ^= lsb
            row = rows[i]
            _stack.append(i)
            child = (cands & comm[i]) >> i << i  # index >= i
            extend(left - 1, child, child,
                   tuple([(sm + m, sn + n)
                          for (sm, sn), (m, n) in zip(sums, row)]),
                   scode + code[i], phase + crossing(sums, row))
            _stack.pop()

    _stack: list[int] = []
    try:
        extend(n_operators - 1, first_rows, (1 << len(rows)) - 1,
               ((0, 0),) * len(exact), 0, 0)
    finally:
        # extend refers to itself through its closure cell; left standing,
        # that cycle keeps the window caches and visit, and what visit
        # holds, alive until the cyclic collector's next full pass
        del extend
