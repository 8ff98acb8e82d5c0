"""The search's walk: its tables and its DFS over row multisets.

`tables` builds the rows, codes and commutation masks of one search, and
`walk` visits each paradox row multiset in first-row form (orderly
generation: R. C. Read, "Every one a winner", Ann. Discrete Math. 2, 1978).
Only `paradox.search` imports this module, once it has passed every refusal.
"""

import itertools
from collections.abc import Sequence

from .weyl import _Frozen, crossing, symplectic


class Tables(_Frozen):
    """The tables of one search, as `tables` builds them for `walk`."""

    __slots__ = ("d", "n_operators", "rows", "first_rows", "width",
                 "entry_code", "code", "code_index", "comm", "exact")


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

    Every party draws its entries from `pairs`, so one code serves them
    all. Entry (m, n) has code c(m, n) = m * width + n (`entry_code`, in
    the order of `pairs`), and row i has code[i] = sum over t of
    c(row_t) * width^(2t): a balanced base-width number, digits n_0, m_0,
    n_1, m_1 and so on. Both codes are linear. Every coordinate of a sum
    of up to n_operators entries or rows lies in [-h, h] with h =
    n_operators * max|v| = (width - 1) / 2, so it is one balanced digit,
    and distinct sums have distinct codes.

    `exact[t][e]` is the bitmask of the rows whose party-t entry is e;
    `walk` builds its window masks from them.
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
    width = 2 * n_operators * max(abs(v) for pair in pairs for v in pair) + 1
    entry = {(m, n): m * width + n for m, n in pairs}
    powers = [width ** (2 * t) for t in range(n_parties)]
    code = [sum(map(int.__mul__, map(entry.__getitem__, row), powers))
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
    # grows with d. Folding them over the parties tracks, for each s, the
    # rows whose form with row i over the parties so far is s mod d.
    # That depends only on row i's residues over those parties, so the
    # classes are folded in sorted order, reusing the previous class's
    # folds of their shared prefix.
    residue = {(m, n): (m % d, n % d) for m, n in pairs}
    residue_pairs = sorted(set(residue.values()))
    form = [(a, symplectic((a,), (b,)) % d, b)
            for a, b in itertools.product(residue_pairs, repeat=2)]
    forms = []
    for held in exact:
        by_residue = dict.fromkeys(residue_pairs, 0)
        for e, bits in held.items():
            by_residue[residue[e]] |= bits
        table: dict = {a: {} for a in residue_pairs}
        for a, v, b in form:
            table[a][v] = table[a].get(v, 0) | by_residue[b]
        forms.append(table)
    # residue class -> itself, shared by its rows; then -> its mask
    classes: dict = {}
    residues = [classes.setdefault(key, key) for key in (
        tuple(map(residue.__getitem__, row)) for row in rows)]
    folds: list = []  # folds[t]: over parties 0..t of the last class
    last = ()
    for cls in sorted(classes):
        t = 0
        while t < len(folds) and cls[t] == last[t]:
            t += 1
        del folds[t:]
        for t in range(t, n_parties):
            by_value = forms[t][cls[t]]
            if t == 0:
                fold = by_value
            elif t < n_parties - 1:
                fold = {}
                for s, bits in folds[-1].items():
                    for v, held in by_value.items():
                        key = (s + v) % d
                        fold[key] = fold.get(key, 0) | bits & held
            else:  # the last party: only the sum 0 is read
                # the sets for distinct v are disjoint, so + is |
                fold = {0: sum(folds[-1].get(-v % d, 0) & held
                               for v, held in by_value.items())}
            folds.append(fold)
        classes[cls] = folds[-1].get(0, 0)
        last = cls
    comm = list(map(classes.__getitem__, residues))
    return Tables(d, n_operators, rows, first_rows, width,
                  list(entry.values()), code, code_index, comm, exact)


def walk(tables: Tables, visit) -> None:
    """Call visit(rows) once for each paradox row multiset in first-row form.

    A DFS over sorted row multisets: it starts only from `first_rows` and
    never steps to a smaller index. Commutation is pruned incrementally
    through the masks. Before a node loops, its mask is ANDed with one
    window mask per party, cached per (rows left, party, partial sum s):
    the rows whose party-t entry e leaves -(s + e) a sum of as many
    entries as there are rows left after this one. At the last free level
    that sum is a single entry, so the window keeps exactly the candidates
    whose forced last row is inside the alphabet. A window only prunes what
    the code lookup rejects anyway, so a node with fewer candidates than
    the window's build steps skips it on the key's first sight. reach[r],
    shared by every party's windows, has bit c(v) - r * c0 set for each sum
    v of r entries, with c the entry code of `tables` and c0 its least.

    The product phase, -sum over i < j of crossing(row_i, row_j) / d,
    equals -sum over j of crossing(S_j, row_j) / d with S_j the column sums
    of the rows before j. The DFS carries that sum with the column sums,
    so a completion costs two `crossing` calls.
    """
    (d, n_operators, rows, first_rows, width, entry_code, code, code_index,
     comm, exact) = tables._fields()
    c0 = min(entry_code)
    reach = [1]
    windows = [[{} for _ in exact] for _ in range(n_operators)]

    def window(t: int, left: int, s: tuple[int, int]) -> int:
        while len(reach) <= left:
            acc = 0
            for c in entry_code:
                acc |= reach[-1] << c - c0
            reach.append(acc)
        # bit of -(s + e), for each entry e of party t; the sets for
        # distinct entries are disjoint, so + is |
        base = -s[0] * width - s[1] - left * c0
        return sum([bits for c, bits in zip(entry_code, exact[t].values())
                    if c <= base and reach[left] >> base - c & 1])

    def extend(left: int, mask: int, cands: int, sums: tuple,
               scode: int, phase: int) -> None:
        # try each row of mask with `left` rows to place after it; later
        # rows come from cands. sums: the stack's column sums as pairs,
        # scode: their code, phase: the carried crossing sum
        for t, (cache, s) in enumerate(zip(windows[left], sums)):
            bits = cache.get(s)
            if bits is None:
                # a build is a step per entry: not worth it for fewer
                # candidates on the key's first sight (marked None)
                if s not in cache and mask.bit_count() < len(entry_code):
                    cache[s] = None
                    continue
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
