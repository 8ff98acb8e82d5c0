"""The benchmark's workloads: the cvghz command lines each one runs.

Each workload is a list of jobs run one after another, each as a fresh
``python -m cvghz.cli`` process.  The seed drives the generated operator-set
files of ``verify-simulate`` and the eigensolver seeds of ``oracle-dense``;
the program only ever sees those files and its argv.

This module keeps its own copy of the built-in sets and its own integer
symplectic arithmetic, so expected verdicts never come from cvghz itself.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path


@dataclass(frozen=True)
class Job:
    """One command line; `checks.check` judges its result by `kind`."""

    argv: tuple[str, ...]
    kind: str
    expect: dict = field(default_factory=dict, compare=False)

    @property
    def key(self) -> str:
        """Stable name of the job, used to look up recorded outputs."""
        return " ".join(self.argv)


HELP = Job(("--help",), "help")

# (d, rows) with rows[i][party] = (m, n): same sets as cvghz's v4 and w6.
V4 = (2, (((1, 0), (1, 0), (1, 0)),
          ((-1, 0), (0, -1), (0, 1)),
          ((0, 1), (-1, 0), (0, -1)),
          ((0, -1), (0, 1), (-1, 0))))
W6 = (4, (((1, 0), (1, 0), (1, 0), (1, 0), (1, 0)),
          ((-1, 0), (0, -3), (0, 1), (0, 1), (0, 1)),
          ((0, 1), (-1, 0), (0, -3), (0, 1), (0, 1)),
          ((0, 1), (0, 1), (-1, 0), (0, -3), (0, 1)),
          ((0, 1), (0, 1), (0, 1), (-1, 0), (0, -3)),
          ((0, -3), (0, 1), (0, 1), (0, 1), (-1, 0))))
BUILTINS = {"v4": V4, "w6": W6}


@dataclass(frozen=True)
class Verdict:
    commuting: bool
    column_sums: tuple[tuple[int, int], ...]
    trivial: bool
    phase: Fraction | None  # product phase in turns, None if not scalar
    paradox: bool


def verdict(d: int, rows) -> Verdict:
    """The three GHZ-paradox conditions in plain integer arithmetic.

    Two rows commute iff sum_t (m_i n_j - m_j n_i) = 0 mod d.  The ordered
    product X^m1 Y^n1 X^m2 Y^n2 ... is scalar iff every column sums to
    (0, 0), and then its phase is -sum_{i<j} sum_t m_j,t n_i,t / d turns.
    """
    parties = len(rows[0])
    commuting = all(
        sum(a[0] * b[1] - b[0] * a[1] for a, b in zip(ri, rj)) % d == 0
        for i, ri in enumerate(rows) for rj in rows[i + 1:])
    sums = tuple((sum(r[t][0] for r in rows), sum(r[t][1] for r in rows))
                 for t in range(parties))
    trivial = all(s == (0, 0) for s in sums)
    phase = None
    if trivial:
        cross = 0
        acc_n = [0] * parties
        for row in rows:
            for t, (m, n) in enumerate(row):
                cross -= m * acc_n[t]
                acc_n[t] += n
        phase = Fraction(cross, d) % 1
    return Verdict(commuting, sums, trivial, phase,
                   commuting and trivial and phase != 0)


def scramble(rows, rng: random.Random):
    """Random party permutation, per-party joint sign flip and row order.

    All three preserve commutation, zero column sums and, because the
    rows commute, the product phase.
    """
    parties = len(rows[0])
    perm = rng.sample(range(parties), parties)
    signs = [rng.choice((1, -1)) for _ in range(parties)]
    out = [tuple((s * row[p][0], s * row[p][1])
                 for s, p in zip(signs, perm)) for row in rows]
    rng.shuffle(out)
    return tuple(out)


def perturb(rows, rng: random.Random):
    """Copy of rows with one exponent changed by +-1."""
    out = [list(map(list, row)) for row in rows]
    i = rng.randrange(len(out))
    t = rng.randrange(len(out[0]))
    out[i][t][rng.randrange(2)] += rng.choice((1, -1))
    return tuple(tuple(map(tuple, row)) for row in out)


def write_set(path: Path, name: str, d: int, rows) -> None:
    data = {"name": name, "d": d, "parties": len(rows[0]),
            "operators": [[list(p) for p in row] for row in rows]}
    path.write_text(json.dumps(data) + "\n", encoding="utf-8")


def generated_sets(seed: int, n_sets: int = 8):
    """(name, d, rows) for n_sets files: scrambled v4/w6 and broken copies."""
    rng = random.Random(seed)
    sets = []
    for i in range(n_sets // 2):
        base = ("v4", "w6")[i % 2]
        d, rows = BUILTINS[base]
        good = scramble(rows, rng)
        sets.append((f"{base}-s{seed}-{i}", d, good))
        sets.append((f"{base}-s{seed}-{i}-broken", d, perturb(good, rng)))
    return sets


def _search(*flags: str) -> Job:
    return Job(("search",) + flags, "search")


def build(name: str, seed: int, gen_dir: Path) -> list[Job]:
    """The jobs of workload `name` for `seed`; input files go to gen_dir."""
    if name == "search-canon":
        # Many paradox hits: canonical_rows dominates (d=4 job above all).
        return [
            _search("--parties", "3", "--dim", "2", "--operators", "3",
                    "--max-exp", "1"),
            _search("--parties", "3", "--dim", "3", "--operators", "3",
                    "--max-exp", "1"),
            _search("--parties", "3", "--dim", "4", "--operators", "4",
                    "--max-exp", "1"),
        ]
    if name == "search-rows":
        # Large alphabet, two operators: row build and the O(rows^2)
        # commutation masks dominate; the refusal repeats the row build.
        return [
            _search("--parties", "2", "--dim", "2", "--operators", "2",
                    "--max-exp", "3"),
            _search("--parties", "2", "--dim", "4", "--operators", "2",
                    "--max-exp", "3"),
            Job(("search", "--parties", "4", "--dim", "2", "--operators",
                 "6", "--max-exp", "2", "--max-space", "1e6"), "refusal"),
        ]
    if name == "oracle-dense":
        # Dense kron, matmul and eigh at D = 1024.
        s = random.Random(seed).randrange(1_000_000)
        return [
            Job(("oracle", "--set", "w6", "--seed", str(s)), "oracle",
                {"set": "w6"}),
            Job(("oracle", "--set", "w6", "--json", "--seed", str(s + 1)),
                "oracle", {"set": "w6", "json": True}),
            Job(("oracle", "--set", "v4"), "oracle", {"set": "v4"}),
            Job(("oracle", "--set", "w6", "--max-dim", "512"), "refusal"),
        ]
    if name == "verify-simulate":
        # Many short jobs (start-up and exact algebra) plus comb states.
        gen_dir.mkdir(parents=True, exist_ok=True)
        jobs = []
        for i, (set_name, d, rows) in enumerate(generated_sets(seed)):
            path = gen_dir / f"set{i}.json"
            write_set(path, set_name, d, rows)
            jobs.append(Job(("verify", "--file", str(path)), "verify-file",
                            {"name": set_name, "d": d, "rows": rows}))
        jobs += [
            Job(("verify", "--set", "v4"), "verify-digest"),
            Job(("verify", "--set", "w6", "--json"), "verify-digest"),
            Job(("simulate", "--delta", "0.2,0.1,0.05"), "simulate"),
            Job(("simulate", "--delta", "0.2,0.1,0.05,0.02,0.01,0.005",
                 "--peaks", "120", "--envelope", "40"), "simulate"),
        ]
        return jobs
    raise KeyError(name)


NAMES = ("search-canon", "search-rows", "oracle-dense", "verify-simulate")
