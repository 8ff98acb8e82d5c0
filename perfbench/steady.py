"""Repeat a workload over several seeds and report how steady it is.

Usage, from the root of a checkout:

    python3 perfbench/steady.py --workload oracle-dense

It makes two sets of ten runs, each run ``perfbench/run.py --trace 0`` with
its own seed (1 to 10, the same seeds in both sets).  For each end-to-end
metric it prints the median and the spread of each set, the inter-quartile
distance of the runs as a share of their median, and the drift, how far the
second median moved from the first in the metric's worse direction.  A
metric is steady when both spreads and the size of the drift are within
its bound in BENCHMARK.json; the exit code is 0 only if every metric of
the workload is steady and every run was correct.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import stats
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUNS = 10
SETS = 2


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seeds = range(1, RUNS + 1)
    sets = []
    for k in range(SETS):
        results = []
        for seed in seeds:
            res = run_once(args.workload, seed, bench["run_seconds"])
            results.append(res)
            print(f"set {k + 1} seed {seed}: correct={res['correct']} "
                  f"failed={res['failed']}/{res['attempted']} " + " ".join(
                      f"{n}={m['value']:.4g}"
                      for n, m in res["metrics"].items()), flush=True)
        sets.append(results)

    ok = True
    report = {"workload": args.workload, "seeds": list(seeds), "metrics": {}}
    for metric in bench["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        sign = 1 if metric["better"] == "lower" else -1
        per_set = [[r["metrics"][name]["value"] for r in results]
                   for results in sets]
        medians = [statistics.median(v) for v in per_set]
        spreads = [stats.spread(v) for v in per_set]
        line = (f"{name}: median {medians[0]:.5g} {metric['unit']}, spread "
                + ", ".join(f"{s:.4f}" for s in spreads)
                + f" (bound {bound}, target < {bound / 3:.4f})")
        drift = sign * (medians[1] - medians[0]) / medians[0]
        line += f", drift {drift:+.4f}"
        entry = {"values": per_set, "medians": medians, "spreads": spreads,
                 "drift": drift, "bound": bound}
        steady = max(spreads) <= bound and abs(drift) <= bound
        ok = ok and steady
        report["metrics"][name] = entry
        print(("  " if steady else "! ") + line)
    out = BENCH_DIR / "out" / f"steady-{args.workload}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=1), encoding="utf-8")
    all_correct = all(r["correct"] for results in sets for r in results)
    return 0 if ok and all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
