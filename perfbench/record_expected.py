"""Record the reference outputs that `checks` compares against.

Run from the root of a checkout whose outputs are known to be right:

    python3 perfbench/record_expected.py

It runs every search, fixed verify and simulate job once and writes their
stdout digests (and the simulation CSVs) to perfbench/expected.json.
"""

from __future__ import annotations

import json
import sys

import checks
import run
import workloads


def main() -> int:
    env = run.child_env()
    work_dir = run.OUT_DIR / "record"
    work_dir.mkdir(parents=True, exist_ok=True)
    expected = {}
    for name in workloads.NAMES:
        for job in workloads.build(name, 0, work_dir / "inputs"):
            if job.kind not in ("search", "verify-digest", "simulate"):
                continue
            res = run.run_subprocess(job, env, work_dir)
            if res["code"] != 0 or res["err"]:
                print(f"{job.key}: exit {res['code']}", file=sys.stderr)
                return 1
            text = res["out"].decode()
            if job.kind == "simulate":
                expected[job.key] = {"csv": text}
                continue
            expected[job.key] = {"sha256": checks.digest(res["out"])}
            if job.kind == "search":
                expected[job.key]["classes"] = int(text.split(" ", 1)[0])
            print(f"{job.key}: {res['wall']:.2f} s")
    checks.EXPECTED_PATH.write_text(json.dumps(expected, indent=1) + "\n",
                                    encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
