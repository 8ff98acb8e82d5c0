"""Run one workload of the cvghz benchmark and print its metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload search-canon --seed 1 --seconds 25 --trace 0

With ``--workload all`` it runs every workload in turn.  Each workload is a
closed loop with one client: jobs run one at a time, each a fresh
``python -m cvghz.cli`` process, and the next starts only after the previous
one has exited.  Passes over the job list repeat until ``--seconds`` would
be exceeded (at least one pass).  Every job's output is checked.

``--trace 0`` reports the end-to-end metrics named in BENCHMARK.json.
``--trace 1`` instead runs every job as ``cvghz.cli.main(argv)`` inside this
process, once untraced and once traced by `spans.Tracer`, back to back, and
reports the per-layer metrics.  The last stdout line is one JSON object
with the keys correct, attempted, failed and metrics.  A fuller record, with
quartiles and the machine it ran on, goes to perfbench/out/.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path

import checks
import spans
import stats
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
JOB_TIMEOUT_S = 120
SETUP_LAUNCHES = 10


class JobTimeout(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(ROOT / "src"), env.get("PYTHONPATH"))))
    return env


def run_subprocess(job, env, work_dir: Path) -> dict:
    """Run one job as a fresh process; wall, CPU and max RSS of that child."""
    out_path, err_path = work_dir / "stdout", work_dir / "stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "cvghz.cli", *job.argv],
            stdin=subprocess.DEVNULL, stdout=out, stderr=err, env=env,
            cwd=ROOT)
        timer = threading.Timer(JOB_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"code": proc.returncode, "wall": wall,
            "cpu": usage.ru_utime + usage.ru_stime,
            "rss_mb": usage.ru_maxrss / 1024,
            "timed_out": wall >= JOB_TIMEOUT_S,
            "out": out_path.read_bytes(), "err": err_path.read_bytes()}


def _on_alarm(signum, frame):
    raise JobTimeout(f"job exceeded {JOB_TIMEOUT_S} s")


def run_inprocess(job, main, tracer=None) -> dict:
    """Run one job as cli.main(argv) in this process, capturing its output."""
    out, err = io.StringIO(), io.StringIO()
    timed_out = False
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.alarm(JOB_TIMEOUT_S)
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if tracer is None:
                code = main(list(job.argv))
            else:
                code = tracer.call("cli.main", main, list(job.argv))
    except Exception as exc:  # a crash or timeout is a failed job
        code = None
        timed_out = isinstance(exc, JobTimeout)
        err.write(traceback.format_exc())
    finally:
        signal.alarm(0)
    wall = time.perf_counter() - start
    return {"code": code, "wall": wall, "timed_out": timed_out,
            "out": out.getvalue().encode(), "err": err.getvalue().encode()}


class Ledger:
    """Counts attempted and failed jobs and keeps the failure reasons."""

    def __init__(self, expected: dict):
        self.expected = expected
        self.attempted = 0
        self.failures: list[str] = []
        self.timed_out = False

    def record(self, job, res: dict) -> None:
        self.attempted += 1
        self.timed_out |= res["timed_out"]
        reason = checks.check(job, res["code"], res["out"], res["err"],
                              self.expected)
        if reason is not None:
            self.failures.append(f"{job.key}: {reason}")


def run_untraced(jobs, seconds: float, ledger: Ledger,
                 work_dir: Path) -> dict:
    env = child_env()
    start = time.perf_counter()
    samples = {"setup_s": [], "run_s": [], "cpu_s": [], "max_job_s": [],
               "peak_rss_mb": [], "refusal_s": []}

    def launch_setup(count: int) -> None:
        for _ in range(count):
            res = run_subprocess(workloads.HELP, env, work_dir)
            ledger.record(workloads.HELP, res)
            samples["setup_s"].append(res["wall"])

    # Half the start-up launches open the run and half close it, so that
    # setup_s samples two moments of a machine whose speed drifts.
    launch_setup(SETUP_LAUNCHES // 2)
    while not ledger.timed_out:
        results = []
        for job in jobs:
            res = run_subprocess(job, env, work_dir)
            ledger.record(job, res)
            results.append(res)
            if job.kind == "refusal":
                samples["refusal_s"].append(res["wall"])
            if ledger.timed_out:
                break
        samples["run_s"].append(sum(r["wall"] for r in results))
        samples["cpu_s"].append(sum(r["cpu"] for r in results))
        samples["max_job_s"].append(max(r["wall"] for r in results))
        samples["peak_rss_mb"].append(max(r["rss_mb"] for r in results))
        elapsed = time.perf_counter() - start
        rest = SETUP_LAUNCHES // 2 * statistics.median(samples["setup_s"])
        if elapsed + statistics.median(samples["run_s"]) + rest > seconds:
            break
    launch_setup(SETUP_LAUNCHES - SETUP_LAUNCHES // 2)
    if not samples["refusal_s"]:
        del samples["refusal_s"]
    samples["fail_ratio"] = [len(ledger.failures) / ledger.attempted]
    return samples


def run_traced(jobs, seconds: float, ledger: Ledger, work_dir: Path) -> dict:
    start = time.perf_counter()
    import numpy  # noqa: F401  (timed: numpy start-up)
    t_numpy = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import cvghz.cli
    t_cvghz = time.perf_counter()
    if not Path(cvghz.cli.__file__).resolve().is_relative_to(ROOT / "src"):
        raise RuntimeError(f"imported cvghz from {cvghz.cli.__file__}")
    samples = {"import.numpy_s": [t_numpy - start],
               "import.cvghz_s": [t_cvghz - t_numpy]}
    # Each job runs untraced and traced back to back, in alternating order,
    # so that each difference compares two runs close in time.
    diffs: list[list[float]] = [[] for _ in jobs]
    pass_walls, all_spans = [], []
    while not ledger.timed_out:
        tracer = spans.Tracer()
        pass_start = time.perf_counter()
        for i, job in enumerate(jobs):
            tracer.job = i
            walls = {}
            order = (False, True) if (i + len(pass_walls)) % 2 == 0 else (
                True, False)
            for traced in order:
                if traced:
                    with tracer:
                        res = run_inprocess(job, cvghz.cli.main, tracer)
                else:
                    res = run_inprocess(job, cvghz.cli.main)
                ledger.record(job, res)
                walls[traced] = res["wall"]
            diffs[i].append(walls[True] - walls[False])
        pass_walls.append(time.perf_counter() - pass_start)
        for name, value in spans.layer_metrics(tracer.spans).items():
            samples.setdefault(name, []).append(value)
        all_spans.append([{"name": s.name, "start": s.start, "end": s.end,
                           "parent": s.parent, "job": s.job,
                           "error": s.error} for s in tracer.spans])
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(pass_walls) > seconds:
            break
    # per pass: the sum over jobs of each job's median traced-minus-plain
    samples["trace.overhead_s"] = [sum(statistics.median(d) for d in diffs)]
    samples["trace.overhead_pairs"] = [len(pass_walls)]
    (work_dir / "spans.json").write_text(json.dumps(all_spans),
                                         encoding="utf-8")
    return samples


def environment(seed: int) -> dict:
    import numpy
    sha = None
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.CalledProcessError):
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True,
                                 check=True).stdout.strip()
    blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
    return {"git_sha": sha, "nproc": os.cpu_count(),
            "affinity_cpus": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": blas_threads(numpy), "seed": seed}


def blas_threads(numpy):
    """OpenBLAS's thread count, read from the library numpy loaded."""
    import ctypes
    libs = Path(numpy.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(str(lib)), sym, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return fn()
    return os.environ.get("OPENBLAS_NUM_THREADS")


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 declared: list[dict]) -> dict:
    run_dir = OUT_DIR / f"{name}-s{seed}-t{int(trace)}"
    run_dir.mkdir(parents=True, exist_ok=True)
    jobs = workloads.build(name, seed, run_dir / "inputs")
    ledger = Ledger(checks.load_expected())
    ledger.record(workloads.HELP,  # also fills the bytecode cache
                  run_subprocess(workloads.HELP, child_env(), run_dir))
    if trace:
        samples = run_traced(jobs, seconds, ledger, run_dir)
    else:
        samples = run_untraced(jobs, seconds, ledger, run_dir)
    summary = {k: stats.summarize(v) for k, v in samples.items()}
    metrics = {}
    for m in declared:
        if m["name"] not in summary:
            raise KeyError(f"metric {m['name']} was not measured")
        metrics[m["name"]] = {"value": summary[m["name"]]["median"],
                              "unit": m["unit"]}
    record = {"workload": name, "trace": trace,
              "environment": environment(seed),
              "jobs": [list(j.argv) for j in jobs],
              "summary": summary, "failures": ledger.failures,
              "result": {"correct": not ledger.failures,
                         "attempted": ledger.attempted,
                         "failed": len(ledger.failures),
                         "metrics": metrics}}
    (run_dir / "result.json").write_text(json.dumps(record, indent=1),
                                         encoding="utf-8")
    return record


def print_report(record: dict) -> None:
    print(f"== {record['workload']} (trace {int(record['trace'])}) "
          f"{json.dumps(record['environment'])}")
    for reason in record["failures"]:
        print(f"FAILED {reason}")
    for name, s in record["summary"].items():
        tail = "".join(f" {k}={v:.6g}" for k, v in s.items()
                       if k.startswith("p"))
        print(f"  {name}: {s['median']:.6g} (q1 {s['q1']:.6g}, "
              f"q3 {s['q3']:.6g}, min {s['min']:.6g}, n={s['n']}){tail}")
    pairs = record["summary"].get("trace.overhead_pairs")
    if pairs and pairs["median"] < 2:
        print("  trace.overhead_s is unresolved: one untraced/traced pair "
              "per job, so it is within the machine's noise")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=(*workloads.NAMES, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "cvghz" / "cli.py").is_file():
        print(f"error: no cvghz source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        # one process per workload, so each traced run times fresh imports
        codes = [subprocess.run(
            [sys.executable, __file__, "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)]).returncode
            for name in workloads.NAMES]
        return max(codes)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = bench["per_layer" if args.trace else "end_to_end"]
    record = run_workload(args.workload, args.seed, args.seconds,
                          bool(args.trace), declared)
    print_report(record)
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
