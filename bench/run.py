"""Benchmark of the polyctrl command line, one fresh interpreter per job.

Usage (from the repository root):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each job runs ``polyctrl.cli:main`` from ``src/`` in a new process, exactly
as a user's ``polyctrl`` command does.  The run writes the workload's seeded
inputs, then repeats the workload's job list until ``--seconds`` have passed
and checks every output with ``check.py``.

With ``--trace 0`` it prints the end-to-end metrics: ``setup_s`` (median
wall time of a trivial job), ``wall_s`` (the job list run once, the sum of
each job's median wall time), ``peak_rss_mb`` (highest max-RSS of any job)
and ``pass_share`` (jobs that exited 0 with a correct output, over jobs
attempted).  With ``--trace 1`` it alternates plain and traced passes and
prints per-layer metrics taken from spans around the library's layer
boundaries (see ``tracer.py``), plus the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A record with the
environment, per-job times and the spans of the last traced pass is also
written to ``.bench_out/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
sys.path[:0] = [HERE, SRC]

from check import check  # noqa: E402
from inputs import WORKLOADS, Job, build_jobs  # noqa: E402
from tracer import self_times  # noqa: E402

CLI = [sys.executable, "-c", "from polyctrl.cli import main; main()"]
TRACED_CLI = [sys.executable, os.path.join(HERE, "traced_cli.py")]
SETUP_ARGV = ["gen", "--n", "1", "--k", "2", "--m", "1"]
SETUP_PER_PASS = 3
# Jobs still running this long after the run started are killed and count
# as failed, so that a run ends within its 180-second limit.
RUN_LIMIT_S = 150.0

# BLAS spin-waits on every core it may use; on a small shared machine that
# turns the numeric jobs' wall time into noise, so each job gets one thread.
THREAD_SETTINGS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

# Per-layer metric -> (source, key, unit).  "self" sums the self time of a
# span name, "count" a counter from the traced process, "parent" a value
# the benchmark measures itself.
LAYER_METRICS = {
    "formats.parse_s": ("self", "formats.parse_input", "s"),
    "formats.input_bytes": ("count", "formats.input_bytes", "bytes"),
    "hypergraph.build_s": ("self", "hypergraph.build_hypergraph", "s"),
    "hypergraph.edges": ("count", "hypergraph.edges", "count"),
    "structural.dilation_s": ("self", "structural.detect_dilation", "s"),
    "structural.matched": ("count", "structural.matched", "count"),
    "structural.access_s": ("self", "structural.accessible_set", "s"),
    "structural.accessible": ("count", "structural.accessible", "count"),
    "structural.calls": ("count", "structural.analyze_hypergraph.calls", "count"),
    "cli.report_s": ("self", "cli.run", "s"),
    "cli.output_bytes": ("parent", "output_bytes", "bytes"),
    "tensor.unfold_s": ("self", "tensor.unfold", "s"),
    "tensor.unfold_cells": ("count", "tensor.unfold_cells", "count"),
    "numeric.reduce_s": ("self", "numeric.strong_controllability", "s"),
    "numeric.iterations": ("count", "numeric.iterations", "count"),
    "numeric.calls": ("count", "numeric.strong_controllability.calls", "count"),
    "system.sample_s": ("self", "system.sample_realization", "s"),
    "system.sample_calls": ("count", "system.sample_realization.calls", "count"),
    "generate.pattern_s": ("self", "generate.pattern_with_rng", "s"),
    "generate.calls": ("count", "generate.pattern_with_rng.calls", "count"),
    "validate.disagreements": ("parent", "disagreements", "count"),
}


@dataclass
class JobResult:
    job: Job
    wall: float
    cpu: float
    code: int
    rss_kb: int
    output: bytes
    spans: dict | None = None
    layers: dict[str, float] = field(default_factory=dict)


def run_process(argv: list[str], env: dict, stdout_path: str,
                stop_at: float) -> tuple[float, float, int, int]:
    """Run one process to completion.

    Returns wall seconds, CPU seconds (user plus system), the exit code and
    the max-RSS in KiB.

    The process is killed at ``stop_at`` (a perf_counter time, at least one
    second after the start) and always reaped.
    """
    with open(stdout_path, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=subprocess.DEVNULL, env=env, cwd=ROOT)
        timer = threading.Timer(max(1.0, stop_at - start), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_utime + usage.ru_stime, proc.returncode, usage.ru_maxrss


def run_job(job: Job, env: dict, workdir: str, stop_at: float, traced: bool) -> JobResult:
    stdout_path = os.path.join(workdir, "stdout")
    spans_path = os.path.join(workdir, "spans.json")
    if traced:
        if os.path.exists(spans_path):
            os.remove(spans_path)
        argv = TRACED_CLI + [spans_path] + job.argv
    else:
        argv = CLI + job.argv
    wall, cpu, code, rss_kb = run_process(argv, env, stdout_path, stop_at)
    with open(stdout_path, "rb") as handle:
        result = JobResult(job, wall, cpu, code, rss_kb, handle.read())
    if traced and os.path.exists(spans_path):
        with open(spans_path, encoding="utf-8") as handle:
            result.spans = json.load(handle)
        result.layers = layer_values(result)
    return result


def layer_values(result: JobResult) -> dict[str, float]:
    own = self_times(result.spans["spans"])
    counts = result.spans["counts"]
    parent = {"output_bytes": len(result.output), "disagreements": disagreements(result)}
    values = {}
    for metric, (source, key, _) in LAYER_METRICS.items():
        table = {"self": own, "count": counts, "parent": parent}[source]
        values[metric] = float(table.get(key, 0.0))
    return values


def disagreements(result: JobResult) -> int:
    if result.job.check != "validate" or result.code != 0:
        return 0
    try:
        return len(json.loads(result.output)["disagreements"])
    except (ValueError, KeyError):
        return 0


def check_outputs(results: list[JobResult]) -> tuple[int, list[str]]:
    """Check every output; identical bytes for the same job are checked once."""
    verdicts: dict[tuple[str, bytes], list[str]] = {}
    failed = 0
    problems = []
    for result in results:
        if result.code != 0:
            failed += 1
            problems.append(f"{result.job.name}: exit code {result.code}")
            continue
        key = (result.job.name, hashlib.sha256(result.output).digest())
        if key not in verdicts:
            try:
                report = json.loads(result.output)
            except ValueError as exc:
                verdicts[key] = [f"output is not JSON: {exc}"]
            else:
                verdicts[key] = check(result.job, report)
        if verdicts[key]:
            failed += 1
            problems.extend(f"{result.job.name}: {p}" for p in verdicts[key][:5])
    return failed, problems


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas = "unknown"
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(SRC, "polyctrl"))):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), "rb") as handle:
                    digest.update(name.encode() + b"\0" + handle.read())
    return {
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": THREAD_SETTINGS,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
    }


def job_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env.update(THREAD_SETTINGS)
    return env


def measure(workload: str, seed: int, seconds: float, trace: bool, workdir: str,
            stop_at: float) -> dict:
    env = job_env()
    jobs = build_jobs(workload, seed, workdir, CLI, env)
    setup_job = Job("setup", SETUP_ARGV, "none")
    # The first job compiles bytecode for src/; installed packages ship it.
    warmup = run_job(setup_job, env, workdir, stop_at, traced=False)
    setup: list[JobResult] = []
    plain: list[list[JobResult]] = []
    traced: list[list[JobResult]] = []
    deadline = time.perf_counter() + seconds
    while True:
        # Set-up samples are spread over the run, so they see the same
        # machine as the passes they sit between.
        if not trace:
            setup.extend(run_job(setup_job, env, workdir, stop_at, traced=False)
                         for _ in range(SETUP_PER_PASS))
        plain.append([run_job(job, env, workdir, stop_at, traced=False) for job in jobs])
        if trace:
            traced.append([run_job(job, env, workdir, stop_at, traced=True) for job in jobs])
        if time.perf_counter() >= min(deadline, stop_at):
            break
    timed = [r for p in plain + traced for r in p]
    failed, problems = check_outputs(timed)
    for r in [warmup] + setup:
        if r.code != 0:
            failed += 1
            problems.append(f"setup job: exit code {r.code}")
    for r in (r for p in traced for r in p):
        if r.spans is None:
            failed += 1
            problems.append(f"{r.job.name}: traced job wrote no spans")
    attempted = 1 + len(setup) + len(timed)
    missing = sorted({m for r in timed if r.spans for m in r.spans["missing"]})

    if trace:
        def median_pass(name):
            return statistics.median(sum(r.layers.get(name, 0.0) for r in p) for p in traced)

        metrics = {name: {"value": median_pass(name), "unit": unit}
                   for name, (_, _, unit) in LAYER_METRICS.items()}
        overhead = (statistics.median(sum(r.wall for r in p) for p in traced)
                    - statistics.median(sum(r.wall for r in p) for p in plain))
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    else:
        per_job = [statistics.median(p[i].wall for p in plain) for i in range(len(jobs))]
        metrics = {
            "setup_s": {"value": statistics.median(r.wall for r in setup), "unit": "s"},
            "wall_s": {"value": sum(per_job), "unit": "s"},
            "peak_rss_mb": {"value": max(r.rss_kb for r in timed) / 1024.0, "unit": "MB"},
            "pass_share": {"value": (attempted - failed) / attempted, "unit": "share"},
        }
    return {
        "result": {"correct": failed == 0, "attempted": attempted, "failed": failed,
                   "metrics": metrics},
        "problems": problems,
        "missing_spans": missing,
        "passes": len(plain),
        "disagreements": [disagreements(r) for r in plain[0]],
        "jobs": {job.name: [p[i].wall for p in plain] for i, job in enumerate(jobs)},
        "jobs_cpu": {job.name: [p[i].cpu for p in plain] for i, job in enumerate(jobs)},
        "setup": [r.wall for r in setup],
        "traced_jobs": {job.name: [p[i].wall for p in traced] for i, job in enumerate(jobs)},
        "spans": {r.job.name: r.spans for r in traced[-1]} if traced else {},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    stop_at = time.perf_counter() + RUN_LIMIT_S
    # On SIGTERM, unwind like an interrupt: the running job is killed and
    # reaped and the work directory removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not os.path.isfile(os.path.join(SRC, "polyctrl", "cli.py")):
        print(f"error: no polyctrl sources under {SRC}", file=sys.stderr)
        return 2

    workdir = os.path.join(OUT, f"run-{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        record = measure(args.workload, args.seed, args.seconds, bool(args.trace), workdir,
                         stop_at)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    record["env"] = environment()
    record["args"] = vars(args)

    results_dir = os.path.join(OUT, "results")
    os.makedirs(results_dir, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(results_dir, name), "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)

    for problem in record["problems"]:
        print(f"problem: {problem}")
    if record["missing_spans"]:
        print(f"no span (target missing): {', '.join(record['missing_spans'])}")
    if any(record["disagreements"]):
        print(f"validate disagreements per job (known numeric-route defect, "
              f"recorded, not a failure): {record['disagreements']}")
    print(f"env: {json.dumps(record['env'], sort_keys=True)}")
    print(f"passes: {record['passes']}, jobs: {json.dumps(record['jobs'])}")
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
