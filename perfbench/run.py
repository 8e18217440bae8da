"""Benchmark entry point: one workload, one seed, one run.

    python3 perfbench/run.py --workload verify-all --seed 1 --seconds 50 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.
Each run starts fresh child processes (``child.py``), so set-up time and
peak RSS belong to the workload alone.  Every time is scaled to
reference-host seconds by calibrations on the same core (``hostspeed.py``):

  --trace 0  times set-up in fifteen children, eight before and seven after
             the one that measures the jobs, and reports every end-to-end
             metric in BENCHMARK.json.
  --trace 1  runs two children for half the time each; in both, untraced
             and traced jobs alternate.  Reports every per-layer metric,
             and fails the run unless the exact counts of the two children
             and of every traced job agree.

The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  The line before it
summarises the run (seed, host calibration, fail fraction, errors), and the
same record, with every job time, goes to perfbench/out/.  A job is one CLI
invocation; it fails when it raises, exits non-zero or prints output that
fails the workload's check.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")
SETUP_BEFORE, SETUP_AFTER = 8, 7  # set-up children around the measuring one
RUN_LIMIT_S = 170  # every child is killed past this, so a run ends within 180 s
COUNTS = (
    "solver.calls", "solver.nodes", "harness.calls", "harness.moves",
    "harness.terminals", "makerbreaker.families",
)

sys.path.insert(0, HERE)
import workloads  # noqa: E402


class BenchError(RuntimeError):
    """The run could not produce a result at all."""


def spawn(mode: str, args, seconds: float, deadline: float, spans: str | None = None):
    """Start one child and return the JSON record it prints."""
    cmd = [
        sys.executable, os.path.join(HERE, "child.py"), "--root", ROOT,
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(seconds), "--mode", mode, "--work-dir", OUT_DIR,
    ]
    if spans:
        cmd += ["--spans", spans]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    watchdog = threading.Timer(max(deadline - time.perf_counter(), 0.0), proc.kill)
    watchdog.start()
    try:
        lines = proc.stdout.read().splitlines()
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if code != 0 or len(lines) != 1:
        raise BenchError(f"{mode} child exited with code {code}")
    return json.loads(lines[0])


def graph_percentile(per_job: list[list[float]], q: int) -> float:
    """Median over jobs of each job's q-th percentile of solve-call times.

    Every job solves the same graphs, so pooling their samples would put
    the percentile on the edge between two graphs' clusters, where it reads
    one cluster's extreme; a per-job percentile reads one typical call.
    """
    values = [
        statistics.quantiles(samples, n=100, method="inclusive")[q - 1]
        for samples in per_job
        if len(samples) >= 2  # a job that crashed early may have no samples
    ]
    return statistics.median(values) if values else 0.0


def end_to_end(args, deadline: float) -> tuple[dict, list, dict]:
    # Set-up is timed in children of its own, spread around the measuring
    # child so that its samples do not all fall in one state of the host.
    setups = [spawn("setup", args, 0, deadline) for _ in range(SETUP_BEFORE)]
    child = spawn("measure", args, args.seconds, deadline)
    setups += [spawn("setup", args, 0, deadline) for _ in range(SETUP_AFTER)]
    jobs = child["jobs"]
    metrics = {
        "wall_s": statistics.median(job["wall_s"] for job in jobs),
        "graph_s.p50": graph_percentile(child["solve_s"], 50),
        "graph_s.p90": graph_percentile(child["solve_s"], 90),
        "peak_rss_mb": child["peak_rss_mb"],
        "setup_s": statistics.median(setup["setup_s"] for setup in setups),
    }
    extra = {
        "raw_wall_s": statistics.median(job["raw_s"] for job in jobs),
        "raw_setup_s": statistics.median(setup["raw_s"] for setup in setups),
        "calibration_s": statistics.median(
            [job["calibration_s"] for job in jobs] + [setup["calibration_s"] for setup in setups]
        ),
        "setup_samples_s": [setup["setup_s"] for setup in setups],
        "solve_samples": sum(map(len, child["solve_s"])),
    }
    return metrics, [child], extra


def per_layer(args, deadline: float) -> tuple[dict, list, dict]:
    children = []
    for index in range(2):
        spans = os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}-{index}.jsonl")
        children.append(spawn("trace", args, args.seconds / 2, deadline, spans))
    layers = [layer for child in children for layer in child["layers"]]
    jobs = [job for child in children for job in child["jobs"]]
    # exact counts are checked equal below, so any job's value stands for all
    metrics = {
        name: layers[0][name] if name in COUNTS else statistics.median(layer[name] for layer in layers)
        for name in layers[0]
    }
    traced = statistics.median(job["wall_s"] for job in jobs if job["traced"])
    untraced = statistics.median(job["wall_s"] for job in jobs if not job["traced"])
    metrics["trace_overhead_s"] = traced - untraced
    errors = [
        f"{name} differs between traced jobs: {sorted({layer[name] for layer in layers})}"
        for name in COUNTS
        if len({layer[name] for layer in layers}) > 1
    ]
    extra = {
        "calibration_s": statistics.median(job["calibration_s"] for job in jobs),
        "untraced_names": children[0]["untraced_names"],
        "count_errors": errors,
    }
    return metrics, children, extra


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "cordiality", "cli.py")):
        print(f"no cordiality package under {ROOT}/src; run from a full checkout", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="ascii") as handle:
        spec = json.load(handle)
    os.makedirs(OUT_DIR, exist_ok=True)
    deadline = time.perf_counter() + RUN_LIMIT_S
    try:
        measured, children, extra = (per_layer if args.trace else end_to_end)(args, deadline)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    jobs = [job for child in children for job in child["jobs"]]
    errors = [job["error"] for job in jobs if job["error"]] + extra.pop("count_errors", [])
    failed = sum(1 for job in jobs if job["error"])
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in wanted}
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "jobs": len(jobs),
        "fail_frac": failed / len(jobs),
        "errors": errors[:10],
        **extra,
    }
    path = os.path.join(OUT_DIR, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="ascii") as handle:
        json.dump({**record, "metrics": metrics, "job_records": jobs}, handle, indent=1)
    for error in errors[:10]:
        print(f"error: {error}", file=sys.stderr)
    print(json.dumps(record))
    print(json.dumps({"correct": not errors, "attempted": len(jobs), "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
