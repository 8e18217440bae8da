"""One measuring process: set up a workload, run its jobs, check them.

Started by ``run.py``; not meant to be run by hand.  Set-up is importing
``cordiality`` and generating the workload's inputs.  In ``--mode setup``
the process times set-up and exits; otherwise it repeats the workload's job
until ``--seconds`` have passed.  Either way it prints one JSON line.

Every time is reported scaled to reference-host seconds (``hostspeed``) by
calibrations taken on this core right before and after it; the raw times
and calibrations are kept beside them.

Modes:
  setup    calibrate, set up, calibrate, then exit.
  measure  set up, then untraced jobs; a timer pair around each ``solve``
           call gives the per-graph latency samples.
  trace    set up, then untraced and traced jobs alternate, so the traced
           run's per-layer numbers and its overhead come from the same
           interval.
In measure and trace mode nothing is calibrated before the first job, so
the peak RSS read after it is that of set-up and one CLI invocation alone.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback

import hostspeed
import workloads


class SolveTimer:
    """A timer pair around each ``cordiality.cli.solve`` call."""

    def __init__(self, cli):
        self.cli = cli
        self.original = cli.solve
        self.samples: list[float] = []

    def __enter__(self):
        original = self.original
        samples = self.samples

        def timed(*args, **kwargs):
            start = time.perf_counter()
            result = original(*args, **kwargs)
            samples.append(time.perf_counter() - start)
            return result

        self.cli.solve = timed
        return self

    def __exit__(self, *exc):
        self.cli.solve = self.original


def run_job(cli, argv, tracer=None):
    """One CLI invocation: (output, error text or "", seconds)."""
    out = io.StringIO()
    code = None
    error = ""
    with contextlib.redirect_stderr(io.StringIO()) as err:
        start = time.perf_counter()
        try:
            code = tracer.run(cli.main, argv, out) if tracer else cli.main(argv, out)
        except SystemExit as exc:  # argparse rejecting argv, or sys.exit in the program
            code = exc.code
        except Exception:  # a crashing job is a failed operation, not a crashed run
            error = traceback.format_exc()
        elapsed = time.perf_counter() - start
    if code not in (None, 0):
        error = f"exit code {code}: {err.getvalue().strip()[-500:]}"
    return out.getvalue(), error, elapsed


def reference_values(inputs) -> list[int]:
    """random-batch values from the Maker-Breaker solver, which shares no
    code with the minimax solver."""
    from cordiality.game import ZERO_STARTS, Objective
    from cordiality.graphs import from_edges
    from cordiality.makerbreaker import maker_breaker_value

    return [
        maker_breaker_value(from_edges(n, edges), ZERO_STARTS, Objective.BALANCE)
        for n, edges in inputs.corpus
    ]


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", required=True)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", required=True, choices=("setup", "measure", "trace"))
    parser.add_argument("--work-dir", required=True)
    parser.add_argument("--spans", help="file for the trace mode's spans (JSON lines)")
    args = parser.parse_args()
    # Stay on one CPU: on a shared host the CPUs can differ in speed by a
    # quarter, and a process the scheduler moves between them measures a
    # mix that changes from run to run.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    before = hostspeed.calibrate() if args.mode == "setup" else None
    start = time.perf_counter()
    sys.path.insert(0, os.path.join(args.root, "src"))
    import cordiality.cli as cli

    inputs = workloads.Inputs(args.workload, args.seed, args.work_dir)
    raw_s = time.perf_counter() - start
    try:
        if args.mode == "setup":
            calibration_s = (before + hostspeed.calibrate()) / 2
            result = {
                "setup_s": raw_s * hostspeed.scale(calibration_s),
                "raw_s": raw_s,
                "calibration_s": calibration_s,
            }
        else:
            result = measure(cli, inputs, args)
    finally:
        inputs.cleanup()
    print(json.dumps(result), flush=True)
    return 0


def measure(cli, inputs, args) -> dict:
    expected = workloads.load_expected()
    tracer = None
    if args.mode == "trace":
        from cordiality.graphs import Graph
        from spans import Tracer

        tracer = Tracer(Graph)
    jobs = []
    outputs = []
    layers = []
    span_records = []
    solve_s: list[list[float]] = []  # per untraced job, one scaled sample per solve call
    deadline = time.perf_counter() + args.seconds
    before = None  # calibration before the job
    while True:
        traced = tracer is not None and len(jobs) % 2 == 1
        if traced:
            tracer.reset()
            tracer.install()
            try:
                text, error, elapsed = run_job(cli, inputs.argv, tracer)
            finally:
                tracer.uninstall()
        else:
            with SolveTimer(cli) as timer:
                text, error, elapsed = run_job(cli, inputs.argv)
        if not jobs:
            # one job per fresh process is what a CLI user gets; later jobs
            # only add allocator fragmentation
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        after = hostspeed.calibrate()
        calibration_s = after if before is None else (before + after) / 2
        before = after
        factor = hostspeed.scale(calibration_s)
        if traced:
            layers.append(tracer.layer_metrics(factor))
            span_records.extend(tracer.span_records(len(jobs)))
        else:
            solve_s.append([sample * factor for sample in timer.samples])
        jobs.append({
            "traced": traced, "wall_s": elapsed * factor, "raw_s": elapsed,
            "calibration_s": calibration_s, "error": error,
        })
        outputs.append(text)
        if time.perf_counter() >= deadline and (tracer is None or len(jobs) % 2 == 0):
            break

    # Checks run after the timed loop.  Every job must print the same
    # text, and that text must pass the workload's check.
    reference = None
    if inputs.workload == "random-batch" and args.seed != expected["random-batch"]["seed"]:
        reference = reference_values(inputs)
    verdicts = {}
    for job, text in zip(jobs, outputs):
        if job["error"]:
            continue
        if text not in verdicts:
            verdicts[text] = workloads.check_output(inputs, text, expected, reference)
        job["error"] = "; ".join(verdicts[text][:5])
    if len(verdicts) > 1:
        for job in jobs:
            job["error"] = job["error"] or "jobs printed different outputs"
    if span_records:
        with open(args.spans, "w", encoding="ascii") as handle:
            handle.writelines(json.dumps(record) + "\n" for record in span_records)
    return {
        "jobs": jobs,
        "solve_s": solve_s,
        "layers": layers,
        "untraced_names": tracer.missing if tracer else [],
        "peak_rss_mb": peak_rss_mb,
    }


if __name__ == "__main__":
    sys.exit(main())
