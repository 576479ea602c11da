"""Benchmark of ``dyngcn``: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload train-gate --seed 1 --seconds 10 --trace 0

Run from anywhere; it benchmarks the ``src/dyngcn`` next to this
directory.  The workloads are described in ``workloads.py``.  A run:

1. sets up the workload's inputs from the seed, several times, and
   reports the median as ``setup_s``;
2. repeats the workload's unit of work (a ``train`` call, a pass over the
   train-ntu batches, an ``ensemble_checkpoints`` call) for about
   ``--seconds``, timing every train step or eval batch;
3. with ``--trace 1``, instead alternates untraced and traced halves of
   step 2 and reports per-layer metrics plus the tracing overhead in
   place of the end-to-end ones;
4. checks that the outputs are correct, prints every metric by name with
   its unit and sample count, and ends with one JSON line:
   ``{"correct", "attempted", "failed", "metrics"}``.

``attempted`` counts steps or batches plus checks; ``failed`` counts
those that raised, went non-finite or failed.  Work files live under
``.perfbench_work/`` in the checkout and are removed on exit.

End-to-end metrics, printed by an untraced run of every workload:

setup_s        median wall time of one set-up (data files, checkpoints,
               model and batches), so work moved out of the measured loop
               shows.
run_s          median wall time of one unit call: what a user waits for
               one training run, one pass, one ensemble evaluation.
samples_per_s  samples trained, or sequence-forwards evaluated, per second
               of step or batch time.
step_ms_p50    median train step or eval batch.  The highest percentile
               with ten samples beyond it is printed beside it when the
               run holds enough steps.
peak_rss_mib   ru_maxrss of the measuring process, fresh for every run.

Per-layer metrics, printed by a traced run, are described in
``bench_trace.Tracer.metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import signal
import sys
import time
import traceback
from types import SimpleNamespace

import bench_env

# Set-up runs at least SETUP_REPEATS times and until SETUP_SECONDS have been
# spent (at most SETUP_MAX times), so a cheap set-up still yields a steady median.
SETUP_REPEATS = 7
SETUP_SECONDS = 3.0
SETUP_MAX = 60


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True,
                        choices=("train-gate", "train-ntu", "eval-ensemble"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def measure(workload, state, seconds, tracer=None):
    """Repeat the workload's unit until ``seconds`` pass; time steps and batches."""
    from bench_trace import Patches, StepTimer

    patches = Patches()
    timer = StepTimer()
    units = []
    raised = 0
    try:
        if tracer is not None:
            tracer.install(patches)
        timer.install(patches)   # outermost, so a traced step includes the tracing cost
        start = time.perf_counter()
        while True:
            began = time.perf_counter()
            try:
                workload.unit(state)
            except Exception:
                traceback.print_exc()
                raised += 1
                break
            units.append(time.perf_counter() - began)
            # Start another unit only if at least half of it fits, so a run
            # ends within half a unit of ``seconds``.
            if time.perf_counter() - start + units[-1] / 2 >= seconds:
                break
    finally:
        patches.restore()
    steps = timer.steps if workload.train_phase else timer.batches
    return SimpleNamespace(units=units, steps=steps, raised=raised,
                           nonfinite=timer.nonfinite_batches)


def merge(runs):
    return SimpleNamespace(units=[u for run in runs for u in run.units],
                           steps=[s for run in runs for s in run.steps])


def setups_done(times, trace):
    if trace:
        return True   # a traced run does not report setup_s
    return len(times) >= SETUP_MAX or (
        len(times) >= SETUP_REPEATS and sum(times) >= SETUP_SECONDS)


def step_summary(steps):
    from bench_stats import percentile, tail_percentile

    ms = [s * 1000.0 for s, _ in steps]
    p50, n = percentile(ms, 50.0)
    q = tail_percentile(n)
    tail = f", p{q} {percentile(ms, q)[0]:.3f} ms" if q else ""
    return p50, f"n={n} steps or batches{tail}"


def stop_on_sigterm(signum, frame):
    # Raise instead of dying, so the work directory is removed on the way out.
    sys.exit(128 + signum)


def main(argv=None):
    args = parse_args(argv)
    signal.signal(signal.SIGTERM, stop_on_sigterm)
    if not bench_env.use_source_tree():
        print(f"perfbench: no dyngcn sources under {bench_env.SOURCE}", file=sys.stderr)
        return 2
    bench_env.cap_blas_threads()
    env = bench_env.environment()
    print("env " + json.dumps(env, sort_keys=True))
    if env["blas_threads_exceed_nproc"]:
        print("perfbench: warning: BLAS threads exceed nproc", file=sys.stderr)

    from bench_stats import median
    from bench_trace import Tracer
    from dyngcn.flops import count_model_flops
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed)
    work_root = bench_env.ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        setups = []
        while not setups or not setups_done(setups, args.trace):
            shutil.rmtree(work_root, ignore_errors=True)
            began = time.perf_counter()
            state = workload.setup(work_root / f"setup{len(setups)}")
            setups.append(time.perf_counter() - began)
        workload.warm_up(state)
        if args.trace:
            # Untraced, traced, traced, untraced halves: a process speeds up
            # over its first minute, and this order cancels a steady drift
            # out of the overhead comparison.
            tracer = Tracer(workload.train_phase)
            runs = [measure(workload, state, args.seconds / 2, tracer=t)
                    for t in (None, tracer, tracer, None)]
            plain, traced = merge(runs[0::3]), merge(runs[1:3])
        else:
            plain = measure(workload, state, args.seconds)
            peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            runs = [plain]
        checks = workload.checks(state) if all(run.units for run in runs) else []
        if args.trace:
            report = count_model_flops(workload.config)
            problems = tracer.flops_mismatches(report)
            checks.append(("traced rows match the cost model", not problems,
                           "; ".join(problems) or f"{len(report.entries)} rows"))
    finally:
        shutil.rmtree(work_root, ignore_errors=True)
        with contextlib.suppress(OSError):
            work_root.parent.rmdir()   # only succeeds once no other run uses it

    for name, ok, detail in checks:
        print(f"check {name}: {'ok' if ok else 'FAILED'}" + (f" ({detail})" if detail else ""))
    # A unit that raised counts once, for the step or batch it stopped in.
    attempted = sum(len(run.steps) + run.raised for run in runs) + len(checks)
    failed = (sum(run.raised + run.nonfinite for run in runs)
              + sum(not ok for _, ok, _ in checks))
    if not all(run.steps for run in runs):
        print("perfbench: no step or batch completed", file=sys.stderr)
        return 1

    plain_p50, plain_note = step_summary(plain.steps)
    if args.trace:
        traced_p50, traced_note = step_summary(traced.steps)
        metrics = tracer.metrics(report, sum(s for s, _ in traced.steps), len(traced.units))
        metrics["trace.overhead_ms"] = (traced_p50 - plain_p50, "ms")
        notes = {"trace.overhead_ms": f"traced {traced_note}; untraced {plain_note}"}
    else:
        samples = sum(n for _, n in plain.steps)
        metrics = {
            "setup_s": (median(setups), "s"),
            "run_s": (median(plain.units), "s"),
            "samples_per_s": (samples / sum(s for s, _ in plain.steps), "1/s"),
            "step_ms_p50": (plain_p50, "ms"),
            "peak_rss_mib": (peak_rss_mib, "MiB"),
        }
        notes = {
            "setup_s": f"median, n={len(setups)} set-ups",
            "run_s": f"median, n={len(plain.units)} unit calls",
            "samples_per_s": f"{samples} samples over n={len(plain.steps)} steps or batches",
            "step_ms_p50": plain_note,
            "peak_rss_mib": "ru_maxrss of this process after measuring, n=1",
        }
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value:.6g} {unit}" + (f" ({notes[name]})" if name in notes else ""))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
