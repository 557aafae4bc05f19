"""Benchmark of the tzitzeica pipeline on one workload.

    python3 bench/run.py --workload flat64-closure --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the package is imported from its src/.
Workloads: flat64-closure, wave128-newton, theta-scan32 (see bench/README.md).

--trace 0 measures the end-to-end metrics: setup_s (a fresh interpreter
importing tzitzeica.cli), pipeline_s (the workload's CLI stage sequence, one
process per stage), compute_s (the same sequence in-process through
run_pipeline), peak_rss_mb and artifact_mb.  --trace 1 measures the per-layer
metrics from traced in-process passes and `-X importtime` spawns.  Every time
is a median over the run's passes or spawns, after one discarded warm-up pass
and spawn: a pass time is the sum over stages of each stage's median.  The
end-to-end times (and trace.overhead_s) are scaled to a reference machine
speed by probes run around each stage and spawn (speed.py).  Work is done one
process at a time.

Every pass is checked: stage exit codes, each residual of report.json against
the stored reference, and byte-identical report.json and artifact sizes
across the run's passes.  The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics; the exit code is 0 when
every pass was correct, 1 when one was not and 2 when the checkout holds no
package to measure.
"""

import os

# Single-threaded BLAS in this process too (children get workloads.THREAD_ENV);
# set before numpy loads.
os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402

import numpy  # noqa: E402
import scipy  # noqa: E402

import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

KB = 1024

# Share of the measured time each kind of operation gets within a run, and
# the count each must reach even when the time is up.
SHARES = {"cli": 0.5, "inprocess": 0.38, "spawn": 0.12}
MINIMUM = {"cli": 3, "inprocess": 3, "spawn": 3}
TRACE_SHARES = {"traced": 0.45, "untraced": 0.4, "spawn": 0.15}
TRACE_MINIMUM = {"traced": 2, "untraced": 2, "spawn": 2}


def environment():
    try:
        commit = subprocess.run(
            ["git", "-C", workloads.ROOT, "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        commit = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpu": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": commit,
        **workloads.THREAD_ENV,
    }


def schedule(shares, minimum, seconds):
    """Yield operation kinds, one at a time.

    Until `seconds` are up the next kind is the one whose time so far is
    furthest below its share, so kinds interleave and each sees the same
    machine; after that only kinds short of their minimum count run.
    """
    spent = dict.fromkeys(shares, 0.0)
    done = dict.fromkeys(shares, 0)
    deadline = time.perf_counter() + seconds
    while True:
        if time.perf_counter() < deadline:
            kind = min(shares, key=lambda k: spent[k] / shares[k])
        else:
            short = [k for k in shares if done[k] < minimum[k]]
            if not short:
                return
            kind = short[0]
        t0 = time.perf_counter()
        yield kind
        spent[kind] += time.perf_counter() - t0
        done[kind] += 1


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def stagewise_median(passes):
    """Pass time as the sum over stages of each stage's median across passes.

    The machine's speed changes from second to second, so a slow spell lands
    on a few stages of one pass; the per-stage median drops it, where the
    median of whole-pass sums over a handful of passes would not.
    """
    return sum(statistics.median(times) for times in zip(*passes))


def timing_line(name, unit, value, values, what):
    q1, q3 = quartiles(values)
    return (f"{name:<12} {value:10.4f} {unit:<5} {what} "
            f"(quartiles {q1:.4f} .. {q3:.4f}, range {min(values):.4f} .. {max(values):.4f})")


def timed_spawn():
    """Wall time of one import spawn, raw and scaled by the probes around it."""
    before = speed.SPAWN()
    seconds = workloads.time_import()[0]
    return seconds, speed.SPAWN.scale(seconds, before, speed.SPAWN())


def measure(wl, cli, gate, seconds):
    """End-to-end metrics of one workload."""
    warm = workloads.run_inprocess_pass(wl, workloads.fresh_dir(wl, "warm-up"), cli)
    gate.check("warm-up in-process pass", warm)
    workloads.time_import()
    raw = {"cli": [], "inprocess": [], "spawn": []}
    scaled = {"cli": [], "inprocess": [], "spawn": []}
    peak_kb, artifact_bytes, stage_runs = 0, warm.artifact_bytes, 0
    for n, kind in enumerate(schedule(SHARES, MINIMUM, seconds)):
        if kind == "spawn":
            gate.attempted += 1
            try:
                wall, at_reference = timed_spawn()
            except RuntimeError as exc:
                gate.fail(f"import spawn: {exc}")
                continue
            raw["spawn"].append(wall)
            scaled["spawn"].append(at_reference)
            continue
        out_dir = workloads.fresh_dir(wl, f"pass-{n}")
        if kind == "cli":
            result = workloads.run_cli_pass(wl, out_dir, probe=speed.SPAWN)
            stage_runs += wl.stage_processes
            peak_kb = max(peak_kb, result.peak_rss_kb)
        else:
            result = workloads.run_inprocess_pass(wl, out_dir, cli, probe=speed.LOOP)
        if gate.check(f"{kind} pass", result):
            raw[kind].append(result.stage_seconds)
            scaled[kind].append(result.scaled_stage_seconds)
        shutil.rmtree(out_dir, ignore_errors=True)

    if not all(raw.values()):
        return {}, ["no successful pass or spawn of some kind"], None
    setup_s = statistics.median(scaled["spawn"])
    pipeline_s = stagewise_median(scaled["cli"])
    compute_s = stagewise_median(scaled["inprocess"])
    n_cli, n_inprocess, n_spawn = len(raw["cli"]), len(raw["inprocess"]), len(raw["spawn"])
    lines = [
        "times at the reference speed (bench/speed.py); quartiles and range of the raw wall times",
        timing_line("setup_s", "s", setup_s, raw["spawn"],
                    f"median of {n_spawn} spawns importing tzitzeica.cli; raw median "
                    f"{statistics.median(raw['spawn']):.4f}"),
        timing_line("pipeline_s", "s", pipeline_s, [sum(p) for p in raw["cli"]],
                    f"stagewise median of {n_cli} CLI passes of {wl.stage_processes} stage "
                    f"processes; raw {stagewise_median(raw['cli']):.4f}"),
        timing_line("compute_s", "s", compute_s, [sum(p) for p in raw["inprocess"]],
                    f"stagewise median of {n_inprocess} in-process passes; raw "
                    f"{stagewise_median(raw['inprocess']):.4f}"),
        f"{'peak_rss_mb':<12} {peak_kb * KB / 1e6:10.4f} MB    max ru_maxrss of {stage_runs} stage processes",
        f"{'artifact_mb':<12} {artifact_bytes / 1e6:10.4f} MB    bytes one pass writes",
        f"{'fail_ratio':<12} {gate.failed / max(gate.attempted, 1):10.4f} ratio "
        f"{gate.failed} failed of {gate.attempted} attempted operations",
    ]
    metrics = {
        "setup_s": (setup_s, "s"),
        "pipeline_s": (pipeline_s, "s"),
        "compute_s": (compute_s, "s"),
        "peak_rss_mb": (peak_kb * KB / 1e6, "MB"),
        "artifact_mb": (artifact_bytes / 1e6, "MB"),
    }
    return metrics, lines, None


def measure_traced(wl, cli, gate, seconds):
    """Per-layer metrics of one workload from traced passes and spawns."""
    gate.check("warm-up in-process pass",
               workloads.run_inprocess_pass(wl, workloads.fresh_dir(wl, "warm-up"), cli))
    tracer = tracing.Tracer()
    passes, spawns, traced_s, untraced_s = [], [], [], []
    for n, kind in enumerate(schedule(TRACE_SHARES, TRACE_MINIMUM, seconds)):
        if kind == "spawn":
            gate.attempted += 1
            spawns.append(tracer.begin_trace())
            try:
                with tracer.span("startup.spawn") as sid:
                    _seconds, log = workloads.time_import(importtime=True)
                tracer.add_import_trace(sid, log)
            except (RuntimeError, ValueError) as exc:
                spawns.pop()
                gate.fail(f"importtime spawn: {exc}")
            continue
        out_dir = workloads.fresh_dir(wl, f"pass-{n}")
        if kind == "traced":
            trace = tracer.begin_trace()
            with tracer.installed():
                result = workloads.run_inprocess_pass(wl, out_dir, cli, tracer, probe=speed.LOOP)
            if gate.check("traced pass", result):
                passes.append(trace)
                traced_s.append(result.scaled_stage_seconds)
        else:
            result = workloads.run_inprocess_pass(wl, out_dir, cli, probe=speed.LOOP)
            if gate.check("untraced pass", result):
                untraced_s.append(result.scaled_stage_seconds)
        shutil.rmtree(out_dir, ignore_errors=True)

    if not (passes and spawns and untraced_s):
        return {}, ["no traced pass succeeded"], tracer
    counts = [tracing.exact_counts(tracer.summary(t)) for t in passes]
    for c in counts[1:]:
        if c != counts[0]:
            gate.fail(f"exact counts differ between traced passes: {counts[0]} vs {c}")
    metrics = tracing.layer_metrics(tracer, passes, spawns)
    metrics["startup.stage_processes"] = (wl.stage_processes, "count")
    metrics["trace.overhead_s"] = (stagewise_median(traced_s) - stagewise_median(untraced_s), "s")
    metrics["trace.spans_per_pass"] = (
        statistics.median(sum(1 for s in tracer.spans if s["trace"] == t) for t in passes), "count")
    lines = [f"{name:<40} {value:14.6g} {unit}" for name, (value, unit) in metrics.items()]
    lines.append(f"traced passes {len(passes)}, untraced passes {len(untraced_s)}, "
                 f"importtime spawns {len(spawns)}; counts per pass: {json.dumps(counts[0], sort_keys=True)}")
    lines.append(f"fail_ratio {gate.failed / max(gate.attempted, 1):.4f} ratio "
                 f"({gate.failed} failed of {gate.attempted} attempted operations)")
    return metrics, lines, tracer


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # on SIGTERM unwind like on Ctrl-C, so a running stage process is killed and reaped
    signal.signal(signal.SIGTERM, lambda _signum, _frame: sys.exit(143))
    # one vCPU for this process and every child it starts (children inherit
    # the mask), so the speed probes run where the timed work runs
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    try:
        cli = workloads.import_package()
    except workloads.CheckoutError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    env = environment()
    print("# environment " + json.dumps(env, sort_keys=True))
    os.makedirs(workloads.WORK_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=workloads.WORK_DIR)
    try:
        t0 = time.perf_counter()
        wl = workloads.make_workload(args.workload, args.seed, workdir, cli)
        print(f"# workload {wl.name} seed {args.seed}: {wl.stage_processes} stage processes "
              f"({' '.join(s.stage for s in wl.steps)}), inputs in {time.perf_counter() - t0:.2f} s")
        gate = workloads.Gate(wl.name)
        run = measure_traced if args.trace else measure
        metrics, lines, tracer = run(wl, cli, gate, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if tracer is not None:
        path = os.path.join(workloads.WORK_DIR, f"trace-{args.workload}-seed{args.seed}.jsonl")
        tracer.dump(path, dict(env, workload=args.workload, seed=args.seed))
        lines.append(f"spans written to {os.path.relpath(path, workloads.ROOT)}")
    for line in lines:
        print(line)
    for problem in gate.problems:
        print(f"FAILED: {problem}", file=sys.stderr)
    correct = gate.failed == 0 and bool(metrics)
    print(json.dumps({
        "correct": correct,
        "attempted": max(gate.attempted, 1),
        "failed": gate.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
