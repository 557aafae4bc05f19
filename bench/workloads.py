"""Workload inputs, pass runners and the correctness gate of the benchmark.

The benchmark drives the package only through its public entry points: the
``tzitzeica`` CLI (``python -m tzitzeica.cli``) as subprocesses, and
``tzitzeica.cli.run_pipeline`` in-process.  Every input is generated from the
workload seed into a per-run work directory inside the checkout.
"""

import json
import math
import os
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field

import numpy as np

import speed

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
REFERENCE_DIR = os.path.join(BENCH_DIR, "reference")
WORK_DIR = os.path.join(ROOT, ".bench_work")

FLAT_CFG = os.path.join(ROOT, "configs", "flat.cfg")
FLAT_LX = 6.283185307179586
FLAT_LY = 3.6275987284684357

WAVE_ENERGY = 6.5
WAVE_PERIOD = 1.8012344961396267  # period_shooting(6.5), as the wave stage logs it
WAVE_N = 128
WAVE_PERTURBATION = 0.02  # max |seed - lifted wave|: 3 Newton iterations; 0.1 can diverge

SCAN_N = 32
SCAN_THETAS = 12  # candidate angles j*pi/12, j = 0..11, one reference report each
SCAN_K = 2  # angles drawn per pass

# Child processes run single-threaded BLAS so passes do not fight over the
# two cores and the numbers do not depend on thread scheduling.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}

# Absolute tolerances of the residual gate: the criterion-1 limits of
# tests/test_acceptance.py where one exists, 1e-11 for closure_defect (the
# closure gate of ROADMAP item 3), sqrt(1e-10) for minimality_H = sqrt(h2_max),
# and the suite's trace / normality limit 1e-8 for every other residual.
ATOL = {
    "h2_max": 1e-10,
    "minimality_H": 1e-5,
    "invariant_t2_defect": 1e-6,
    "invariant_t4_defect": 1e-6,
    "gauss_curvature_max": 1e-6,
    "gauss_defect": 1e-6,
    "normality_defect": 1e-8,
    "unitarity_defect": 1e-10,
    "closure_defect": 1e-11,
}
DEFAULT_ATOL = 1e-8
RTOL = 1e-6  # the invariant tolerance of the suite, for O(1) residuals


class CheckoutError(RuntimeError):
    """The checkout does not hold the package sources."""


def import_package():
    """Import tzitzeica from this checkout's src/ and nothing else."""
    if not os.path.isfile(os.path.join(SRC, "tzitzeica", "cli.py")):
        raise CheckoutError(f"no package sources under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import tzitzeica.cli

    pkg_dir = os.path.dirname(os.path.abspath(tzitzeica.cli.__file__))
    if pkg_dir != os.path.join(SRC, "tzitzeica"):
        raise CheckoutError(f"tzitzeica imported from {pkg_dir}, not from {SRC}")
    return tzitzeica.cli


def child_env():
    env = dict(os.environ)
    env.update(THREAD_ENV)
    env["PYTHONPATH"] = SRC
    return env


@dataclass
class Step:
    config: str  # path of the config file this stage runs with
    stage: str
    reference: str | None = None  # reference name checked after this step


@dataclass
class Workload:
    name: str
    steps: list
    workdir: str
    configs: dict = field(default_factory=dict)  # config path -> RunConfig

    @property
    def stage_processes(self):
        return len(self.steps)


def write_config(path, values):
    with open(path, "w") as fh:
        for key, val in values.items():
            fh.write(f"{key} = {val}\n")
    return path


def _flat64():
    steps = [Step(FLAT_CFG, s) for s in ("solve", "frame", "surface", "report", "export")]
    steps[3].reference = "report"
    return steps


def wave_seed_field(wave_csv, rng, path):
    """Lifted travelling wave plus a smooth low-mode perturbation, as a field CSV.

    The wave stage samples one period at 4 * WAVE_N points from the maximum,
    so every fourth sample is the lift onto the x nodes.  The perturbation has
    a fixed shape, even in x so that Newton is not pushed along the wave's
    translation family.  The seed draws a y-translation by whole grid steps and
    a y-reflection of it: both are exact symmetries of the discrete problem,
    so every seed costs the same Newton iterations.  Random mode amplitudes
    instead gave 4 to 7 iterations, a spread no timing bound could absorb.
    """
    with open(wave_csv) as fh:
        head = fh.readline().split(",")
        samples = np.loadtxt(fh)
    if int(head[0]) != 4 * WAVE_N or abs(float(head[1]) / WAVE_PERIOD - 1.0) > 1e-9:
        raise ValueError(f"wave.csv header {head} does not match the workload's wave")
    x = np.arange(WAVE_N) * (WAVE_PERIOD / WAVE_N)
    y = np.arange(WAVE_N) * (FLAT_LY / WAVE_N)
    kx, ky = 2.0 * math.pi * x[None, :] / WAVE_PERIOD, 2.0 * math.pi * y[:, None] / FLAT_LY
    shape = (
        np.cos(ky)
        + 0.6 * np.cos(kx) * np.cos(ky + 0.7)
        + 0.4 * np.cos(2.0 * kx) * np.cos(2.0 * ky + 1.9)
        + 0.3 * np.cos(kx)
    )
    shape = np.roll(shape, int(rng.integers(WAVE_N)), axis=0)
    if rng.integers(2):
        shape = shape[::-1]
    values = samples[::4][None, :] + shape * (WAVE_PERTURBATION / np.abs(shape).max())
    lines = [f"{WAVE_N},{WAVE_N},{WAVE_PERIOD!r},{FLAT_LY!r}"]
    lines += [format(float(v), ".17g") for v in values.ravel()]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    return path


def _wave128(workdir, rng, cli):
    seed_path = os.path.join(workdir, "seed.csv")
    cfg_path = write_config(
        os.path.join(workdir, "wave128.cfg"),
        {
            "nx": WAVE_N, "ny": WAVE_N, "lx": repr(WAVE_PERIOD), "ly": repr(FLAT_LY),
            "theta": 0.3, "tol": 1e-10, "max_iter": 20, "seed": "file",
            "field_path": seed_path, "wave_energy": WAVE_ENERGY,
            "extend_closure": "false",
        },
    )
    # the seed comes from the package's own wave stage, run once at set-up
    wave_dir = os.path.join(workdir, "wave-setup")
    cli.run_pipeline(cli.parse_config(cfg_path), "wave", wave_dir, echo=False)
    wave_seed_field(os.path.join(wave_dir, "wave.csv"), rng, seed_path)
    steps = [Step(cfg_path, s) for s in ("wave", "solve", "frame", "surface", "report", "export")]
    steps[4].reference = "report"
    return steps


def scan_thetas(rng):
    """Indices j of the K angles j*pi/SCAN_THETAS one pass scans."""
    return sorted(int(j) for j in rng.choice(SCAN_THETAS, SCAN_K, replace=False))


def theta_scan_steps(workdir, thetas):
    base = {"nx": SCAN_N, "ny": SCAN_N, "lx": repr(FLAT_LX), "ly": repr(FLAT_LY),
            "tol": 1e-11, "max_iter": 20, "seed": "zero"}
    solve_cfg = write_config(os.path.join(workdir, "scan.cfg"), dict(base, theta=0.0))
    steps = [Step(solve_cfg, "solve")]
    for j in thetas:
        theta = j * math.pi / SCAN_THETAS
        cfg = write_config(os.path.join(workdir, f"scan-theta{j:02d}.cfg"), dict(base, theta=repr(theta)))
        steps += [Step(cfg, "frame"), Step(cfg, "report", f"theta{j:02d}")]
    return steps


# BENCHMARK.json lists the first two; theta-scan32 runs by name only, since
# three workloads would leave too little time per run (bench/README.md).
WORKLOADS = ("flat64-closure", "wave128-newton", "theta-scan32")


def make_workload(name, seed, workdir, cli):
    """Generate the inputs of one workload from its seed into workdir."""
    rng = np.random.default_rng(seed)
    os.makedirs(workdir, exist_ok=True)
    if name == "flat64-closure":
        steps = _flat64()
    elif name == "wave128-newton":
        steps = _wave128(workdir, rng, cli)
    elif name == "theta-scan32":
        steps = theta_scan_steps(workdir, scan_thetas(rng))
    else:
        raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
    return Workload(name, steps, workdir, {s.config: cli.parse_config(s.config) for s in steps})


# ---------------------------------------------------------------------------
# passes
# ---------------------------------------------------------------------------


@dataclass
class PassResult:
    stage_seconds: list = field(default_factory=list)  # wall time of each stage run
    probe: speed.Probe | None = None  # the speed probe run around the stages
    probe_seconds: list = field(default_factory=list)  # its times, before and after each stage
    ok: bool = True
    error: str = ""
    reports: dict = field(default_factory=dict)  # reference name -> report.json bytes
    artifacts: dict = field(default_factory=dict)  # "step:file" -> bytes written
    peak_rss_kb: int = 0

    @property
    def scaled_stage_seconds(self):
        """Stage times at the reference speed, from the probes around each stage."""
        p = self.probe_seconds
        return [self.probe.scale(t, p[i], p[i + 1]) for i, t in enumerate(self.stage_seconds)]

    @property
    def artifact_bytes(self):
        return sum(self.artifacts.values())


def _snapshot(out_dir):
    with os.scandir(out_dir) as it:
        return {e.name: (e.stat().st_size, e.stat().st_mtime_ns) for e in it if e.is_file()}


def _record(result, out_dir, index, step, before):
    after = _snapshot(out_dir)
    for name, stat in after.items():
        if before.get(name) != stat:
            result.artifacts[f"{index}:{name}"] = stat[0]
    if step.reference is not None:
        with open(os.path.join(out_dir, "report.json"), "rb") as fh:
            result.reports[step.reference] = fh.read()
    return after


def fresh_dir(workload, tag):
    path = os.path.join(workload.workdir, tag)
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def run_cli_pass(workload, out_dir, probe=None):
    """The workload's stage sequence, one `tzitzeica` process per stage.

    With a speed `probe`, it runs before the first stage and after each
    stage, outside the timed intervals.
    """
    result = PassResult(probe=probe)
    if probe:
        result.probe_seconds.append(probe())
    env = child_env()
    before = _snapshot(out_dir)
    log_path = os.path.join(workload.workdir, "stage-output.log")
    for index, step in enumerate(workload.steps):
        argv = [sys.executable, "-m", "tzitzeica.cli", step.stage,
                "--config", step.config, "--out", out_dir]
        with open(log_path, "wb") as log:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, env=env, cwd=ROOT, stdout=log, stderr=subprocess.STDOUT)
            try:
                # wait4 gives this stage process's own peak RSS
                _pid, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            result.stage_seconds.append(time.perf_counter() - t0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        result.peak_rss_kb = max(result.peak_rss_kb, usage.ru_maxrss)
        if proc.returncode != 0:
            with open(log_path, errors="replace") as fh:
                tail = fh.read()[-500:]
            result.ok, result.error = False, f"stage {step.stage} exited {proc.returncode}: {tail}"
            return result
        if probe:
            result.probe_seconds.append(probe())
        before = _record(result, out_dir, index, step, before)
    return result


def run_inprocess_pass(workload, out_dir, cli, tracer=None, probe=None):
    """The same stage sequence through run_pipeline in this process."""
    result = PassResult(probe=probe)
    if probe:
        result.probe_seconds.append(probe())
    before = _snapshot(out_dir)
    for index, step in enumerate(workload.steps):
        cfg = workload.configs[step.config]
        t0 = time.perf_counter()
        try:
            if tracer is None:
                cli.run_pipeline(cfg, step.stage, out_dir, echo=False)
            else:
                with tracer.span(f"stage.{step.stage}"):
                    cli.run_pipeline(cfg, step.stage, out_dir, echo=False)
        except Exception as exc:  # a failed stage is counted, not fatal
            result.stage_seconds.append(time.perf_counter() - t0)
            result.ok, result.error = False, f"stage {step.stage} raised {exc!r}"
            return result
        result.stage_seconds.append(time.perf_counter() - t0)
        if probe:
            result.probe_seconds.append(probe())
        before = _record(result, out_dir, index, step, before)
    return result


def time_import(importtime=False):
    """Wall time of a fresh interpreter running `import tzitzeica.cli`."""
    argv = [sys.executable] + (["-X", "importtime"] if importtime else []) + ["-c", "import tzitzeica.cli"]
    t0 = time.perf_counter()
    proc = subprocess.run(argv, env=child_env(), cwd=ROOT,
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    seconds = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"import spawn exited {proc.returncode}: {proc.stderr[-500:]!r}")
    return seconds, proc.stderr.decode()


# ---------------------------------------------------------------------------
# correctness gate
# ---------------------------------------------------------------------------


def reference_path(workload_name, ref):
    return os.path.join(REFERENCE_DIR, workload_name, f"{ref}.json")


def check_report(workload_name, ref, data):
    """Problems of one report.json against its stored reference (empty: ok)."""
    got = json.loads(data)
    with open(reference_path(workload_name, ref)) as fh:
        want = json.load(fh)
    if set(got) != set(want):
        return [f"{ref}: residual names {sorted(set(got) ^ set(want))} differ from the reference"]
    problems = []
    for key, expected in sorted(want.items()):
        tol = ATOL.get(key, DEFAULT_ATOL) + RTOL * abs(expected)
        if not (math.isfinite(got[key]) and abs(got[key] - expected) <= tol):
            problems.append(f"{ref}: {key} = {got[key]!r}, reference {expected!r} +- {tol:.1e}")
    return problems


class Gate:
    """Counts attempted and failed passes of one run.

    A pass fails when a stage fails, a residual leaves its reference band, or
    its report.json bytes or artifact byte counts differ from the first pass.
    """

    def __init__(self, workload_name):
        self.workload_name = workload_name
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.first = None

    def fail(self, problem):
        self.failed += 1
        self.problems.append(problem)

    def check(self, kind, result):
        self.attempted += 1
        if not result.ok:
            self.fail(f"{kind}: {result.error}")
            return False
        problems = []
        for ref, data in sorted(result.reports.items()):
            problems += check_report(self.workload_name, ref, data)
        if self.first is None:
            self.first = result
        else:
            if result.reports != self.first.reports:
                problems.append("report.json bytes differ between passes")
            if result.artifacts != self.first.artifacts:
                problems.append(
                    f"artifact bytes differ between passes: {result.artifacts} vs {self.first.artifacts}"
                )
        if problems:
            self.fail(f"{kind}: " + "; ".join(problems))
            return False
        return True
