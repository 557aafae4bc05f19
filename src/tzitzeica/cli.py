"""Pipeline runner: solve | wave | frame | surface | report | export.

Each stage reads the artifacts of earlier stages from the output directory,
writes its own artifact plus a <stage>.log of residuals, and is deterministic
for fixed config and inputs.  Exit codes: 2 config parse or command-line
usage error, 3 validation error, 4 numerical failure; the last line of a
failed run's log, if it can be written, and of its stderr is
"error: <name>" with a stable diagnostic name, and a failed stage leaves none
of the files it writes.
"""

import argparse
import contextlib
import gc

if __name__ == "__main__":
    gc.disable()  # a stage process runs without the cyclic collector, numpy's import included

import math  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

import numpy as np  # noqa: E402

from . import meshout, wave  # noqa: E402
from .config import parse_config  # noqa: E402
from .errors import (ConfigParseError, ConfigValidationError, InvalidFrameError,  # noqa: E402
                     NumericalFailure, PipelineError)
from .grid import (  # noqa: E402
    PeriodicGrid,
    format_float,
    grid_record,
    load_field,
    load_nodes,
    load_saved_field,
    save_field,
    save_nodes,
    save_table,
    zero_field,
)

FIELD_FILE = "field.bin"
WAVE_CSV = "wave.csv"
FRAME_FILE = "frame.bin"
MESH_FILE = "mesh.bin"
REPORT_JSON = "report.json"
MESH_STEM = "mesh"
FRAME_TOL = 1e-8  # bound on the unitarity defect of a frame the stages write or read


# the layer functions the stages call through this module's globals, where
# the benchmark's tracer wraps them; each imports its layer at its first
# call, so a stage process imports only the layers its stage calls
def newton_solve(u0, tol, max_iter):
    from .solver import newton_solve
    return newton_solve(u0, tol, max_iter)


def integrate_frame(u, theta, substeps, closing):
    from .lax import integrate_frame
    return integrate_frame(u, theta, substeps, closing)


def build_surface(frame, radius):
    from .surface import build_surface
    return build_surface(frame, radius)


def full_report(frame, radius):
    from .surface import full_report
    return full_report(frame, radius)


class StageLog:
    def __init__(self, out_dir, stage, echo=True):
        self.path = os.path.join(out_dir, f"{stage}.log")
        self.lines = []
        self.echo = echo

    def add(self, line):
        self.lines.append(line)
        if self.echo:
            print(line)

    def flush(self):
        with open(self.path, "w") as fh:
            fh.write("\n".join(self.lines) + "\n")


def _grid(cfg):
    return PeriodicGrid(cfg.nx, cfg.ny, cfg.lx, cfg.ly)


# ---------------------------------------------------------------------------
# frame file: a node file (grid.save_nodes) of frame_record and U of every
# node, y outer, over (ny + closing) x (nx + closing) nodes
# ---------------------------------------------------------------------------


def frame_record(grid, theta, substeps, closing, field_sha256):
    """The record of a frame file: the grid's, then the frame's theta,
    substeps and closing (0 or 1) and the hex digest of the field.bin bytes
    (grid.save_field) it was integrated from."""
    return grid_record(grid) + (("theta", theta), ("substeps", substeps),
                                ("extend_closure", int(closing)), ("field_sha256", field_sha256))


def save_frame(frame, path, field_sha256):
    record = frame_record(frame.grid, frame.theta, frame.substeps, frame.closing, field_sha256)
    save_nodes(path, record, frame.unitary)


def load_frame(path, u, theta, substeps, closing, field_sha256, digest=False):
    """Read the frame of the field u that save_frame wrote at theta, substeps
    and closing from the field.bin bytes of digest field_sha256; returns the
    frame and, when ``digest`` is set, the digest of the frame file's own
    bytes (None otherwise).  Raises ConfigValidationError as grid.load_nodes
    does."""
    from .lax import FrameField

    record = frame_record(u.grid, theta, substeps, closing, field_sha256)
    nodes = (u.grid.ny + closing, u.grid.nx + closing, 3, 3)
    mats, frame_sha256 = load_nodes(path, "frame", record, nodes, digest=digest)
    return FrameField(u, theta, mats, substeps), frame_sha256


def write_report_json(report, path):
    """Write the {name: float} report as a flat JSON object, keys sorted."""
    body = ",\n".join(f'  "{k}": {format_float(v)}' for k, v in sorted(report.items()))
    with open(path, "w") as fh:
        fh.write("{\n" + body + "\n}\n")


# ---------------------------------------------------------------------------
# stages
# ---------------------------------------------------------------------------


def _seed_field(cfg, grid, log):
    if cfg.seed == "zero":
        return zero_field(grid)
    if cfg.seed == "wave":
        profile = wave.travelling_wave(cfg.wave_energy)
        log.add(f"wave_period={format_float(profile.period)}")
        return wave.lift_1d(profile, grid)
    return load_field(cfg.field_path, grid)


def _log_residuals(log, residuals):
    for i, r in enumerate(residuals):
        log.add(f"residual[{i}]={format_float(r)}")


def stage_solve(cfg, out_dir, log):
    grid = _grid(cfg)
    seed = _seed_field(cfg, grid, log)
    try:
        result = newton_solve(seed, cfg.tol, cfg.max_iter)
    except NumericalFailure as exc:
        _log_residuals(log, exc.residuals)  # the trajectory that failed
        raise
    save_field(result.field, os.path.join(out_dir, FIELD_FILE))
    log.add(f"iterations={result.iterations}")
    _log_residuals(log, result.residuals)
    for i, count in enumerate(result.minres_iterations):
        log.add(f"minres[{i}]={count}")
    log.add(f"final_residual={format_float(result.final_residual)}")


def stage_wave(cfg, out_dir, log):
    if cfg.wave_energy is None:
        raise ConfigValidationError("stage wave requires wave_energy")
    profile = wave.travelling_wave(cfg.wave_energy)
    record = (("n", len(profile.u)), ("period", profile.period), ("energy", profile.energy))
    save_table(os.path.join(out_dir, WAVE_CSV), record, np.reshape(profile.u, (-1, 1)))
    log.add(f"period={format_float(profile.period)}")
    log.add(f"period_quadrature={format_float(wave.period_quadrature(cfg.wave_energy))}")
    log.add(f"energy_drift={format_float(profile.drift)}")


def _unitarity_gate(frame):
    """The frame's unitarity defect; raises InvalidFrameError when it is
    FRAME_TOL or more, or NaN."""
    defect = frame.unitarity_defect
    if not defect < FRAME_TOL:
        raise InvalidFrameError(f"frame unitarity defect {defect:.3e} is not below {FRAME_TOL:g}")
    return defect


def _stage_field(cfg, out_dir):
    """The field of the current field.bin, on the config's grid, and the
    digest of the file's bytes."""
    return load_saved_field(os.path.join(out_dir, FIELD_FILE), _grid(cfg))


def stage_frame(cfg, out_dir, log):
    u, field_sha256 = _stage_field(cfg, out_dir)
    frame = integrate_frame(u, cfg.theta, cfg.substeps, cfg.extend_closure)
    log.add(f"unitarity_defect={format_float(_unitarity_gate(frame))}")
    save_frame(frame, os.path.join(out_dir, FRAME_FILE), field_sha256)


def _load_frame_stage(cfg, out_dir, digest=False):
    """The frame of the surface, report and export stages: integrated from
    the bytes of the current field.bin at the config's grid, theta, substeps
    and extend_closure; returns it with the digest of the frame.bin bytes
    when ``digest`` is set (None otherwise)."""
    u, field_sha256 = _stage_field(cfg, out_dir)
    return load_frame(os.path.join(out_dir, FRAME_FILE), u, cfg.theta, cfg.substeps,
                      cfg.extend_closure, field_sha256, digest)


def stage_surface(cfg, out_dir, log):
    frame, frame_sha256 = _load_frame_stage(cfg, out_dir, digest=True)
    _unitarity_gate(frame)
    points = build_surface(frame, cfg.radius)
    meshout.save_mesh(frame.grid, cfg.radius, points, os.path.join(out_dir, MESH_FILE),
                      frame_sha256)
    radii = np.sqrt(np.sum(np.abs(points) ** 2, axis=-1))
    log.add(f"sphere_defect={format_float(np.abs(radii - cfg.radius).max())}")


def stage_report(cfg, out_dir, log):
    frame, _ = _load_frame_stage(cfg, out_dir)
    _unitarity_gate(frame)
    report = full_report(frame, cfg.radius)
    non_finite = [k for k, v in sorted(report.items()) if not math.isfinite(v)]
    if non_finite:
        raise NumericalFailure(f"residuals not finite at radius {cfg.radius!r}: "
                               f"{', '.join(non_finite)}")
    write_report_json(report, os.path.join(out_dir, REPORT_JSON))
    for key, val in sorted(report.items()):
        log.add(f"{key}={format_float(val)}")


def stage_export(cfg, out_dir, log):
    """Export the mesh built from the current frame.bin, read as surface
    reads it, at the config's radius and grid; the frame is not gated again,
    since the mesh records the digest of frame bytes surface gated."""
    frame_sha256 = _load_frame_stage(cfg, out_dir, digest=True)[1]
    grid = _grid(cfg)
    points = meshout.load_mesh_points(os.path.join(out_dir, MESH_FILE), grid, cfg.radius,
                                      frame_sha256)
    paths = meshout.export_mesh(
        grid, cfg.radius, points, os.path.join(out_dir, MESH_STEM), cfg.projection
    )
    for p in paths:
        log.add(f"wrote {os.path.basename(p)}")


# each stage and the files it writes into the output directory
_STAGES = {
    "solve": (stage_solve, (FIELD_FILE,)),
    "wave": (stage_wave, (WAVE_CSV,)),
    "frame": (stage_frame, (FRAME_FILE,)),
    "surface": (stage_surface, (MESH_FILE,)),
    "report": (stage_report, (REPORT_JSON,)),
    "export": (stage_export, tuple(MESH_STEM + suffix for suffix in meshout.EXPORT_SUFFIXES)),
}


def run_pipeline(cfg, stage, out_dir=None, echo=True):
    """Run one stage; raises the typed config/numerical exceptions,
    ConfigValidationError for a file the stage cannot read or write, its log
    included, or an output directory that cannot be made (then no log is
    written), and NumericalFailure, naming the original type, for any other
    exception.  A stage that raises removes the files it writes and keeps its
    log, if the log can be written.  A stage imports the layers it calls at
    their first call."""
    if stage not in _STAGES:
        raise ConfigValidationError(f"unknown stage {stage!r}; choose from {tuple(_STAGES)}")
    out_dir = out_dir or cfg.out_dir
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        raise ConfigValidationError(f"output directory {out_dir} cannot be made: {exc}") from exc
    log = StageLog(out_dir, stage, echo)
    try:
        try:
            _STAGES[stage][0](cfg, out_dir, log)
            log.flush()
        except PipelineError:
            raise
        except OSError as exc:
            raise ConfigValidationError(f"stage {stage} cannot use a file: {exc}") from exc
        except Exception as exc:
            raise NumericalFailure(f"stage {stage} failed: {type(exc).__name__}: {exc}") from exc
    except PipelineError as exc:
        log.add(f"error: {exc.name}")
        with contextlib.suppress(OSError):  # the first error is the one to report
            log.flush()
        seed = os.path.realpath(cfg.field_path) if cfg.seed == "file" else None
        for path in (os.path.join(out_dir, name) for name in _STAGES[stage][1]):
            if os.path.realpath(path) != seed:
                # absent, a directory, or in a directory the stage could not write either
                with contextlib.suppress(OSError):
                    os.remove(path)
        raise
    return log


class _ArgumentParser(argparse.ArgumentParser):
    """A parser whose usage errors raise ConfigParseError, so they end as every
    other failure does."""

    def error(self, message):
        raise ConfigParseError(f"{self.format_usage()}{self.prog}: {message}")


def main(argv=None):
    parser = _ArgumentParser(
        prog="tzitzeica",
        description="Minimal complexly-normal surfaces in S^5: pipeline stages",
    )
    parser.add_argument("stage", choices=_STAGES)
    parser.add_argument("--config", required=True, help="path to key=value config")
    parser.add_argument("--out", default=None, help="output directory (default: config out_dir)")

    try:
        args = parser.parse_args(argv)
        cfg = parse_config(args.config)
        run_pipeline(cfg, args.stage, args.out)
    except PipelineError as exc:
        print(f"{exc}", file=sys.stderr)
        print(f"error: {exc.name}", file=sys.stderr)
        return exc.exit_code
    return 0


def process_main():
    """A stage process's entry (`python -m tzitzeica.cli`, the `tzitzeica`
    script): main's exit status, run without the cyclic collector and with
    every object frozen at the end, so the interpreter's shutdown does not
    collect what the exit releases anyway.  main has closed its files;
    stdout and stderr are flushed at exit."""
    gc.disable()
    status = main()
    gc.freeze()
    return status


if __name__ == "__main__":
    sys.exit(process_main())
