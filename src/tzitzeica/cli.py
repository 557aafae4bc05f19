"""Pipeline runner: solve | wave | frame | surface | report | export.

Each stage reads the artifacts of earlier stages from the output directory,
writes its own artifact plus a <stage>.log of residuals, and is deterministic
for fixed config and inputs.  Exit codes: 2 config parse error, 3 validation
error, 4 numerical failure; the last log line of a failed run is
"error: <name>" with a stable diagnostic name, and a failed stage leaves none
of the files it writes.
"""

import argparse
import contextlib
import hashlib
import math
import os
import sys

import numpy as np

from . import meshout, wave
from .config import parse_config
from .errors import ConfigValidationError, InvalidFrameError, NumericalFailure, PipelineError
from .grid import (
    PeriodicGrid,
    check_same_grid,
    format_float,
    header_grid,
    hex_digest,
    load_field,
    load_nodes,
    load_saved_field,
    save_field,
    save_nodes,
    save_table,
    zero_field,
)
from .lax import FrameField, SpectralPoint, frame_orthonormality_report, integrate_frame
from .solver import newton_solve
from .surface import build_surface, full_report

FIELD_FILE = "field.bin"
WAVE_CSV = "wave.csv"
FRAME_FILE = "frame.bin"
MESH_FILE = "mesh.bin"
REPORT_JSON = "report.json"
MESH_STEM = "mesh"
FRAME_TOL = 1e-8  # bound on the unitarity defect of a frame the stages write or read


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


def _require_artifact(out_dir, name):
    path = os.path.join(out_dir, name)
    if not os.path.exists(path):
        raise ConfigValidationError(f"missing input artifact {path}; run earlier stages first")
    return path


# ---------------------------------------------------------------------------
# frame file: a node file (grid.save_nodes) with the header
# nx,ny,lx,ly,theta,substeps,closing,field_sha256 and U of every node, y
# outer, over (ny + closing) x (nx + closing) nodes; field_sha256 is the hex
# digest of the field.bin bytes (grid.save_field) the frame was integrated
# from
# ---------------------------------------------------------------------------


def file_digest(path):
    """The sha256 hex digest of the bytes of the file at ``path``, for a file
    that is read only to be hashed."""
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def save_frame(frame, path, field_sha256):
    g = frame.grid
    head = (g.nx, g.ny, g.lx, g.ly, frame.spectral.theta, frame.substeps, int(frame.closing),
            field_sha256)
    save_nodes(path, head, frame.unitary)


def load_frame(path, u, digest=False):
    """Read a frame written by save_frame for the field u; returns the frame,
    the field digest its header records and, when ``digest`` is set, the
    digest of the frame file's own bytes (None otherwise).

    Raises ConfigValidationError as grid.load_nodes does, or when the frame
    has no valid substeps or closing, or was integrated on another grid than
    u's.
    """
    types = (int, int, float, float, float, int, int, hex_digest)
    header, mats, frame_sha256 = load_nodes(path, "frame file", types,
                                            lambda h: (h[1] + h[6], h[0] + h[6], 3, 3),
                                            digest=digest)
    check_same_grid(path, header_grid(path, "frame file", header), u.grid)
    theta, substeps, closing, field_sha256 = header[4:]
    if closing not in (0, 1) or substeps < 1:
        raise ConfigValidationError(f"frame file {path} has substeps {substeps}, closing {closing}")
    frame = FrameField(u.grid, SpectralPoint(theta), mats, u, bool(closing), substeps)
    return frame, field_sha256, frame_sha256


def write_report_json(report, path):
    body = ",\n".join(f'  "{k}": {format_float(v)}' for k, v in sorted(report.to_dict().items()))
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
    fld = load_field(cfg.field_path)
    check_same_grid(cfg.field_path, fld.grid, grid)
    return fld


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
    head = (len(profile.u), profile.period, profile.energy)
    save_table(os.path.join(out_dir, WAVE_CSV), head, np.reshape(profile.u, (-1, 1)))
    log.add(f"period={format_float(profile.period)}")
    log.add(f"period_quadrature={format_float(wave.period_quadrature(cfg.wave_energy))}")
    log.add(f"energy_drift={format_float(profile.drift)}")


def _unitarity_gate(frame):
    """The frame's unitarity defect; raises InvalidFrameError when it is
    FRAME_TOL or more, or NaN."""
    defect = frame_orthonormality_report(frame)
    if not defect < FRAME_TOL:
        raise InvalidFrameError(f"frame unitarity defect {defect:.3e} is not below {FRAME_TOL:g}")
    return defect


def _stage_field(cfg, out_dir):
    """The field of the current field.bin, on the config's grid, and the
    digest of the file's bytes."""
    return load_saved_field(_require_artifact(out_dir, FIELD_FILE), _grid(cfg))


def stage_frame(cfg, out_dir, log):
    u, field_sha256 = _stage_field(cfg, out_dir)
    frame = integrate_frame(u, SpectralPoint(cfg.theta), substeps=cfg.substeps,
                            closing=cfg.extend_closure)
    log.add(f"unitarity_defect={format_float(_unitarity_gate(frame))}")
    save_frame(frame, os.path.join(out_dir, FRAME_FILE), field_sha256)


def _check_recorded(name, stage, recorded):
    """Raises ConfigValidationError at the first (key, got, want) of
    ``recorded`` where the file ``name`` holds another value than this run."""
    for key, got, want in recorded:
        if got != want:
            raise ConfigValidationError(f"{name} was made with {key} = {got!r}, this run has "
                                        f"{key} = {want!r}; rerun the {stage} stage")


def _load_frame_stage(cfg, out_dir, digest=False):
    """The frame of the surface and report stages: integrated from the bytes
    of the current field.bin at the config's grid, theta, substeps and
    extend_closure, and unitary to FRAME_TOL; returns it with the digest of
    the frame.bin bytes when ``digest`` is set (None otherwise)."""
    u, field_sha256 = _stage_field(cfg, out_dir)
    frame, recorded_sha256, frame_sha256 = load_frame(_require_artifact(out_dir, FRAME_FILE), u,
                                                      digest)
    _check_recorded(FRAME_FILE, "frame", (
        ("field_sha256", recorded_sha256, field_sha256),
        ("theta", frame.spectral.theta, cfg.theta),
        ("substeps", frame.substeps, cfg.substeps),
        ("extend_closure", frame.closing, cfg.extend_closure),
    ))
    _unitarity_gate(frame)
    return frame, frame_sha256


def stage_surface(cfg, out_dir, log):
    frame, frame_sha256 = _load_frame_stage(cfg, out_dir, digest=True)
    mesh = build_surface(frame, cfg.radius)
    meshout.save_mesh(mesh, os.path.join(out_dir, MESH_FILE), frame_sha256)
    radii = np.sqrt(np.sum(np.abs(mesh.points) ** 2, axis=-1))
    log.add(f"sphere_defect={format_float(np.abs(radii - cfg.radius).max())}")


def stage_report(cfg, out_dir, log):
    frame, _ = _load_frame_stage(cfg, out_dir)
    report = full_report(frame, cfg.radius)
    residuals = report.to_dict()
    non_finite = [k for k, v in sorted(residuals.items()) if not math.isfinite(v)]
    if non_finite:
        raise NumericalFailure(f"residuals not finite at radius {cfg.radius!r}: "
                               f"{', '.join(non_finite)}")
    write_report_json(report, os.path.join(out_dir, REPORT_JSON))
    for key, val in sorted(residuals.items()):
        log.add(f"{key}={format_float(val)}")


def stage_export(cfg, out_dir, log):
    """Export the mesh built from the current frame.bin at the config's
    radius and grid."""
    path = _require_artifact(out_dir, MESH_FILE)
    frame_path = _require_artifact(out_dir, FRAME_FILE)
    grid, radius, points, frame_sha256 = meshout.load_mesh_points(path)
    check_same_grid(path, grid, _grid(cfg))
    _check_recorded(MESH_FILE, "surface", (
        ("frame_sha256", frame_sha256, file_digest(frame_path)),
        ("radius", radius, cfg.radius),
    ))
    paths = meshout.export_mesh(
        grid, radius, points, os.path.join(out_dir, MESH_STEM), cfg.projection
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
    ConfigValidationError for a file the stage cannot read or write, or an
    output directory that cannot be made (then no log is written), and
    NumericalFailure, naming the original type, for any other exception.  A
    stage that raises removes the files it writes and keeps its log."""
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
        except PipelineError:
            raise
        except OSError as exc:
            raise ConfigValidationError(f"stage {stage} cannot use a file: {exc}") from exc
        except Exception as exc:
            raise NumericalFailure(f"stage {stage} failed: {type(exc).__name__}: {exc}") from exc
    except PipelineError as exc:
        log.add(f"error: {exc.name}")
        log.flush()
        seed = os.path.realpath(cfg.field_path) if cfg.seed == "file" else None
        for path in (os.path.join(out_dir, name) for name in _STAGES[stage][1]):
            if os.path.realpath(path) != seed:
                # absent, a directory, or in a directory the stage could not write either
                with contextlib.suppress(OSError):
                    os.remove(path)
        raise
    log.flush()
    return log


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="tzitzeica",
        description="Minimal complexly-normal surfaces in S^5: pipeline stages",
    )
    parser.add_argument("stage", choices=_STAGES)
    parser.add_argument("--config", required=True, help="path to key=value config")
    parser.add_argument("--out", default=None, help="output directory (default: config out_dir)")
    args = parser.parse_args(argv)

    try:
        run_pipeline(parse_config(args.config), args.stage, args.out)
    except PipelineError as exc:
        print(f"{exc}", file=sys.stderr)
        print(f"error: {exc.name}", file=sys.stderr)
        return exc.exit_code
    return 0


if __name__ == "__main__":
    sys.exit(main())
