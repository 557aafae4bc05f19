"""Pipeline runner: solve | wave | frame | surface | report | export.

Each stage reads the artifacts of earlier stages from the output directory,
writes its own artifact plus a <stage>.log of residuals, and is deterministic
for fixed config and inputs.  Exit codes: 2 config parse error, 3 validation
error, 4 numerical failure; the last log line of a failed run is
"error: <name>" with a stable diagnostic name.
"""

import argparse
import os
import sys

import numpy as np

from . import meshout, wave
from .config import parse_config
from .errors import ConfigParseError, ConfigValidationError, NumericalFailure
from .grid import PeriodicGrid, format_float, load_field, save_field, write_rows, zero_field
from .lax import FrameField, SpectralPoint, frame_orthonormality_report, integrate_frame
from .solver import newton_solve
from .surface import build_surface, full_report

STAGES = ("solve", "wave", "frame", "surface", "report", "export")

FIELD_CSV = "field.csv"
WAVE_CSV = "wave.csv"
FRAME_CSV = "frame.csv"
MESH_CSV = "mesh.csv"
REPORT_JSON = "report.json"
MESH_STEM = "mesh"


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
# frame CSV: header nx,ny,lx,ly,theta,substeps,closing; then one row of 18
# reals per node (real/imag parts of U, column-major), y-outer node order,
# over (ny + closing) x (nx + closing) nodes
# ---------------------------------------------------------------------------


def save_frame(frame, path):
    g = frame.grid
    head = ",".join(
        [str(g.nx), str(g.ny), format_float(g.lx), format_float(g.ly),
         format_float(frame.spectral.theta), str(frame.substeps), str(int(frame.closing))]
    )
    cols = frame.unitary.reshape(-1, 3, 3).transpose(0, 2, 1)  # column-major per node
    with open(path, "w") as fh:
        fh.write(head + "\n")
        write_rows(fh, np.ascontiguousarray(cols).reshape(-1, 9).view(float))


def load_frame(path, u):
    """Read a frame written by save_frame for the field u.

    Raises ConfigValidationError when the file is malformed or truncated, or
    was integrated on another grid than u's.
    """
    try:
        with open(path) as fh:
            head = fh.readline().strip().split(",")
            nx, ny, substeps, closing = (int(head[k]) for k in (0, 1, 5, 6))
            lx, ly, theta = (float(head[k]) for k in (2, 3, 4))
            flat = np.loadtxt(fh, delimiter=",", ndmin=2)
    except (ValueError, IndexError) as exc:
        raise ConfigValidationError(f"frame file {path} is malformed: {exc}") from exc
    if (nx, ny, lx, ly) != (u.grid.nx, u.grid.ny, u.grid.lx, u.grid.ly):
        raise ConfigValidationError(
            f"frame file {path} is for grid {nx}x{ny} over ({lx!r}, {ly!r}), the field for "
            f"{u.grid.nx}x{u.grid.ny} over ({u.grid.lx!r}, {u.grid.ly!r}); rerun the frame stage"
        )
    nodes = (ny + closing) * (nx + closing)
    if closing not in (0, 1) or substeps < 1 or flat.shape != (nodes, 18):
        raise ConfigValidationError(
            f"frame file {path} holds {flat.shape[0]} rows of {flat.shape[-1]} values; its header "
            f"(substeps {substeps}, closing {closing}) needs {nodes} rows of 18"
        )
    if not np.isfinite(flat).all():
        raise ConfigValidationError(f"frame file {path} holds non-finite values")
    cols = flat[:, 0::2] + 1j * flat[:, 1::2]
    mats = cols.reshape(-1, 3, 3).transpose(0, 2, 1).reshape(ny + closing, nx + closing, 3, 3)
    return FrameField(u.grid, SpectralPoint(theta), mats, u, bool(closing), substeps)


def write_report_json(report, path):
    items = sorted(report.to_dict().items())
    lines = ["{"] + [
        f'  "{k}": {format_float(v)}' + ("," if i < len(items) - 1 else "")
        for i, (k, v) in enumerate(items)
    ] + ["}"]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


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
    path = cfg.field_path
    if not os.path.exists(path):
        raise ConfigValidationError(f"seed field file {path} does not exist")
    fld = load_field(path)
    seed = fld.grid
    if (seed.nx, seed.ny, seed.lx, seed.ly) != (grid.nx, grid.ny, grid.lx, grid.ly):
        raise ConfigValidationError(
            f"seed field {path} is for grid {seed.nx}x{seed.ny} over ({seed.lx!r}, {seed.ly!r}), "
            f"the config for {grid.nx}x{grid.ny} over ({grid.lx!r}, {grid.ly!r})"
        )
    return fld


def stage_solve(cfg, out_dir, log):
    grid = _grid(cfg)
    seed = _seed_field(cfg, grid, log)
    result = newton_solve(seed, cfg.tol, cfg.max_iter)
    save_field(result.field, os.path.join(out_dir, FIELD_CSV))
    log.add(f"iterations={result.iterations}")
    for i, r in enumerate(result.residuals):
        log.add(f"residual[{i}]={format_float(r)}")
    log.add(f"final_residual={format_float(result.final_residual)}")


def stage_wave(cfg, out_dir, log):
    if cfg.wave_energy is None:
        raise ConfigValidationError("stage wave requires wave_energy")
    profile = wave.travelling_wave(cfg.wave_energy)
    t_quad = wave.period_quadrature(cfg.wave_energy)
    drift = wave.energy_drift(profile)
    lines = [f"{len(profile.u)},{format_float(profile.period)},{format_float(profile.energy)}"]
    lines += [format_float(v) for v in profile.u]
    with open(os.path.join(out_dir, WAVE_CSV), "w") as fh:
        fh.write("\n".join(lines) + "\n")
    log.add(f"period_shooting={format_float(profile.period)}")
    log.add(f"period_quadrature={format_float(t_quad)}")
    log.add(f"energy_drift={format_float(drift)}")


def stage_frame(cfg, out_dir, log):
    u = load_field(_require_artifact(out_dir, FIELD_CSV))
    frame = integrate_frame(
        u,
        SpectralPoint(cfg.theta),
        substeps=cfg.substeps,
        closing=cfg.extend_closure,
        re_unitarize=cfg.re_unitarize,
    )
    save_frame(frame, os.path.join(out_dir, FRAME_CSV))
    log.add(f"unitarity_defect={format_float(frame_orthonormality_report(frame))}")


def _load_frame_stage(cfg, out_dir):
    u = load_field(_require_artifact(out_dir, FIELD_CSV))
    frame = load_frame(_require_artifact(out_dir, FRAME_CSV), u)
    if frame.spectral.theta != cfg.theta:
        raise ConfigValidationError(
            f"{FRAME_CSV} was integrated at theta = {frame.spectral.theta!r}, the config has "
            f"theta = {cfg.theta!r}; rerun the frame stage"
        )
    return u, frame


def stage_surface(cfg, out_dir, log):
    _u, frame = _load_frame_stage(cfg, out_dir)
    mesh = build_surface(frame, cfg.radius)
    meshout.save_mesh(mesh, os.path.join(out_dir, MESH_CSV))
    radii = np.sqrt(np.sum(np.abs(mesh.points) ** 2, axis=-1))
    log.add(f"sphere_defect={format_float(np.abs(radii - cfg.radius).max())}")


def stage_report(cfg, out_dir, log):
    u, frame = _load_frame_stage(cfg, out_dir)
    mesh = build_surface(frame, cfg.radius)
    report = full_report(mesh, frame, u, cfg.theta)
    write_report_json(report, os.path.join(out_dir, REPORT_JSON))
    for key, val in sorted(report.to_dict().items()):
        log.add(f"{key}={format_float(val)}")


def stage_export(cfg, out_dir, log):
    grid, radius, points = meshout.load_mesh_points(_require_artifact(out_dir, MESH_CSV))
    paths = meshout.export_mesh(
        grid, radius, points, os.path.join(out_dir, MESH_STEM), cfg.projection
    )
    for p in paths:
        log.add(f"wrote {os.path.basename(p)}")


_STAGE_FUNCS = {
    "solve": stage_solve,
    "wave": stage_wave,
    "frame": stage_frame,
    "surface": stage_surface,
    "report": stage_report,
    "export": stage_export,
}


def run_pipeline(cfg, stage, out_dir=None, echo=True):
    """Run one stage; raises the typed config/numerical exceptions."""
    if stage not in _STAGE_FUNCS:
        raise ConfigValidationError(f"unknown stage {stage!r}; choose from {STAGES}")
    out_dir = out_dir or cfg.out_dir
    os.makedirs(out_dir, exist_ok=True)
    log = StageLog(out_dir, stage, echo)
    try:
        _STAGE_FUNCS[stage](cfg, out_dir, log)
    except (ConfigParseError, ConfigValidationError) as exc:
        log.add(f"error: {'parse' if isinstance(exc, ConfigParseError) else 'validation'}")
        log.flush()
        raise
    except NumericalFailure as exc:
        log.add(f"error: {exc.name}")
        log.flush()
        raise
    log.flush()
    return log


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="tzitzeica",
        description="Minimal complexly-normal surfaces in S^5: pipeline stages",
    )
    parser.add_argument("stage", choices=STAGES)
    parser.add_argument("--config", required=True, help="path to key=value config")
    parser.add_argument("--out", default=None, help="output directory (default: config out_dir)")
    args = parser.parse_args(argv)

    try:
        cfg = parse_config(args.config)
    except ConfigParseError as exc:
        print(f"{exc}", file=sys.stderr)
        print("error: parse", file=sys.stderr)
        return 2
    except ConfigValidationError as exc:
        print(f"{exc}", file=sys.stderr)
        print("error: validation", file=sys.stderr)
        return 3

    try:
        run_pipeline(cfg, args.stage, args.out)
    except ConfigParseError as exc:
        print(f"{exc}", file=sys.stderr)
        return 2
    except ConfigValidationError as exc:
        print(f"{exc}", file=sys.stderr)
        return 3
    except NumericalFailure as exc:
        print(f"{exc}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
