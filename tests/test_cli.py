import ast
import dataclasses
import gc
import hashlib
import io
import json
import math
import os
import pathlib
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tzitzeica import cli, lax, meshout
from tzitzeica import grid as grid_module
from tzitzeica.config import parse_config, parse_config_text
from tzitzeica.errors import ConfigParseError, ConfigValidationError
from tzitzeica.grid import (
    PeriodicGrid,
    format_float,
    grid_record,
    load_field,
    load_saved_field,
    save_field,
    save_nodes,
    save_table,
    write_rows,
)
from tzitzeica.lax import integrate_frame
from tzitzeica.surface import build_surface, full_report
from tzitzeica.wave import period_quadrature, travelling_wave

from conftest import field_from_function
from oracles import grid_faces_loop, parse_obj
from test_hygiene import _assigned_literal

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

FLAT_LY = 2.0 * np.pi / np.sqrt(3.0)


def flat_config_text(out_dir, nx=32, ny=32, substeps=16, extra=""):
    return (
        f"nx = {nx}\nny = {ny}\n"
        f"lx = {float(2*np.pi)!r}\nly = {float(FLAT_LY)!r}\n"
        "radius = 1.0\ntheta = 0.0\ntol = 1e-10\nmax_iter = 20\n"
        f"seed = zero\nsubsteps = {substeps}\nout_dir = {out_dir}\n" + extra
    )


def wave_config_text(out_dir):
    """The flat config on 16x8 with the E = 6.5 wave seed, lx one wave period."""
    text = flat_config_text(out_dir, nx=16, ny=8)
    text = text.replace(f"lx = {float(2 * np.pi)!r}", f"lx = {travelling_wave(6.5).period!r}")
    return text.replace("seed = zero", "seed = wave\nwave_energy = 6.5")


def write_config(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def save_text_field(fld, path):
    """Write fld as the text field table that seed = file reads."""
    g = fld.grid
    save_table(path, grid_record(g), fld.values.reshape(-1, 1))


def read_field(cfg, out):
    """The field.bin the solve stage wrote into out for the run of cfg."""
    grid = PeriodicGrid(cfg.nx, cfg.ny, cfg.lx, cfg.ly)
    return load_saved_field(os.path.join(out, cli.FIELD_FILE), grid)[0]


def file_sha256(path):
    return hashlib.sha256(pathlib.Path(path).read_bytes()).hexdigest()


def frame_args(cfg, out):
    """The frame record's arguments after the field of cli.load_frame for the
    run of cfg on the field.bin in out."""
    return cfg.theta, cfg.substeps, cfg.extend_closure, file_sha256(os.path.join(out, cli.FIELD_FILE))


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------


def test_config_parse_and_defaults(tmp_path):
    cfg = parse_config_text(flat_config_text(str(tmp_path)))
    assert cfg.nx == 32 and cfg.ny == 32
    assert cfg.projection == "pca"
    assert cfg.extend_closure is True


def test_config_comments_and_errors():
    cfg = parse_config_text(
        "nx = 8 # nodes\nny = 8\nlx = 1.0\nly = 1.0\n# a comment line\n"
    )
    assert cfg.nx == 8
    with pytest.raises(ConfigParseError):
        parse_config_text("nx 8\n")
    with pytest.raises(ConfigParseError):
        parse_config_text("nx = 8\nnx = 9\nny = 8\nlx = 1\nly = 1\n")
    with pytest.raises(ConfigValidationError):
        parse_config_text("nx = 8\nny = 8\nlx = 1.0\nly = 1.0\nbogus = 1\n")
    # the frame is never re-unitarized; a run that needs a unitary frame raises substeps
    with pytest.raises(ConfigValidationError, match="unknown config key 're_unitarize'"):
        parse_config_text("nx = 8\nny = 8\nlx = 1.0\nly = 1.0\nre_unitarize = true\n")
    with pytest.raises(ConfigValidationError):
        parse_config_text("nx = 8\nny = 8\nlx = 1.0\n")
    with pytest.raises(ConfigValidationError):
        parse_config_text("nx = 8\nny = 8\nlx = -1.0\nly = 1.0\n")
    with pytest.raises(ConfigValidationError):
        parse_config_text("nx = 8\nny = 8\nlx = 1.0\nly = 1.0\nseed = wave\n")
    # wave_energy is held above 6 whatever the seed: the wave stage reads it
    for seed in ("zero", "wave", "file\nfield_path = seed.csv"):
        with pytest.raises(ConfigValidationError, match="wave_energy must exceed 6"):
            parse_config_text(f"nx = 8\nny = 8\nlx = 1\nly = 1\nseed = {seed}\nwave_energy = 5\n")
    # a named projection takes three distinct coordinates, so no two mesh axes are equal
    for projection in ("re1,re1,im1", "re1, im1 ,re1", "re1,re2", "re1,re2,re4"):
        with pytest.raises(ConfigValidationError, match="three distinct names"):
            parse_config_text(f"nx = 8\nny = 8\nlx = 1\nly = 1\nprojection = {projection}\n")


def test_repeated_projection_name_is_exit_3(tmp_path, capsys):
    out = tmp_path / "out"
    text = flat_config_text(str(out), nx=16, ny=16, extra="projection = re1,re1,im1\n")
    assert cli.main(["solve", "--config", write_config(tmp_path, text)]) == 3
    assert capsys.readouterr().err.strip().splitlines()[-1] == "error: validation"
    assert not out.exists()


FLOAT_KEYS = ("lx", "ly", "radius", "theta", "tol", "wave_energy")


@pytest.mark.parametrize(
    "key, value",
    [("lx", "nan"), ("ly", "inf"), ("radius", "inf"), ("theta", "nan"), ("tol", "nan"),
     ("wave_energy", "-inf")],
)
def test_non_finite_config_value_is_exit_3(tmp_path, capsys, key, value):
    text = flat_config_text(str(tmp_path / "out"), nx=16, ny=16)
    lines = [ln for ln in text.splitlines() if not ln.startswith(f"{key} =")]
    cfg = write_config(tmp_path, "\n".join(lines + [f"{key} = {value}"]) + "\n")
    assert cli.main(["solve", "--config", cfg]) == 3
    assert capsys.readouterr().err.strip().splitlines()[-1] == "error: validation"
    assert not (tmp_path / "out").exists()


CONFIG_FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(max_value=0.0),
    st.sampled_from([math.nan, math.inf, -math.inf]),
)


@settings(database=None, derandomize=True)
@given(st.fixed_dictionaries({key: CONFIG_FLOATS for key in FLOAT_KEYS}))
def test_config_floats_parse_or_fail_typed(values):
    text = "nx = 8\nny = 8\n" + "".join(f"{k} = {v!r}\n" for k, v in values.items())
    try:
        cfg = parse_config_text(text)
    except (ConfigParseError, ConfigValidationError):
        return
    assert all(math.isfinite(getattr(cfg, key)) for key in FLOAT_KEYS)
    assert min(cfg.lx, cfg.ly, cfg.radius, cfg.tol) > 0


@pytest.mark.parametrize("radius", ["1e200", "1.2e77"])
def test_radius_whose_fourth_power_overflows_is_exit_3(tmp_path, capsys, radius):
    text = flat_config_text(str(tmp_path / "out"), nx=16, ny=16)
    cfg = write_config(tmp_path, text.replace("radius = 1.0", f"radius = {radius}"))
    assert cli.main(["solve", "--config", cfg]) == 3
    assert capsys.readouterr().err.strip().splitlines()[-1] == "error: validation"
    assert not (tmp_path / "out").exists()
    # the largest radii whose fourth power is finite still run
    assert parse_config_text(text.replace("radius = 1.0", "radius = 1.1e77")).radius == 1.1e77


@pytest.mark.parametrize("key", ["lx", "ly"])
def test_period_whose_fd4_symbol_overflows_is_exit_3(tmp_path, capsys, key):
    # at a period of 1e-300 the grid step squared underflows, so the fd4
    # Laplacian's symbol 16 / (3 h^2) is not finite; solve on the zero seed
    # warned and ended error: newton-divergence
    text = flat_config_text(str(tmp_path / "out"), nx=16, ny=16, substeps=24)
    period = f"{key} = {float(2 * np.pi if key == 'lx' else FLAT_LY)!r}"
    cfg = write_config(tmp_path, text.replace(period, f"{key} = 1e-300"))
    assert cli.main(["solve", "--config", cfg]) == 3
    assert capsys.readouterr().err.strip().splitlines()[-1] == "error: validation"
    assert not (tmp_path / "out").exists()
    # a period of 1e-150 still runs every stage
    small = write_config(tmp_path, text.replace(period, f"{key} = 1e-150"), "small.cfg")
    for stage in ("solve", "frame", "surface", "report", "export"):
        assert cli.main([stage, "--config", small]) == 0


def _report_degenerate_metric(tmp_path, radius):
    """Run solve, frame and report at ``radius``; the report must end
    error: degenerate-metric with exit 4 and leave no report.json."""
    out = tmp_path / "out"
    text = flat_config_text(str(out), nx=16, ny=16, substeps=24)
    cfg = write_config(tmp_path, text.replace("radius = 1.0", f"radius = {radius}"))
    for stage in ("solve", "frame"):
        assert cli.main([stage, "--config", cfg]) == 0
    assert cli.main(["report", "--config", cfg]) == 4
    assert (out / "report.log").read_text().strip().splitlines()[-1] == "error: degenerate-metric"
    assert not (out / cli.REPORT_JSON).exists()


@pytest.mark.filterwarnings("error")
def test_report_whose_metric_overflows_is_exit_4(tmp_path):
    # R = 1.1e77 passes the config's R^4 check, but the determinant c^2 of the
    # induced metric c I, with c = 2 R^2 e^u, is not finite
    _report_degenerate_metric(tmp_path, "1.1e77")


@pytest.mark.filterwarnings("error")
def test_report_whose_metric_underflows_is_exit_4(tmp_path):
    # at R = 1e-160 the conformal factor c = 2 R^2 e^u is subnormal and the
    # determinant c^2 underflows to 0
    _report_degenerate_metric(tmp_path, "1e-160")


def test_out_naming_an_existing_file_is_exit_3(tmp_path, capsys):
    cfg = write_config(tmp_path, flat_config_text(str(tmp_path / "out"), nx=16, ny=16))
    taken = tmp_path / "taken"
    taken.write_text("not a directory\n")
    assert cli.main(["solve", "--config", cfg, "--out", str(taken)]) == 3
    assert capsys.readouterr().err.strip().splitlines()[-1] == "error: validation"
    assert taken.read_text() == "not a directory\n"


def test_cli_exit_codes(tmp_path):
    missing = str(tmp_path / "nope.cfg")
    assert cli.main(["solve", "--config", missing]) == 2

    bad = write_config(tmp_path, "nx 8 without an equals sign\n", "bad.cfg")
    assert cli.main(["solve", "--config", bad]) == 2

    invalid = write_config(tmp_path, "nx = 4\nny = 8\nlx = 1\nly = 1\n", "invalid.cfg")
    assert cli.main(["solve", "--config", invalid]) == 3


@pytest.mark.parametrize("argv, message", [
    (["bogus", "--config", "x"], "invalid choice: 'bogus'"),
    (["solve"], "the following arguments are required: --config"),
    (["solve", "--config", "x", "--bad"], "unrecognized arguments: --bad"),
])
def test_usage_error_is_exit_2_named_parse(capsys, argv, message):
    # a usage error ends as every other failure: main returns its status,
    # and stderr ends with the message and then the error name
    assert cli.main(argv) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert err[0].startswith("usage: tzitzeica")
    assert message in err[-2] and err[-1] == "error: parse"


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: tzitzeica")


def run_stage_process(stage, cfg, script=None):
    """One stage as its own process, `python -m tzitzeica.cli`, or as
    `script`, Python source run with the stage's argv in sys.argv."""
    argv = [stage, "--config", cfg]
    command = ["-m", "tzitzeica.cli", *argv] if script is None else ["-c", script, *argv]
    return subprocess.run([sys.executable, *command], env=dict(os.environ, PYTHONPATH=SRC),
                          capture_output=True, text=True)


def test_stage_process_exits_with_the_status_and_error_name(tmp_path):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, flat_config_text(str(out), nx=16, ny=16))
    assert run_stage_process("solve", cfg).returncode == 0
    assert (out / cli.FIELD_FILE).exists()
    # frame on another grid than solve's field.bin: a stale pairing
    other = write_config(tmp_path, flat_config_text(str(out), nx=16, ny=8), "other.cfg")
    # at lx = 1e300 solve succeeds and the frame's unitarity defect is NaN
    huge = write_config(tmp_path, flat_config_text(str(tmp_path / "huge"), nx=16, ny=16).replace(
        f"lx = {float(2 * np.pi)!r}", "lx = 1e300"), "huge.cfg")
    assert run_stage_process("solve", huge).returncode == 0
    failures = [
        ("solve", str(tmp_path / "nope.cfg"), 2, "parse"),
        ("bogus", cfg, 2, "parse"),
        ("frame", other, 3, "validation"),
        ("frame", huge, 4, "invalid-frame"),
    ]
    for stage, path, status, name in failures:
        proc = run_stage_process(stage, path)
        assert proc.returncode == status
        assert proc.stderr.strip().splitlines()[-1] == f"error: {name}"


FREEZE_PROBE = """\
import atexit, gc, runpy
atexit.register(lambda: print("frozen", gc.get_freeze_count()))
runpy.run_module("tzitzeica.cli", run_name="__main__", alter_sys=True)
"""


def test_stage_process_freezes_before_it_exits(tmp_path):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, flat_config_text(str(out), nx=16, ny=16))
    for stage, status in (("solve", 0), ("report", 3)):
        proc = run_stage_process(stage, cfg, FREEZE_PROBE)
        assert proc.returncode == status
        frozen = proc.stdout.strip().splitlines()[-1].split()
        assert frozen[0] == "frozen" and int(frozen[1]) > 0


# at exit, print whether the collector is on and the package modules loaded
AT_EXIT = """\
import atexit, gc, sys
atexit.register(lambda: print(gc.isenabled(), *sorted(m for m in sys.modules if m.startswith("tzitzeica."))))
"""
LOAD_PROBE = AT_EXIT + 'import runpy\nrunpy.run_module("tzitzeica.cli", run_name="__main__", alter_sys=True)\n'
# the console script's form: import the package's cli, then call its entry
SCRIPT_PROBE = AT_EXIT + "from tzitzeica.cli import process_main\nsys.exit(process_main())\n"

# modules of the package that a stage process must not load
NOT_LOADED = {
    "wave": {"lax", "linalg3", "solver", "surface", "invariants"},
    "solve": {"lax", "surface"},
    "frame": {"solver", "surface"},
    "surface": {"solver"},
    "report": {"solver"},
    "export": {"solver", "surface"},
}


def test_stage_process_loads_only_its_stage_and_runs_without_the_collector(tmp_path):
    cfg = write_config(tmp_path, flat_config_text(str(tmp_path / "out"), nx=16, ny=16, substeps=24,
                                                  extra="wave_energy = 6.5\n"))
    for stage, absent in NOT_LOADED.items():
        for probe in (LOAD_PROBE, SCRIPT_PROBE) if stage == "solve" else (LOAD_PROBE,):
            proc = run_stage_process(stage, cfg, probe)
            assert proc.returncode == 0, proc.stderr
            enabled, *modules = proc.stdout.strip().splitlines()[-1].split()
            loaded = {m.removeprefix("tzitzeica.") for m in modules}
            assert enabled == "False" and loaded & absent == set(), (stage, loaded)
            assert {"grid", "meshout", "wave"} <= loaded


FRESH_LOAD_FRAME = """\
import sys
from tzitzeica import cli
print(all(hasattr(cli, name) for name in sys.argv[2:]))
print(*sorted(m for m in sys.modules if m.startswith("tzitzeica.")))
cfg = cli.parse_config(sys.argv[1])
grid = cli.PeriodicGrid(cfg.nx, cfg.ny, cfg.lx, cfg.ly)
u, field_sha256 = cli.load_saved_field(f"{cfg.out_dir}/{cli.FIELD_FILE}", grid)
frame, _ = cli.load_frame(f"{cfg.out_dir}/{cli.FRAME_FILE}", u, cfg.theta, cfg.substeps,
                          cfg.extend_closure, field_sha256)
print(frame.unitary.tobytes().hex())
"""


def test_fresh_import_of_cli_loads_no_layer_and_reads_a_frame(tmp_path):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, flat_config_text(str(out), nx=16, ny=16, substeps=24))
    run = parse_config(cfg)
    for stage in ("solve", "frame"):
        cli.run_pipeline(run, stage, echo=False)
    u, field_sha256 = load_saved_field(str(out / cli.FIELD_FILE), cli._grid(run))
    frame = cli.load_frame(str(out / cli.FRAME_FILE), u, run.theta, run.substeps,
                           run.extend_closure, field_sha256)[0]
    targets = _assigned_literal((pathlib.Path(SRC).parent / "bench" / "tracing.py").read_text(),
                                "TARGETS")
    names = [attr for module, attr, _span in targets if module == "tzitzeica.cli"]
    proc = subprocess.run([sys.executable, "-c", FRESH_LOAD_FRAME, cfg, *names],
                          env=dict(os.environ, PYTHONPATH=SRC), capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    resolved, modules, unitary = proc.stdout.strip().splitlines()
    # each name the tracer wraps in cli resolves, and reading it loads no layer
    assert "integrate_frame" in names and resolved == "True"
    assert {"tzitzeica.lax", "tzitzeica.solver", "tzitzeica.surface"} & set(modules.split()) == set()
    assert bytes.fromhex(unitary) == frame.unitary.tobytes()


def test_in_process_stages_do_not_freeze(tmp_path, capsys):
    # a frozen object is never collected, so a freeze in process would hide
    # a file left open from the ResourceWarning that fails its test
    cfg = write_config(tmp_path, flat_config_text(str(tmp_path / "out"), nx=16, ny=16, substeps=24))
    frozen = gc.get_freeze_count()
    cli.run_pipeline(parse_config(cfg), "solve", echo=False)
    assert cli.main(["frame", "--config", cfg]) == 0
    assert cli.main(["report", "--config", str(tmp_path / "nope.cfg")]) == 2
    capsys.readouterr()
    assert gc.get_freeze_count() == frozen and gc.isenabled()


def test_config_that_is_not_utf8_is_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_bytes(b"nx = 16\n# caf\xe9\n")
    assert cli.main(["solve", "--config", str(bad)]) == 2
    assert capsys.readouterr().err.strip().splitlines()[-1] == "error: parse"


@pytest.mark.parametrize("key", ["out_dir", "field_path"])
def test_nul_byte_in_a_path_is_exit_3(tmp_path, capsys, key):
    out = tmp_path / "out"
    paths = {"out_dir": str(out), "field_path": str(tmp_path / "seed.csv")}
    paths[key] += "\0.x"
    text = flat_config_text(paths["out_dir"], nx=16, ny=16)
    cfg = write_config(tmp_path, text.replace(
        "seed = zero", f"seed = file\nfield_path = {paths['field_path']}"))
    assert cli.main(["solve", "--config", cfg]) == 3
    assert capsys.readouterr().err.strip().splitlines()[-1] == "error: validation"
    assert not out.exists()


def resonant_seed(path):
    """A text seed 1e-3 cos(2 pi x / lx) on the 64x8 grid whose lx tunes the
    first x mode of the fd4 Laplacian onto -12; it needs a Newton step.
    Returns the config lines of that grid."""
    n = 64
    theta = 2 * np.pi / n
    lx = float(n * np.sqrt((30.0 - 32.0 * np.cos(theta) + 2.0 * np.cos(2.0 * theta)) / 144.0))
    grid = PeriodicGrid(n, 8, lx, 0.5)
    save_text_field(field_from_function(grid, lambda x, y: 1e-3 * np.cos(2 * np.pi * x / lx)),
                    str(path))
    return f"nx = {n}\nny = 8\nlx = {lx!r}\nly = 0.5\n"


def test_cli_numerical_failure_is_exit_4_with_named_error(tmp_path):
    out = tmp_path / "out"
    seed = tmp_path / "seed.csv"
    cfgtext = resonant_seed(seed) + f"seed = file\nfield_path = {seed}\nout_dir = {out}\n"
    cfg_path = write_config(tmp_path, cfgtext, "resonant.cfg")
    assert cli.main(["solve", "--config", cfg_path]) == 4
    log_lines = (out / "solve.log").read_text().strip().splitlines()
    assert log_lines[-1] == "error: resonance"
    # the guard runs after the seed's residual, which the log keeps
    assert [line.startswith("residual[") for line in log_lines] == [True, False]


def test_shipped_flat_config_at_256_solves_without_a_step(tmp_path):
    # the flat torus lies on the continuum -12 resonance, so the fd4 gap at
    # 256^2 (7.7e-7) is below RESONANCE_GAP; u = 0 solves it and takes no step
    root = pathlib.Path(SRC).parent
    text = (root / "configs" / "flat.cfg").read_text()
    text = text.replace("nx = 64", "nx = 256").replace("ny = 64", "ny = 256")
    out = tmp_path / "out"
    assert cli.main(["solve", "--config", write_config(tmp_path, text), "--out", str(out)]) == 0
    lines = (out / "solve.log").read_text().splitlines()
    assert "iterations=0" in lines and "final_residual=0" in lines


@pytest.mark.filterwarnings("error")
def test_near_singular_seed_is_exit_4_without_warnings(tmp_path):
    # at u = 0.5 the Jacobian is Delta + 8 e^-1 + 4 e^0.5, and lx puts the first
    # x mode of the 16^2 Laplacian at -(8 e^-1 + 4 e^0.5), so the Jacobian of
    # the seed 0.5 + 1e-3 cos(2 pi x / lx) is nearly singular
    n = 16
    theta = 2 * np.pi / n
    num = 30.0 - 32.0 * np.cos(theta) + 2.0 * np.cos(2.0 * theta)
    lx = float(n * np.sqrt(num / (12.0 * (8.0 * np.exp(-1.0) + 4.0 * np.exp(0.5)))))
    grid = PeriodicGrid(n, n, lx, lx)
    seed = tmp_path / "seed.csv"
    save_text_field(field_from_function(grid, lambda x, y: 0.5 + 1e-3 * np.cos(2 * np.pi * x / lx)),
                    str(seed))
    out = tmp_path / "out"
    text = (f"nx = {n}\nny = {n}\nlx = {lx!r}\nly = {lx!r}\nseed = file\n"
            f"field_path = {seed}\nout_dir = {out}\n")
    assert cli.main(["solve", "--config", write_config(tmp_path, text)]) == 4
    lines = (out / "solve.log").read_text().strip().splitlines()
    assert lines[-1] in ("error: newton-divergence", "error: singular-jacobian")
    # the log keeps the trajectory, which stops at the step that blew the residual up
    assert 1 <= sum(line.startswith("residual[") for line in lines) <= 2
    assert not (out / cli.FIELD_FILE).exists()


def test_untyped_exception_in_a_stage_is_exit_4(tmp_path, capsys, monkeypatch):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, flat_config_text(str(out), nx=16, ny=16, substeps=24))
    for stage in ("solve", "frame", "report"):
        assert cli.main([stage, "--config", cfg]) == 0
    assert (out / cli.REPORT_JSON).exists()

    def broken(frame, radius):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(cli, "full_report", broken)
    capsys.readouterr()
    assert cli.main(["report", "--config", cfg]) == 4
    err = capsys.readouterr().err
    assert "LinAlgError: SVD did not converge" in err
    assert err.strip().splitlines()[-1] == "error: numerical-failure"
    assert (out / "report.log").read_text().strip().splitlines()[-1] == "error: numerical-failure"
    assert not (out / cli.REPORT_JSON).exists()


def _scipy_modules_after(code):
    """The scipy modules a fresh interpreter holds after running code."""
    script = f"import sys\n{code}\nprint(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True)
    return ast.literal_eval(out.stdout.strip().splitlines()[-1])


def test_report_bytes_match_between_cli_and_in_process_run(tmp_path):
    # the same wave run as one process per stage and as run_pipeline calls in
    # one process, each with single-threaded BLAS: the heaps differ, the
    # frame and report bytes must not
    text = flat_config_text("unused", nx=64, ny=32, substeps=8)
    text = text.replace(f"lx = {float(2 * np.pi)!r}", f"lx = {travelling_wave(6.5).period!r}")
    cfg = write_config(tmp_path, text.replace("seed = zero", "seed = wave\nwave_energy = 6.5"))
    env = dict(os.environ, PYTHONPATH=SRC, OPENBLAS_NUM_THREADS="1")
    stages = ("solve", "frame", "report")
    for stage in stages:
        subprocess.run([sys.executable, "-m", "tzitzeica.cli", stage, "--config", cfg,
                        "--out", str(tmp_path / "cli")], env=env, capture_output=True, check=True)
    script = ("from tzitzeica.cli import run_pipeline\nfrom tzitzeica.config import parse_config\n"
              f"cfg = parse_config({cfg!r})\n"
              f"for stage in {stages!r}:\n    run_pipeline(cfg, stage, {str(tmp_path / 'lib')!r}, echo=False)\n")
    subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, check=True)
    for name in (cli.FRAME_FILE, cli.REPORT_JSON):
        assert (tmp_path / "cli" / name).read_bytes() == (tmp_path / "lib" / name).read_bytes()


def test_wave_seed_frame_marches_one_cell_row(tmp_path, monkeypatch):
    # the 64^2 wave seed stays a field of x alone through Newton, so the
    # frame stage's column march samples its first cell row once, and
    # frame.bin is the one sampling and building every cell row writes
    text = flat_config_text("unused", nx=64, ny=64).replace("theta = 0.0", "theta = 0.3")
    text = text.replace(f"lx = {float(2 * np.pi)!r}", f"lx = {travelling_wave(6.5).period!r}")
    cfg = parse_config_text(text.replace("seed = zero", "seed = wave\nwave_energy = 6.5"))
    sampled, sampler = [], lax.row_sampler

    def sampler_spy(arrays, factor, offsets):
        sample = sampler(arrays, factor, offsets)

        def sample_spy(rows):
            sampled.append(list(rows))
            return sample(rows)

        return sample_spy

    def frame_bytes(out):
        for stage in ("solve", "frame"):
            cli.run_pipeline(cfg, stage, str(tmp_path / out), echo=False)
        return (tmp_path / out / cli.FRAME_FILE).read_bytes()

    monkeypatch.setattr(lax, "row_sampler", sampler_spy)
    one_row = frame_bytes("one_row")
    assert sampled == [[0]]
    monkeypatch.setattr(lax, "_alike", lambda planes, axis: False)
    assert frame_bytes("per_row") == one_row


def test_shipped_flat_run_lies_in_the_benchmark_reference_band(tmp_path):
    # configs/flat.cfg through all five stages in-process: every residual must
    # lie in the band the benchmark's gate holds flat64-closure to, with the
    # gate's tolerances read from its source
    root = pathlib.Path(SRC).parent
    gate = (root / "bench" / "workloads.py").read_text()
    atol, default_atol, rtol = (_assigned_literal(gate, n) for n in ("ATOL", "DEFAULT_ATOL", "RTOL"))
    want = json.loads((root / "bench" / "reference" / "flat64-closure" / "report.json").read_text())
    cfg = parse_config(str(root / "configs" / "flat.cfg"))
    for stage in ("solve", "frame", "surface", "report", "export"):
        cli.run_pipeline(cfg, stage, str(tmp_path), echo=False)
    got = json.loads((tmp_path / cli.REPORT_JSON).read_text())
    assert set(got) == set(want)
    outside = {key: (got[key], ref) for key, ref in want.items()
               if not abs(got[key] - ref) <= atol.get(key, default_atol) + rtol * abs(ref)}
    assert outside == {}


def test_cli_import_loads_no_scipy(tmp_path):
    # frame, surface, report and export need no scipy at all
    assert _scipy_modules_after("import tzitzeica.cli") == []
    # nor do the wave stage and a solve that converges, from a wave seed
    # (Newton steps by MINRES) or from the zero seed (no step)
    zero = write_config(tmp_path, flat_config_text(str(tmp_path / "out"), nx=16, ny=8), "zero.cfg")
    cfg = write_config(tmp_path, wave_config_text(str(tmp_path / "out")))
    run = "from tzitzeica import cli\nassert cli.main([{!r}, '--config', {!r}]) == 0"
    assert _scipy_modules_after(run.format("wave", cfg)) == []
    assert _scipy_modules_after(run.format("solve", cfg)) == []
    assert "minres[0]=" in (tmp_path / "out" / "solve.log").read_text()
    assert _scipy_modules_after(run.format("solve", zero)) == []


def test_solve_log_has_one_minres_line_per_step_and_repeats(tmp_path):
    cfg = parse_config_text(wave_config_text(str(tmp_path / "out")))
    first, second = (
        pathlib.Path(cli.run_pipeline(cfg, "solve", str(tmp_path / out), echo=False).path).read_bytes()
        for out in ("a", "b")
    )
    assert first == second
    lines = first.decode().splitlines()
    steps = [line for line in lines if line.startswith("minres[")]
    assert steps and f"iterations={len(steps)}" in lines
    assert all(re.fullmatch(rf"minres\[{i}\]=[1-9][0-9]*", line) for i, line in enumerate(steps))


# ---------------------------------------------------------------------------
# pipeline stages and artifacts
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def flat_run(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("flatrun"))
    # the report evaluates the frame at its own substeps; minimality_H stays
    # below 1e-8 at 24 on this grid (1.5e-8 at 16)
    cfg = parse_config_text(flat_config_text(out, substeps=24))
    for stage in ("solve", "frame", "surface", "report", "export"):
        cli.run_pipeline(cfg, stage, out, echo=False)
    return cfg, out


def test_solve_stage_zero_seed(flat_run):
    cfg, out = flat_run
    field = read_field(cfg, out)
    assert np.all(field.values == 0.0)
    log = pathlib.Path(out, "solve.log").read_text()
    assert "final_residual=0" in log


def test_frame_csv_round_trip(flat_run, tmp_path):
    cfg, out = flat_run
    field = read_field(cfg, out)
    run = frame_args(cfg, out)
    digest = run[-1]
    first = os.path.join(out, cli.FRAME_FILE)
    assert cli.load_frame(first, field, *run)[1] is None
    frame, own_digest = cli.load_frame(first, field, *run, digest=True)
    # the header ends with the digest of the field file bytes
    assert own_digest == file_sha256(first)
    assert pathlib.Path(first).read_bytes().split(b"\n", 1)[0].endswith(b"," + digest.encode())
    assert frame.closing is True
    assert frame.substeps == 24
    assert frame.unitary.shape == (33, 33, 3, 3)
    assert frame.unitarity_defect < 1e-8
    # write/read identity, down to the bytes of the file
    second = str(tmp_path / "frame2.bin")
    cli.save_frame(frame, second, digest)
    assert pathlib.Path(second).read_bytes() == pathlib.Path(first).read_bytes()
    again, again_own_digest = cli.load_frame(second, field, *run, digest=True)
    assert again_own_digest == own_digest
    assert np.array_equal(again.unitary, frame.unitary)
    assert (again.closing, again.substeps) == (frame.closing, frame.substeps)
    # a negative zero keeps its sign bit
    signed = frame.unitary.copy()
    signed[3, 5, 1, 2] = complex(-0.0, -0.0)
    third = str(tmp_path / "frame3.bin")
    cli.save_frame(dataclasses.replace(frame, unitary=signed), third, digest)
    back = cli.load_frame(third, field, *run)[0].unitary[3, 5, 1, 2]
    assert back == 0 and np.signbit(back.real) and np.signbit(back.imag)


def test_stages_after_solve_parse_no_text_field(tmp_path, monkeypatch):
    # the field goes from solve to the later stages as field.bin: a zero-seed
    # pass parses no text field, and a text seed is parsed by solve alone
    calls = []

    def spy(path, grid):
        calls.append(path)
        return load_field(path, grid)

    monkeypatch.setattr(cli, "load_field", spy)
    out = str(tmp_path / "out")
    cfg = parse_config_text(flat_config_text(out, nx=16, ny=16, substeps=24))
    for stage in ("solve", "frame", "surface", "report"):
        cli.run_pipeline(cfg, stage, out, echo=False)
    assert calls == []
    seed = str(tmp_path / "seed.csv")
    save_text_field(read_field(cfg, out), seed)
    cfg = dataclasses.replace(cfg, seed="file", field_path=seed)
    for stage in ("solve", "frame", "surface", "report"):
        cli.run_pipeline(cfg, stage, out, echo=False)
    assert calls == [seed]


def test_stages_hash_only_the_node_files_whose_digests_they_use(tmp_path, monkeypatch):
    # frame, surface, report and export check the digest of field.bin,
    # surface also records that of frame.bin in mesh.bin, and export checks
    # that one; no stage hashes a node file only to drop its digest.  A
    # hashed file is named by its header's field count: 4 for field.bin, 6
    # for mesh.bin, 8 for frame.bin.
    hashed, names = [], {4: "field", 6: "mesh", 8: "frame"}

    def sha256(data):
        hashed.append(names[len(bytes(data).split(b"\n")[0].split(b","))])
        return hashlib.sha256(data)

    shim = type(sys)("hashlib")
    shim.sha256 = sha256
    monkeypatch.setattr(grid_module, "hashlib", shim)
    out = str(tmp_path / "out")
    cfg = parse_config_text(flat_config_text(out, nx=16, ny=16, substeps=24))
    by_stage = {}
    for stage in ("solve", "frame", "surface", "report", "export"):
        cli.run_pipeline(cfg, stage, out, echo=False)
        by_stage[stage], hashed[:] = list(hashed), []
    assert by_stage == {"solve": [], "frame": ["field"], "surface": ["field", "frame"],
                        "report": ["field"], "export": ["field", "frame"]}


def test_each_stage_measures_the_frame_unitarity_at_most_once(tmp_path, monkeypatch):
    # the report stage's gate and its report read one measurement of the
    # frame's unitarity defect; export reads the mesh, not the frame's defect
    calls = []

    def spy(mat, original=lax.unitarity_defect_map):
        calls.append(mat.shape)
        return original(mat)

    monkeypatch.setattr(lax, "unitarity_defect_map", spy)
    out = str(tmp_path / "out")
    cfg = parse_config_text(flat_config_text(out, nx=16, ny=16, substeps=24))
    by_stage = {}
    for stage in ("solve", "frame", "surface", "report", "export"):
        cli.run_pipeline(cfg, stage, out, echo=False)
        by_stage[stage], calls[:] = len(calls), []
    assert by_stage == {"solve": 0, "frame": 1, "surface": 1, "report": 1, "export": 0}


def test_report_stage_contents(flat_run):
    _cfg, out = flat_run
    with open(os.path.join(out, cli.REPORT_JSON)) as fh:
        rep = json.load(fh)
    assert rep["h2_max"] < 1e-10
    assert rep["minimality_H"] < 1e-8
    assert rep["invariant_t2_defect"] < 1e-5
    assert rep["closure_defect"] < 1e-4
    assert all(v >= 0 for v in rep.values())


def test_mesh_file_and_obj_round_trip(flat_run, tmp_path):
    cfg, out = flat_run
    path = os.path.join(out, cli.MESH_FILE)
    frame_path = os.path.join(out, cli.FRAME_FILE)
    frame_sha256 = file_sha256(frame_path)
    grid, radius = PeriodicGrid(cfg.nx, cfg.ny, cfg.lx, cfg.ly), cfg.radius
    points = meshout.load_mesh_points(path, grid, radius, frame_sha256)
    assert grid.nx == 32 and radius == 1.0
    # the header ends with the digest of the frame file bytes
    assert pathlib.Path(path).read_bytes().split(b"\n", 1)[0].endswith(b"," + frame_sha256.encode())
    # the points of the frame's surface, bit for bit, and the same bytes again
    field = read_field(cfg, out)
    built = build_surface(cli.load_frame(frame_path, field, *frame_args(cfg, out))[0], radius)
    assert points.shape == (32, 32, 3) and np.array_equal(points, built)
    again = str(tmp_path / "mesh.bin")
    meshout.save_mesh(grid, radius, built, again, frame_sha256)
    assert pathlib.Path(again).read_bytes() == pathlib.Path(path).read_bytes()
    radii = np.sqrt(np.sum(np.abs(points) ** 2, axis=-1))
    assert np.abs(radii - 1.0).max() < 1e-8

    verts, faces = parse_obj(os.path.join(out, "mesh.obj"))
    assert verts.shape == (32 * 32, 3)
    assert faces.shape == (2 * 32 * 32, 3)
    assert faces.min() == 0 and faces.max() == 32 * 32 - 1

    with open(os.path.join(out, "mesh.meta.json")) as fh:
        meta = json.load(fh)
    assert meta["projection"] == "pca"
    assert meta["faces"] == 2 * 32 * 32

    # the binary PLY: its header, then 24 bytes per vertex and 13 per face
    data = pathlib.Path(out, "mesh.ply").read_bytes()
    end = data.index(b"end_header\n") + len(b"end_header\n")
    assert data[:end].decode().splitlines() == [
        "ply",
        "format binary_little_endian 1.0",
        f"element vertex {32 * 32}",
        "property double x",
        "property double y",
        "property double z",
        f"element face {2 * 32 * 32}",
        "property list uchar int vertex_indices",
        "end_header",
    ]
    nverts, nfaces = len(verts), len(faces)
    assert len(data) - end == 24 * nverts + 13 * nfaces
    ply_verts = np.frombuffer(data, "<f8", 3 * nverts, end).reshape(-1, 3)
    assert np.array_equal(ply_verts, verts)
    ply_faces = np.frombuffer(data, [("n", "u1"), ("v", "<i4", (3,))], nfaces, end + 24 * nverts)
    assert np.all(ply_faces["n"] == 3)
    assert np.array_equal(ply_faces["v"], meshout.grid_faces(32, 32))


@pytest.mark.parametrize("nx, ny", [(3, 4), (32, 17)])
def test_grid_faces_match_loop_oracle(nx, ny):
    assert np.array_equal(meshout.grid_faces(nx, ny), np.array(grid_faces_loop(nx, ny)))


def test_named_projection_export(tmp_path):
    out = str(tmp_path)
    cfg = parse_config_text(
        flat_config_text(out, extra="projection = re1,re2,re3\n")
    )
    for stage in ("solve", "frame", "surface", "export"):
        cli.run_pipeline(cfg, stage, out, echo=False)
    grid = PeriodicGrid(cfg.nx, cfg.ny, cfg.lx, cfg.ly)
    frame_sha256 = file_sha256(os.path.join(out, cli.FRAME_FILE))
    points = meshout.load_mesh_points(os.path.join(out, cli.MESH_FILE), grid, cfg.radius, frame_sha256)
    verts, _ = parse_obj(os.path.join(out, "mesh.obj"))
    assert np.allclose(verts, meshout.points_to_r6(points)[:, [0, 2, 4]], atol=1e-12)
    with open(os.path.join(out, "mesh.meta.json")) as fh:
        assert json.load(fh)["projection"] == ["re1", "re2", "re3"]


def test_surface_requires_frame_artifact(tmp_path):
    out = str(tmp_path)
    cfg = parse_config_text(flat_config_text(out))
    with pytest.raises(ConfigValidationError):
        cli.run_pipeline(cfg, "surface", out, echo=False)


def test_wave_stage(tmp_path):
    out = str(tmp_path)
    cfg = parse_config_text(
        flat_config_text(out, extra="wave_energy = 6.1\n")
    )
    cli.run_pipeline(cfg, "wave", out, echo=False)
    lines = pathlib.Path(out, cli.WAVE_CSV).read_text().splitlines()
    n, period, energy = lines[0].split(",")
    assert int(n) == len(lines) - 1
    assert abs(float(energy) - 6.1) < 1e-12
    log = dict(line.split("=", 1) for line in pathlib.Path(out, "wave.log").read_text().splitlines())
    assert log["period_quadrature"] == format_float(period_quadrature(6.1))
    assert abs(float(log["period"]) - float(log["period_quadrature"])) < 1e-12
    assert float(period) == float(log["period"])
    assert float(log["energy_drift"]) < 1e-10


def test_wave_csv_header_is_its_record(tmp_path):
    # bench/workloads.py parses this line by position, so its bytes are pinned
    out = str(tmp_path)
    cfg = parse_config_text(flat_config_text(out, extra="wave_energy = 6.5\n"))
    cli.run_pipeline(cfg, "wave", out, echo=False)
    with open(os.path.join(out, cli.WAVE_CSV), "rb") as fh:
        assert fh.readline() == b"512,1.8012344961395712,6.5\n"


@pytest.mark.parametrize("seed", ["zero", "wave"])
def test_wave_stage_at_energy_6_or_less_is_exit_3(tmp_path, capsys, seed):
    out = tmp_path / "out"
    text = flat_config_text(str(out), nx=16, ny=16).replace("seed = zero", f"seed = {seed}")
    assert cli.main(["wave", "--config", write_config(tmp_path, text + "wave_energy = 5\n")]) == 3
    assert capsys.readouterr().err.strip().splitlines()[-1] == "error: validation"
    assert not out.exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("energy", ["1e12", "1e300"])
def test_wave_stage_beyond_double_precision_is_exit_4(tmp_path, energy):
    # the orbit's energy cannot be held to the drift gate, and its overflow
    # warns of nothing; the failure also removes the wave.csv of an earlier
    # successful run
    out = tmp_path / "out"
    text = flat_config_text(str(out), nx=16, ny=16)
    assert cli.main(["wave", "--config", write_config(tmp_path, text + "wave_energy = 6.5\n")]) == 0
    high = write_config(tmp_path, text + f"wave_energy = {energy}\n", "high.cfg")
    assert cli.main(["wave", "--config", high]) == 4
    assert (out / "wave.log").read_text().strip().splitlines()[-1] == "error: numerical-failure"
    assert not (out / cli.WAVE_CSV).exists()


def test_report_through_files_keeps_substeps(tmp_path):
    out = str(tmp_path / "out")
    # substeps = 12 is not the default, and its frame passes the report stage's unitarity gate
    cfg = parse_config_text(flat_config_text(out, substeps=12))
    for stage in ("solve", "frame", "report"):
        cli.run_pipeline(cfg, stage, out, echo=False)
    u = read_field(cfg, out)
    frame = integrate_frame(u, cfg.theta, substeps=12, closing=True)
    report = full_report(frame, cfg.radius)
    in_memory = str(tmp_path / "in_memory.json")
    cli.write_report_json(report, in_memory)
    assert pathlib.Path(in_memory).read_bytes() == pathlib.Path(out, cli.REPORT_JSON).read_bytes()


# ---------------------------------------------------------------------------
# stale or damaged frame files: exit 3, last log line "error: validation"
# ---------------------------------------------------------------------------


def _frame_run(tmp_path, **kwargs):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, flat_config_text(str(out), **kwargs))
    for stage in ("solve", "frame"):
        assert cli.main([stage, "--config", cfg]) == 0
    return out


def _assert_report_rejected(out, cfg):
    assert cli.main(["report", "--config", cfg]) == 3
    assert (out / "report.log").read_text().strip().splitlines()[-1] == "error: validation"
    assert not (out / cli.REPORT_JSON).exists()


def test_report_rejects_frame_of_another_grid(tmp_path):
    out = _frame_run(tmp_path)
    small = write_config(tmp_path, flat_config_text(str(out), nx=16, ny=16), "small.cfg")
    assert cli.main(["solve", "--config", small]) == 0
    _assert_report_rejected(out, small)


def test_report_rejects_frame_of_another_theta(tmp_path):
    out = _frame_run(tmp_path)
    text = flat_config_text(str(out)).replace("theta = 0.0", "theta = 0.3")
    _assert_report_rejected(out, write_config(tmp_path, text, "theta.cfg"))


@pytest.mark.parametrize(
    "at_frame, at_report",
    [
        (dict(extra="extend_closure = false\n"), {}),
        (dict(substeps=24), dict(substeps=30)),
    ],
    ids=["closing", "substeps"],
)
def test_report_rejects_frame_of_other_closing_or_substeps(tmp_path, at_frame, at_report):
    out = _frame_run(tmp_path, **at_frame)
    other = write_config(tmp_path, flat_config_text(str(out), **at_report), "other.cfg")
    _assert_report_rejected(out, other)


def test_surface_and_report_reject_frame_of_another_field(tmp_path):
    # the frame's header records the digest of the field.bin bytes it was
    # integrated from; another valid field in its place is a stale pairing
    out = _frame_run(tmp_path, nx=16, ny=16, substeps=24)
    cfg = str(tmp_path / "run.cfg")
    grid = read_field(parse_config(cfg), out).grid
    save_field(field_from_function(grid, lambda x, y: 0.01 * np.cos(x)), str(out / cli.FIELD_FILE))
    for stage in ("surface", "report"):
        assert cli.main([stage, "--config", cfg]) == 3
        assert (out / f"{stage}.log").read_text().strip().splitlines()[-1] == "error: validation"
    assert not (out / cli.MESH_FILE).exists()
    assert not (out / cli.REPORT_JSON).exists()


def test_export_rejects_frame_of_another_field(tmp_path, capsys):
    # the mesh and frame.bin agree, but field.bin was replaced since: export
    # checks the frame against it as surface and report do
    out = _frame_run(tmp_path, nx=16, ny=16, substeps=24)
    cfg = str(tmp_path / "run.cfg")
    assert cli.main(["surface", "--config", cfg]) == 0
    grid = read_field(parse_config(cfg), out).grid
    save_field(field_from_function(grid, lambda x, y: 0.01 * np.cos(x)), str(out / cli.FIELD_FILE))
    capsys.readouterr()
    assert cli.main(["export", "--config", cfg]) == 3
    assert (out / "export.log").read_text().strip().splitlines()[-1] == "error: validation"
    err = capsys.readouterr().err.strip().splitlines()
    assert err[-2].startswith("frame.bin was made with field_sha256 = ")
    assert not any((out / (cli.MESH_STEM + s)).exists() for s in meshout.EXPORT_SUFFIXES)


NODE_BYTES = 16 * 9


@pytest.mark.parametrize("keep", [0.5, 0.25])
def test_report_rejects_truncated_frame(tmp_path, keep):
    out = _frame_run(tmp_path)
    path = out / cli.FRAME_FILE
    data = path.read_bytes()
    body = data.index(b"\n") + 1
    # cut mid-node, and at a whole-node boundary
    cut = int(len(data) * keep)
    if keep == 0.25:
        cut = body + (cut - body) // NODE_BYTES * NODE_BYTES
    assert ((cut - body) % NODE_BYTES == 0) == (keep == 0.25)
    path.write_bytes(data[:cut])
    _assert_report_rejected(out, str(tmp_path / "run.cfg"))


def _nan_at(data, at):
    return data[:at] + np.array(np.nan, "<f8").tobytes() + data[at + 8:]


def _nan_in_body(data):
    return _nan_at(data, data.index(b"\n") + 1 + 5 * NODE_BYTES + 24)


def _text_body(data):
    # the frame as the old text layout wrote it: 18 %.17g reals per node
    head = data[: data.index(b"\n") + 1]
    mats = np.frombuffer(data[len(head):], dtype="<c16").reshape(-1, 3, 3)
    body = io.StringIO()
    write_rows(body, np.ascontiguousarray(mats.transpose(0, 2, 1)).reshape(-1, 9).view(float))
    return head + body.getvalue().encode()


@pytest.mark.parametrize(
    "damage",
    [
        lambda data: data + data[-NODE_BYTES:],
        lambda data: data + bytes(8),
        _nan_in_body,
        _text_body,
        # (1 - 34)^2 nodes: the body's size, with both node counts negative
        lambda data: b"-34,-34" + data[data.index(b",", data.index(b",") + 1):],
    ],
    ids=["extra-node", "partial-value", "nan", "text-body", "negative-grid"],
)
def test_report_rejects_damaged_frame(tmp_path, damage):
    out = _frame_run(tmp_path)
    path = out / cli.FRAME_FILE
    path.write_bytes(damage(path.read_bytes()))
    _assert_report_rejected(out, str(tmp_path / "run.cfg"))


def test_frame_stage_rejects_unwritable_output(tmp_path):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, flat_config_text(str(out)))
    assert cli.main(["solve", "--config", cfg]) == 0
    (out / cli.FRAME_FILE).mkdir()
    assert cli.main(["frame", "--config", cfg]) == 3
    assert (out / "frame.log").read_text().strip().splitlines()[-1] == "error: validation"


def test_stage_rejects_unwritable_log(tmp_path, capsys):
    # the log is one of the stage's files: a log path that is a directory
    # fails the stage as an unwritable output does, and the stage removes
    # the field.bin it wrote before its log
    out = tmp_path / "out"
    cfg = write_config(tmp_path, flat_config_text(str(out)))
    (out / "solve.log").mkdir(parents=True)
    capsys.readouterr()
    assert cli.main(["solve", "--config", cfg]) == 3
    err = capsys.readouterr().err.strip().splitlines()
    assert err[-1] == "error: validation"
    assert err[-2].startswith("stage solve cannot use a file: ") and "solve.log" in err[-2]
    assert not (out / cli.FIELD_FILE).exists()


# ---------------------------------------------------------------------------
# frames and reports that load but fail numerically: exit 4
# ---------------------------------------------------------------------------


def test_frame_stage_rejects_a_frame_it_integrates_non_unitary(tmp_path, capsys):
    # 16 substeps per cell of the 16 x 16 flat torus drift 1.8e-8 off the
    # unitary group, past the bound the later stages hold a frame to; the
    # failed stage also removes the frame.bin of an earlier run
    out = _frame_run(tmp_path, nx=16, ny=16, substeps=24)
    cfg = write_config(tmp_path, flat_config_text(str(out), nx=16, ny=16, substeps=16), "drift.cfg")
    capsys.readouterr()
    assert cli.main(["frame", "--config", cfg]) == 4
    assert (out / "frame.log").read_text().strip().splitlines()[-1] == "error: invalid-frame"
    assert capsys.readouterr().err.strip().splitlines()[-1] == "error: invalid-frame"
    assert not (out / cli.FRAME_FILE).exists()


def test_frame_stage_rejects_the_default_substeps_below_12_columns(tmp_path, capsys):
    # the default 24 substeps per cell on an 11 x 11 flat torus with
    # configs/flat.cfg's periods drift 1.5e-8 off the unitary group (12 x 12
    # drifts 9.8e-9 and passes)
    out = tmp_path / "out"
    cfg = write_config(tmp_path, flat_config_text(str(out), nx=11, ny=11, substeps=24))
    assert cli.main(["solve", "--config", cfg]) == 0
    capsys.readouterr()
    assert cli.main(["frame", "--config", cfg]) == 4
    assert (out / "frame.log").read_text().strip().splitlines()[-1] == "error: invalid-frame"
    assert capsys.readouterr().err.strip().splitlines()[-1] == "error: invalid-frame"
    assert not (out / cli.FRAME_FILE).exists()


@pytest.mark.filterwarnings("error")
def test_frame_stage_rejects_a_nan_unitarity_defect(tmp_path, capsys):
    # at lx = 1e300 the march overflows, without a numpy warning, and the
    # frame's unitarity defect is NaN: the frame stage fails, rather than
    # writing a frame.bin the surface stage would reject as holding
    # non-finite values
    out = tmp_path / "out"
    text = flat_config_text(str(out), nx=16, ny=16).replace(f"lx = {float(2 * np.pi)!r}", "lx = 1e300")
    cfg = write_config(tmp_path, text)
    assert cli.main(["solve", "--config", cfg]) == 0
    capsys.readouterr()
    assert cli.main(["frame", "--config", cfg]) == 4
    assert (out / "frame.log").read_text().strip().splitlines()[-1] == "error: invalid-frame"
    err = capsys.readouterr().err.strip().splitlines()
    assert err == ["frame unitarity defect nan is not below 1e-08", "error: invalid-frame"]
    assert not (out / cli.FRAME_FILE).exists()


def test_surface_and_report_reject_non_unitary_frame(tmp_path, capsys):
    # finite and of the right size, but one node is scaled off the unitary group
    out = _frame_run(tmp_path)
    path = out / cli.FRAME_FILE
    data = path.read_bytes()
    at = data.index(b"\n") + 1 + 7 * NODE_BYTES
    node = np.frombuffer(data[at:at + NODE_BYTES], dtype="<c16") * 1.001
    path.write_bytes(data[:at] + node.astype("<c16").tobytes() + data[at + NODE_BYTES:])
    cfg = str(tmp_path / "run.cfg")
    for stage in ("surface", "report"):
        capsys.readouterr()
        assert cli.main([stage, "--config", cfg]) == 4
        assert (out / f"{stage}.log").read_text().strip().splitlines()[-1] == "error: invalid-frame"
        assert capsys.readouterr().err.strip().splitlines()[-1] == "error: invalid-frame"
    assert not (out / cli.MESH_FILE).exists()
    assert not (out / cli.REPORT_JSON).exists()


def test_report_rejects_singular_closing_frame_before_closure(tmp_path):
    # a zeroed corner node leaves U(0, 0)^-1 of the closure undefined; the
    # unitarity gate rejects the frame before the report reaches torus_closure
    out = _frame_run(tmp_path)
    path = out / cli.FRAME_FILE
    data = path.read_bytes()
    at = data.index(b"\n") + 1
    path.write_bytes(data[:at] + bytes(NODE_BYTES) + data[at + NODE_BYTES:])
    assert cli.main(["report", "--config", str(tmp_path / "run.cfg")]) == 4
    assert (out / "report.log").read_text().strip().splitlines()[-1] == "error: invalid-frame"


def test_report_with_non_finite_residuals_is_exit_4(tmp_path, capsys):
    # at R = 1e-80 the Gauss and t2/t4 defects are inf or nan, which
    # report.json cannot hold
    out = tmp_path / "out"
    text = flat_config_text(str(out), nx=16, ny=16, substeps=24)
    cfg = write_config(tmp_path, text.replace("radius = 1.0", "radius = 1e-80"))
    for stage in ("solve", "frame", "surface"):
        assert cli.main([stage, "--config", cfg]) == 0
    capsys.readouterr()
    assert cli.main(["report", "--config", cfg]) == 4
    assert capsys.readouterr().err.strip().splitlines()[-1] == "error: numerical-failure"
    assert (out / "report.log").read_text().strip().splitlines()[-1] == "error: numerical-failure"
    assert not (out / cli.REPORT_JSON).exists()


def test_failed_report_leaves_no_earlier_report(tmp_path):
    out = tmp_path / "out"
    text = flat_config_text(str(out), nx=16, ny=16, substeps=24)
    cfg = write_config(tmp_path, text)
    for stage in ("solve", "frame", "report"):
        assert cli.main([stage, "--config", cfg]) == 0
    tiny = write_config(tmp_path, text.replace("radius = 1.0", "radius = 1e-80"), "tiny.cfg")
    assert cli.main(["report", "--config", tiny]) == 4
    assert (out / "report.log").read_text().strip().splitlines()[-1] == "error: numerical-failure"
    assert not (out / cli.REPORT_JSON).exists()
    assert (out / cli.FIELD_FILE).exists() and (out / cli.FRAME_FILE).exists()


@pytest.mark.parametrize("seed_in_out", [True, False])
def test_failed_solve_removes_its_field_but_not_its_seed(tmp_path, seed_in_out):
    out = tmp_path / "out"
    out.mkdir()
    # a text seed, also when it sits where the stage writes its field.bin
    seed = out / cli.FIELD_FILE if seed_in_out else tmp_path / "seed.csv"
    text = resonant_seed(seed) + f"seed = file\nfield_path = {seed}\n"
    (out / cli.FIELD_FILE).write_bytes(seed.read_bytes())
    assert cli.main(["solve", "--config", write_config(tmp_path, text), "--out", str(out)]) == 4
    assert (out / "solve.log").read_text().strip().splitlines()[-1] == "error: resonance"
    assert (out / cli.FIELD_FILE).exists() == seed_in_out
    assert seed.exists()


# ---------------------------------------------------------------------------
# damaged field and mesh files: exit 3, last log line "error: validation"
# ---------------------------------------------------------------------------


def test_report_rejects_truncated_field(tmp_path):
    out = _frame_run(tmp_path)
    cfg = str(tmp_path / "run.cfg")
    assert cli.main(["report", "--config", cfg]) == 0
    (out / cli.REPORT_JSON).unlink()
    path = out / cli.FIELD_FILE
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2])
    _assert_report_rejected(out, cfg)


def test_frame_rejects_a_complex_node_file_as_field(tmp_path):
    # the solved field as a '<c16' node file under the same header: 16 bytes
    # a node where the header calls for the 8 of '<f8'
    out = tmp_path / "out"
    cfg = write_config(tmp_path, flat_config_text(str(out), nx=16, ny=16, substeps=24))
    assert cli.main(["solve", "--config", cfg]) == 0
    u = read_field(parse_config(cfg), out)
    save_nodes(out / cli.FIELD_FILE, grid_record(u.grid), u.values)
    assert cli.main(["frame", "--config", cfg]) == 3
    assert (out / "frame.log").read_text().strip().splitlines()[-1] == "error: validation"
    assert not (out / cli.FRAME_FILE).exists()


STAGE_FILES = {"frame": cli.FRAME_FILE, "surface": cli.MESH_FILE, "report": cli.REPORT_JSON}


@pytest.mark.parametrize("stage", sorted(STAGE_FILES))
def test_stage_rejects_field_of_another_grid(tmp_path, stage):
    # field.bin, frame.bin, mesh.bin and report.json of a 16^2 run, and the
    # stage run again at 8^2: it fails on the field and removes its own file
    out = tmp_path / "out"
    cfg = write_config(tmp_path, flat_config_text(str(out), nx=16, ny=16, substeps=24))
    for done in ("solve", "frame", "surface", "report"):
        assert cli.main([done, "--config", cfg]) == 0
    small = write_config(tmp_path, flat_config_text(str(out), nx=8, ny=8, substeps=24), "small.cfg")
    assert cli.main([stage, "--config", small]) == 3
    assert (out / f"{stage}.log").read_text().strip().splitlines()[-1] == "error: validation"
    assert not (out / STAGE_FILES[stage]).exists()


@pytest.mark.parametrize(
    "damage",
    [
        lambda head, vals: [head] + vals[:5] + ["nan"] + vals[6:],
        lambda head, vals: [head] + vals[:5] + [vals[5] + " " + vals[6]] + vals[7:],
        lambda head, vals: [head.rsplit(",", 1)[0]] + vals,
        lambda head, vals: [head.rsplit(",", 1)[0] + ",inf"] + vals,
        lambda head, vals: [",".join(head.split(",")[:2] + ["1.0", "1.0"])] + vals,
        lambda head, vals: [head] + vals[:5] + [vals[5] + "," + vals[6]] + vals[6:],
        lambda head, vals: [head] + vals[:5] + ["# a comment line"] + vals[5:],
    ],
    ids=["nan", "ragged", "header", "infinite-period", "other-periods", "two-values", "comment"],
)
def test_solve_rejects_damaged_seed_file(tmp_path, damage):
    out = tmp_path / "out"
    seed = tmp_path / "seed.csv"
    head = f"32,32,{float(2 * np.pi)!r},{float(FLAT_LY)!r}"
    seed.write_text("\n".join(damage(head, ["0.25"] * (32 * 32))) + "\n")
    text = flat_config_text(str(out)).replace("seed = zero", f"seed = file\nfield_path = {seed}")
    assert cli.main(["solve", "--config", write_config(tmp_path, text)]) == 3
    assert (out / "solve.log").read_text().strip().splitlines()[-1] == "error: validation"
    assert not (out / cli.FIELD_FILE).exists()


@pytest.mark.parametrize(
    "damage",
    [
        lambda data: data[: len(data) // 2 + 3],
        lambda data: data + bytes(8),
        lambda data: _nan_at(data, data.index(b"\n") + 1 + 16 * 5 + 8),
        lambda data: data.split(b",", 1)[1],
        lambda data: b"32,32,1,1,1," + data.split(b",", 5)[5],
    ],
    ids=["cut-mid-body", "partial-value", "nan", "header", "other-grid"],
)
def test_export_rejects_damaged_mesh(tmp_path, damage):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, flat_config_text(str(out)))
    for stage in ("solve", "frame", "surface"):
        assert cli.main([stage, "--config", cfg]) == 0
    path = out / cli.MESH_FILE
    path.write_bytes(damage(path.read_bytes()))
    assert cli.main(["export", "--config", cfg]) == 3
    assert (out / "export.log").read_text().strip().splitlines()[-1] == "error: validation"
    assert not (out / "mesh.obj").exists()


@pytest.mark.parametrize("change", ["theta = 0.3", "radius = 2.0"], ids=["frame-again", "radius"])
def test_export_rejects_mesh_of_another_frame_or_radius(tmp_path, change):
    # the mesh's header records the digest of the frame.bin bytes it was built
    # from and its radius; a frame integrated again since, or another radius
    # in the config, is a stale pairing
    out = tmp_path / "out"
    text = flat_config_text(str(out), nx=16, ny=16, substeps=24)
    cfg = write_config(tmp_path, text)
    for stage in ("solve", "frame", "surface"):
        assert cli.main([stage, "--config", cfg]) == 0
    key = change.split(" = ")[0]
    other = write_config(tmp_path, re.sub(rf"^{key} = .*$", change, text, flags=re.M), "other.cfg")
    if key == "theta":
        assert cli.main(["frame", "--config", other]) == 0
    assert cli.main(["export", "--config", other]) == 3
    assert (out / "export.log").read_text().strip().splitlines()[-1] == "error: validation"
    assert not any((out / (cli.MESH_STEM + s)).exists() for s in meshout.EXPORT_SUFFIXES)


@pytest.mark.parametrize("change", ["theta = 0.7", "substeps = 32", "extend_closure = false"],
                         ids=["theta", "substeps", "closing"])
def test_export_rejects_frame_of_another_theta_or_substeps(tmp_path, capsys, change):
    # the mesh and frame.bin agree, but the frame was made at another theta,
    # substeps or closing than the config's: export fails as report does
    out = tmp_path / "out"
    text = flat_config_text(str(out), nx=16, ny=16, substeps=24)
    cfg = write_config(tmp_path, text)
    for stage in ("solve", "frame", "surface"):
        assert cli.main([stage, "--config", cfg]) == 0
    key = change.split(" = ")[0]
    other = write_config(tmp_path, re.sub(rf"^{key} = .*$", change, text, flags=re.M)
                         if key in text else text + change + "\n", "other.cfg")
    capsys.readouterr()
    for stage in ("report", "export"):
        assert cli.main([stage, "--config", other]) == 3
        assert (out / f"{stage}.log").read_text().strip().splitlines()[-1] == "error: validation"
        err = capsys.readouterr().err.strip().splitlines()
        assert err[-2].startswith(f"frame.bin was made with {key} = ")
    assert not any((out / (cli.MESH_STEM + s)).exists() for s in meshout.EXPORT_SUFFIXES)


# ---------------------------------------------------------------------------
# a stage input that is missing or was made with another record: exit 3, a
# message naming the file and what to redo, and none of the stage's files
# ---------------------------------------------------------------------------

STAGE_OUTPUTS = {
    "solve": (cli.FIELD_FILE,),
    "frame": (cli.FRAME_FILE,),
    "surface": (cli.MESH_FILE,),
    "report": (cli.REPORT_JSON,),
    "export": tuple(cli.MESH_STEM + s for s in meshout.EXPORT_SUFFIXES),
}


def _run_every_stage(tmp_path):
    """The out directory and the config text of a 16^2 flat run of every
    stage, each stage's files in place."""
    out = tmp_path / "out"
    text = flat_config_text(str(out), nx=16, ny=16, substeps=24)
    cfg = write_config(tmp_path, text)
    for stage in STAGE_OUTPUTS:
        assert cli.main([stage, "--config", cfg]) == 0
    return out, text


def _rejected_message(out, cfg, stage, capsys):
    """Run stage with cfg and assert it fails as a validation error that
    leaves none of its files; returns the message line of its stderr."""
    capsys.readouterr()
    assert cli.main([stage, "--config", cfg]) == 3
    assert (out / f"{stage}.log").read_text().strip().splitlines()[-1] == "error: validation"
    assert not any((out / name).exists() for name in STAGE_OUTPUTS[stage])
    err = capsys.readouterr().err.strip().splitlines()
    assert err[-1] == "error: validation"
    return err[-2]


@pytest.mark.parametrize("stage, name, producer", [
    ("frame", cli.FIELD_FILE, "solve"),
    ("surface", cli.FRAME_FILE, "frame"),
    ("report", cli.FRAME_FILE, "frame"),
    ("export", cli.MESH_FILE, "surface"),
])
def test_missing_input_names_the_stage_that_writes_it(tmp_path, capsys, stage, name, producer):
    out, _text = _run_every_stage(tmp_path)
    (out / name).unlink()
    message = _rejected_message(out, str(tmp_path / "run.cfg"), stage, capsys)
    assert message.startswith(f"{out / name} cannot be read: ")
    assert message.endswith(f"; rerun the {producer} stage")


# (stage, input, record key, the config line that changes it, stages rerun
# with that config before the stage)
RECORD_CASES = [
    ("frame", cli.FIELD_FILE, "nx", "nx = 20", ()),
    ("frame", cli.FIELD_FILE, "ny", "ny = 20", ()),
    ("frame", cli.FIELD_FILE, "lx", "lx = 6.0", ()),
    ("frame", cli.FIELD_FILE, "ly", "ly = 3.5", ()),
    ("report", cli.FRAME_FILE, "theta", "theta = 0.3", ()),
    ("report", cli.FRAME_FILE, "substeps", "substeps = 32", ()),
    ("report", cli.FRAME_FILE, "extend_closure", "extend_closure = false", ()),
    # another field in field.bin's place
    ("report", cli.FRAME_FILE, "field_sha256", None, ()),
    ("export", cli.MESH_FILE, "ny", "ny = 20", ("solve", "frame")),
    ("export", cli.MESH_FILE, "radius", "radius = 2.0", ()),
    # the frame integrated again, at another theta
    ("export", cli.MESH_FILE, "frame_sha256", "theta = 0.3", ("frame",)),
    ("solve", "seed.csv", "nx", "nx = 20", ()),
    ("solve", "seed.csv", "lx", "lx = 6.0", ()),
]


@pytest.mark.parametrize("stage, name, key, change, redo", RECORD_CASES,
                         ids=[f"{name}-{key}" for _stage, name, key, _change, _redo in RECORD_CASES])
def test_each_record_key_rejects_a_file_made_with_another(tmp_path, capsys, stage, name, key,
                                                          change, redo):
    # the 16^2 run of every stage, then the stage again with one value of its
    # input's record changed; the text seed is the 16^2 field
    out, text = _run_every_stage(tmp_path)
    if change is None:
        grid = read_field(parse_config_text(text), out).grid
        save_field(field_from_function(grid, lambda x, y: 0.01 * np.cos(x)), str(out / cli.FIELD_FILE))
    else:
        setting = change.split(" = ")[0]
        text = (re.sub(rf"^{setting} = .*$", change, text, flags=re.M)
                if re.search(rf"^{setting} = ", text, re.M) else text + change + "\n")
    if name == "seed.csv":
        seed = tmp_path / name
        save_text_field(read_field(parse_config(str(tmp_path / "run.cfg")), out), seed)
        text = text.replace("seed = zero", f"seed = file\nfield_path = {seed}")
    other = write_config(tmp_path, text, "other.cfg")
    for done in redo:
        assert cli.main([done, "--config", other]) == 0
    message = _rejected_message(out, other, stage, capsys)
    remedy = "check field_path" if name == "seed.csv" else {
        cli.FIELD_FILE: "rerun the solve stage", cli.FRAME_FILE: "rerun the frame stage",
        cli.MESH_FILE: "rerun the surface stage"}[name]
    assert re.fullmatch(rf"{re.escape(name)} was made with {key} = (.+), this run has {key} = (.+); "
                        + re.escape(remedy), message)


# ---------------------------------------------------------------------------
# any damage to an artifact file: the reader returns or raises
# ConfigValidationError, never another exception
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    """Pristine field.bin, mesh.bin and frame.bin of an 8x8 run on a smooth
    field, and that field as a text seed.csv, as name -> (bytes, reader of a
    path)."""
    out = str(tmp_path_factory.mktemp("artifacts"))
    cfg = parse_config_text(flat_config_text(out, nx=8, ny=8, substeps=48))
    grid = PeriodicGrid(cfg.nx, cfg.ny, cfg.lx, cfg.ly)
    u = field_from_function(grid, lambda x, y: 0.1 * np.cos(x) * np.sin(2.0 * np.pi * y / cfg.ly))
    save_field(u, os.path.join(out, cli.FIELD_FILE))
    save_text_field(u, os.path.join(out, "seed.csv"))
    for stage in ("frame", "surface"):
        cli.run_pipeline(cfg, stage, out, echo=False)
    # each reader takes the record of this run
    frame_sha256, run = file_sha256(os.path.join(out, cli.FRAME_FILE)), frame_args(cfg, out)
    readers = {
        "seed.csv": lambda path: load_field(path, grid),
        cli.FIELD_FILE: lambda path: load_saved_field(path, grid),
        cli.MESH_FILE: lambda path: meshout.load_mesh_points(path, grid, cfg.radius, frame_sha256),
        cli.FRAME_FILE: lambda path: cli.load_frame(path, u, *run),
    }
    pristine = {}
    for name, read in readers.items():
        path = os.path.join(out, name)
        read(path)
        with open(path, "rb") as fh:
            pristine[name] = (fh.read(), read)
    return out, pristine


@st.composite
def damage(draw, size):
    """A cut at any byte, or one byte overwritten by any value; positions in
    the header and the bytes of number syntax are drawn as often as the rest."""
    at = draw(st.one_of(st.integers(0, 63), st.integers(0, size - 1)))
    if draw(st.booleans()):
        return "cut", at, None
    return "overwrite", at, draw(st.one_of(st.sampled_from(b"0-.,e\n"), st.integers(0, 255)))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name", ["seed.csv", cli.FIELD_FILE, cli.MESH_FILE, cli.FRAME_FILE])
def test_damaged_artifact_is_read_or_rejected_typed(artifacts, name):
    out, pristine = artifacts
    data, read = pristine[name]
    path = os.path.join(out, "damaged-" + name)

    @settings(database=None, derandomize=True, max_examples=300, deadline=None)
    @given(damage(len(data)))
    def check(change):
        kind, at, byte = change
        damaged = data[:at] if kind == "cut" else data[:at] + bytes([byte]) + data[at + 1:]
        with open(path, "wb") as fh:
            fh.write(damaged)
        try:
            read(path)
        except ConfigValidationError:
            return
        # a node file's body is exactly one item of its dtype per value its
        # header calls for and a text field ends with a newline, so no cut
        # artifact is ever read
        assert kind != "cut"

    check()
