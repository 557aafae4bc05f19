import hashlib
import io

import numpy as np
import pytest

from tzitzeica.errors import ConfigValidationError
from tzitzeica.grid import (
    ROW_BLOCK_FIELDS,
    PeriodicGrid,
    ScalarFieldPeriodic,
    deriv,
    deriv2,
    field_from_function,
    format_float,
    header_line,
    hex_digest,
    laplacian_symbol_1d,
    load_field,
    load_saved_field,
    parse_header,
    row_sampler,
    save_field,
    spectral_gradient,
    trig_upsample,
    write_rows,
    zero_field,
)
from tzitzeica.solver import laplacian_symbol, resonance_gap

from conftest import loglog_slope
from reference_march import zero_pad_upsample


def test_grid_validation():
    with pytest.raises(ValueError):
        PeriodicGrid(4, 64, 1.0, 1.0)
    with pytest.raises(ValueError):
        PeriodicGrid(64, 64, -1.0, 1.0)


def test_field_shape_and_finiteness():
    g = PeriodicGrid(16, 8, 1.0, 1.0)
    with pytest.raises(ValueError):
        ScalarFieldPeriodic(g, np.zeros((8, 15)))
    bad = np.zeros((8, 16))
    bad[0, 0] = np.inf
    with pytest.raises(ValueError):
        ScalarFieldPeriodic(g, bad)


def test_deriv_convergence():
    errs, hs = [], []
    for n in (32, 64, 128):
        h = 1.0 / n
        x = np.arange(n) * h
        f = np.sin(2 * np.pi * x)
        df = deriv(f, h, axis=0)
        errs.append(np.abs(df - 2 * np.pi * np.cos(2 * np.pi * x)).max())
        hs.append(h)
    assert loglog_slope(hs, errs) > 3.8


def test_spectral_deriv_is_exact_for_bandlimited():
    # unequal axes and periods, so a swapped axis or step cannot pass
    g = PeriodicGrid(32, 16, 1.0, 2.0)
    xx, yy = g.mesh()
    sx, cx, sy, cy = np.sin(2 * np.pi * xx), np.cos(2 * np.pi * xx), np.sin(np.pi * yy), np.cos(np.pi * yy)
    f = sx * cy + 0.3 * np.cos(6 * np.pi * xx) + 0.2 * np.sin(3 * np.pi * yy)
    fx, fy = spectral_gradient(f, g)
    exact_x = 2 * np.pi * cx * cy - 1.8 * np.pi * np.sin(6 * np.pi * xx)
    exact_y = -np.pi * sx * sy + 0.6 * np.pi * np.cos(3 * np.pi * yy)
    assert np.abs(fx - exact_x).max() < 1e-12
    assert np.abs(fy - exact_y).max() < 1e-12


def test_trig_upsample_hits_exact_values():
    n, factor = 16, 6
    h = 1.0 / n
    x = np.arange(n) * h
    f = np.cos(2 * np.pi * x + 0.3) + 0.2 * np.sin(4 * np.pi * x)
    offsets = np.arange(factor)
    fine = trig_upsample(f, factor, 0, offsets)
    xf = x + offsets[:, None] * (h / factor)
    exact = np.cos(2 * np.pi * xf + 0.3) + 0.2 * np.sin(4 * np.pi * xf)
    assert fine.shape == (factor, n)
    assert np.abs(fine - exact).max() < 1e-13


@pytest.mark.parametrize("n", [16, 17])
@pytest.mark.parametrize("axis", [0, 1])
def test_trig_upsample_matches_zero_padding_oracle(n, axis):
    # even n has a Nyquist bin, whose phase-shifted value must stay real; odd
    # n has none.  The offsets reach back, and past one cell.
    factor = 6
    rng = np.random.default_rng(n)
    values = rng.standard_normal((n, 9) if axis == 0 else (9, n))
    offsets = [-13, -7, -6, -1, 0, 1, 5, 6, 11, 31]
    fine = trig_upsample(values, factor, axis, offsets)
    oracle = zero_pad_upsample(values, factor, axis)
    nodes = np.arange(n) * factor
    expected = np.stack([np.take(oracle, (nodes + k) % (n * factor), axis=axis) for k in offsets])
    assert fine.shape == (len(offsets),) + values.shape
    assert np.abs(fine - expected).max() < 1e-13


@pytest.mark.parametrize("n", [16, 17])
@pytest.mark.parametrize("offsets", [range(-4, 5), range(0, 2 * 6 + 1)])
def test_row_sampler_matches_trig_upsample(n, offsets):
    # offsets on both sides of the node (-4..4) and those of a cell of m = 6
    # substeps (0..2m), on lengths with and without a Nyquist bin
    factor = 12
    rng = np.random.default_rng(n)
    arrays = rng.standard_normal((2, n, 9))
    sample = row_sampler(arrays, factor, offsets)
    planes = [trig_upsample(a, factor, 0, offsets) for a in arrays]
    for rows in ([0], [n - 1], [5, 2, 11], range(n)):
        got = sample(rows)
        assert got.shape == (2, len(offsets), len(rows), 9)
        for a, plane in enumerate(planes):
            assert np.abs(got[a] - plane[:, list(rows)]).max() <= 1e-14


@pytest.mark.parametrize("axis", [0, 1, -1])
def test_fd4_stencils_match_the_roll_formulas(axis):
    # the stencils read one periodic pad; their terms, and so their bits, are
    # those of the np.roll formulas
    rng = np.random.default_rng(3)
    f = rng.standard_normal((13, 11))
    h = 0.37
    r = [np.roll(f, s, axis) for s in (-2, -1, 1, 2)]
    first = (-r[0] + 8.0 * r[1] - 8.0 * r[2] + r[3]) / (12.0 * h)
    second = (-r[0] + 16.0 * r[1] - 30.0 * f + 16.0 * r[2] - r[3]) / (12.0 * h * h)
    assert np.array_equal(deriv(f, h, axis), first)
    assert np.array_equal(deriv2(f, h, axis), second)


def test_laplacian_symbol_matches_matrix_action():
    n, h = 16, 0.37
    sym = laplacian_symbol_1d(n, h)
    k = 3
    mode = np.exp(2j * np.pi * k * np.arange(n) / n)
    applied = deriv2(mode, h, axis=0)
    assert np.abs(applied - sym[k] * mode).max() < 1e-10 * abs(sym[k])


def test_resonance_detection():
    # tune lx so the k=1 mode eigenvalue sits exactly at -12
    n = 64
    theta = 2 * np.pi / n
    num = -30.0 + 32.0 * np.cos(theta) - 2.0 * np.cos(2.0 * theta)
    h = np.sqrt(-num / (12.0 * 12.0))
    bad = PeriodicGrid(n, 8, n * h, 0.5)
    assert resonance_gap(laplacian_symbol(bad)) < 1e-9
    good = PeriodicGrid(64, 64, 1.0, 1.0)
    assert resonance_gap(laplacian_symbol(good)) > 1.0


def test_field_file_round_trip(tmp_path):
    # the field as a node file: its header line, then 8 bytes of '<f8' a node
    g = PeriodicGrid(12, 9, 1.25, 0.75)
    fld = field_from_function(g, lambda x, y: np.sin(2 * np.pi * x / g.lx) + y)
    fld.values[2, 3] = -0.0
    path = tmp_path / "field.bin"
    save_field(fld, path)
    head = b"12,9,1.25,0.75\n"
    assert path.read_bytes() == head + fld.values.astype("<f8").tobytes()
    back, sha256 = load_saved_field(path, g)
    assert sha256 == hashlib.sha256(path.read_bytes()).hexdigest()
    assert back.grid == g and back.values.flags.writeable
    assert np.array_equal(back.values, fld.values) and np.signbit(back.values[2, 3])
    with pytest.raises(ConfigValidationError):
        load_saved_field(path, PeriodicGrid(12, 9, 1.25, 0.5))


def test_zero_field(tmp_path):
    g = PeriodicGrid(8, 8, 1.0, 1.0)
    assert np.all(zero_field(g).values == 0.0)


def _written(arr, line=None):
    buf = io.StringIO()
    write_rows(buf, arr, line)
    return buf.getvalue()


def _joined(arr):
    return "".join(",".join(format_float(v) for v in row) + "\n" for row in arr)


def test_write_rows_matches_per_value_join():
    special = [-0.0, 0.0, 5e-324, -5e-324, 1e-300, 1e16, -1e16, 3.0, -7.0, 2.0**53, 1e22]
    rng = np.random.default_rng(8)
    mixed = np.concatenate([special, rng.standard_normal(13) * 10.0 ** rng.integers(-20, 20, 13)])
    for arr in (mixed.reshape(-1, 1), mixed.reshape(-1, 6), mixed.reshape(2, -1)):
        assert _written(arr) == _joined(arr)
    assert _written(np.array([[-0.0, 5e-324, 1e16, 4.0]])) == "-0,4.9406564584124654e-324,10000000000000000,4\n"
    # the OBJ and PLY vertex and face templates against per-value joins
    verts = mixed.reshape(-1, 3)
    for prefix in ("v ", ""):
        joined = "".join(prefix + " ".join(format_float(v) for v in row) + "\n" for row in verts)
        assert _written(verts, prefix + "%.17g %.17g %.17g\n") == joined
    faces = np.array([[0, 1, 2], [7, 2**31, 2**53 + 1], [12, 0, 5]])
    for prefix in ("f ", "3 "):
        joined = "".join(f"{prefix}{a} {b} {c}\n" for a, b, c in faces.tolist())
        assert _written(faces, prefix + "%d %d %d\n") == joined


def test_write_rows_spans_several_blocks():
    # both arrays hold more fields than one formatting block
    rng = np.random.default_rng(3)
    for shape in ((3000, 6), (20000, 1)):
        arr = rng.standard_normal(shape) * 10.0 ** rng.integers(-30, 30, shape)
        arr.flat[::997] = -0.0
        assert arr.size > ROW_BLOCK_FIELDS
        assert _written(arr) == _joined(arr)


def test_header_digest_field():
    digest = "0123456789abcdef" * 4
    line = header_line((8, 0.5, digest))
    assert line == f"8,0.5,{digest}\n"
    assert parse_header(line, (int, float, hex_digest)) == (8, 0.5, digest)
    for bad in (digest[:-1], digest.upper(), digest[:-1] + "g", digest + "0", " " + digest[1:]):
        with pytest.raises(ValueError):
            parse_header(f"8,0.5,{bad}", (int, float, hex_digest))


_FIELD = ["8,8,1,0.5"] + [format_float(0.125 * k) for k in range(64)]


@pytest.mark.parametrize(
    "lines",
    [
        ["8,8,1,0.5,7"] + _FIELD[1:],
        ["8,8,one,0.5"] + _FIELD[1:],
        ["8,8,inf,0.5"] + _FIELD[1:],
        ["4,8,1,0.5"] + _FIELD[1:33],
        _FIELD[:2] + ["nan"] + _FIELD[3:],
        _FIELD[:2] + ["3,4"] + _FIELD[3:],
        _FIELD[:-1],
        _FIELD + ["7"],
        _FIELD[:1],
        "cut",
        None,
    ],
    ids=["header-count", "header-text", "header-inf", "header-grid", "nan", "ragged", "too-few",
         "too-many", "no-values", "cut-short", "missing"],
)
def test_load_table_rejects_damage(tmp_path, lines):
    # load_field is the one reader of a text table
    path = tmp_path / "seed.csv"
    text = "\n".join(_FIELD) + "\n"
    path.write_text(text)
    fld = load_field(path)
    assert (fld.grid.nx, fld.grid.ny, fld.grid.lx, fld.grid.ly) == (8, 8, 1.0, 0.5)
    assert np.array_equal(fld.values.ravel(), 0.125 * np.arange(64))
    if lines is None:
        path.unlink()
    elif lines == "cut":
        path.write_text(text[:-2])
    else:
        path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ConfigValidationError):
        load_field(path)
