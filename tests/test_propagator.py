"""The propagator-form frame integrator against the per-substep reference
marcher (tests/reference_march.py), node by node."""

import math
import tracemalloc

import numpy as np
import pytest

from tzitzeica import lax
from tzitzeica.grid import PeriodicGrid, ScalarFieldPeriodic, spectral_gradient, trig_upsample, zero_field
from tzitzeica.lax import frame_axis_stencil, integrate_frame
from tzitzeica.solver import newton_solve
from tzitzeica.surface import torus_closure
from tzitzeica.wave import lift_1d, travelling_wave

from conftest import mesh
from oracles import row_sampler_per_row
from reference_march import reference_frame, reference_stencil

TOL = 1e-12
FLAT_LY = 2.0 * np.pi / np.sqrt(3.0)


def test_flat_extended_frame_matches_reference():
    # the closing frame is the base plus a one-node extension
    u = zero_field(PeriodicGrid(32, 32, 1.0, 1.0))
    frame = integrate_frame(u, 0.0, substeps=24, closing=True)
    ref = reference_frame(u, 0.0, 24, extend=(1, 1))
    assert frame.unitary.shape == ref.shape == (33, 33, 3, 3)
    assert np.abs(frame.unitary - ref).max() <= TOL


@pytest.fixture(scope="module")
def wave_field(wave61):
    return lift_1d(wave61, PeriodicGrid(32, 32, wave61.period, 1.0))


def _brute_force_closure(u, theta, substeps):
    """Closure defects from a reference frame marched over a second period."""
    g = u.grid
    ref = reference_frame(u, theta, substeps, extend=(g.nx, g.ny))
    base = ref[: g.ny, : g.nx]
    return np.abs(ref[: g.ny, g.nx :] - base).max(), np.abs(ref[g.ny :, : g.nx] - base).max()


@pytest.mark.parametrize("case", ["flat", "wave"])
def test_monodromy_closure_matches_brute_force_extension(wave_field, case):
    if case == "flat":
        # the closure-matched periods of configs/flat.cfg
        u = zero_field(PeriodicGrid(32, 32, 2 * np.pi, 2 * np.pi / np.sqrt(3)))
        theta, substeps = 0.0, 24
    else:
        u, theta, substeps = wave_field, 0.4, 4
    frame = integrate_frame(u, theta, substeps=substeps, closing=True)
    rep = torus_closure(frame)
    x_defect, y_defect = _brute_force_closure(u, theta, substeps)
    assert abs(rep[0] - x_defect) <= TOL
    assert abs(rep[1] - y_defect) <= TOL
    assert (max(rep) < 1e-4) == (case == "flat")


@pytest.mark.parametrize("substeps", [1, 2, 3, 4, 5])
def test_wave_frame_matches_reference(wave_field, substeps, monkeypatch):
    # odd substep counts carry a cell's last substep past a level of the
    # pairwise product; the lifted wave's column march builds its first cell
    # row only, and with the alike rule switched off each build at 32
    # columns holds four cell rows
    ref = reference_frame(wave_field, 0.4, substeps)
    frame = integrate_frame(wave_field, 0.4, substeps=substeps, closing=False)
    assert np.abs(frame.unitary - ref).max() <= TOL
    monkeypatch.setattr(lax, "_alike", lambda planes, axis: False)
    frame = integrate_frame(wave_field, 0.4, substeps=substeps, closing=False)
    assert np.abs(frame.unitary - ref).max() <= TOL


def _exact_axis_derivative(frame, axis):
    """The first two columns of d_axis U = U W_axis from frame_axis_stencil,
    (ny, nx, 3, 2), gathered from its blocks."""
    grads = spectral_gradient(frame.u.values, frame.grid)
    out = np.full((3, 2, frame.grid.ny, frame.grid.nx), np.nan, dtype=complex)

    def keep(block, _frames, derivs):
        out[..., block, :] = derivs["xy".index(axis)]

    frame_axis_stencil(frame, grads, keep)
    return np.moveaxis(out, (0, 1), (-2, -1))


@pytest.mark.parametrize("axis", ["x", "y"])
def test_axis_stencil_matches_reference(wave_field, axis, monkeypatch):
    # the 4th-order difference of the reference stencil's five frames, one
    # RK4 substep apart, converges to the exact U W_axis: 9.7e-8 (x) and
    # 1.9e-9 (y) at 4 substeps, 16x less at 8
    errs = []
    for m in (4, 8):
        frame = integrate_frame(wave_field, 0.4, substeps=m, closing=False)
        ref = np.array(reference_stencil(frame, axis))
        assert ref.shape == (5, 32, 32, 3, 3)
        h = (frame.grid.hx if axis == "x" else frame.grid.hy) / m
        fd4 = (-ref[4] + 8.0 * ref[3] - 8.0 * ref[1] + ref[0]) / (12.0 * h)
        # the whole grid in one block, and blocks of 5 rows with a last one of 2
        derivs = []
        for block_nodes in (lax.STENCIL_BLOCK_NODES, 5 * 32):
            monkeypatch.setattr(lax, "STENCIL_BLOCK_NODES", block_nodes)
            derivs.append(_exact_axis_derivative(frame, axis))
        assert np.array_equal(derivs[0], derivs[1])
        errs.append(np.abs(fd4[..., :2] - derivs[0]).max())
    assert errs[0] < (2e-7 if axis == "x" else 4e-9)
    assert errs[0] / errs[1] >= 2**3.8


@pytest.mark.parametrize("case", ["wave128", "flat65-closing"])
def test_frame_does_not_depend_on_the_row_split(wave61, case, monkeypatch):
    # the cell rows of each build of the column march are sampled on their
    # own; sampled from whole-grid trig_upsample planes instead, the frame
    # moves by rounding only (127 cell rows of a 128^2 wave perturbed in y,
    # and 65 of the flat 65^2 closing frame, whose closing row's samples
    # wrap around)
    if case == "wave128":
        u, closing = _wave_y(wave61, 128), False
    else:
        u, closing = _flat(65), True
    rowwise = integrate_frame(u, 0.3, substeps=24, closing=closing).unitary

    def whole_grid(arrays, factor, offsets):
        planes = np.stack([trig_upsample(a, factor, 0, offsets) for a in arrays])
        return lambda rows: planes[:, :, list(rows)]

    monkeypatch.setattr(lax, "row_sampler", whole_grid)
    whole = integrate_frame(u, 0.3, substeps=24, closing=closing).unitary
    assert np.abs(rowwise - whole).max() <= TOL


def _flat(n):
    """u = 0 on the n^2 grid of configs/flat.cfg's periods."""
    return zero_field(PeriodicGrid(n, n, 2 * np.pi, FLAT_LY))


def _lifted(wave61, nx, ny=None):
    """The wave lifted to nx columns and ny (default nx) rows: a field of x
    alone."""
    return lift_1d(wave61, PeriodicGrid(nx, ny or nx, wave61.period, FLAT_LY))


def _wave_y(wave61, n):
    """The wave perturbed in y on n^2, so its column march samples every
    cell row."""
    grid = PeriodicGrid(n, n, wave61.period, FLAT_LY)
    xx, yy = mesh(grid)
    bump = 0.01 * np.cos(2 * np.pi * yy / grid.ly + 0.4) * np.cos(2 * np.pi * xx / grid.lx)
    return ScalarFieldPeriodic(grid, lift_1d(wave61, grid).values + bump)


def test_tabled_row_phases_leave_the_frame_bit_identical(wave61, monkeypatch):
    # the row sampler tables every node row's phases once; forming each cell
    # row's phases on its call instead gives the same frame, bit for bit, on
    # a 128^2 wave perturbed in y with its closing row and column
    u = _wave_y(wave61, 128)
    tabled = integrate_frame(u, 0.3, substeps=24, closing=True).unitary
    monkeypatch.setattr(lax, "row_sampler", row_sampler_per_row)
    assert np.array_equal(integrate_frame(u, 0.3, substeps=24, closing=True).unitary, tabled)


@pytest.mark.parametrize("case", ["wave128", "lifted128", "flat64-closing", "wave64y-closing",
                                  "y64-closing"])
def test_frame_memory_stays_within_one_build_of_samples(wave61, case):
    # integrate_frame's traced peak on a 128^2 wave perturbed in y: 20.8 MB
    # with every half-substep sample of the grid at once, 12.5 MB with half
    # the cell rows' samples, 6.9-7.1 MB with one build's (one cell row; the
    # frame itself is 2.4 MB).  The lifted wave builds its first cell row
    # only, in a workspace of its own (6.9 MB).  On a 64^2 closing frame a
    # build of BUILD_CELLS cells holds two cell rows: 4.1 MB on a wave
    # perturbed in y, against 2.8 MB with one; each march of the flat frame
    # builds one cell, in a workspace of one (1.1 MB).  A field of y alone
    # builds one cell per cell row but samples every column, so its builds
    # take the two cell rows of BUILD_CELLS samples (1.3 MB; 8.9 MB with 64
    # cell rows' samples at once)
    if case == "wave128":
        u, closing, bound = _wave_y(wave61, 128), False, 9e6
    elif case == "lifted128":
        u, closing, bound = _lifted(wave61, 128), False, 9e6
    elif case == "flat64-closing":
        u, closing, bound = _flat(64), True, 5e6
    elif case == "y64-closing":
        u, closing, bound = _y_field(64), True, 5e6
    else:
        u, closing, bound = _wave_y(wave61, 64), True, 5e6
    tracemalloc.start()
    try:
        integrate_frame(u, 0.3, substeps=24, closing=closing)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound


@pytest.mark.parametrize("case", ["flat65-closing", "wave128y-closing"])
def test_frame_does_not_depend_on_the_cells_per_build(wave61, case, monkeypatch):
    # one, two and three cell rows per build of the column march give the
    # same frame bit for bit; at three, 65 and 128 cell rows leave a short
    # last build of two.  The flat field's alike planes would build one cell
    # whatever the build size, so every cell is built
    u = _flat(65) if case == "flat65-closing" else _wave_y(wave61, 128)
    monkeypatch.setattr(lax, "_alike", lambda planes, axis: False)
    frames = []
    for rows in (1, 2, 3):
        monkeypatch.setattr(lax, "BUILD_CELLS", rows * u.grid.nx)
        frames.append(integrate_frame(u, 0.3, substeps=24, closing=True).unitary)
    assert all(np.array_equal(frames[0], other) for other in frames[1:])


def _spied_builds(u, monkeypatch):
    """The cell rows of each sample call of the column march, and the
    (generator, batch) of each schedule made, in integrating u's closing
    frame at theta = 0.3."""
    sampled, built = [], []
    schedule, sampler = lax._schedule, lax.row_sampler

    def schedule_spy(ws, coeff, lam, hs, m, batch):
        built.append((coeff, batch))
        return schedule(ws, coeff, lam, hs, m, batch)

    def sampler_spy(arrays, factor, offsets):
        sample = sampler(arrays, factor, offsets)

        def sample_spy(cell_rows):
            sampled.append(list(cell_rows))
            return sample(cell_rows)

        return sample_spy

    with monkeypatch.context() as patch:
        patch.setattr(lax, "_schedule", schedule_spy)
        patch.setattr(lax, "row_sampler", sampler_spy)
        integrate_frame(u, 0.3, substeps=24, closing=True)
    return sampled, built


@pytest.mark.parametrize("rows", [1, 2, 3])
def test_builds_sample_once_and_share_one_schedule_builder(rows, monkeypatch):
    # 65 cell rows of a 65^2 closing frame, built `rows` at a time: on a
    # field that varies in x and y the column march samples ceil(65 / rows)
    # times, every cell row once in order, no node plane is alike, and both
    # marches make their full batches' schedules with lax._schedule, the
    # first row's 65 cells as 65 steps of one.  On u = 0 the column march
    # samples its first cell row only, and both marches build one cell
    monkeypatch.setattr(lax, "BUILD_CELLS", rows * 65)
    grid = PeriodicGrid(65, 65, 2 * np.pi, FLAT_LY)
    xx, yy = mesh(grid)
    bumped = ScalarFieldPeriodic(grid, 0.01 * np.cos(xx) * np.cos(2 * np.pi * yy / grid.ly + 0.4))
    full = [(lax._coeff_x, (65, 1)), (lax._coeff_y, (rows, 65))]
    full += [(lax._coeff_y, (65 % rows, 65))] * (65 % rows > 0)
    sampled, built = _spied_builds(bumped, monkeypatch)
    assert len(sampled) == math.ceil(65 / rows)
    assert sum(sampled, []) == list(range(65))
    assert built == full
    one_cell = [(lax._coeff_x, (1, 1)), (lax._coeff_y, (1, 1))]
    assert _spied_builds(zero_field(grid), monkeypatch) == ([[0]], one_cell)


def _constant(c):
    """u = c on the 64^2 grid of configs/flat.cfg's periods."""
    return ScalarFieldPeriodic(_flat(64).grid, np.full((64, 64), c))


def _y_field(nx, ny=64):
    """u = 0.2 cos(2 pi y / ly) on nx columns and ny rows: a field of y
    alone."""
    grid = PeriodicGrid(nx, ny, 2 * np.pi, FLAT_LY)
    return ScalarFieldPeriodic(grid, 0.2 * np.cos(2 * np.pi * mesh(grid)[1] / grid.ly))


@pytest.mark.parametrize("case", ["flat64", "u0.4", "y128", "y64", "wave128y"])
def test_uniform_builds_leave_the_frame_bit_identical(wave61, case, monkeypatch):
    # each march asks once whether its node planes are alike along it and
    # across it, and builds one step or one cell per step; with every cell
    # built instead, the closing frame is the same bit for bit.  On
    # flat.cfg's 64^2 torus and on u = 0.4 both marches build one cell, on a
    # field of y alone the first row builds one cell and the column march one
    # cell per cell row, at 128 and at 64 columns, and on the wave perturbed
    # in y only the first row's width of one is alike
    fields = {
        "flat64": lambda: (_flat(64), 0.0, [True, True, True, True]),
        "u0.4": lambda: (_constant(0.4), 0.5, [True, True, True, True]),
        "y128": lambda: (_y_field(128), 0.3, [True, True, False, True]),
        "y64": lambda: (_y_field(64), 0.3, [True, True, False, True]),
        "wave128y": lambda: (_wave_y(wave61, 128), 0.3, [False, True, False, False]),
    }
    u, theta, want = fields[case]()
    alike, seen = lax._alike, []

    def alike_spy(planes, axis):
        seen.append(alike(planes, axis))
        return seen[-1]

    monkeypatch.setattr(lax, "_alike", alike_spy)
    one_cell = integrate_frame(u, theta, substeps=24, closing=True).unitary
    # (along, across) of the first row's march, then of the column march
    assert seen == want
    monkeypatch.setattr(lax, "_alike", lambda planes, axis: False)
    full = integrate_frame(u, theta, substeps=24, closing=True).unitary
    assert np.array_equal(one_cell, full) and one_cell.tobytes() == full.tobytes()


@pytest.mark.parametrize("case", ["y128", "y64", "y48x40"])
def test_field_of_y_alone_builds_one_cell_across(case, monkeypatch):
    # u_x of a field of y alone is exactly zero, some of it -0.0, so the
    # planes are compared as numbers: the column march samples every cell
    # row once, in order, and builds one cell per cell row, the cell rows of
    # BUILD_CELLS samples at a time, and the closing frame is the one
    # building every cell gives, bit for bit
    u = {"y128": lambda: _y_field(128), "y64": lambda: _y_field(64),
         "y48x40": lambda: _y_field(48, 40)}[case]()
    ux = spectral_gradient(u.values, u.grid)[0]
    assert (ux == 0).all() and np.signbit(ux).any()
    sampled, built = _spied_builds(u, monkeypatch)
    assert sum(sampled, []) == list(range(u.grid.ny))
    per_build = max(1, lax.BUILD_CELLS // u.grid.nx)
    assert [batch for coeff, batch in built if coeff is lax._coeff_y] == [(per_build, 1)]
    one_cell = integrate_frame(u, 0.3, substeps=24, closing=True).unitary
    monkeypatch.setattr(lax, "_alike", lambda planes, axis: False)
    full = integrate_frame(u, 0.3, substeps=24, closing=True).unitary
    assert one_cell.tobytes() == full.tobytes()


def test_one_ulp_in_x_builds_every_cell_across(monkeypatch):
    # a field of y alone with one node of one column moved by one ulp is no
    # longer alike across: every build of its 64 cell rows, two at a time,
    # holds every column
    u = _y_field(64)
    values = u.values.copy()
    values[17, 5] = np.nextafter(values[17, 5], np.inf)
    sampled, built = _spied_builds(ScalarFieldPeriodic(u.grid, values), monkeypatch)
    assert len(sampled) == 32 and sum(sampled, []) == list(range(64))
    assert [batch for coeff, batch in built if coeff is lax._coeff_y] == [(2, 64)]


def _x_alone(wave61, case):
    """A field of x alone: flat.cfg's 64^2 torus, u = 0.4, the 128^2 lifted
    wave, or the 64^2 wave seed after Newton, as the solve stage leaves it."""
    if case == "flat64":
        return _flat(64)
    if case == "u0.4":
        return _constant(0.4)
    if case == "lifted128":
        return _lifted(wave61, 128)
    profile = travelling_wave(6.5)
    seed = lift_1d(profile, PeriodicGrid(64, 64, profile.period, FLAT_LY))
    return newton_solve(seed, 1e-10, 20).field


@pytest.mark.parametrize("case", ["flat64", "u0.4", "lifted128"])
def test_field_of_x_alone_samples_one_cell_row(wave61, case, monkeypatch):
    # u and u_x alike on every node row: the column march samples its first
    # cell row once and makes one schedule for it
    sampled, built = _spied_builds(_x_alone(wave61, case), monkeypatch)
    assert sampled == [[0]]
    assert [coeff for coeff, _ in built].count(lax._coeff_y) == 1


@pytest.mark.parametrize("case", ["flat64", "u0.4", "lifted128", "solved64"])
def test_field_of_x_alone_leaves_the_frame_bit_identical(wave61, case, monkeypatch):
    # marching every cell row on the first one's propagators gives the
    # closing frame that sampling and building every cell row gives, bit for
    # bit, here; the solved wave seed's node rows stay alike after Newton
    u = _x_alone(wave61, case)
    assert lax._alike((u.values, spectral_gradient(u.values, u.grid)[0]), 0)
    one_row = integrate_frame(u, 0.3, substeps=24, closing=True).unitary
    monkeypatch.setattr(lax, "_alike", lambda planes, axis: False)
    assert np.array_equal(one_row, integrate_frame(u, 0.3, substeps=24, closing=True).unitary)


@pytest.mark.parametrize("ny", [11, 25, 49])
def test_field_of_x_alone_matches_the_per_row_path_to_rounding(wave61, ny, monkeypatch):
    # at these row counts the sampler's cell rows of a field of x alone
    # differ from each other by FFT rounding, so the frame marched on the
    # first cell row's propagators differs from the per-row one by that
    u = _lifted(wave61, 64, ny)
    one_row = integrate_frame(u, 0.3, substeps=24, closing=True).unitary
    monkeypatch.setattr(lax, "_alike", lambda planes, axis: False)
    per_row = integrate_frame(u, 0.3, substeps=24, closing=True).unitary
    assert np.abs(one_row - per_row).max() <= 1e-14


def test_one_ulp_in_y_samples_every_cell_row(wave61, monkeypatch):
    # a lifted wave with one node of one row moved by one ulp is no longer a
    # field of x alone: its 64 cell rows are sampled, two per build, in order
    u = _lifted(wave61, 64)
    values = u.values.copy()
    values[17, 5] = np.nextafter(values[17, 5], np.inf)
    sampled, _ = _spied_builds(ScalarFieldPeriodic(u.grid, values), monkeypatch)
    assert len(sampled) == 32 and sum(sampled, []) == list(range(64))
