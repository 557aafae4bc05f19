"""The propagator-form frame integrator against the per-substep reference
marcher (tests/reference_march.py), node by node."""

import tracemalloc

import numpy as np
import pytest

from tzitzeica import lax
from tzitzeica.grid import PeriodicGrid, ScalarFieldPeriodic, spectral_gradient, trig_upsample, zero_field
from tzitzeica.lax import SpectralPoint, frame_axis_stencil, integrate_frame
from tzitzeica.surface import torus_closure
from tzitzeica.wave import lift_1d

from oracles import row_sampler_per_row
from reference_march import reference_frame, reference_stencil

TOL = 1e-12
FLAT_LY = 2.0 * np.pi / np.sqrt(3.0)


def test_flat_extended_frame_matches_reference():
    # the closing frame is the base plus a one-node extension
    u = zero_field(PeriodicGrid(32, 32, 1.0, 1.0))
    sp = SpectralPoint(0.0)
    frame = integrate_frame(u, sp, substeps=24, closing=True)
    ref = reference_frame(u, sp, 24, extend=(1, 1))
    assert frame.unitary.shape == ref.shape == (33, 33, 3, 3)
    assert np.abs(frame.unitary - ref).max() <= TOL


@pytest.fixture(scope="module")
def wave_field(wave61):
    return lift_1d(wave61, PeriodicGrid(32, 32, wave61.period, 1.0))


def _brute_force_closure(u, sp, substeps):
    """Closure defects from a reference frame marched over a second period."""
    g = u.grid
    ref = reference_frame(u, sp, substeps, extend=(g.nx, g.ny))
    base = ref[: g.ny, : g.nx]
    return np.abs(ref[: g.ny, g.nx :] - base).max(), np.abs(ref[g.ny :, : g.nx] - base).max()


@pytest.mark.parametrize("case", ["flat", "wave"])
def test_monodromy_closure_matches_brute_force_extension(wave_field, case):
    if case == "flat":
        # the closure-matched periods of configs/flat.cfg
        u = zero_field(PeriodicGrid(32, 32, 2 * np.pi, 2 * np.pi / np.sqrt(3)))
        sp, substeps = SpectralPoint(0.0), 24
    else:
        u, sp, substeps = wave_field, SpectralPoint(0.4), 4
    frame = integrate_frame(u, sp, substeps=substeps, closing=True)
    rep = torus_closure(frame)
    x_defect, y_defect = _brute_force_closure(u, sp, substeps)
    assert abs(rep.x_defect - x_defect) <= TOL
    assert abs(rep.y_defect - y_defect) <= TOL
    assert (rep.max_defect < 1e-4) == (case == "flat")


@pytest.mark.parametrize("substeps", [1, 2, 3, 4, 5])
def test_wave_frame_matches_reference(wave_field, substeps):
    # odd substep counts carry a cell's last substep past a level of the
    # pairwise product
    sp = SpectralPoint(0.4)
    frame = integrate_frame(wave_field, sp, substeps=substeps)
    ref = reference_frame(wave_field, sp, substeps)
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
        frame = integrate_frame(wave_field, SpectralPoint(0.4), substeps=m)
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
    # each cell row of the column march is sampled on its own; sampled from
    # whole-grid trig_upsample planes instead, the frame moves by rounding
    # only (127 and 65 cell rows, the closing row's samples wrap around)
    if case == "wave128":
        u, closing = lift_1d(wave61, PeriodicGrid(128, 128, wave61.period, FLAT_LY)), False
    else:
        u, closing = zero_field(PeriodicGrid(65, 65, 2 * np.pi, FLAT_LY)), True
    rowwise = integrate_frame(u, SpectralPoint(0.3), closing=closing).unitary

    def whole_grid(arrays, factor, offsets):
        planes = np.stack([trig_upsample(a, factor, 0, offsets) for a in arrays])
        return lambda rows: planes[:, :, list(rows)]

    monkeypatch.setattr(lax, "row_sampler", whole_grid)
    whole = integrate_frame(u, SpectralPoint(0.3), closing=closing).unitary
    assert np.abs(rowwise - whole).max() <= TOL


def test_tabled_row_phases_leave_the_frame_bit_identical(wave61, monkeypatch):
    # the row sampler tables every node row's phases once; forming each cell
    # row's phases on its call instead gives the same frame, bit for bit, on
    # a 128^2 wave perturbed in y with its closing row and column
    grid = PeriodicGrid(128, 128, wave61.period, FLAT_LY)
    xx, yy = grid.mesh()
    bump = 0.01 * np.cos(2 * np.pi * yy / grid.ly + 0.4) * np.cos(2 * np.pi * xx / grid.lx)
    u = ScalarFieldPeriodic(grid, lift_1d(wave61, grid).values + bump)
    tabled = integrate_frame(u, SpectralPoint(0.3), closing=True).unitary
    monkeypatch.setattr(lax, "row_sampler", row_sampler_per_row)
    assert np.array_equal(integrate_frame(u, SpectralPoint(0.3), closing=True).unitary, tabled)


def test_frame_memory_stays_within_one_cell_row_of_samples(wave61):
    # integrate_frame's peak on a 128^2 wave frame: 20.8 MB with every
    # half-substep sample of the grid at once, 12.5 MB with half the cell
    # rows' samples, 6.9 MB with one cell row's (the frame itself is 2.4 MB)
    u = lift_1d(wave61, PeriodicGrid(128, 128, wave61.period, FLAT_LY))
    tracemalloc.start()
    try:
        integrate_frame(u, SpectralPoint(0.3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 9e6
