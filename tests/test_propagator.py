"""The propagator-form frame integrator against the per-substep reference
marcher (tests/reference_march.py), node by node."""

import numpy as np
import pytest

from tzitzeica.grid import PeriodicGrid, zero_field
from tzitzeica.lax import SpectralPoint, frame_axis_stencil, integrate_frame, propagate_psi
from tzitzeica.linalg3 import unitarity_defect_map
from tzitzeica.surface import torus_closure
from tzitzeica.wave import lift_1d

from reference_march import reference_frame, reference_psi, reference_stencil

TOL = 1e-12


@pytest.mark.parametrize("order", ["xy", "yx"])
def test_flat_extended_frame_matches_reference(order):
    # the closing frame is the base plus a one-node extension
    u = zero_field(PeriodicGrid(32, 32, 1.0, 1.0))
    sp = SpectralPoint(0.0)
    frame = integrate_frame(u, sp, substeps=24, closing=True, order=order)
    ref = reference_frame(u, sp, 24, extend=(1, 1), order=order)
    assert frame.unitary.shape == ref.shape == (33, 33, 3, 3)
    assert np.abs(frame.unitary - ref).max() <= TOL


@pytest.fixture(scope="module")
def wave_field(wave61):
    return lift_1d(wave61, PeriodicGrid(32, 32, wave61.period, 1.0))


def _brute_force_closure(u, sp, substeps, order):
    """Closure defects from a reference frame marched over a second period."""
    g = u.grid
    ref = reference_frame(u, sp, substeps, extend=(g.nx, g.ny), order=order)
    base = ref[: g.ny, : g.nx]
    return np.abs(ref[: g.ny, g.nx :] - base).max(), np.abs(ref[g.ny :, : g.nx] - base).max()


@pytest.mark.parametrize("order", ["xy", "yx"])
@pytest.mark.parametrize("case", ["flat", "wave"])
def test_monodromy_closure_matches_brute_force_extension(wave_field, case, order):
    if case == "flat":
        # the closure-matched periods of configs/flat.cfg
        u = zero_field(PeriodicGrid(32, 32, 2 * np.pi, 2 * np.pi / np.sqrt(3)))
        sp, substeps = SpectralPoint(0.0), 24
    else:
        u, sp, substeps = wave_field, SpectralPoint(0.4), 4
    frame = integrate_frame(u, sp, substeps=substeps, closing=True, order=order, blowup=1e-2)
    rep = torus_closure(frame)
    x_defect, y_defect = _brute_force_closure(u, sp, substeps, order)
    assert abs(rep.x_defect - x_defect) <= TOL
    assert abs(rep.y_defect - y_defect) <= TOL
    assert rep.is_candidate == (case == "flat")


@pytest.mark.parametrize("substeps", [1, 3, 4])
def test_wave_frame_matches_reference(wave_field, substeps):
    sp = SpectralPoint(0.4)
    frame = integrate_frame(wave_field, sp, substeps=substeps, blowup=1e-2)
    ref = reference_frame(wave_field, sp, substeps)
    assert np.abs(frame.unitary - ref).max() <= TOL


@pytest.mark.parametrize("axis", ["x", "y"])
def test_axis_stencil_matches_reference(wave_field, axis):
    frame = integrate_frame(wave_field, SpectralPoint(0.4), substeps=4, blowup=1e-2)
    frames, _u_samples = frame_axis_stencil(frame, axis)
    ref = reference_stencil(frame, axis)
    assert len(frames) == len(ref) == 5
    assert max(np.abs(a - b).max() for a, b in zip(frames, ref)) <= TOL


@pytest.mark.parametrize("mode", ["x", "z"])
def test_psi_matches_reference(wave61, mode):
    u = lift_1d(wave61, PeriodicGrid(64, 8, wave61.period, 1.0))
    sp = SpectralPoint(0.4)
    psi0 = np.array([1.0, 0.3 - 0.2j, -0.1 + 0.5j])
    xs, psis = propagate_psi(u, sp, psi0, mode=mode)
    ref = reference_psi(u, sp, psi0, mode=mode)
    assert psis.shape == ref.shape == (65, 3)
    assert np.allclose(xs, np.arange(65) * u.grid.hx)
    assert np.abs(psis - ref).max() <= TOL


def test_psi_periods_reuse_the_first_period(wave61):
    u = lift_1d(wave61, PeriodicGrid(64, 8, wave61.period, 1.0))
    psi0 = np.array([1.0, 0.3 - 0.2j, -0.1 + 0.5j])
    _, one = propagate_psi(u, SpectralPoint(0.4), psi0)
    _, two = propagate_psi(u, SpectralPoint(0.4), psi0, periods=2)
    assert two.shape == (129, 3)
    assert np.array_equal(two[:65], one)


def test_reunitarized_frame_moves_by_at_most_the_drift(wave_field):
    # the polar factor at each cell boundary moves the frame by no more than
    # the unitarity drift it removes
    sp = SpectralPoint(0.4)
    fixed = integrate_frame(wave_field, sp, substeps=4, re_unitarize=True)
    ref = reference_frame(wave_field, sp, 4)
    assert unitarity_defect_map(fixed.unitary).max() < 1e-12
    assert np.abs(fixed.unitary - ref).max() <= unitarity_defect_map(ref).max()
