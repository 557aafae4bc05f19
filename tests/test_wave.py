import numpy as np
import pytest

from tzitzeica.errors import IncommensuratePeriodError
from tzitzeica.grid import PeriodicGrid
from tzitzeica.wave import (
    DRIFT_TOL,
    WaveProfile1D,
    lift_1d,
    period_quadrature,
    potential,
    travelling_wave,
)

from conftest import loglog_slope
from oracles import pde_residual, shoot, trig_profile, turning_points

SMALL_OSC_PERIOD = 2.0 * np.pi / np.sqrt(12.0)


def test_energy_domain():
    with pytest.raises(ValueError):
        travelling_wave(6.0)
    with pytest.raises(ValueError):
        period_quadrature(5.0)


def test_potential_minimum():
    assert potential(0.0) == 6.0
    u = np.linspace(-1.0, 1.0, 201)
    assert potential(u).min() >= 6.0


def test_turning_points_bracket_zero():
    lo, hi = turning_points(6.1)
    assert lo < 0.0 < hi
    assert abs(potential(lo) - 6.1) < 1e-12
    assert abs(potential(hi) - 6.1) < 1e-12


def test_small_oscillation_limit():
    assert abs(period_quadrature(6.0001) - SMALL_OSC_PERIOD) < 1e-3 * SMALL_OSC_PERIOD


@pytest.mark.parametrize("energy", [6.001, 6.1, 6.5, 8.0, 20.0])
def test_quadrature_matches_shooting(energy):
    tq = period_quadrature(energy)
    ts, dense = shoot(energy)
    assert abs(tq - ts) < 1e-8, f"E={energy}: quadrature {tq!r} vs shooting {ts!r}"
    # the closed form against both: its period, and its samples along the shot orbit
    profile = travelling_wave(energy)
    assert abs(profile.period - tq) < 1e-12, f"E={energy}: closed form {profile.period!r} vs {tq!r}"
    assert abs(profile.period - ts) < 1e-8, f"E={energy}: closed form {profile.period!r} vs {ts!r}"
    x = np.arange(len(profile.u)) * (profile.period / len(profile.u))
    assert np.abs(profile.u - dense(x)[0]).max() < 1e-10


def test_energy_conservation_along_profile(wave61):
    assert wave61.drift < 1e-10


@pytest.mark.parametrize("energy", [20.0, 100.0])
def test_travelling_wave_passes_drift_gate(energy):
    # a DOP853 orbit at rtol 1e-12 drifts by 5.4e-10 at E = 100, above the gate
    assert travelling_wave(energy).drift <= DRIFT_TOL


def test_profile_reflection_symmetry(wave61):
    # starting from the maximum the orbit is even: u(-x) = u(x)
    xs = np.linspace(0.0, wave61.period / 2, 64)
    assert np.abs(wave61(xs) - wave61(-xs)).max() < 1e-10


def test_profile_trig_evaluation_matches_dense(wave61):
    xs = np.linspace(0.0, wave61.period, 37)
    assert np.abs(trig_profile(wave61, xs) - wave61(xs)).max() < 1e-10


def test_lift_zero_profile():
    # the E = 6 cubic (w - 1)^2 (w + 1/2) is the flat orbit's limit, w = 1,
    # whose period is the small-oscillation limit
    flat = WaveProfile1D(energy=6.0, roots=(-0.5, 1.0, 1.0), u=np.zeros(32), drift=0.0)
    assert abs(flat.period - SMALL_OSC_PERIOD) < 1e-15
    g = PeriodicGrid(16, 8, SMALL_OSC_PERIOD, 1.0)
    lifted = lift_1d(flat, g)
    assert np.all(lifted.values == 0.0)


def test_lift_commensurate_and_residual_order(wave61):
    errs, hs = [], []
    for n in (32, 64, 128):
        g = PeriodicGrid(n, 8, wave61.period, 1.0)
        u = lift_1d(wave61, g)
        errs.append(np.abs(pde_residual(u)).max())
        hs.append(g.hx)
    assert loglog_slope(hs, errs) > 3.5


def test_lift_incommensurate_raises(wave61):
    g = PeriodicGrid(32, 8, 1.5 * wave61.period, 1.0)
    with pytest.raises(IncommensuratePeriodError):
        lift_1d(wave61, g)


def test_lift_multiple_periods(wave61):
    g = PeriodicGrid(64, 8, 2.0 * wave61.period, 1.0)
    u = lift_1d(wave61, g)
    assert np.abs(u.values[:, :32] - u.values[:, 32:]).max() < 1e-12
