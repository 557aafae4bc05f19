import numpy as np
import pytest

from tzitzeica.errors import IncommensuratePeriodError
from tzitzeica.grid import PeriodicGrid
from tzitzeica.solver import pde_residual
from tzitzeica.wave import (
    WaveProfile1D,
    energy_drift,
    lift_1d,
    period_quadrature,
    period_shooting,
    potential,
    travelling_wave,
    turning_points,
)

from conftest import loglog_slope
from oracles import trig_profile

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


@pytest.mark.parametrize("energy", [6.001, 6.1, 6.5, 8.0])
def test_quadrature_matches_shooting(energy):
    tq = period_quadrature(energy)
    ts = period_shooting(energy)
    assert abs(tq - ts) < 1e-8, f"E={energy}: quadrature {tq!r} vs shooting {ts!r}"


def test_energy_conservation_along_profile(wave61):
    assert energy_drift(wave61) < 1e-10


def test_profile_reflection_symmetry(wave61):
    # starting from the maximum the orbit is even: u(-x) = u(x)
    xs = np.linspace(0.0, wave61.period / 2, 64)
    assert np.abs(wave61(xs) - wave61(-xs)).max() < 1e-10


def test_profile_trig_evaluation_matches_dense(wave61):
    xs = np.linspace(0.0, wave61.period, 37)
    assert np.abs(trig_profile(wave61, xs) - wave61(xs)).max() < 1e-10


def test_lift_zero_profile():
    g = PeriodicGrid(16, 8, 1.0, 1.0)
    flat = WaveProfile1D(period=0.5, energy=6.0, x=np.arange(32) / 64.0, u=np.zeros(32),
                         dense=lambda x: np.zeros((2, len(x))))
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
