"""Travelling-wave (y-independent) solutions of Delta u = 4 e^{-2u} - 4 e^u.

The 1D reduction u'' = 4 e^{-2u} - 4 e^u is a conservative oscillator with
potential V(u) = 4 e^u + 2 e^{-2u} and energy E = u'^2 / 2 + V(u).  V has its
unique minimum V(0) = 6, so closed orbits exist exactly for E > 6, with the
small-oscillation limit T -> 2 pi / sqrt(V''(0)) = 2 pi / sqrt(12).

In w = e^u the turning condition V(u) = E becomes the cubic
w^3 - (E/4) w^2 + 1/2 = 0, whose three real roots w_neg < 0 < w_lo <= w_hi
factor the energy gap as E - V = 4 (w_hi - w)(w - w_lo)(w - w_neg)/w^2.
Substituting w = w_mid + w_amp sin(phi) turns the turning-point period
integral into the cancellation-free, analytic form

    T(E) = 2^{-1/2} * integral_{-pi/2}^{pi/2} dphi / sqrt(w(phi) - w_neg),

evaluated here by Gauss-Legendre quadrature.  An independent shooting route
(high-order ODE integration with event detection) provides the cross-check.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import IncommensuratePeriodError, NumericalFailure
from .grid import ScalarFieldPeriodic

V_MIN = 6.0
QUADRATURE_NODES = 128  # Gauss-Legendre nodes of period_quadrature
PROFILE_SAMPLES = 512  # samples of one travelling-wave period
DRIFT_SAMPLES = 1024  # orbit points energy_drift checks
DRIFT_TOL = 1e-10  # largest energy drift travelling_wave accepts
PERIOD_REL_TOL = 1e-6  # how close lx must be to a whole number of wave periods


def potential(u):
    return 4.0 * np.exp(u) + 2.0 * np.exp(-2.0 * u)


def _cubic_roots(energy):
    """Roots w_neg < 0 < w_lo <= w_hi of w^3 - (E/4) w^2 + 1/2."""
    if energy <= V_MIN:
        raise ValueError(f"need energy > {V_MIN}, got {energy}")
    roots = np.roots([1.0, -energy / 4.0, 0.0, 0.5])
    if np.abs(roots.imag).max() > 1e-9:
        raise NumericalFailure(f"turning-point cubic lost realness at E={energy}")
    roots = np.sort(roots.real)
    return roots[0], roots[1], roots[2]


def turning_points(energy):
    """u_lo < 0 < u_hi with V(u) = E."""
    _, w_lo, w_hi = _cubic_roots(energy)
    return float(np.log(w_lo)), float(np.log(w_hi))


def period_quadrature(energy):
    w_neg, w_lo, w_hi = _cubic_roots(energy)
    mid, amp = 0.5 * (w_hi + w_lo), 0.5 * (w_hi - w_lo)
    t, wts = np.polynomial.legendre.leggauss(QUADRATURE_NODES)
    phi = 0.5 * np.pi * t
    w = mid + amp * np.sin(phi)
    integrand = 1.0 / np.sqrt(w - w_neg)
    return float(0.5 * np.pi * np.dot(wts, integrand) / np.sqrt(2.0))


def _rhs(_t, state):
    u, v = state
    return (v, 4.0 * np.exp(-2.0 * u) - 4.0 * np.exp(u))


def _shoot(energy):
    """Integrate one orbit starting from the upper turning point.

    The orbit runs u_hi -> u_lo -> u_hi; by time-reversal symmetry the first
    upward crossing of u' = 0 happens exactly at half a period.
    """
    from scipy.integrate import solve_ivp

    _, u_hi = turning_points(energy)
    t_guess = period_quadrature(energy)

    def turning(_t, state):
        return state[1]

    turning.direction = 1.0
    sol = solve_ivp(
        _rhs,
        (0.0, 1.5 * t_guess),
        [u_hi, 0.0],
        method="DOP853",
        rtol=1e-12,
        atol=1e-14,
        dense_output=True,
        events=turning,
    )
    if not sol.success or len(sol.t_events[0]) == 0:
        raise NumericalFailure(f"shooting failed at E={energy}: {sol.message}")
    return 2.0 * float(sol.t_events[0][0]), sol.sol


def period_shooting(energy):
    return _shoot(energy)[0]


@dataclass
class WaveProfile1D:
    """One period of a travelling wave, sampled uniformly from the maximum."""

    period: float
    energy: float
    x: np.ndarray = field(repr=False)
    u: np.ndarray = field(repr=False)
    dense: object = field(repr=False)  # (u, u') at x from the shooting solution

    def __call__(self, x):
        """Evaluate u at arbitrary positions (periodically wrapped)."""
        xm = np.mod(np.asarray(x, dtype=float), self.period)
        return self.dense(np.atleast_1d(xm))[0].reshape(np.shape(xm))


def energy_drift(profile):
    """Max |E(x) - E| along the orbit of the dense solution."""
    t = np.linspace(0.0, profile.period, DRIFT_SAMPLES)
    u, v = profile.dense(t)
    e = 0.5 * v**2 + potential(u)
    return float(np.abs(e - profile.energy).max())


def travelling_wave(energy):
    """One period of the y-independent solution with energy E > 6.

    The profile starts at the maximum, so it is even about x = 0; the period
    comes from shooting and is cross-checkable against period_quadrature.
    """
    period, dense = _shoot(energy)
    x = np.arange(PROFILE_SAMPLES) * (period / PROFILE_SAMPLES)
    u = dense(x)[0]
    profile = WaveProfile1D(period=period, energy=float(energy), x=x, u=u, dense=dense)
    drift = energy_drift(profile)
    if drift > DRIFT_TOL:
        raise NumericalFailure(f"energy drift {drift:.3e} exceeds {DRIFT_TOL:.1e}")
    return profile


def lift_1d(profile, grid):
    """Lift a 1D profile to a y-independent periodic field; grid.lx must be an
    integer multiple of the wave period within PERIOD_REL_TOL."""
    ratio = grid.lx / profile.period
    k = round(ratio)
    if k < 1 or abs(ratio - k) > PERIOD_REL_TOL * max(1.0, ratio):
        raise IncommensuratePeriodError(
            f"lx = {grid.lx:.12g} is not an integer multiple of the wave period "
            f"{profile.period:.12g} (ratio {ratio:.9g})"
        )
    row = profile(grid.x)
    return ScalarFieldPeriodic(grid, np.tile(row, (grid.ny, 1)))
