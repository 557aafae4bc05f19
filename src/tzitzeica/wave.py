"""Travelling-wave (y-independent) solutions of Delta u = 4 e^{-2u} - 4 e^u.

The 1D reduction u'' = 4 e^{-2u} - 4 e^u is a conservative oscillator with
potential V(u) = 4 e^u + 2 e^{-2u} and energy E = u'^2 / 2 + V(u).  V has its
unique minimum V(0) = 6, so closed orbits exist exactly for E > 6, with the
small-oscillation limit T -> 2 pi / sqrt(V''(0)) = 2 pi / sqrt(12).

In w = e^u, V(u) = E is the cubic w^3 - (E/4) w^2 + 1/2 = 0 with real roots
w_neg < 0 < w_lo <= w_hi, and w'^2 = 8 (w_hi - w)(w - w_lo)(w - w_neg).  From
the maximum the orbit is the closed form (Byrd & Friedman, Handbook of
Elliptic Integrals, 1971)

    w(x) = w_hi - (w_hi - w_lo) sn^2(mu x, m) = w_lo + (w_hi - w_lo) cn^2(mu x, m),
    m = (w_hi - w_lo) / (w_hi - w_neg),  mu = sqrt(2 (w_hi - w_neg)),  T = 2 K(m) / mu.

period_quadrature checks T by Gauss-Legendre quadrature of the cancellation-free
T = 2^{-1/2} integral_{-pi/2}^{pi/2} dphi / sqrt(w_mid + w_amp sin(phi) - w_neg), with
w_mid, w_amp = (w_hi +- w_lo) / 2; the tests also check both against ODE shooting.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import IncommensuratePeriodError, NumericalFailure
from .grid import ScalarFieldPeriodic

V_MIN = 6.0
QUADRATURE_NODES = 128  # Gauss-Legendre nodes of period_quadrature
AGM_STEPS = 16  # c_n / a_n falls below 1e-17 within 13 steps for every double 0 < 1 - m <= 1
PROFILE_SAMPLES = 512  # samples of one travelling-wave period
DRIFT_SAMPLES = 1024  # orbit points the energy drift is checked at
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


def period_quadrature(energy):
    w_neg, w_lo, w_hi = _cubic_roots(energy)
    mid, amp = 0.5 * (w_hi + w_lo), 0.5 * (w_hi - w_lo)
    t, wts = np.polynomial.legendre.leggauss(QUADRATURE_NODES)
    phi = 0.5 * np.pi * t
    w = mid + amp * np.sin(phi)
    integrand = 1.0 / np.sqrt(w - w_neg)
    return float(0.5 * np.pi * np.dot(wts, integrand) / np.sqrt(2.0))


def _agm(roots):
    """m, 1 - m (formed without cancellation) and mu of the orbit through the
    cubic's roots, and the last a_N and the ratios c_n / a_n of the AGM
    sequence a_0 = 1, b_0 = sqrt(1 - m), c_0 = sqrt(m), run a fixed AGM_STEPS
    steps (DLMF 19.8, 22.20(ii))."""
    w_neg, w_lo, w_hi = roots
    span = w_hi - w_neg
    m, m1 = (w_hi - w_lo) / span, (w_lo - w_neg) / span
    a, b, c = 1.0, math.sqrt(m1), math.sqrt(m)
    ratios = []
    for _ in range(AGM_STEPS):
        a, b = 0.5 * (a + b), math.sqrt(a * b)
        c = 0.25 * c * c / a  # (a_{n-1} - b_{n-1}) / 2, since a_n^2 - b_n^2 = c_n^2
        ratios.append(c / a)
    return m, m1, math.sqrt(2.0 * span), a, ratios


def _period(roots):
    """2 K(m) / mu, with K(m) = pi / (2 a_N)."""
    _, _, mu, a, _ = _agm(roots)
    return math.pi / (a * mu)


def _orbit(roots, x):
    """(u, u') at x, counted from the maximum; sn and cn by descending the
    AGM ratios from the amplitude 2^N a_N mu x (DLMF 22.20(ii))."""
    _, w_lo, w_hi = roots
    m, m1, mu, a, ratios = _agm(roots)
    phi = 2.0**AGM_STEPS * a * mu * np.asarray(x, dtype=float)
    for ratio in reversed(ratios):
        phi = 0.5 * (phi + np.arcsin(ratio * np.sin(phi)))
    sn, cn = np.sin(phi), np.cos(phi)
    w = w_lo + (w_hi - w_lo) * cn * cn
    dw = -2.0 * (w_hi - w_lo) * mu * sn * cn * np.sqrt(m1 + m * cn * cn)  # dn^2 = 1 - m sn^2
    return np.log(w), dw / w


@dataclass
class WaveProfile1D:
    """One period of a travelling wave, sampled uniformly from the maximum."""

    energy: float
    roots: tuple  # w_neg, w_lo, w_hi of the turning-point cubic
    u: np.ndarray = field(repr=False)
    drift: float  # max |E(x) - E| over DRIFT_SAMPLES points of one period

    @property
    def period(self):
        return _period(self.roots)

    def __call__(self, x):
        """Evaluate u at arbitrary positions (periodically wrapped)."""
        return _orbit(self.roots, np.mod(x, self.period))[0]


def travelling_wave(energy):
    """One period of the y-independent solution with energy E > 6, even about
    its maximum at x = 0; raises NumericalFailure unless the energy drift is
    at most DRIFT_TOL."""
    roots = _cubic_roots(energy)
    period = _period(roots)
    # an orbit beyond double precision overflows; the drift gate rejects it
    with np.errstate(over="ignore", invalid="ignore"):
        u, v = _orbit(roots, np.linspace(0.0, period, DRIFT_SAMPLES))
        drift = float(np.abs(0.5 * v**2 + potential(u) - energy).max())
    if not drift <= DRIFT_TOL:
        raise NumericalFailure(f"energy drift {drift:.3e} exceeds {DRIFT_TOL:.1e}")
    x = np.arange(PROFILE_SAMPLES) * (period / PROFILE_SAMPLES)
    return WaveProfile1D(float(energy), roots, _orbit(roots, x)[0], drift)


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
