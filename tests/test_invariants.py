import numpy as np
import pytest

from tzitzeica.errors import DegenerateMetricError
from tzitzeica.grid import PeriodicGrid, ScalarFieldPeriodic, field_from_function
from tzitzeica import invariants
from tzitzeica.invariants import (
    check_spd,
    christoffel_conformal,
    christoffel_from_field,
    closed_form_tensor,
    codazzi_residual,
    gauss_curvature,
    gauss_residual,
    hermitian_induced,
    lower_tensor,
    riemann,
    scalar_invariants,
)
from tzitzeica.linalg3 import hermitian_inner
from tzitzeica.wave import lift_1d

from conftest import loglog_slope
from oracles import (
    christoffel_generic,
    codazzi_loops,
    hermitian_induced_loops,
    lower_tensor_loops,
    riemann_all_planes,
    scalar_invariants_loops,
    spd_eigenvalues_eigvalsh,
    t4_five_operand,
)

E1 = np.array([1.0, 0.0, 0.0], dtype=complex)
E2 = np.array([0.0, 1.0, 0.0], dtype=complex)


# ---------------------------------------------------------------------------
# induced metric and algebraic tensors
# ---------------------------------------------------------------------------


def test_hermitian_induced_orthonormal_pair():
    g, om = hermitian_induced(E1, E2)
    assert np.allclose(g, np.eye(2))
    assert np.allclose(om, 0.0)


def test_hermitian_induced_complex_pair():
    g, om = hermitian_induced(E1, 1j * E1)
    assert np.allclose(g, np.eye(2))
    assert om[0, 1] == 1.0 and om[1, 0] == -1.0
    # skew form agrees with the Euclidean product against the rotated vector
    e2 = 1j * E1
    assert abs(om[0, 1] - hermitian_inner(1j * E1, e2).real) < 1e-15


def test_hermitian_induced_rejects_degenerate():
    with pytest.raises(DegenerateMetricError):
        hermitian_induced(E1, E1)


# ---------------------------------------------------------------------------
# connection and curvature
# ---------------------------------------------------------------------------


def test_christoffel_conformal_linear_exponent():
    alpha = 0.83
    ux = np.full((4, 4), alpha)
    uy = np.zeros((4, 4))
    gam = christoffel_conformal(ux, uy)
    assert np.allclose(gam[0, 0, 0], alpha / 2)
    assert np.allclose(gam[1, 0, 1], alpha / 2)
    assert np.allclose(gam[0, 1, 1], -alpha / 2)
    assert np.allclose(gam[1, 0, 0], 0.0)


def test_christoffel_constant_exponent_vanishes():
    g = PeriodicGrid(16, 16, 1.0, 1.0)
    u = ScalarFieldPeriodic(g, np.full((16, 16), 0.7))
    assert np.abs(christoffel_from_field(u)).max() < 1e-14


def test_christoffel_symmetry_in_lower_indices():
    g = PeriodicGrid(16, 16, 1.0, 1.3)
    u = field_from_function(g, lambda x, y: 0.2 * np.sin(2 * np.pi * x) * np.cos(2 * np.pi * y / 1.3))
    gam = christoffel_from_field(u)
    assert np.array_equal(gam, np.swapaxes(gam, 1, 2))


def test_generic_christoffel_agrees_with_conformal_closed_form():
    errs, hs = [], []
    for n in (16, 32, 64):
        g = PeriodicGrid(n, n, 1.0, 1.0)
        u = field_from_function(
            g, lambda x, y: 0.3 * np.cos(2 * np.pi * x) + 0.2 * np.sin(2 * np.pi * y + 1.0)
        )
        gam_closed = christoffel_from_field(u)
        conf = 2.0 * np.exp(u.values)
        metric = np.zeros((2, 2, n, n))
        metric[0, 0] = conf
        metric[1, 1] = conf
        gam_gen = christoffel_generic(metric, g.hx, g.hy)
        errs.append(np.abs(gam_gen - gam_closed).max())
        hs.append(g.hx)
    assert loglog_slope(hs, errs) > 1.9


def test_riemann_zero_connection():
    gam = np.zeros((2, 2, 2, 8, 8))
    assert np.abs(riemann(gam, 0.1, 0.1)).max() == 0.0


def test_riemann_antisymmetry_exact():
    g = PeriodicGrid(16, 16, 1.0, 1.0)
    u = field_from_function(g, lambda x, y: 0.3 * np.sin(2 * np.pi * x) + 0.1 * np.cos(2 * np.pi * y))
    riem = riemann(christoffel_from_field(u), g.hx, g.hy)
    assert np.abs(riem + np.swapaxes(riem, 2, 3)).max() == 0.0
    assert np.abs(riem).max() > 0.0


def test_riemann_matches_all_planes_oracle():
    g = PeriodicGrid(16, 12, 1.0, 1.3)
    u = field_from_function(g, lambda x, y: 0.3 * np.sin(2 * np.pi * x) + 0.1 * np.cos(2 * np.pi * y / 1.3))
    generic = np.random.default_rng(9).uniform(-0.5, 0.5, (2, 2, 2, 12, 16))
    for gam in (christoffel_from_field(u), generic):
        assert np.array_equal(riemann(gam, g.hx, g.hy), riemann_all_planes(gam, g.hx, g.hy))


def test_flat_conformal_metric_curvature_zero():
    g = PeriodicGrid(16, 16, 1.0, 1.0)
    u = ScalarFieldPeriodic(g, np.zeros((16, 16)))
    riem = riemann(christoffel_from_field(u), g.hx, g.hy)
    metric = np.zeros((2, 2, 16, 16))
    metric[0, 0] = 2.0
    metric[1, 1] = 2.0
    assert np.abs(gauss_curvature(metric, riem)).max() == 0.0


def _revolution_torus_curvature(n, scale=1.0):
    """K of the revolution-torus metric diag(1, (2 + cos x)^2) / scale^2 on
    the periodic n x n grid of the coordinates x' = scale * x, y' = scale * y,
    and its exact value cos x / (2 + cos x)."""
    hx, hy = 2 * np.pi * scale / n, scale / n
    xx = np.tile(np.arange(n) * hx / scale, (n, 1))
    metric = np.zeros((2, 2, n, n))
    metric[0, 0] = 1.0 / scale**2
    metric[1, 1] = (2.0 + np.cos(xx)) ** 2 / scale**2
    riem = riemann(christoffel_generic(metric, hx, hy), hx, hy)
    return gauss_curvature(metric, riem), np.cos(xx) / (2.0 + np.cos(xx))


def test_revolution_torus_curvature_generic_path():
    # g = diag(1, (2 + cos x)^2) has K = cos x / (2 + cos x); fully periodic,
    # so the generic connection/curvature path converges at stencil order
    errs, hs = [], []
    for n in (32, 64, 128):
        k, exact = _revolution_torus_curvature(n)
        errs.append(np.abs(k - exact).max())
        hs.append(2 * np.pi / n)
    assert loglog_slope(hs, errs) > 1.9


def test_gauss_curvature_invariant_under_geometry_preserving_rescale():
    # scaling both coordinates by 2 and the metric by 1/4 keeps the geometry,
    # so K is the same up to rounding
    k, exact = _revolution_torus_curvature(64)
    k2, _ = _revolution_torus_curvature(64, scale=2.0)
    assert np.abs(k2 - k).max() < 1e-12
    assert np.abs(k2 - exact).max() < 1e-4


# ---------------------------------------------------------------------------
# cubic form invariants
# ---------------------------------------------------------------------------


def _conformal_metric(u, radius=1.0):
    c = 2.0 * radius**2 * np.exp(np.asarray(u, dtype=float))
    g = np.zeros((2, 2) + np.shape(u))
    g[0, 0] = c
    g[1, 1] = c
    return g


def test_scalar_invariants_flat_case():
    t = closed_form_tensor(0.0, 0.0)
    h2, t2, t4 = scalar_invariants(t, _conformal_metric(0.0))
    assert abs(h2) < 1e-15
    assert abs(t2 - 2.0) < 1e-14
    assert abs(t4 - 2.0) < 1e-14


def test_scalar_invariants_log2_case():
    u = np.log(2.0)
    t = closed_form_tensor(u, 0.9)
    h2, t2, t4 = scalar_invariants(t, _conformal_metric(u))
    assert abs(t2 - 0.25) < 1e-14
    assert abs(t4 - 0.03125) < 1e-14


def test_scalar_invariants_zero_tensor():
    h2, t2, t4 = scalar_invariants(np.zeros((2, 2, 2)), np.eye(2))
    assert h2 == 0.0 and t2 == 0.0 and t4 == 0.0


def test_closed_form_invariants_at_random_nodes():
    rng = np.random.default_rng(11)
    u = rng.uniform(-0.8, 0.8, size=(5, 7))
    theta = 1.234
    radius = 1.7
    t = closed_form_tensor(u, theta)
    h2, t2, t4 = scalar_invariants(t, _conformal_metric(u, radius))
    assert np.abs(h2).max() < 1e-13
    assert np.abs(t2 * radius**2 * np.exp(3 * u) - 2.0).max() < 1e-12
    assert np.abs(t4 * radius**4 * np.exp(6 * u) - 2.0).max() < 1e-12


def test_lowered_tensor_fully_symmetric():
    rng = np.random.default_rng(12)
    u = rng.uniform(-0.5, 0.5, size=(3, 4))
    t = closed_form_tensor(u, 0.37)
    low = lower_tensor(t, _conformal_metric(u, 1.3))
    for perm in ((0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)):
        permuted = np.transpose(low, perm + (3, 4))
        assert np.abs(low - permuted).max() < 1e-12


def test_gauss_residual_arithmetic():
    assert gauss_residual(0.0, 0.0, 2.0, 1.0) == 0.0
    assert gauss_residual(1.0, 0.0, 2.0, 1.0) == 2.0


# ---------------------------------------------------------------------------
# the contractions against index loops, at random nodes of random fields
# ---------------------------------------------------------------------------

LOOP_TOL = 1e-13


def _random_fields(seed, ny=5, nx=7):
    """A random mixed tensor t[k, i, j] and a random non-conformal SPD metric,
    node axes last."""
    rng = np.random.default_rng(seed)
    t = rng.uniform(-0.5, 0.5, (2, 2, 2, ny, nx))
    a = rng.uniform(-0.4, 0.4, (2, 2, ny, nx))
    g = np.einsum("ik...,jk...->ij...", a, a)
    g[0, 0] += 1.0
    g[1, 1] += 0.7
    return rng, t, g


def _random_nodes(rng, shape, count=6):
    return [(int(rng.integers(shape[0])), int(rng.integers(shape[1]))) for _ in range(count)]


def test_lower_tensor_matches_index_loops():
    rng, t, g = _random_fields(21)
    low = lower_tensor(t, g)
    for node in _random_nodes(rng, t.shape[3:]):
        at = (...,) + node
        assert np.abs(low[at] - lower_tensor_loops(t[at], g[at])).max() <= LOOP_TOL


def test_hermitian_induced_matches_index_loops():
    rng = np.random.default_rng(22)
    e1, e2 = (rng.standard_normal((3, 5, 7)) + 1j * rng.standard_normal((3, 5, 7)) for _ in range(2))
    g, om = hermitian_induced(e1, e2)
    assert np.abs(g[0, 0] - g[1, 1]).min() > 1e-3  # not conformal
    for node in _random_nodes(rng, (5, 7)):
        at = (...,) + node
        g_loop, om_loop = hermitian_induced_loops(e1[at], e2[at])
        assert np.abs(g[at] - g_loop).max() <= LOOP_TOL
        assert np.abs(om[at] - om_loop).max() <= LOOP_TOL


def test_scalar_invariants_match_index_loops():
    rng, t, g = _random_fields(23)
    h2, t2, t4 = scalar_invariants(t, g)
    for node in _random_nodes(rng, t.shape[3:]):
        at = (...,) + node
        loops = scalar_invariants_loops(t[at], g[at])
        assert max(abs(a - b) for a, b in zip((h2[node], t2[node], t4[node]), loops)) <= LOOP_TOL


def test_t4_matches_five_operand_contraction():
    _rng, t, g = _random_fields(25, 9, 11)
    assert np.abs(g[0, 1]).min() > 0.0  # not conformal
    t4 = scalar_invariants(t, g)[2]
    want = t4_five_operand(t, g)
    assert np.abs(t4 - want).max() <= 1e-12 * np.abs(want).max()


def test_spd_check_matches_eigvalsh():
    # a random non-conformal metric with planted degenerate (rank one) and
    # indefinite nodes
    rng, _t, g = _random_fields(26, 9, 11)
    for node in _random_nodes(rng, g.shape[2:], 5):
        v = rng.uniform(-1.0, 1.0, 2)
        g[(...,) + node] = np.outer(v, v)
    for node in _random_nodes(rng, g.shape[2:], 4):
        angle = rng.uniform(0.0, np.pi)
        rot = np.array([[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]])
        g[(...,) + node] = rot @ np.diag([rng.uniform(0.5, 2.0), -rng.uniform(0.5, 2.0)]) @ rot.T
    lo, hi = invariants._eigenvalues2(g)
    lo_want, hi_want = spd_eigenvalues_eigvalsh(g)
    scale = np.maximum(np.abs(lo_want), np.abs(hi_want))
    assert np.all(np.abs(lo - lo_want) <= 1e-12 * scale)
    assert np.all(np.abs(hi - hi_want) <= 1e-12 * scale)
    flagged = int(np.count_nonzero(lo_want <= invariants.SPD_EIG_RATIO * np.abs(hi_want)))
    assert flagged >= 5
    with pytest.raises(DegenerateMetricError, match=rf"degenerate at {flagged} node\(s\)"):
        check_spd(g)


def test_codazzi_connection_terms_match_index_loops():
    rng, t, g = _random_fields(24)
    gamma = rng.uniform(-0.5, 0.5, (2, 2, 2) + t.shape[3:])
    res = codazzi_residual(t, gamma, g, 0.3, 0.2)
    loops = codazzi_loops(t, gamma, g, 0.3, 0.2)
    for node in _random_nodes(rng, t.shape[3:]):
        assert abs(res[node] - loops[node]) <= LOOP_TOL


# ---------------------------------------------------------------------------
# compatibility residuals on fields
# ---------------------------------------------------------------------------


def test_codazzi_zero_tensor():
    g = PeriodicGrid(16, 16, 1.0, 1.0)
    u = field_from_function(g, lambda x, y: 0.2 * np.sin(2 * np.pi * x))
    gam = christoffel_from_field(u)
    res = codazzi_residual(np.zeros((2, 2, 2, 16, 16)), gam, _conformal_metric(u.values), g.hx, g.hy)
    assert np.abs(res).max() == 0.0


def test_codazzi_closed_form_vanishes(wave61):
    # the closed-form tensor satisfies the compatibility identity pointwise
    # (its lowered components are constant and the connection contractions
    # cancel algebraically), so the residual sits at rounding level
    for n in (16, 32, 64):
        g = PeriodicGrid(n, 8, wave61.period, 1.0)
        u = lift_1d(wave61, g)
        t = closed_form_tensor(u.values, 0.4)
        gam = christoffel_from_field(u)
        res = codazzi_residual(t, gam, _conformal_metric(u.values), g.hx, g.hy)
        assert res.max() < 1e-12


def test_codazzi_detects_perturbation(wave61):
    g = PeriodicGrid(32, 8, wave61.period, 1.0)
    u = lift_1d(wave61, g)
    t = closed_form_tensor(u.values, 0.4)
    t[0, 0, 0] += 0.1
    gam = christoffel_from_field(u)
    res = codazzi_residual(t, gam, _conformal_metric(u.values), g.hx, g.hy)
    assert res.max() > 1e-2
