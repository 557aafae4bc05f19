import numpy as np

from tzitzeica.grid import PeriodicGrid, ScalarFieldPeriodic, ddx, ddy, field_from_function
from tzitzeica.invariants import (
    christoffel_from_field,
    closed_form_tensor,
    codazzi_residual,
    gauss_curvature,
    gauss_residual,
    riemann,
    scalar_invariants,
)
from tzitzeica.linalg3 import hermitian_inner
from tzitzeica.wave import lift_1d

from conftest import loglog_slope
from oracles import (
    christoffel_generic,
    christoffel_planes,
    codazzi_loops,
    gauss_curvature_generic,
    hermitian_induced,
    hermitian_induced_loops,
    riemann_all_planes,
    scalar_invariants_loops,
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


# ---------------------------------------------------------------------------
# connection and curvature
# ---------------------------------------------------------------------------


def test_christoffel_conformal_linear_exponent():
    # the pair is (ddx(u)/2, ddy(u)/2) bit for bit, and every plane built
    # from it is one of them or its negation; for u = a x + b y these are
    # a/2 and b/2 at the nodes the fd4 stencil does not wrap
    a, b = 0.83, -0.41
    g = PeriodicGrid(16, 12, 1.0, 1.3)
    u = field_from_function(g, lambda x, y: a * x + b * y)
    pair = christoffel_from_field(u)
    half_x, half_y = ddx(u.values, g) / 2, ddy(u.values, g) / 2
    assert len(pair) == 2 and np.array_equal(pair[0], half_x) and np.array_equal(pair[1], half_y)
    gam = christoffel_planes(*pair)
    planes = {(0, 0, 0): half_x, (1, 0, 1): half_x, (1, 1, 0): half_x, (0, 1, 1): -half_x,
              (1, 1, 1): half_y, (0, 0, 1): half_y, (0, 1, 0): half_y, (1, 0, 0): -half_y}
    for kij, plane in planes.items():
        assert np.array_equal(gam[kij], plane)
    assert np.abs(half_x[:, 2:-2] - a / 2).max() < 1e-13
    assert np.abs(half_y[2:-2] - b / 2).max() < 1e-13


def test_christoffel_constant_exponent_vanishes():
    g = PeriodicGrid(16, 16, 1.0, 1.0)
    u = ScalarFieldPeriodic(g, np.full((16, 16), 0.7))
    assert np.abs(christoffel_from_field(u)).max() < 1e-14


def test_christoffel_symmetry_in_lower_indices():
    g = PeriodicGrid(16, 16, 1.0, 1.3)
    u = field_from_function(g, lambda x, y: 0.2 * np.sin(2 * np.pi * x) * np.cos(2 * np.pi * y / 1.3))
    gam = christoffel_planes(*christoffel_from_field(u))
    assert np.array_equal(gam, np.swapaxes(gam, 1, 2))


def test_generic_christoffel_agrees_with_conformal_closed_form():
    errs, hs = [], []
    for n in (16, 32, 64):
        g = PeriodicGrid(n, n, 1.0, 1.0)
        u = field_from_function(
            g, lambda x, y: 0.3 * np.cos(2 * np.pi * x) + 0.2 * np.sin(2 * np.pi * y + 1.0)
        )
        gam_closed = christoffel_planes(*christoffel_from_field(u))
        conf = 2.0 * np.exp(u.values)
        metric = np.zeros((2, 2, n, n))
        metric[0, 0] = conf
        metric[1, 1] = conf
        gam_gen = christoffel_generic(metric, g.hx, g.hy)
        errs.append(np.abs(gam_gen - gam_closed).max())
        hs.append(g.hx)
    assert loglog_slope(hs, errs) > 1.9


def test_riemann_zero_connection():
    r = riemann((np.zeros((8, 8)), np.zeros((8, 8))), 0.1, 0.1)
    assert r.shape == (8, 8) and np.abs(r).max() == 0.0


def test_riemann_matches_all_planes_oracle():
    # all 16 components of the generic curvature, quadratic terms included, of
    # the conformal connection on a curved u: r^1_001 = -r^0_101 = riemann,
    # their (i, j) swaps negated, every other component 0, to rounding
    g = PeriodicGrid(16, 12, 1.0, 1.3)
    u = field_from_function(g, lambda x, y: 0.3 * np.sin(2 * np.pi * x) + 0.1 * np.cos(2 * np.pi * y / 1.3))
    pair = christoffel_from_field(u)
    r = riemann(pair, g.hx, g.hy)
    assert r.shape == (12, 16) and np.abs(r).max() > 0.1
    want = np.zeros((2, 2, 2, 2, 12, 16))
    want[1, 0, 0, 1] = want[0, 1, 1, 0] = r
    want[1, 0, 1, 0] = want[0, 1, 0, 1] = -r
    got = riemann_all_planes(christoffel_planes(*pair), g.hx, g.hy)
    assert np.abs(got - want).max() <= 1e-14 * np.abs(r).max()


def test_flat_conformal_metric_curvature_zero():
    g = PeriodicGrid(16, 16, 1.0, 1.0)
    u = ScalarFieldPeriodic(g, np.zeros((16, 16)))
    riem = riemann(christoffel_from_field(u), g.hx, g.hy)
    assert np.abs(gauss_curvature(np.full((16, 16), 2.0), riem)).max() == 0.0


def test_gauss_curvature_matches_generic_contraction():
    # the conformal form -r^1_001 / c against (1/2) g^{kj} r^s_ksj at g = c I
    # of every component of the generic curvature, on a curved conformal metric
    g = PeriodicGrid(16, 12, 1.0, 1.3)
    u = field_from_function(g, lambda x, y: 0.3 * np.sin(2 * np.pi * x) + 0.1 * np.cos(2 * np.pi * y / 1.3))
    pair = christoffel_from_field(u)
    conf = _conformal_factor(u.values, 1.7)
    want = gauss_curvature_generic(_metric(conf), riemann_all_planes(christoffel_planes(*pair), g.hx, g.hy))
    assert np.abs(want).max() > 0.1
    got = gauss_curvature(conf, riemann(pair, g.hx, g.hy))
    assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


def _revolution_torus_curvature(n, scale=1.0):
    """K of the revolution-torus metric diag(1, (2 + cos x)^2) / scale^2 on
    the periodic n x n grid of the coordinates x' = scale * x, y' = scale * y,
    and its exact value cos x / (2 + cos x)."""
    hx, hy = 2 * np.pi * scale / n, scale / n
    xx = np.tile(np.arange(n) * hx / scale, (n, 1))
    metric = np.zeros((2, 2, n, n))
    metric[0, 0] = 1.0 / scale**2
    metric[1, 1] = (2.0 + np.cos(xx)) ** 2 / scale**2
    riem = riemann_all_planes(christoffel_generic(metric, hx, hy), hx, hy)
    return gauss_curvature_generic(metric, riem), np.cos(xx) / (2.0 + np.cos(xx))


def test_revolution_torus_curvature_generic_path():
    # g = diag(1, (2 + cos x)^2) has K = cos x / (2 + cos x); fully periodic,
    # so the oracles' generic connection/curvature path converges at stencil
    # order
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


def _conformal_factor(u, radius=1.0):
    """c = 2 R^2 e^u, the conformal factor of the family's induced metric c I."""
    return 2.0 * radius**2 * np.exp(np.asarray(u, dtype=float))


def _metric(conf):
    """The 2x2 metric field c I of a conformal factor c, for the oracles."""
    return np.einsum("ij,...->ij...", np.eye(2), conf)


def test_scalar_invariants_flat_case():
    t = closed_form_tensor(0.0, 0.0)
    h2, t2, t4 = scalar_invariants(t, _conformal_factor(0.0))
    assert abs(h2) < 1e-15
    assert abs(t2 - 2.0) < 1e-14
    assert abs(t4 - 2.0) < 1e-14


def test_scalar_invariants_log2_case():
    u = np.log(2.0)
    t = closed_form_tensor(u, 0.9)
    h2, t2, t4 = scalar_invariants(t, _conformal_factor(u))
    # the closed form's trace vector cancels exactly
    assert h2 == 0.0
    assert abs(t2 - 0.25) < 1e-14
    assert abs(t4 - 0.03125) < 1e-14


def test_scalar_invariants_zero_tensor():
    h2, t2, t4 = scalar_invariants(np.zeros((2, 2, 2)), 1.0)
    assert h2 == 0.0 and t2 == 0.0 and t4 == 0.0


def test_closed_form_invariants_at_random_nodes():
    rng = np.random.default_rng(11)
    u = rng.uniform(-0.8, 0.8, size=(5, 7))
    theta = 1.234
    radius = 1.7
    t = closed_form_tensor(u, theta)
    h2, t2, t4 = scalar_invariants(t, _conformal_factor(u, radius))
    assert np.abs(h2).max() < 1e-13
    assert np.abs(t2 * radius**2 * np.exp(3 * u) - 2.0).max() < 1e-12
    assert np.abs(t4 * radius**4 * np.exp(6 * u) - 2.0).max() < 1e-12


def test_lowered_tensor_fully_symmetric():
    rng = np.random.default_rng(12)
    u = rng.uniform(-0.5, 0.5, size=(3, 4))
    t = closed_form_tensor(u, 0.37)
    low = _conformal_factor(u, 1.3) * t
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
    """A random mixed tensor t[k, i, j] and a random positive conformal
    factor, node axes last."""
    rng = np.random.default_rng(seed)
    t = rng.uniform(-0.5, 0.5, (2, 2, 2, ny, nx))
    conf = rng.uniform(0.3, 3.0, (ny, nx))
    return rng, t, conf


def _random_nodes(rng, shape, count=6):
    return [(int(rng.integers(shape[0])), int(rng.integers(shape[1]))) for _ in range(count)]


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
    rng, t, conf = _random_fields(23)
    h2, t2, t4 = scalar_invariants(t, conf)
    g = _metric(conf)
    for node in _random_nodes(rng, t.shape[3:]):
        at = (...,) + node
        loops = scalar_invariants_loops(t[at], g[at])
        assert max(abs(a - b) for a, b in zip((h2[node], t2[node], t4[node]), loops)) <= LOOP_TOL


def test_t4_matches_five_operand_contraction():
    _rng, t, conf = _random_fields(25, 9, 11)
    t4 = scalar_invariants(t, conf)[2]
    want = t4_five_operand(t, _metric(conf))
    assert np.abs(t4 - want).max() <= 1e-12 * np.abs(want).max()


def test_codazzi_connection_terms_match_index_loops():
    # the closed form of the pair's connection terms against index loops over
    # all eight planes, at random planes (a, b)
    rng, t, conf = _random_fields(24)
    a, b = rng.uniform(-0.5, 0.5, (2,) + t.shape[3:])
    res = codazzi_residual(t, (a, b), conf, 0.3, 0.2)
    loops = codazzi_loops(t, christoffel_planes(a, b), _metric(conf), 0.3, 0.2)
    for node in _random_nodes(rng, t.shape[3:]):
        assert abs(res[node] - loops[node]) <= LOOP_TOL


# ---------------------------------------------------------------------------
# compatibility residuals on fields
# ---------------------------------------------------------------------------


def test_codazzi_zero_tensor():
    g = PeriodicGrid(16, 16, 1.0, 1.0)
    u = field_from_function(g, lambda x, y: 0.2 * np.sin(2 * np.pi * x))
    gam = christoffel_from_field(u)
    res = codazzi_residual(np.zeros((2, 2, 2, 16, 16)), gam, _conformal_factor(u.values), g.hx, g.hy)
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
        res = codazzi_residual(t, gam, _conformal_factor(u.values), g.hx, g.hy)
        assert res.max() < 1e-12


def test_codazzi_detects_perturbation(wave61):
    g = PeriodicGrid(32, 8, wave61.period, 1.0)
    u = lift_1d(wave61, g)
    t = closed_form_tensor(u.values, 0.4)
    t[0, 0, 0] += 0.1
    gam = christoffel_from_field(u)
    res = codazzi_residual(t, gam, _conformal_factor(u.values), g.hx, g.hy)
    assert res.max() > 1e-2
