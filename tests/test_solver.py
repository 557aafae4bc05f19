import numpy as np
import pytest

from tzitzeica import solver
from tzitzeica.errors import NewtonDivergenceError, ResonanceError
from tzitzeica.grid import PeriodicGrid, ScalarFieldPeriodic, zero_field
from tzitzeica.solver import laplacian_matrix, laplacian_symbol, minres, newton_solve, splu
from tzitzeica.wave import lift_1d, travelling_wave

from conftest import field_from_function, loglog_slope, mesh
from oracles import laplacian_fd4, minres_allocating, newton_lu, pde_residual


def test_residual_zero_field():
    g = PeriodicGrid(16, 16, 1.0, 1.0)
    assert np.abs(pde_residual(zero_field(g))).max() == 0.0


def test_residual_constant_log2():
    g = PeriodicGrid(16, 16, 1.0, 1.0)
    u = ScalarFieldPeriodic(g, np.full((16, 16), np.log(2.0)))
    r = pde_residual(u)
    assert np.abs(r - 7.0).max() < 1e-12


def test_residual_matches_symbolic_evaluation():
    # analytic Laplacian of a smooth non-solution, compared at 4th order
    errs, hs = [], []
    for n in (32, 64, 128):
        g = PeriodicGrid(n, n, 1.0, 2.0)
        kx, ky = 2 * np.pi / g.lx, 4 * np.pi / g.ly

        def f(x, y):
            return 0.3 * np.sin(kx * x) * np.cos(ky * y)

        u = field_from_function(g, f)
        xx, yy = mesh(g)
        lap_exact = -(kx**2 + ky**2) * f(xx, yy)
        exact = lap_exact - 4.0 * np.exp(-2.0 * u.values) + 4.0 * np.exp(u.values)
        errs.append(np.abs(pde_residual(u) - exact).max())
        hs.append(g.hx)
    assert loglog_slope(hs, errs) > 3.5


def test_laplacian_matrix_equals_dense_circulant():
    g = PeriodicGrid(12, 9, 1.1, 0.8)

    def dense_dxx(n, h):
        eye = np.eye(n)
        taps = {0: -30.0, 1: 16.0, -1: 16.0, 2: -1.0, -2: -1.0}
        return sum(c / (12.0 * h * h) * np.roll(eye, k, axis=1) for k, c in taps.items())

    dense = np.kron(np.eye(g.ny), dense_dxx(g.nx, g.hx)) + np.kron(dense_dxx(g.ny, g.hy), np.eye(g.nx))
    assert np.array_equal(laplacian_matrix(g).toarray(), dense)


def test_laplacian_matrix_matches_stencil():
    g = PeriodicGrid(12, 9, 1.1, 0.8)
    rng = np.random.default_rng(0)
    vals = rng.standard_normal((9, 12))
    direct = laplacian_fd4(vals, g)
    via_matrix = (laplacian_matrix(g) @ vals.ravel()).reshape(9, 12)
    assert np.abs(direct - via_matrix).max() < 1e-12


def test_newton_zero_seed_returns_immediately():
    g = PeriodicGrid(16, 16, 1.0, 1.0)
    res = newton_solve(zero_field(g), 1e-10, 30)
    assert res.iterations == 0
    assert res.final_residual == 0.0
    assert np.all(res.field.values == 0.0)


def test_newton_quadratic_from_cosine_seed():
    g = PeriodicGrid(64, 64, 1.0, 0.9)
    u0 = field_from_function(g, lambda x, y: 0.2 * np.cos(2 * np.pi * x / g.lx))
    res = newton_solve(u0, 1e-11, 40)
    assert res.final_residual < 1e-11
    rs = res.residuals
    assert len(rs) >= 4
    ratios = [b / a**2 for a, b in zip(rs, rs[1:])]
    assert max(ratios) < 1e3
    # the limit is the unique constant solution u = 0
    assert np.abs(res.field.values).max() < 1e-12


@pytest.fixture(scope="module")
def perturbed_wave64():
    """The lifted E = 6.5 wave on 64^2 plus 0.02 cos(2 pi y / ly), and the lift."""
    profile = travelling_wave(6.5)
    g = PeriodicGrid(64, 64, profile.period, 2.0 * np.pi / np.sqrt(3.0))
    lift = lift_1d(profile, g)
    _xx, yy = mesh(g)
    return ScalarFieldPeriodic(g, lift.values + 0.02 * np.cos(2 * np.pi * yy / g.ly)), lift


def test_splu_ordering_has_less_fill_than_colamd(perturbed_wave64):
    import scipy.sparse as sp
    from scipy.sparse.linalg import splu as superlu

    seed, _lift = perturbed_wave64
    v = seed.values.ravel()
    jac = (laplacian_matrix(seed.grid) + sp.diags(8.0 * np.exp(-2.0 * v) + 4.0 * np.exp(v))).tocsc()
    lu = splu(jac)
    colamd = superlu(jac, permc_spec="COLAMD")
    # measured 0.67M against 1.03M
    assert lu.L.nnz + lu.U.nnz < 0.8 * (colamd.L.nnz + colamd.U.nnz)
    rhs = np.random.default_rng(0).standard_normal(v.size)
    assert np.abs(jac @ lu.solve(rhs) - rhs).max() < 1e-8


def test_minres_solves_a_symmetric_indefinite_system():
    rng = np.random.default_rng(3)
    q, _ = np.linalg.qr(rng.standard_normal((40, 40)))
    a = (q * np.concatenate([-np.linspace(1.0, 5.0, 15), np.linspace(0.5, 9.0, 25)])) @ q.T
    b = rng.standard_normal(40)
    scale = 1.0 + np.arange(40) / 40.0

    def apply(r):
        z = r / scale
        return z, a @ z

    x, iterations, converged = minres(apply, b, 1e-13, 200)
    assert converged and iterations <= 60
    assert np.abs(x - np.linalg.solve(a, b)).max() < 1e-10
    _x, iterations, converged = minres(apply, b, 1e-13, 3)
    assert (iterations, converged) == (3, False)


def test_minres_keeps_an_apply_that_returns_its_argument():
    # with M = I, apply hands back the very vector it was given, which the
    # in-place recurrence keeps reading; b itself is never written
    rng = np.random.default_rng(4)
    q, _ = np.linalg.qr(rng.standard_normal((30, 30)))
    a = (q * np.concatenate([-np.linspace(1.0, 3.0, 10), np.linspace(0.5, 6.0, 20)])) @ q.T
    b = rng.standard_normal(30)
    kept = b.copy()

    def apply(r):
        return r, a @ r

    for maxiter in (200, 4):
        got = minres(apply, b, 1e-13, maxiter)
        want = minres_allocating(apply, b, 1e-13, maxiter)
        assert np.array_equal(got[0], want[0]) and got[1:] == want[1:]
    assert np.array_equal(b, kept)
    assert np.abs(minres(apply, b, 1e-13, 200)[0] - np.linalg.solve(a, b)).max() < 1e-10


def test_spectral_jacobian_matches_the_stencil():
    # sigma is the fd4 stencil's circulant, so J M^-1 r from the spectrum
    # agrees with the stencil Laplacian of M^-1 r, on even and odd grids
    rng = np.random.default_rng(5)
    for g in (PeriodicGrid(12, 9, 1.1, 0.8), PeriodicGrid(16, 16, 1.0, 1.0)):
        d = 4.0 + rng.uniform(0.0, 8.0, (g.ny, g.nx))
        r = rng.standard_normal((g.ny, g.nx))
        z, jz = solver._preconditioned_jacobian(laplacian_symbol(g), d)(r)
        want = laplacian_fd4(z, g) + d * z
        assert np.abs(jz - want).max() < 1e-12 * np.abs(want).max()


@pytest.fixture(scope="module")
def wave128_seed():
    """The wave128-newton benchmark seed: the lifted E = 6.5 wave on 128^2
    plus a smooth perturbation of sup norm 0.02, even in x."""
    profile = travelling_wave(6.5)
    g = PeriodicGrid(128, 128, profile.period, 2.0 * np.pi / np.sqrt(3.0))
    xx, yy = mesh(g)
    kx, ky = 2.0 * np.pi * xx / g.lx, 2.0 * np.pi * yy / g.ly
    shape = (np.cos(ky) + 0.6 * np.cos(kx) * np.cos(ky + 0.7)
             + 0.4 * np.cos(2.0 * kx) * np.cos(2.0 * ky + 1.9) + 0.3 * np.cos(kx))
    return ScalarFieldPeriodic(g, lift_1d(profile, g).values + 0.02 * shape / np.abs(shape).max())


def test_residual_laplacian_is_the_stencil(wave128_seed):
    # the residual applies the fd4 Laplacian through its symbol table, the
    # stencil's circulant, so the two agree to rounding of max|sigma| max|u|
    # (measured 9.1e-13 and 3.6e-12, bounds 4.3e-11 and 1.1e-10)
    g = PeriodicGrid(12, 9, 1.1, 0.8)
    rng = np.random.default_rng(3)
    for u in (ScalarFieldPeriodic(g, rng.standard_normal((9, 12))), wave128_seed):
        vals = u.values
        lap = pde_residual(u) + 4.0 * np.exp(-2.0 * vals) - 4.0 * np.exp(vals)
        scale = np.abs(laplacian_symbol(u.grid)).max() * np.abs(vals).max()
        assert np.abs(lap - laplacian_fd4(vals, u.grid)).max() <= 1e-14 * scale


def test_newton_matches_lu_oracle_on_wave128_seed(wave128_seed):
    res = newton_solve(wave128_seed, 1e-10, 20)
    want, history = newton_lu(wave128_seed.values, wave128_seed.grid, 1e-10, 20)
    assert res.iterations == len(history) - 1 == 3
    # the forcing terms stop steps 1 and 2 early: 21 + 12 + 11 measured,
    # against 21 + 27 + 29 with every step solved to MINRES_RTOL
    assert len(res.minres_iterations) == 3
    assert sum(res.minres_iterations) <= 50
    assert res.final_residual < 1e-10
    # measured 1.2e-9: the two differ along the wave's translation mode
    assert np.abs(res.field.values - want).max() < 1e-8


def test_first_step_is_exact_and_later_steps_are_forced(wave128_seed, monkeypatch):
    tolerances = []

    def spy(apply, b, rtol, maxiter):
        tolerances.append(rtol)
        return minres(apply, b, rtol, maxiter)

    monkeypatch.setattr(solver, "minres", spy)
    newton_solve(wave128_seed, 1e-10, 20)
    assert len(tolerances) == 3
    assert tolerances[0] == solver.MINRES_RTOL
    assert all(solver.MINRES_RTOL <= eta <= solver.FORCING_MAX for eta in tolerances[1:])
    # Eisenstat-Walker's choice 2 leaves the later steps looser than the first
    assert min(tolerances[1:]) > 1e3 * solver.MINRES_RTOL


def test_in_place_minres_matches_the_allocating_oracle(wave128_seed, monkeypatch):
    # every Newton step of the wave128 seed: the same x bit for bit, the same
    # iteration count and the same convergence flag
    steps = []

    def spy(apply, b, rtol, maxiter):
        got = minres(apply, b, rtol, maxiter)
        want = minres_allocating(apply, b, rtol, maxiter)
        steps.append(np.array_equal(got[0], want[0]) and got[1:] == want[1:])
        return got

    monkeypatch.setattr(solver, "minres", spy)
    newton_solve(wave128_seed, 1e-10, 20)
    assert steps == [True, True, True]


def test_minres_missing_its_cap_is_diagnosed_by_lu(perturbed_wave64, monkeypatch):
    factored = []

    def spy(matrix):
        factored.append(matrix.shape)
        return splu(matrix)

    monkeypatch.setattr(solver, "MINRES_MAXITER", 2)
    monkeypatch.setattr(solver, "splu", spy)
    with pytest.raises(NewtonDivergenceError, match="MINRES missed"):
        newton_solve(perturbed_wave64[0], 1e-11, 20)
    assert factored == [(64 * 64, 64 * 64)]


def test_newton_quadratic_from_2d_perturbed_wave(perturbed_wave64):
    seed, lift = perturbed_wave64
    res = newton_solve(seed, 1e-11, 20)
    assert res.final_residual < 1e-11
    rs = res.residuals
    assert len(rs) >= 4
    ratios = [b / a**2 for a, b in zip(rs, rs[1:])]
    assert max(ratios) < 1e3
    # the y-mode dies out: the limit is the discrete wave, within fd4 error of the lift
    vals = res.field.values
    assert np.abs(vals - vals[0]).max() < 1e-10
    assert np.abs(vals - lift.values).max() < 1e-4


def test_newton_no_other_constant_fixed_point():
    g = PeriodicGrid(16, 16, 1.0, 1.0)
    for c in (0.2, -0.25):
        u0 = ScalarFieldPeriodic(g, np.full((16, 16), c))
        res = newton_solve(u0, 1e-11, 40)
        assert np.abs(res.field.values).max() < 1e-10


def test_newton_from_lifted_wave(wave61):
    g = PeriodicGrid(64, 8, wave61.period, 1.0)
    seed = lift_1d(wave61, g)
    res = newton_solve(seed, 1e-10, 30)
    assert res.final_residual < 1e-10
    assert np.abs(pde_residual(res.field)).max() < 1e-10
    # converged field stays y-independent
    assert np.abs(res.field.values - res.field.values[0]).max() < 1e-10


def test_solution_order_against_wave_oracle(wave61):
    errs, hs = [], []
    for n in (32, 64, 128):
        g = PeriodicGrid(n, 8, wave61.period, 1.0)
        res = newton_solve(lift_1d(wave61, g), 1e-10, 30)
        errs.append(np.abs(res.field.values[0] - wave61(g.x)).max())
        hs.append(g.hx)
    assert loglog_slope(hs, errs) > 3.5


def test_newton_divergence_error():
    g = PeriodicGrid(16, 16, 1.0, 1.0)
    u0 = ScalarFieldPeriodic(g, np.full((16, 16), 3.0))
    with pytest.raises(NewtonDivergenceError):
        newton_solve(u0, 1e-12, 1)


def test_newton_rejects_resonant_grid():
    n = 64
    theta = 2 * np.pi / n
    num = -30.0 + 32.0 * np.cos(theta) - 2.0 * np.cos(2.0 * theta)
    h = np.sqrt(-num / 144.0)
    g = PeriodicGrid(n, 8, n * h, 0.5)
    # u = 0 solves the equation on any grid and takes no step, so it passes
    assert newton_solve(zero_field(g), 1e-10, 30).iterations == 0
    # a seed that needs a step is rejected, with its residual kept
    seed = field_from_function(g, lambda x, y: 1e-3 * np.cos(2 * np.pi * x / g.lx))
    with pytest.raises(ResonanceError) as caught:
        newton_solve(seed, 1e-10, 30)
    assert len(caught.value.residuals) == 1 and caught.value.residuals[0] > 1e-10


def test_newton_rejects_bad_tol():
    g = PeriodicGrid(16, 16, 1.0, 1.0)
    with pytest.raises(ValueError):
        newton_solve(zero_field(g), -1.0, 30)
