"""Acceptance suite: every criterion at its stated tolerance, one PASS line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; assertions carry the same numbers either way.
"""

import json
import pathlib
import time

import numpy as np
import pytest

from tzitzeica import cli
from tzitzeica.config import parse_config_text
from tzitzeica.grid import PeriodicGrid, grid_record, save_table, zero_field
from tzitzeica.invariants import closed_form_tensor, trace_vector
from tzitzeica.lax import frame_coeff_x, frame_coeff_y, integrate_frame
from tzitzeica.solver import laplacian_symbol, newton_solve, resonance_gap
from tzitzeica.surface import extract_second_form, normality_map
from tzitzeica.wave import lift_1d, period_quadrature, travelling_wave

from conftest import COSINE_SIDE, cosine_seed, field_from_function, loglog_slope
from oracles import (
    compatibility_residual,
    lax_z_matrix,
    lax_zbar_matrix,
    pairing_derivative_x,
    pairing_series,
    pde_residual,
    period_shooting,
    spectral_parameter,
    tangent_analytic,
)
from reference_march import generator, reference_frame, reference_psi

FLAT_LX = float(2.0 * np.pi)
FLAT_LY = float(2.0 * np.pi / np.sqrt(3.0))


def _report(line):
    print(line)


# ---------------------------------------------------------------------------
# 1. flat minimal torus pipeline, and 9. determinism
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def flat_pipeline(tmp_path_factory):
    runs = []
    elapsed = None
    for tag in ("a", "b"):
        out = str(tmp_path_factory.mktemp(f"flat_{tag}"))
        cfg = parse_config_text(
            f"nx = 64\nny = 64\nlx = {FLAT_LX!r}\nly = {FLAT_LY!r}\n"
            "radius = 1.0\ntheta = 0.0\ntol = 1e-11\nmax_iter = 20\n"
            f"seed = zero\nsubsteps = 24\nout_dir = {out}\n"
        )
        t0 = time.perf_counter()
        for stage in ("solve", "frame", "surface", "report"):
            cli.run_pipeline(cfg, stage, out, echo=False)
        took = time.perf_counter() - t0
        if elapsed is None:
            elapsed = took
        runs.append(out)
    return runs, elapsed


def test_criterion_1_flat_minimal_torus(flat_pipeline):
    (out, _), elapsed = flat_pipeline[0], flat_pipeline[1]
    with open(f"{out}/report.json") as fh:
        rep = json.load(fh)
    assert rep["h2_max"] < 1e-10, f"H^2 = {rep['h2_max']}"
    assert rep["invariant_t2_defect"] < 1e-6, f"|k - 2| = {rep['invariant_t2_defect']}"
    assert rep["invariant_t4_defect"] < 1e-6, f"|q - 2| = {rep['invariant_t4_defect']}"
    assert rep["gauss_curvature_max"] < 1e-6, f"|K| = {rep['gauss_curvature_max']}"
    assert rep["gauss_defect"] < 1e-6, f"gauss residual = {rep['gauss_defect']}"
    assert rep["normality_defect"] < 1e-8, f"normality = {rep['normality_defect']}"
    assert rep["unitarity_defect"] < 1e-10, f"unitarity = {rep['unitarity_defect']}"
    assert elapsed < 10.0, f"flat pipeline took {elapsed:.2f} s"
    _report(
        f"[acceptance 1] flat minimal torus: PASS "
        f"(H^2={rep['h2_max']:.2e}, |k-2|={rep['invariant_t2_defect']:.2e}, "
        f"|q-2|={rep['invariant_t4_defect']:.2e}, K={rep['gauss_curvature_max']:.2e}, "
        f"gauss={rep['gauss_defect']:.2e}, normality={rep['normality_defect']:.2e}, "
        f"unitarity={rep['unitarity_defect']:.2e}, {elapsed:.2f} s)"
    )


def test_criterion_9_determinism(flat_pipeline):
    (out_a, out_b), _ = flat_pipeline[0], flat_pipeline[1]
    bytes_a = pathlib.Path(out_a, "report.json").read_bytes()
    bytes_b = pathlib.Path(out_b, "report.json").read_bytes()
    assert bytes_a == bytes_b, "two identical pipeline runs produced different reports"
    _report(f"[acceptance 9] determinism: PASS ({len(bytes_a)} identical bytes)")


# ---------------------------------------------------------------------------
# 2. sign-convention lock
# ---------------------------------------------------------------------------


def test_criterion_2_sign_convention_lock():
    sympy = pytest.importorskip("sympy")
    z, zb, lam = sympy.symbols("z zb lam")
    u = sympy.Function("u")(z, zb)
    uz = sympy.diff(u, z)
    ii = sympy.I
    a_sym = sympy.Matrix([[-uz, 0, ii * lam], [ii, uz, 0], [0, ii, 0]])
    b_sym = sympy.Matrix(
        [
            [0, ii * sympy.exp(-2 * u), 0],
            [0, 0, ii * sympy.exp(u)],
            [ii * sympy.exp(u) / lam, 0, 0],
        ]
    )
    # the symbolic matrices are the oracle's, and the pipeline's frame
    # generators are their gauge transforms: the frame columns are
    # D psi with D = diag(e^{u/2}, e^{-u/2}, 1), so d_x = d_z + d_zb and
    # d_y = i (d_z - d_zb) give Wx^T = (d_x D + D (A + B)) D^-1 and
    # Wy^T = (d_y D + i D (A - B)) D^-1
    u_val, uz_val = sympy.symbols("u_val uz_val")
    a_fn = sympy.lambdify((u_val, uz_val, lam), a_sym.subs(uz, uz_val).subs(u, u_val))
    b_fn = sympy.lambdify((u_val, lam), b_sym.subs(u, u_val))
    rng = np.random.default_rng(1)
    gauge_defect = 0.0
    for _ in range(50):
        uval, ux, uy = rng.uniform(-1, 1, 3)
        lamval = spectral_parameter(rng.uniform(0, 2 * np.pi))
        uzval = 0.5 * (ux - 1j * uy)
        a_num = np.array(a_fn(uval, uzval, lamval), dtype=complex)
        b_num = np.array(b_fn(uval, lamval), dtype=complex)
        assert np.abs(a_num - lax_z_matrix(uval, uzval, lamval)).max() < 1e-14
        assert np.abs(b_num - lax_zbar_matrix(uval, lamval)).max() < 1e-14
        d = np.diag([np.exp(uval / 2), np.exp(-uval / 2), 1.0])
        dlog = np.diag([0.5, -0.5, 0.0])
        wx = (ux * dlog @ d + d @ (a_num + b_num)) @ np.linalg.inv(d)
        wy = (uy * dlog @ d + 1j * d @ (a_num - b_num)) @ np.linalg.inv(d)
        gauge_defect = max(
            gauge_defect,
            np.abs(wx - generator(frame_coeff_x, uval, uy, lamval).T).max(),
            np.abs(wy - generator(frame_coeff_y, uval, ux, lamval).T).max(),
        )
    assert gauge_defect <= 1e-13, f"frame generators vs gauge-transformed psi system {gauge_defect}"
    # cross-differentiation: d_zb A - d_z B + [A, B] = 0 forces the PDE sign
    zc = sympy.diff(a_sym, zb) - sympy.diff(b_sym, z) + a_sym * b_sym - b_sym * a_sym
    mixed = sympy.Derivative(u, z, zb)
    solved = sympy.solve(zc[0, 0], mixed)
    assert len(solved) == 1
    assert sympy.simplify(solved[0] - (sympy.exp(-2 * u) - sympy.exp(u))) == 0
    # every other entry vanishes identically once the PDE is imposed
    constrained = zc.subs(mixed, sympy.exp(-2 * u) - sympy.exp(u))
    assert sympy.simplify(constrained) == sympy.zeros(3, 3)

    grid = PeriodicGrid(64, 64, 1.0, 1.0)
    resid = compatibility_residual(zero_field(grid), 0.0)
    assert resid <= 1e-9, f"flat compatibility residual {resid}"
    _report(
        f"[acceptance 2] sign-convention lock: PASS "
        f"(u_zzb = e^-2u - e^u symbolically; frame generators {gauge_defect:.2e}; "
        f"flat cell residual {resid:.2e})"
    )


# ---------------------------------------------------------------------------
# 3. travelling-wave oracle
# ---------------------------------------------------------------------------


def test_criterion_3_travelling_wave_oracle():
    t0 = time.perf_counter()
    small = 2.0 * np.pi / np.sqrt(12.0)
    t_quad = period_quadrature(6.001)
    t_shoot = period_shooting(6.001)
    profile = travelling_wave(6.001)
    drift = profile.drift
    elapsed = time.perf_counter() - t0
    assert abs(t_quad - small) < 0.01 * small, f"T(6.001) = {t_quad} vs {small}"
    assert abs(t_quad - t_shoot) < 1e-8, f"quadrature {t_quad!r} vs shooting {t_shoot!r}"
    assert drift < 1e-10, f"energy drift {drift}"
    assert elapsed < 1.0, f"wave oracle took {elapsed:.2f} s"
    _report(
        f"[acceptance 3] travelling-wave oracle: PASS "
        f"(T={t_quad:.6f}, |T_quad-T_shoot|={abs(t_quad-t_shoot):.2e}, "
        f"drift={drift:.2e}, {elapsed:.2f} s)"
    )


# ---------------------------------------------------------------------------
# 4. Newton solver at 128x128
# ---------------------------------------------------------------------------


def _ratio_ok(r_prev, r_next, bound=1e5, floor=1e-10):
    return r_next <= bound * r_prev**2 or r_next <= floor


def test_criterion_4_newton_from_lifted_wave(wave61):
    grid = PeriodicGrid(128, 128, wave61.period, 1.0)
    assert resonance_gap(laplacian_symbol(grid)) > 1e-2
    t0 = time.perf_counter()
    seed = lift_1d(wave61, grid)
    result = newton_solve(seed, 1e-10, 30)
    elapsed = time.perf_counter() - t0
    assert result.final_residual < 1e-10, f"final residual {result.final_residual}"
    assert np.abs(pde_residual(result.field)).max() < 1e-10
    ratios = list(zip(result.residuals, result.residuals[1:]))[-3:]
    assert all(_ratio_ok(a, b) for a, b in ratios), f"history {result.residuals}"
    assert elapsed < 30.0, f"solve took {elapsed:.2f} s"

    # quadratic contraction observed over three consecutive iterations
    probe_grid = PeriodicGrid(64, 64, 1.0, 0.9)
    probe = newton_solve(
        field_from_function(probe_grid, lambda x, y: 0.2 * np.cos(2 * np.pi * x)),
        1e-11,
        40,
    )
    rs = probe.residuals
    assert len(rs) >= 4
    probe_ratios = [b / a**2 for a, b in zip(rs, rs[1:])][-3:]
    assert len(probe_ratios) == 3 and max(probe_ratios) < 1e3
    _report(
        f"[acceptance 4] Newton solver: PASS "
        f"(residuals {['%.1e' % r for r in result.residuals]}, {elapsed:.2f} s; "
        f"probe ratios {['%.2g' % r for r in probe_ratios]})"
    )


# ---------------------------------------------------------------------------
# 5. frame integration convergence
# ---------------------------------------------------------------------------


def _expm_eig(mat):
    vals, vecs = np.linalg.eig(mat)
    return vecs @ np.diag(np.exp(vals)) @ np.linalg.inv(vecs)


def test_criterion_5_frame_convergence(wave61):
    theta = 0.3
    lam = spectral_parameter(theta)
    wx = generator(frame_coeff_x, 0.0, 0.0, lam)
    wy = generator(frame_coeff_y, 0.0, 0.0, lam)
    assert np.abs(wx @ wy - wy @ wx).max() < 1e-14  # oracle factorizes
    errs, hs = [], []
    for n in (32, 64, 128):
        grid = PeriodicGrid(n, n, 1.0, 1.0)
        frame = integrate_frame(zero_field(grid), theta, substeps=1, closing=False)
        exact = _expm_eig((n - 1) * grid.hx * wx) @ _expm_eig((n - 1) * grid.hy * wy)
        errs.append(np.abs(frame.base[n - 1, n - 1] - exact).max())
        hs.append(1.0 / n)
    rk4_slope = loglog_slope(hs, errs)
    assert rk4_slope >= 3.8, f"RK4 slope {rk4_slope} from errors {errs}"

    perrs, phs = [], []
    for n in (16, 32, 64):
        grid = PeriodicGrid(n, n, wave61.period, 1.0)
        u = lift_1d(wave61, grid)
        fx = integrate_frame(u, theta, substeps=1, closing=False)
        fy = reference_frame(u, theta, 1, order="yx")
        perrs.append(np.abs(fx.unitary - fy).max())
        phs.append(wave61.period / n)
    path_slope = loglog_slope(phs, perrs)
    assert path_slope >= 1.9, f"path-independence slope {path_slope} from {perrs}"
    _report(
        f"[acceptance 5] frame convergence: PASS "
        f"(RK4 slope {rk4_slope:.2f}, path-independence slope {path_slope:.2f})"
    )


# ---------------------------------------------------------------------------
# 6. pairing laws
# ---------------------------------------------------------------------------


def test_criterion_6_pairing_laws(wave61):
    theta = 0.4
    lam = spectral_parameter(theta)
    psi0 = np.array([1.0, 0.3 - 0.2j, -0.1 + 0.5j])
    phi0 = np.array([0.2 + 0.1j, 1.0, 0.4j])

    grid = PeriodicGrid(64, 8, wave61.period, 1.0)
    u = lift_1d(wave61, grid)
    psis = reference_psi(u, theta, psi0)
    phis = reference_psi(u, theta + np.pi, phi0)
    series = pairing_series(lam, psis, phis)
    drift = float(np.abs(series - series[0]).max())
    assert drift < 1e-8, f"diagonal pairing drift {drift}"

    mu_theta = 1.1
    mu = spectral_parameter(mu_theta)
    errs, hs = [], []
    for n in (32, 64, 128):
        g = PeriodicGrid(n, 8, wave61.period, 1.0)
        un = lift_1d(wave61, g)
        ps = reference_psi(un, theta, psi0)
        qs = reference_psi(un, mu_theta + np.pi, phi0)
        om = pairing_series(lam, ps, qs)
        fd = (om[2:] - om[:-2]) / (2 * g.hx)
        urow = np.concatenate([un.values[0], [un.values[0, 0]]])
        pred = pairing_derivative_x(lam, mu, urow, ps, qs)[1:-1]
        errs.append(np.abs(fd - pred).max())
        hs.append(g.hx)
    slope = loglog_slope(hs, errs)
    assert slope >= 1.9, f"derivative-identity slope {slope} from {errs}"
    _report(
        f"[acceptance 6] pairing laws: PASS (drift {drift:.2e}, identity slope {slope:.2f})"
    )


# ---------------------------------------------------------------------------
# 7. second-form extraction on the travelling-wave surface
# ---------------------------------------------------------------------------


def test_criterion_7_second_form_extraction(wave61):
    theta = 0.4
    errs, ncs, hs = [], [], []
    trace_fine = None
    for n in (16, 32, 64):
        grid = PeriodicGrid(n, n, wave61.period, 1.0)
        u = lift_1d(wave61, grid)
        frame = integrate_frame(u, theta, substeps=8, closing=False)
        tens, ncoeff, _first = extract_second_form(frame, 1.0)
        expected = closed_form_tensor(u.values, theta)
        errs.append(np.abs(tens - expected).max())
        target = -2.0 * np.exp(u.values)
        ncs.append(
            max(
                np.abs(ncoeff[0, 0] - target).max(),
                np.abs(ncoeff[1, 1] - target).max(),
                np.abs(ncoeff[0, 1]).max(),
                np.abs(ncoeff[1, 0]).max(),
            )
        )
        hs.append(wave61.period / n)
        trace_fine = float(np.abs(trace_vector(tens)).max())
    tensor_slope = loglog_slope(hs, errs)
    normal_slope = loglog_slope(hs, ncs)
    assert tensor_slope >= 1.9, f"tensor-match slope {tensor_slope} from {errs}"
    assert normal_slope >= 1.9, f"normal-coefficient slope {normal_slope} from {ncs}"
    assert trace_fine < 1e-8, f"trace defect {trace_fine}"
    _report(
        f"[acceptance 7] second-form extraction: PASS "
        f"(tensor slope {tensor_slope:.2f}, normal slope {normal_slope:.2f}, "
        f"trace {trace_fine:.2e})"
    )


# ---------------------------------------------------------------------------
# 8. negative controls
# ---------------------------------------------------------------------------


def test_criterion_8_negative_controls(wave61):
    # (a) one corrupted frame node shows up in the normality map, locally
    grid = PeriodicGrid(32, 32, FLAT_LX, FLAT_LY)
    u = zero_field(grid)
    frame = integrate_frame(u, 0.0, substeps=16, closing=False)
    jbad, ibad = 9, 21
    frame.unitary[jbad, ibad, :, 2] += 1e-3
    nmap = normality_map(*tangent_analytic(frame, 1.0), np.moveaxis(frame.normal, -1, 0))
    defect_at = float(nmap[jbad, ibad])
    others = nmap.copy()
    others[jbad, ibad] = 0.0
    assert defect_at > 1e-4, f"corrupted-node defect {defect_at}"
    assert others.max() < 1e-6, f"defect leaked to other nodes: {others.max()}"

    # (b) compatibility residual tracks the PDE residual across amplitudes
    g2 = PeriodicGrid(64, 64, 1.0, 1.0)
    compat, pde = [], []
    for amp in np.linspace(0.03, 0.3, 10):
        ua = field_from_function(g2, lambda x, y, a=amp: a * np.cos(2 * np.pi * x))
        compat.append(compatibility_residual(ua, 0.1))
        pde.append(float(np.abs(pde_residual(ua)).max()))
    corr = float(np.corrcoef(compat, pde)[0, 1])
    assert corr > 0.99, f"correlation {corr}"
    _report(
        f"[acceptance 8] negative controls: PASS "
        f"(localized defect {defect_at:.2e}, leak {others.max():.2e}, corr {corr:.6f})"
    )


# ---------------------------------------------------------------------------
# 10. a genuinely two-dimensional solution through all five stages
# ---------------------------------------------------------------------------


def test_criterion_10_two_dimensional_solution(tmp_path):
    # every residual read from the frame sits at rounding on both grids;
    # gauss_defect is the fd4 stencils' mismatch with the frame's
    # trigonometric interpolant, so it is checked as a convergence rate
    # (about 15x per halving of h, 4th order)
    reports = {}
    for n in (32, 64):
        out = tmp_path / str(n)
        out.mkdir()
        seed, fld = out / "seed.csv", cosine_seed(n)
        save_table(str(seed), grid_record(fld.grid), fld.values.reshape(-1, 1))
        cfg = parse_config_text(
            f"nx = {n}\nny = {n}\nlx = {COSINE_SIDE!r}\nly = {COSINE_SIDE!r}\ntheta = 0.3\n"
            f"seed = file\nfield_path = {seed}\nextend_closure = false\nout_dir = {out}\n"
        )
        for stage in ("solve", "frame", "surface", "report", "export"):
            cli.run_pipeline(cfg, stage, str(out), echo=False)
        assert "iterations=5" in (out / "solve.log").read_text().splitlines()
        reports[n] = rep = json.loads((out / cli.REPORT_JSON).read_text())
        frame_derived = {k: v for k, v in rep.items() if k not in ("gauss_defect", "gauss_curvature_max")}
        assert max(frame_derived.values()) < 1e-10, f"{n}^2: {frame_derived}"
        assert rep["gauss_curvature_max"] > 1.0, f"{n}^2: |K| = {rep['gauss_curvature_max']}"
    rate = reports[32]["gauss_defect"] / reports[64]["gauss_defect"]
    assert rate >= 12.0, f"gauss_defect {reports[32]['gauss_defect']} -> {reports[64]['gauss_defect']}"
    _report(
        f"[acceptance 10] two-dimensional solution: PASS "
        f"(|K| {reports[64]['gauss_curvature_max']:.2f}, gauss_defect falls {rate:.1f}x)"
    )
