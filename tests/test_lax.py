import dataclasses

import numpy as np
import scipy.linalg

from tzitzeica import lax
from tzitzeica.grid import PeriodicGrid, zero_field
from tzitzeica.lax import _coeff_x, _coeff_y, integrate_frame
from tzitzeica.linalg3 import unitarity_defect_map
from tzitzeica.wave import lift_1d

from conftest import field_from_function, loglog_slope
from oracles import (
    compatibility_residual,
    generator,
    lax_z_matrix,
    lax_zbar_matrix,
    pairing_derivative_x,
    pairing_derivative_z,
    pairing_series,
    pde_residual,
    spectral_parameter,
)
from reference_march import reference_psi


def test_frame_parameter_is_the_unit_modulus_lam_of_its_theta():
    g = PeriodicGrid(8, 8, 1.0, 1.0)
    for th in (0.0, 0.4, -2.0, 13.0):
        frame = integrate_frame(zero_field(g), th, substeps=1, closing=False)
        assert frame.lam == spectral_parameter(th)
        assert abs(abs(frame.lam) - 1.0) < 1e-15


def test_frame_coefficients_are_anti_hermitian():
    rng = np.random.default_rng(3)
    for _ in range(100):
        u, ux, uy = rng.uniform(-1, 1, 3)
        lam = spectral_parameter(rng.uniform(0, 2 * np.pi))
        for coeff in (generator(_coeff_x, u, uy, lam), generator(_coeff_y, u, ux, lam)):
            assert np.abs(coeff + coeff.conj().T).max() < 1e-13


def test_frame_components_consistent_with_psi_system():
    # columns (e^{u/2} psi1, e^{-u/2} psi2, psi3) of a psi-solution evolve by
    # the frame generators: d_x = d_z + d_zbar moves psi by A + B, and
    # d_y = i (d_z - d_zbar) by i (A - B)
    rng = np.random.default_rng(5)
    for _ in range(20):
        u, ux, uy = rng.uniform(-1, 1, 3)
        lam = spectral_parameter(rng.uniform(0, 2 * np.pi))
        uz = 0.5 * (ux - 1j * uy)
        a, b = lax_z_matrix(u, uz, lam), lax_zbar_matrix(u, lam)
        d = np.diag([np.exp(u / 2), np.exp(-u / 2), 1.0])
        d_x = np.diag([ux / 2 * np.exp(u / 2), -ux / 2 * np.exp(-u / 2), 0.0])
        d_y = np.diag([uy / 2 * np.exp(u / 2), -uy / 2 * np.exp(-u / 2), 0.0])
        ax = (d_x + d @ (a + b)) @ np.linalg.inv(d)
        ay = (d_y + 1j * d @ (a - b)) @ np.linalg.inv(d)
        assert np.abs(ax - generator(_coeff_x, u, uy, lam).T).max() < 1e-12
        assert np.abs(ay - generator(_coeff_y, u, ux, lam).T).max() < 1e-12


def test_compatibility_zero_field():
    g = PeriodicGrid(64, 64, 1.0, 1.0)
    assert compatibility_residual(zero_field(g), 0.6) < 1e-12


def test_compatibility_on_lifted_wave(wave61):
    g = PeriodicGrid(64, 16, wave61.period, 1.0)
    u = lift_1d(wave61, g)
    assert compatibility_residual(u, 0.2) < 1e-6


def test_compatibility_tracks_pde_defect():
    g = PeriodicGrid(32, 32, 1.0, 1.0)
    cs, rs = [], []
    for a in np.linspace(0.05, 0.4, 8):
        u = field_from_function(g, lambda x, y, a=a: a * np.cos(2 * np.pi * x / g.lx))
        cs.append(compatibility_residual(u, 0.1))
        rs.append(np.abs(pde_residual(u)).max())
    assert np.corrcoef(cs, rs)[0, 1] > 0.99


def _expm_eig(mat):
    """Independent matrix exponential via eigendecomposition."""
    vals, vecs = np.linalg.eig(mat)
    return vecs @ np.diag(np.exp(vals)) @ np.linalg.inv(vecs)


def test_integrate_frame_flat_matches_exponential_oracle():
    g = PeriodicGrid(32, 32, 1.0, 1.0)
    frame = integrate_frame(zero_field(g), 0.0, substeps=4, closing=False)
    wx = generator(_coeff_x, 0.0, 0.0, frame.lam)
    wy = generator(_coeff_y, 0.0, 0.0, frame.lam)
    for (i, j) in ((5, 0), (0, 9), (17, 23), (31, 31)):
        exact = _expm_eig(i * g.hx * wx) @ _expm_eig(j * g.hy * wy)
        assert np.abs(frame.base[j, i] - exact).max() < 1e-9
        # cross-check the oracle itself against scipy
        assert np.abs(exact - scipy.linalg.expm(i * g.hx * wx) @ scipy.linalg.expm(j * g.hy * wy)).max() < 1e-12


def test_unitarity_defect_localizes_at_corrupted_node():
    g = PeriodicGrid(32, 32, 1.0, 1.0)
    frame = integrate_frame(zero_field(g), 0.0, substeps=4, closing=False)
    frame.unitary[5, 7, 0, 2] += 1e-3
    dmap = unitarity_defect_map(frame.unitary)
    assert dmap[5, 7] > 1e-4
    dmap[5, 7] = 0.0
    assert dmap.max() < 1e-9


def test_frame_unitarity_defect_is_measured_once_per_frame(monkeypatch):
    calls = []

    def spy(mat, original=lax.unitarity_defect_map):
        calls.append(mat.shape)
        return original(mat)

    monkeypatch.setattr(lax, "unitarity_defect_map", spy)
    g = PeriodicGrid(16, 16, 1.0, 1.0)
    frame = integrate_frame(zero_field(g), 0.0, substeps=4, closing=True)
    assert calls == []
    first = frame.unitarity_defect
    assert first == float(unitarity_defect_map(frame.unitary).max()) < 1e-9
    assert frame.unitarity_defect == first and calls == [(17, 17, 3, 3)]
    # a frame made by dataclasses.replace measures its own matrices
    corrupted = frame.unitary.copy()
    corrupted[16, 3, 0, 2] += 1e-3
    assert dataclasses.replace(frame, unitary=corrupted).unitarity_defect > 1e-4
    assert len(calls) == 2


def test_unitarity_drift_grows_at_most_linearly():
    # three 32-column bands of cells of width 2 pi / 32, marched in x
    g = PeriodicGrid(96, 8, 6 * np.pi, 1.0)
    frame = integrate_frame(zero_field(g), 0.0, substeps=4, closing=False)
    dmap = unitarity_defect_map(frame.unitary)
    bands = [dmap[:, 32 * k : 32 * (k + 1)].max() for k in range(3)]
    assert bands[0] <= bands[1] <= bands[2]
    assert bands[2] < 3.5 * bands[0] + 1e-13


def test_pairing_conserved_for_equal_parameters(wave61):
    g = PeriodicGrid(64, 8, wave61.period, 1.0)
    u = lift_1d(wave61, g)
    th = 0.4
    psi0 = np.array([1.0, 0.3 - 0.2j, -0.1 + 0.5j])
    phi0 = np.array([0.2 + 0.1j, 1.0, 0.4j])
    psis = reference_psi(u, th, psi0)
    phis = reference_psi(u, th + np.pi, phi0)
    om = pairing_series(spectral_parameter(th), psis, phis)
    assert np.abs(om - om[0]).max() < 1e-8


def test_pairing_x_derivative_identity(wave61):
    th, mu_th = 0.4, 1.1
    lam = spectral_parameter(th)
    mu = spectral_parameter(mu_th)
    psi0 = np.array([1.0, 0.3 - 0.2j, -0.1 + 0.5j])
    phi0 = np.array([0.2 + 0.1j, 1.0, 0.4j])
    errs, hs = [], []
    for n in (32, 64, 128):
        g = PeriodicGrid(n, 8, wave61.period, 1.0)
        u = lift_1d(wave61, g)
        psis = reference_psi(u, th, psi0)
        phis = reference_psi(u, mu_th + np.pi, phi0)
        om = pairing_series(lam, psis, phis)
        fd = (om[2:] - om[:-2]) / (2 * g.hx)
        urow = np.concatenate([u.values[0], [u.values[0, 0]]])
        pred = pairing_derivative_x(lam, mu, urow, psis, phis)[1:-1]
        errs.append(np.abs(fd - pred).max())
        hs.append(g.hx)
    assert loglog_slope(hs, errs) > 1.9


def test_pairing_z_derivative_identity(wave61):
    # propagate with the z-subsystem alone; the single-sided identity is exact
    th, mu_th = 0.9, 0.2
    lam = spectral_parameter(th)
    mu = spectral_parameter(mu_th)
    psi0 = np.array([0.6, -0.2j, 1.0])
    phi0 = np.array([1.0, 0.5, -0.3 + 0.1j])
    errs, hs = [], []
    for n in (64, 128, 256):
        g = PeriodicGrid(n, 8, wave61.period, 1.0)
        u = lift_1d(wave61, g)
        psis = reference_psi(u, th, psi0, mode="z")
        phis = reference_psi(u, mu_th + np.pi, phi0, mode="z")
        om = pairing_series(lam, psis, phis)
        fd = (om[2:] - om[:-2]) / (2 * g.hx)
        pred = pairing_derivative_z(lam, mu, psis, phis)[1:-1]
        errs.append(np.abs(fd - pred).max())
        hs.append(g.hx)
    assert loglog_slope(hs, errs) > 1.9
