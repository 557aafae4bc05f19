import dataclasses
import tracemalloc

import numpy as np
import pytest

from tzitzeica import lax
from tzitzeica.grid import PeriodicGrid, zero_field
from tzitzeica.invariants import christoffel_from_field, closed_form_tensor, hermitian_induced
from tzitzeica.lax import SpectralPoint, integrate_frame
from tzitzeica.surface import (
    build_surface,
    extract_second_form,
    full_report,
    normality_map,
    tangent_analytic,
    torus_closure,
)
from tzitzeica.wave import lift_1d

from conftest import loglog_slope
from oracles import fd_tangents

FLAT_LY = 2.0 * np.pi / np.sqrt(3.0)


def _flat_frame(n=32, substeps=16, theta=0.0, closing=False):
    g = PeriodicGrid(n, n, 2.0 * np.pi, FLAT_LY)
    u = zero_field(g)
    return u, integrate_frame(u, SpectralPoint(theta), substeps=substeps, closing=closing)


def _wave_frame(profile, n=32, substeps=8, theta=0.4, ny=None):
    g = PeriodicGrid(n, ny or n, profile.period, 1.0)
    u = lift_1d(profile, g)
    return u, integrate_frame(u, SpectralPoint(theta), substeps=substeps)


def test_surface_points_on_sphere():
    _u, frame = _flat_frame()
    mesh = build_surface(frame, 1.0)
    radii = np.sqrt(np.sum(np.abs(mesh.points) ** 2, axis=-1))
    assert np.abs(radii - 1.0).max() < 1e-9


def test_tangents_complexly_normal_and_conformal(wave61):
    u, frame = _wave_frame(wave61)
    e1, e2 = tangent_analytic(frame, 1.5)
    assert normality_map(e1, e2, np.moveaxis(frame.normal, -1, 0)).max() < 1e-10
    g_meas, om = hermitian_induced(e1, e2, check=False)
    conf = 2.0 * 1.5**2 * np.exp(u.values)
    assert np.abs(g_meas[0, 0] - conf).max() < 1e-8 * 1.5**2
    assert np.abs(g_meas[1, 1] - conf).max() < 1e-8 * 1.5**2
    assert np.abs(g_meas[0, 1]).max() < 1e-8 * 1.5**2
    assert np.abs(om).max() < 1e-8 * 1.5**2
    # the sphere case needs a symmetric d = -w/R: |d - d^T| = 2|w_01|/R < 1e-8
    assert np.abs(om[0, 1]).max() < 0.5e-8 * 1.5


def test_fd_tangents_match_analytic_on_closed_frame():
    # flat frame closes over the chosen periods, so periodic differencing of
    # the embedding is valid and converges at stencil order
    errs, hs = [], []
    for n in (32, 64, 128):
        u, frame = _flat_frame(n=n)
        d1, d2 = (np.moveaxis(d, -1, 0) for d in fd_tangents(build_surface(frame, 1.0)))
        e1, e2 = tangent_analytic(frame, 1.0)
        err = max(np.abs(d1 - e1).max(), np.abs(d2 - e2).max())
        errs.append(err)
        hs.append(2.0 * np.pi / n)
    assert loglog_slope(hs, errs) > 3.5


def test_homothety_scaling(wave61):
    _u, frame = _wave_frame(wave61)
    g1, _ = hermitian_induced(*tangent_analytic(frame, 1.0), check=False)
    g2, _ = hermitian_induced(*tangent_analytic(frame, 2.0), check=False)
    assert np.abs(g2 - 4.0 * g1).max() < 1e-12
    rep1 = full_report(frame, 1.0)
    rep2 = full_report(frame, 2.0)
    ratio = rep1.gauss_curvature_max / rep2.gauss_curvature_max
    assert abs(ratio - 4.0) < 1e-6


def test_extracted_tensor_flat_case():
    u, frame = _flat_frame(n=32, substeps=24)
    t, ncoeff = extract_second_form(frame, 1.0, christoffel_from_field(u))
    expected = closed_form_tensor(u.values, 0.0)
    assert np.abs(t - expected).max() < 1e-8
    assert abs(t[0, 0, 0, 5, 7] - 1.0) < 1e-8
    assert abs(t[0, 1, 1, 5, 7] + 1.0) < 1e-8
    assert abs(t[1, 0, 1, 5, 7] + 1.0) < 1e-8
    # normal coefficient of nabla_i E_i is -2 R e^u
    assert np.abs(ncoeff[0, 0] + 2.0).max() < 1e-8
    assert np.abs(ncoeff[0, 1]).max() < 1e-8


def test_extraction_refines_on_wave_surface(wave61):
    errs, ncs, hs = [], [], []
    for n in (16, 32, 64):
        u, frame = _wave_frame(wave61, n=n, substeps=4)
        tens, ncoeff = extract_second_form(frame, 1.0, christoffel_from_field(u))
        expected = closed_form_tensor(u.values, 0.4)
        errs.append(np.abs(tens - expected).max())
        target = -2.0 * np.exp(u.values)
        ncs.append(
            max(
                np.abs(ncoeff[0, 0] - target).max(),
                np.abs(ncoeff[0, 1]).max(),
            )
        )
        hs.append(wave61.period / n)
    assert loglog_slope(hs, errs) > 1.9
    assert loglog_slope(hs, ncs) > 1.9


@pytest.mark.parametrize("case", ["flat-closing", "wave"])
def test_extraction_does_not_depend_on_the_stencil_block(wave61, case, monkeypatch):
    # the closing flat frame's base is a non-contiguous view of its nodes
    if case == "wave":
        u, frame = _wave_frame(wave61, n=32, substeps=4, ny=24)
    else:
        u, frame = _flat_frame(n=32, substeps=16, closing=True)
    gamma = christoffel_from_field(u)
    results = []
    # one row (the floor of any block), 5 rows with a shorter last block,
    # and the whole grid
    for block_nodes in (1, 5 * frame.grid.nx, frame.grid.nx * frame.grid.ny):
        monkeypatch.setattr(lax, "STENCIL_BLOCK_NODES", block_nodes)
        results.append(extract_second_form(frame, 1.0, gamma))
    for tens, ncoeff in results[1:]:
        assert np.array_equal(tens, results[0][0])
        assert np.array_equal(ncoeff, results[0][1])


def test_full_report_memory_stays_within_the_stencil_blocks(wave61):
    # the report's peak on a 128^2 frame: 68.3 MB with the five stencil
    # frames of the whole grid, 19.9 MB marched in blocks of rows, 11.0 MB
    # once each intermediate is dropped after its residuals are taken, 7.9 MB
    # with each stencil block projected inside its reduction
    g = PeriodicGrid(128, 128, wave61.period, FLAT_LY)
    frame = integrate_frame(lift_1d(wave61, g), SpectralPoint(0.3))
    tracemalloc.start()
    try:
        full_report(frame, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10e6


def test_full_report_flat_numbers():
    _u, frame = _flat_frame(n=32, substeps=16, closing=True)
    rep = full_report(frame, 1.0)
    assert rep.h2_max < 1e-12
    assert rep.invariant_t2_defect < 1e-6
    assert rep.invariant_t4_defect < 1e-6
    assert rep.gauss_curvature_max < 1e-8
    assert rep.gauss_defect < 1e-6
    assert rep.normality_defect < 1e-8
    assert rep.sphere_defect < 1e-8
    assert rep.closure_defect is not None and rep.closure_defect < 1e-6
    d = rep.to_dict()
    assert all(np.isfinite(v) and v >= 0 for v in d.values())


def test_full_report_flags_corrupted_frame():
    _u, frame = _flat_frame(n=32)
    frame.unitary[4, 6] += 1e-2
    rep = full_report(frame, 1.0)
    assert rep.normality_defect > 1e-4
    nmap = normality_map(*tangent_analytic(frame, 1.0), np.moveaxis(frame.normal, -1, 0))
    assert np.argmax(nmap) == 4 * 32 + 6


def test_closure_shifts(wave61):
    u, frame = _flat_frame(n=32, substeps=16, closing=True)
    rep = torus_closure(frame)
    assert rep.x_defect < 1e-6
    assert rep.y_defect < 1e-6
    assert rep.max_defect < 1e-4
    # a closing row and column that repeat row 0 and column 0 close exactly
    copied = frame.unitary.copy()
    copied[32], copied[:, 32] = copied[0], copied[:, 0]
    exact = torus_closure(dataclasses.replace(frame, unitary=copied))
    assert exact.x_defect == 0.0 and exact.y_defect == 0.0
    # without the closing row and column there is no monodromy to read
    _u, open_frame = _flat_frame(n=32, substeps=16)
    with pytest.raises(ValueError):
        torus_closure(open_frame)
    # a generically non-closing frame is not certified
    uw, fw = _wave_frame(wave61, n=16, substeps=4, ny=16)
    fw2 = integrate_frame(uw, fw.spectral, substeps=4, closing=True)
    assert torus_closure(fw2).max_defect >= 1e-4


def test_closure_negative_controls():
    # the flat periods close at theta = 0 but not at theta = pi / 4
    _u, off = _flat_frame(n=32, substeps=16, theta=np.pi / 4, closing=True)
    rep = torus_closure(off)
    assert rep.max_defect > 0.1
    # one corrupted node of the closing row moves its column's monodromy
    _u, frame = _flat_frame(n=32, substeps=16, closing=True)
    clean = torus_closure(frame)
    frame.unitary[32, 5] += 1e-3
    bad = torus_closure(frame)
    assert bad.y_defect > 1e-4
    assert bad.x_defect == clean.x_defect
    assert bad.max_defect >= 1e-4
