import dataclasses
import tracemalloc

import numpy as np
import pytest

from tzitzeica import lax, surface
from tzitzeica.grid import PeriodicGrid, zero_field
from tzitzeica.invariants import christoffel_from_field, closed_form_tensor
from tzitzeica.lax import integrate_frame
from tzitzeica.linalg3 import hermitian_inner
from tzitzeica.solver import newton_solve
from tzitzeica.surface import (
    build_surface,
    extract_second_form,
    full_report,
    normality_map,
    torus_closure,
)
from tzitzeica.wave import lift_1d

from conftest import cosine_seed, loglog_slope
from oracles import fd_tangents, hermitian_induced, second_form_with_connection, tangent_analytic

FLAT_LY = 2.0 * np.pi / np.sqrt(3.0)


def _flat_frame(n=32, substeps=16, theta=0.0, closing=False):
    g = PeriodicGrid(n, n, 2.0 * np.pi, FLAT_LY)
    u = zero_field(g)
    return u, integrate_frame(u, theta, substeps=substeps, closing=closing)


def _wave_frame(profile, n=32, substeps=8, theta=0.4, ny=None):
    g = PeriodicGrid(n, ny or n, profile.period, 1.0)
    u = lift_1d(profile, g)
    return u, integrate_frame(u, theta, substeps=substeps, closing=False)


def test_surface_points_on_sphere():
    _u, frame = _flat_frame()
    points = build_surface(frame, 1.0)
    radii = np.sqrt(np.sum(np.abs(points) ** 2, axis=-1))
    assert np.abs(radii - 1.0).max() < 1e-9


def test_tangents_complexly_normal_and_conformal(wave61):
    u, frame = _wave_frame(wave61)
    e1, e2 = tangent_analytic(frame, 1.5)
    assert normality_map(e1, e2, np.moveaxis(frame.normal, -1, 0)).max() < 1e-10
    g_meas, om = hermitian_induced(e1, e2)
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
        _u, frame = _flat_frame(n=n)
        d1, d2 = (np.moveaxis(d, -1, 0) for d in fd_tangents(build_surface(frame, 1.0), frame.grid))
        e1, e2 = tangent_analytic(frame, 1.0)
        err = max(np.abs(d1 - e1).max(), np.abs(d2 - e2).max())
        errs.append(err)
        hs.append(2.0 * np.pi / n)
    assert loglog_slope(hs, errs) > 3.5


def test_homothety_scaling(wave61):
    _u, frame = _wave_frame(wave61)
    g1, _ = hermitian_induced(*tangent_analytic(frame, 1.0))
    g2, _ = hermitian_induced(*tangent_analytic(frame, 2.0))
    assert np.abs(g2 - 4.0 * g1).max() < 1e-12
    rep1 = full_report(frame, 1.0)
    rep2 = full_report(frame, 2.0)
    ratio = rep1["gauss_curvature_max"] / rep2["gauss_curvature_max"]
    assert abs(ratio - 4.0) < 1e-6


def test_extracted_tensor_flat_case():
    u, frame = _flat_frame(n=32, substeps=24)
    t, ncoeff, _first = extract_second_form(frame, 1.0)
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
        tens, ncoeff, _first = extract_second_form(frame, 1.0)
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
def test_extraction_does_not_depend_on_the_block_size(wave61, case, monkeypatch):
    # the closing flat frame's base is a non-contiguous view of its nodes
    if case == "wave":
        _u, frame = _wave_frame(wave61, n=32, substeps=4, ny=24)
    else:
        _u, frame = _flat_frame(n=32, substeps=16, closing=True)
    results = []
    # one row (the floor of any block), 5 rows with a shorter last block,
    # and the whole grid
    for block_nodes in (1, 5 * frame.grid.nx, frame.grid.nx * frame.grid.ny):
        monkeypatch.setattr(lax, "STENCIL_BLOCK_NODES", block_nodes)
        results.append(extract_second_form(frame, 1.0))
    for tens, ncoeff, first in results[1:]:
        assert np.array_equal(tens, results[0][0])
        assert np.array_equal(ncoeff, results[0][1])
        assert first == results[0][2]


@pytest.mark.parametrize("case", ["flat-closing", "wave", "cosine"])
def test_gauss_formula_matches_the_connection_route(wave61, case):
    # the projection of d_i E_j onto (i E1, i E2, N) against that of
    # nabla_i E_j = d_i E_j - gamma^k_ij E_k, over the whole grid: the tangent
    # part (u_i / 2) E_j - gamma^k_ij E_k projects only through the frame's
    # first-order defects, which at these substeps are below 1e-12 (at 8
    # substeps the wave's normality defect is 1.9e-11, and the normal
    # coefficients differ by 1.3e-12 relative); the cosine field's solution
    # has u_y != 0
    if case == "flat-closing":
        _u, frame = _flat_frame(n=32, substeps=16, closing=True)
    elif case == "wave":
        _u, frame = _wave_frame(wave61, n=32, substeps=16)
    else:
        u = newton_solve(cosine_seed(32), 1e-10, 30).field
        assert np.abs(christoffel_from_field(u)[1]).max() > 0.1
        frame = integrate_frame(u, 0.3, substeps=24, closing=False)
    tens, ncoeff, _first = extract_second_form(frame, 1.0)
    want_tens, want_ncoeff = second_form_with_connection(frame, 1.0)
    assert np.abs(tens - want_tens).max() <= 1e-12 * np.abs(want_tens).max()
    assert np.abs(ncoeff - want_ncoeff).max() <= 1e-12 * np.abs(want_ncoeff).max()


def _first_order_oracle(frame, radius):
    """(normality, conformal, sphere) over the whole grid at once, from the
    oracle's closed-form tangents and the frame's normal; the Gram entries
    <E1|E1>, <E2|E2> and <E1|E2> are the pipeline's products, so this checks
    the blocking, not the product."""
    e1, e2 = tangent_analytic(frame, radius)
    normal = np.moveaxis(frame.normal, -1, 0)
    h12 = hermitian_inner(e1, e2)
    conf = 2.0 * radius**2 * np.exp(frame.u.values)
    conformal = max(
        np.abs(hermitian_inner(e1, e1).real - conf).max(),
        np.abs(hermitian_inner(e2, e2).real - conf).max(),
        np.abs(h12.real).max(),
        np.abs(h12.imag).max(),
    )
    radii = np.sqrt(np.sum(np.abs(radius * normal) ** 2, axis=0))
    return tuple(
        float(v)
        for v in (normality_map(e1, e2, normal).max(), conformal, np.abs(radii - radius).max())
    )


@pytest.mark.parametrize("case", ["wave", "flat-closing", "corrupted"])
def test_first_order_defects_match_the_whole_grid_oracle(wave61, case, monkeypatch):
    # the extraction's running maxima over blocks of 5 rows (a shorter last
    # one) equal the whole-grid maxima bit for bit; the closing flat frame's
    # base is a non-contiguous view of its nodes
    if case == "wave":
        _u, frame = _wave_frame(wave61, n=32, substeps=4, ny=24)
    elif case == "flat-closing":
        _u, frame = _flat_frame(n=32, substeps=16, closing=True)
    else:
        _u, frame = _flat_frame(n=32)
        frame.unitary[4, 6] += 1e-2
    monkeypatch.setattr(lax, "STENCIL_BLOCK_NODES", 5 * frame.grid.nx)
    _tens, _ncoeff, first = extract_second_form(frame, 1.5)
    assert first == _first_order_oracle(frame, 1.5)
    if case == "corrupted":
        assert first[0] > 1e-4


def test_full_report_makes_one_pass_over_the_frame(wave61, monkeypatch):
    # one stencil call hands each block's U Wx and U Wy to one reduction,
    # which maps three sets of columns to tangents per block: the frames',
    # U Wx's and U Wy's
    _u, frame = _wave_frame(wave61)
    blocks = 4
    monkeypatch.setattr(lax, "STENCIL_BLOCK_NODES", frame.grid.nx * frame.grid.ny // blocks)
    calls = dict.fromkeys(("frame_axis_stencil", "_tangents_at"), 0)
    for name in calls:

        def spy(*args, name=name, original=getattr(surface, name)):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(surface, name, spy)
    full_report(frame, 1.0)
    assert calls == {"frame_axis_stencil": 1, "_tangents_at": 3 * blocks}


def _traced_peak(fn, *args):
    """tracemalloc's peak during fn(*args): what fn allocates above its entry."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def wave128_frame(wave61):
    g = PeriodicGrid(128, 128, wave61.period, FLAT_LY)
    return integrate_frame(lift_1d(wave61, g), 0.3, substeps=24, closing=False)


def test_extraction_memory_stays_within_its_blocks(wave128_frame):
    # extract_second_form's own peak on a 128^2 frame: 6.4 MB with the five
    # marched stencil frames of each block of rows, 3.6 MB with the exact
    # derivative U W_i of each block, one axis per pass, 3.8 MB with both
    # axes' U W_i and the tangents' defects in one pass (3.7 MB projecting
    # only T_j(U W_i), with no connection); its outputs alone take 2.1 MB
    assert _traced_peak(extract_second_form, wave128_frame, 1.0) < 5e6


def test_full_report_memory_stays_within_its_largest_step(wave128_frame):
    # the report's peak on a 128^2 frame: 68.3 MB with the five stencil
    # frames of the whole grid, 19.9 MB marched in blocks of rows, 11.0 MB
    # once each intermediate is dropped after its residuals are taken, 7.9 MB
    # with each stencil block projected inside its reduction, 6.8 MB in
    # invariants.riemann with exact derivatives.  With no whole-grid tangents
    # and the cubic form dropped before riemann (5.8 MB), the report's peak
    # sat in invariants.scalar_invariants: 6.6 MB, 6.4 MB once the invariants
    # take the conformal factor in place of a (2, 2, ny, nx) metric.  With the
    # connection as the pair (u_x/2, u_y/2), made after the extraction, the
    # peak is 5.4 MB, in invariants.codazzi_residual
    assert _traced_peak(full_report, wave128_frame, 1.0) < 10e6


def test_full_report_flat_numbers():
    _u, frame = _flat_frame(n=32, substeps=16, closing=True)
    rep = full_report(frame, 1.0)
    assert rep["h2_max"] < 1e-12
    assert rep["invariant_t2_defect"] < 1e-6
    assert rep["invariant_t4_defect"] < 1e-6
    assert rep["gauss_curvature_max"] < 1e-8
    assert rep["gauss_defect"] < 1e-6
    assert rep["normality_defect"] < 1e-8
    assert rep["sphere_defect"] < 1e-8
    assert rep["closure_defect"] < 1e-6
    assert all(type(v) is float and np.isfinite(v) and v >= 0 for v in rep.values())
    # an open frame has no closure_defect
    assert "closure_defect" not in full_report(_flat_frame(n=32, substeps=16)[1], 1.0)


def test_full_report_flags_corrupted_frame():
    _u, frame = _flat_frame(n=32)
    frame.unitary[4, 6] += 1e-2
    rep = full_report(frame, 1.0)
    assert rep["normality_defect"] > 1e-4
    nmap = normality_map(*tangent_analytic(frame, 1.0), np.moveaxis(frame.normal, -1, 0))
    assert np.argmax(nmap) == 4 * 32 + 6


def test_closure_shifts(wave61):
    _u, frame = _flat_frame(n=32, substeps=16, closing=True)
    x_defect, y_defect = torus_closure(frame)
    assert x_defect < 1e-6
    assert y_defect < 1e-6
    assert max(x_defect, y_defect) < 1e-4
    # a closing row and column that repeat row 0 and column 0 close exactly
    copied = frame.unitary.copy()
    copied[32], copied[:, 32] = copied[0], copied[:, 0]
    assert torus_closure(dataclasses.replace(frame, unitary=copied)) == (0.0, 0.0)
    # without the closing row and column there is no monodromy to read
    _u, open_frame = _flat_frame(n=32, substeps=16)
    with pytest.raises(ValueError):
        torus_closure(open_frame)
    # a generically non-closing frame is not certified
    uw, fw = _wave_frame(wave61, n=16, substeps=4, ny=16)
    fw2 = integrate_frame(uw, fw.theta, substeps=4, closing=True)
    assert max(torus_closure(fw2)) >= 1e-4


def test_closure_negative_controls():
    # the flat periods close at theta = 0 but not at theta = pi / 4
    _u, off = _flat_frame(n=32, substeps=16, theta=np.pi / 4, closing=True)
    assert max(torus_closure(off)) > 0.1
    # one corrupted node of the closing row moves its column's monodromy
    _u, frame = _flat_frame(n=32, substeps=16, closing=True)
    clean = torus_closure(frame)
    frame.unitary[32, 5] += 1e-3
    bad = torus_closure(frame)
    assert bad[1] > 1e-4
    assert bad[0] == clean[0]
    assert max(bad) >= 1e-4
