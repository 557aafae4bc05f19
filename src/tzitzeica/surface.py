"""Sphere immersion built from a frame field, and its verification report.

The surface is r = R * N with N the third frame column.  Its tangents have
the closed form

    E1 = i R e^{u/2} (M + L / lam),   E2 = R e^{u/2} (L / lam - M),

which makes the immersion complexly normal (<E_i|N> = 0 in the Hermitian
product) with conformal induced metric g = 2 R^2 e^u I and vanishing skew
form, so the normal-plane vectors are F_i = i E_i.  The cubic form is
the normal part (the Gauss formula) of the exact derivatives of the tangent
fields, which the frame equation d_i U = U W_i gives at each node without
differencing: their projection onto (F1, F2, N).  The tangents exist one
block of nodes at a time, in that one pass, which also measures how far
they are from normal, conformal and on the sphere.

Torus closure is read off the frame's monodromies over one period in x and
in y, from the wrap-around row and column of a closing frame (see
torus_closure); no second period is integrated or stored.
"""

import math

import numpy as np

from . import invariants as inv
from .lax import _mul3, frame_axis_stencil
from .linalg3 import hermitian_inner


def build_surface(frame, radius):
    """The points r = R * N of the embedding, (ny, nx, 3) complex."""
    return radius * frame.normal


def normality_map(e1, e2, normal):
    """Per-node max |<E_i|N>| of vectors with their component axis first."""
    return np.maximum(
        np.abs(hermitian_inner(e1, normal)), np.abs(hermitian_inner(e2, normal))
    )


# ---------------------------------------------------------------------------
# cubic-form extraction
# ---------------------------------------------------------------------------


def _tangents_at(frames, u_vals, lam, radius):
    col_l, col_m = frames[:, 0], frames[:, 1]
    scale = radius * np.exp(0.5 * np.asarray(u_vals))
    e1 = 1j * scale * (col_m + np.conj(lam) * col_l)
    e2 = scale * (np.conj(lam) * col_l - col_m)
    return e1, e2


def extract_second_form(frame, radius):
    """Cubic-form components t[k, i, j], shape (2, 2, 2, ny, nx), from the
    exact derivatives of the tangents; the normal coefficient of
    nabla_i E_j, shape (2, 2, ny, nx) complex, which must be -2 R e^u delta_ij;
    and the tangents' first-order defects over the grid, (normality,
    conformal, sphere): max |<E_i|N>|, the largest deviation of the Hermitian
    Gram matrix of (E1, E2) from 2 R^2 e^u I, and max | |R N| - R |.

    The frame solves d_i U = U W_i, so d_i E_j = (u_i / 2) E_j + T_j(U W_i),
    with T_j the tangent map applied to the columns of U W_i.  By the Gauss
    formula both outputs are the normal part of d_i E_j, its projection onto
    (F1, F2, N) = (i E1, i E2, N), which annihilates the tangent (u_i / 2) E_j:
    only T_j(U W_i) is projected.  U W_x and U W_y exist one block of node
    rows at a time (lax.frame_axis_stencil, which reads u's gradient from
    the frame as the march does).  Each block's tangents, F_k and normal are
    formed once, so no whole-grid tangent or derivative exists.
    """
    grid = frame.grid
    u = frame.u.values
    lam = frame.lam
    conf = 2.0 * radius**2 * np.exp(u)

    tens = np.empty((2, 2, 2, grid.ny, grid.nx))
    ncoeff = np.empty((2, 2, grid.ny, grid.nx), dtype=complex)
    first = np.zeros(3)  # running maxima: normality, conformal, sphere

    def project(block, frames, derivs):
        e1, e2 = _tangents_at(frames, u[block], lam, radius)
        normal = frames[:, 2]
        h12 = hermitian_inner(e1, e2)
        conformal = max(
            np.abs(hermitian_inner(e1, e1).real - conf[block]).max(),
            np.abs(hermitian_inner(e2, e2).real - conf[block]).max(),
            np.abs(h12.real).max(),
            np.abs(h12.imag).max(),
        )
        radii = np.sqrt(np.sum(np.abs(radius * normal) ** 2, axis=0))
        defects = normality_map(e1, e2, normal).max(), conformal, np.abs(radii - radius).max()
        np.maximum(first, defects, out=first)
        normal_plane = 1j * e1, 1j * e2
        for i in range(2):
            for j, partial in enumerate(_tangents_at(derivs[i], u[block], lam, radius)):
                for k in range(2):
                    proj = hermitian_inner(normal_plane[k], partial).real
                    tens[k, i, j][block] = proj / conf[block]
                ncoeff[i, j][block] = hermitian_inner(normal, partial)

    frame_axis_stencil(frame, project)
    return tens, ncoeff, tuple(map(float, first))


# ---------------------------------------------------------------------------
# closure and the full report
# ---------------------------------------------------------------------------


def torus_closure(frame):
    """Frame mismatch U(p + period) - U(p) over the base nodes, the pair
    (x_defect, y_defect) over one x and one y period, from the monodromies of
    a closing frame.

    The march reuses the periodic cell propagators, so the frame continued
    past the period is, exactly,
    U(i + nx, j) = M_j U(i, j) with the row monodromy M_j = U(nx, j) U(0, j)^-1,
    and U(i, j + ny) = L_i U(i, j) with L_i = U(i, ny) U(i, 0)^-1.  The
    defects are max |(M_j - I) U(i, j)| and max |(L_i - I) U(i, j)|.
    """
    if not frame.closing:
        raise ValueError("torus closure needs a closing frame (integrate_frame(..., closing=True))")
    g = frame.grid
    mats = frame.unitary
    # M_j - I = (U(nx, j) - U(0, j)) U(0, j)^-1, without cancellation in M_j - I
    rows = (mats[: g.ny, g.nx] - mats[: g.ny, 0]) @ np.linalg.inv(mats[: g.ny, 0])
    cols = (mats[g.ny, : g.nx] - mats[0, : g.nx]) @ np.linalg.inv(mats[0, : g.nx])
    # both products with the matrix axes first, into one shared pair of buffers
    base = np.moveaxis(frame.base, (-2, -1), (0, 1))
    out, tmp = np.empty((2,) + base.shape, dtype=complex)
    monodromies = np.moveaxis(rows, 0, -1)[..., None], np.moveaxis(cols, 0, -1)[..., None, :]
    return tuple(float(np.abs(_mul3(mono, base, out, tmp)).max()) for mono in monodromies)


def full_report(frame, radius):
    """Every verification residual of the surface r = R * N of ``frame``, a
    dict of named sup norms, against the closed forms at the frame's own u
    and theta; a closing frame adds closure_defect.  Every residual read from
    the frame's tangents comes from extract_second_form's one pass over
    blocks of the frame, so no whole-grid tangent exists, and each whole-grid
    intermediate is dropped once the residuals that read it are taken: the
    report's memory stays near that of its largest single step."""
    grid = frame.grid
    u = frame.u
    conf = 2.0 * radius**2 * np.exp(u.values)

    tens, ncf, (normality, conformal, sphere) = extract_second_form(frame, radius)
    closed = inv.closed_form_tensor(u.values, frame.theta)
    tensor_match = float(np.abs(tens - closed).max())
    trace_max = float(np.abs(inv.trace_vector(tens)).max())

    target = -2.0 * radius * np.exp(u.values)
    normal_coeff = max(
        float(np.abs(ncf[0, 0] - target).max()),
        float(np.abs(ncf[1, 1] - target).max()),
        float(np.abs(ncf[0, 1]).max()),
        float(np.abs(ncf[1, 0]).max()),
    )
    del ncf, closed, target

    h2, t2, t4 = inv.scalar_invariants(tens, conf)
    h2_max = float(np.abs(h2).max())
    connection = inv.christoffel_from_field(u)
    codazzi = float(inv.codazzi_residual(tens, connection, conf, grid.hx, grid.hy).max())
    del tens

    k_curv = inv.gauss_curvature(conf, inv.riemann(connection, grid.hx, grid.hy))
    gauss = float(np.abs(inv.gauss_residual(k_curv, h2, t2, radius)).max())

    scale3 = radius**2 * np.exp(3.0 * u.values)
    scale6 = radius**4 * np.exp(6.0 * u.values)
    t2_defect = float(np.abs(t2 * scale3 - 2.0).max())
    t4_defect = float(np.abs(t4 * scale6 - 2.0).max())

    report = dict(
        normality_defect=normality,
        conformal_defect=conformal,
        minimality_H=math.sqrt(max(h2_max, 0.0)),
        h2_max=h2_max,
        tensor_match_defect=tensor_match,
        tensor_trace_max=trace_max,
        normal_coeff_defect=normal_coeff,
        gauss_defect=gauss,
        gauss_curvature_max=float(np.abs(k_curv).max()),
        codazzi_defect=codazzi,
        invariant_t2_defect=t2_defect,
        invariant_t4_defect=t4_defect,
        sphere_defect=sphere,
        unitarity_defect=frame.unitarity_defect,
    )
    if frame.closing:
        report["closure_defect"] = max(torus_closure(frame))
    return report
