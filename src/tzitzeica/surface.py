"""Sphere immersion built from a frame field, and its verification report.

The surface is r = R * N with N the third frame column.  Its tangents have
the closed form

    E1 = i R e^{u/2} (M + L / lam),   E2 = R e^{u/2} (L / lam - M),

which makes the immersion complexly normal (<E_i|N> = 0 in the Hermitian
product) with conformal induced metric g = 2 R^2 e^u I and vanishing skew
form, so the normal-plane vectors are F_i = i E_i.  The cubic form is
extracted from the exact derivatives of the tangent fields, which the frame
equation d_i U = U W_i gives at each node without differencing, by
subtracting the conformal connection and projecting onto (F1, F2, N).  The
tangents exist one block of nodes at a time, in that one pass, which also
measures how far they are from normal, conformal and on the sphere.

Torus closure is read off the frame's monodromies over one period in x and
in y, from the wrap-around row and column of a closing frame (see
torus_closure); no second period is integrated or stored.
"""

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from . import invariants as inv
from .grid import spectral_gradient
from .lax import frame_axis_stencil, frame_orthonormality_report
from .linalg3 import hermitian_inner


@dataclass
class SurfaceMesh:
    grid: object
    points: np.ndarray = field(repr=False)  # (ny, nx, 3) complex, |r| = R
    radius: float


def build_surface(frame, radius):
    """Embed r = R * N."""
    return SurfaceMesh(frame.grid, radius * frame.normal, float(radius))


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


def extract_second_form(frame, radius, gamma):
    """Cubic-form components t[k, i, j], shape (2, 2, 2, ny, nx), from the
    exact derivatives of the tangents; the normal coefficient of
    nabla_i E_j, shape (2, 2, ny, nx) complex, which must be -2 R e^u delta_ij;
    and the tangents' first-order defects over the grid, (normality,
    conformal, sphere): max |<E_i|N>|, the largest deviation of the Hermitian
    Gram matrix of (E1, E2) from 2 R^2 e^u I, and max | |R N| - R |.

    The frame solves d_i U = U W_i, so d_i E_j = (u_i / 2) E_j + T_j(U W_i),
    with T_j the tangent map applied to the columns of U W_i and u_i from
    grid.spectral_gradient, which the frame's generators read; gamma is the
    connection of the frame's u (invariants.christoffel_from_field).  U W_x
    and U W_y exist one block of node rows at a time (lax.frame_axis_stencil).
    Each block's tangents and normal are formed once: their defects are taken
    as running maxima, and both axes' d_i E_j are projected onto (F1, F2, N)
    within the block, so no whole-grid tangent or derivative exists.
    """
    grid = frame.grid
    u = frame.u.values
    lam = frame.spectral.lam
    conf = 2.0 * radius**2 * np.exp(u)
    grads = spectral_gradient(u, grid)

    tens = np.empty((2, 2, 2, grid.ny, grid.nx))
    ncoeff = np.empty((2, 2, grid.ny, grid.nx), dtype=complex)
    first = np.zeros(3)  # running maxima: normality, conformal, sphere

    def project(block, frames, derivs):
        tangents = e1, e2 = _tangents_at(frames, u[block], lam, radius)
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
        for i in range(2):
            from_uw = _tangents_at(derivs[i], u[block], lam, radius)
            half = 0.5 * grads[i][block]
            for j in range(2):
                partial = half * tangents[j] + from_uw[j]
                nab = partial - (gamma[0, i, j][block] * e1 + gamma[1, i, j][block] * e2)
                for k in range(2):
                    proj = hermitian_inner(1j * tangents[k], nab).real
                    tens[k, i, j][block] = proj / conf[block]
                ncoeff[i, j][block] = hermitian_inner(normal, nab)

    frame_axis_stencil(frame, grads, project)
    return tens, ncoeff, tuple(map(float, first))


# ---------------------------------------------------------------------------
# closure and the full report
# ---------------------------------------------------------------------------


@dataclass
class ClosureReport:
    """Frame mismatch over one x period and over one y period."""

    x_defect: float
    y_defect: float

    @property
    def max_defect(self):
        return max(self.x_defect, self.y_defect)


def torus_closure(frame):
    """Frame mismatch U(p + period) - U(p) over the base nodes, for the x and
    the y period, from the monodromies of a closing frame.

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
    base = frame.base
    # M_j - I = (U(nx, j) - U(0, j)) U(0, j)^-1, without cancellation in M_j - I
    rows = (mats[: g.ny, g.nx] - mats[: g.ny, 0]) @ np.linalg.inv(mats[: g.ny, 0])
    cols = (mats[g.ny, : g.nx] - mats[0, : g.nx]) @ np.linalg.inv(mats[0, : g.nx])
    x_defect = float(np.abs(rows[:, None] @ base).max())
    y_defect = float(np.abs(cols[None, :] @ base).max())
    return ClosureReport(x_defect, y_defect)


@dataclass
class ImmersionReport:
    """Named sup-norm residuals of one built surface."""

    normality_defect: float
    conformal_defect: float
    minimality_H: float
    h2_max: float
    tensor_match_defect: float
    tensor_trace_max: float
    normal_coeff_defect: float
    gauss_defect: float
    gauss_curvature_max: float
    codazzi_defect: float
    invariant_t2_defect: float
    invariant_t4_defect: float
    sphere_defect: float
    unitarity_defect: float
    closure_defect: float | None

    def to_dict(self):
        return {k: float(v) for k, v in asdict(self).items() if v is not None}


def full_report(frame, radius):
    """Evaluate every verification residual on the surface r = R * N of
    ``frame``, against the closed forms at the frame's own u and theta; a
    closing frame adds closure_defect.  Every residual read from the frame's
    tangents comes from extract_second_form's one pass over blocks of the
    frame, so no whole-grid tangent exists, and each whole-grid intermediate
    is dropped once the residuals that read it are taken: the report's memory
    stays near that of its largest single step."""
    grid = frame.grid
    u = frame.u
    conf = 2.0 * radius**2 * np.exp(u.values)

    gamma = inv.christoffel_from_field(u)
    tens, ncf, (normality, conformal, sphere) = extract_second_form(frame, radius, gamma)
    closed = inv.closed_form_tensor(u.values, frame.spectral.theta)
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
    codazzi = float(inv.codazzi_residual(tens, gamma, conf, grid.hx, grid.hy).max())
    del tens

    k_curv = inv.gauss_curvature(conf, inv.riemann(gamma, grid.hx, grid.hy))
    gauss = float(np.abs(inv.gauss_residual(k_curv, h2, t2, radius)).max())

    scale3 = radius**2 * np.exp(3.0 * u.values)
    scale6 = radius**4 * np.exp(6.0 * u.values)
    t2_defect = float(np.abs(t2 * scale3 - 2.0).max())
    t4_defect = float(np.abs(t4 * scale6 - 2.0).max())

    closure = torus_closure(frame).max_defect if frame.closing else None

    return ImmersionReport(
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
        unitarity_defect=frame_orthonormality_report(frame),
        closure_defect=closure,
    )
