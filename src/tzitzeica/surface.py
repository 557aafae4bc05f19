"""Sphere immersion built from a frame field, and its verification report.

The surface is r = R * N with N the third frame column.  Its tangents have
the closed form

    E1 = i R e^{u/2} (M + L / lam),   E2 = R e^{u/2} (L / lam - M),

which makes the immersion complexly normal (<E_i|N> = 0 in the Hermitian
product) with conformal induced metric g = 2 R^2 e^u I and vanishing skew
form, so the normal-plane vectors are F_i = i E_i.  The cubic form is
extracted by numerically differentiating the tangent fields at substep
resolution (stencils marched from each node, no periodicity assumed),
subtracting the conformal connection, and projecting onto (F1, F2, N).

Torus closure is read off the frame's monodromies over one period in x and
in y, from the wrap-around row and column of a closing frame (see
torus_closure); no second period is integrated or stored.
"""

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from . import invariants as inv
from .lax import frame_axis_stencil, frame_orthonormality_report
from .linalg3 import hermitian_inner


@dataclass
class SurfaceMesh:
    grid: object
    points: np.ndarray = field(repr=False)  # (ny, nx, 3) complex, |r| = R
    radius: float


def tangent_analytic(frame, radius):
    """Closed-form tangents, each (3, ny, nx), from the first two columns of
    the base-node frames, read in place, and the frame's exponent field."""
    base = np.moveaxis(frame.base, (-2, -1), (0, 1))
    return _tangents_at(base, frame.u.values, frame.spectral.lam, radius)


def _normal(frame):
    """Third frame column at the base nodes, (3, ny, nx)."""
    return np.moveaxis(frame.normal, -1, 0)


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


def _fd4_stencil(values, h):
    """4th-order first derivative from 5 samples at offsets -2..2 of size h;
    the centre sample is not read."""
    return (-values[4] + 8.0 * values[3] - 8.0 * values[1] + values[0]) / (12.0 * h)


def extract_second_form(frame, radius, gamma):
    """Cubic-form components t[k, i, j], shape (2, 2, 2, ny, nx), from
    numerical derivatives of the tangents, and the normal coefficient of
    nabla_i E_j, shape (2, 2, ny, nx) complex, which must be -2 R e^u delta_ij.

    Tangent derivatives use 5-point stencils at substep spacing, marched from
    each node, so no periodicity of the frame is assumed; gamma is the
    connection of the frame's u (invariants.christoffel_from_field).  The
    stencil frames exist one block of node rows at a time
    (lax.frame_axis_stencil), and each block is reduced at once to the
    derivatives d_i E_j of its nodes and projected onto (F1, F2, N), so no
    whole-grid derivative exists.
    """
    grid = frame.grid
    u = frame.u.values
    lam = frame.spectral.lam
    m = frame.substeps
    conf = 2.0 * radius**2 * np.exp(u)

    tens = np.empty((2, 2, 2, grid.ny, grid.nx))
    ncoeff = np.empty((2, 2, grid.ny, grid.nx), dtype=complex)
    for i, (axis, h) in enumerate((("x", grid.hx), ("y", grid.hy))):

        def project(block, frames, u_samples, i=i, h=h):
            # the tangents at the stencil's four outer samples, then at the nodes
            near = {k: _tangents_at(frames[k], u_samples[k], lam, radius) for k in (0, 1, 3, 4)}
            tangents = e1, e2 = _tangents_at(frames[2], u[block], lam, radius)
            normal = frames[2][:, 2]
            for j in range(2):
                partial = _fd4_stencil({k: es[j] for k, es in near.items()}, h / m)
                nab = partial - (gamma[0, i, j][block] * e1 + gamma[1, i, j][block] * e2)
                for k in range(2):
                    proj = hermitian_inner(1j * tangents[k], nab).real
                    tens[k, i, j][block] = proj / conf[block]
                ncoeff[i, j][block] = hermitian_inner(normal, nab)

        frame_axis_stencil(frame, axis, project)
    return tens, ncoeff


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
    closure_defect: float | None = None

    def to_dict(self):
        return {k: float(v) for k, v in asdict(self).items() if v is not None}


def full_report(frame, radius):
    """Evaluate every verification residual on the surface r = R * N of
    ``frame``, against the closed forms at the frame's own u and theta; a
    closing frame adds closure_defect.  Each whole-grid intermediate is
    dropped once the residuals that read it are taken, so the report's memory
    stays near that of its largest single step."""
    grid = frame.grid
    u = frame.u
    conf = 2.0 * radius**2 * np.exp(u.values)

    e1, e2 = tangent_analytic(frame, radius)
    normal = _normal(frame)
    normality = float(normality_map(e1, e2, normal).max())
    g_meas, om_meas = inv.hermitian_induced(e1, e2, check=False)
    conformal = max(
        float(np.abs(g_meas[0, 0] - conf).max()),
        float(np.abs(g_meas[1, 1] - conf).max()),
        float(np.abs(g_meas[0, 1]).max()),
        float(np.abs(om_meas).max()),
    )
    del e1, e2, g_meas, om_meas

    gamma = inv.christoffel_from_field(u)
    tens, ncf = extract_second_form(frame, radius, gamma)
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

    g_an = np.zeros((2, 2) + conf.shape)
    g_an[0, 0] = conf
    g_an[1, 1] = conf
    h2, t2, t4 = inv.scalar_invariants(tens, g_an)
    h2_max = float(np.abs(h2).max())

    k_curv = inv.gauss_curvature(g_an, inv.riemann(gamma, grid.hx, grid.hy))
    gauss = float(np.abs(inv.gauss_residual(k_curv, h2, t2, radius)).max())
    codazzi = float(inv.codazzi_residual(tens, gamma, g_an, grid.hx, grid.hy).max())

    scale3 = radius**2 * np.exp(3.0 * u.values)
    scale6 = radius**4 * np.exp(6.0 * u.values)
    t2_defect = float(np.abs(t2 * scale3 - 2.0).max())
    t4_defect = float(np.abs(t4 * scale6 - 2.0).max())

    radii = np.sqrt(np.sum(np.abs(radius * normal) ** 2, axis=0))
    sphere = float(np.abs(radii - radius).max())

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
