"""Induced tensors and scalar invariants of immersed surfaces.

Index conventions: coordinate index 0 is x, coordinate index 1 is y.  Tensor
fields store component axes first and node axes last, the y nodes before the
x nodes (the grid's (ny, nx)), so every contraction runs over contiguous node
planes: a metric field has shape (2, 2, ny, nx), connection coefficients
gamma[k, i, j] live in (2, 2, 2, ...) with the upper index first, and
curvature r[s, k, i, j] in (2, 2, 2, 2, ...).  All functions broadcast over
trailing node axes, so single-node tensors (shape (2, 2) etc.) work
unchanged.

The cubic form t[k, i, j] (mixed components, upper index first) is fully
symmetric once lowered with the metric; its trace vector vanishes exactly for
minimal surfaces.  For the conformal family with unit-modulus parameter
e^{i*theta} the closed-form components are

    t^1_11 = e^-u cos(theta)   t^1_12 = t^1_21 = -e^-u sin(theta)
    t^2_22 = e^-u sin(theta)   t^2_11 = -e^-u sin(theta)
    t^1_22 = -e^-u cos(theta)  t^2_12 = t^2_21 = -e^-u cos(theta)

(with the sign of t^2_12 fixed by full symmetry of the lowered tensor).
"""

import numpy as np

from . import grid as gridmod
from .errors import DegenerateMetricError

SPD_EIG_RATIO = 1e-12
NODE_X, NODE_Y = -1, -2  # array axes of the x and y nodes


def check_spd(g, what="metric"):
    """Raise DegenerateMetricError where the symmetric 2x2 field g has an
    eigenvalue lo <= SPD_EIG_RATIO * |hi|; the eigenvalues are the closed form
    mid -+ hypot((g00 - g11) / 2, g01)."""
    lo, hi = _eigenvalues2(g)
    bad = lo <= SPD_EIG_RATIO * np.abs(hi)
    if np.any(bad):
        raise DegenerateMetricError(
            f"{what} is degenerate at {int(np.count_nonzero(bad))} node(s); "
            f"min eigenvalue ratio {float((lo / np.abs(hi)).min()):.3e}"
        )


def _eigenvalues2(g):
    """(lo, hi), the eigenvalues of each symmetric 2x2 matrix of g."""
    g = np.asarray(g)
    mid = 0.5 * (g[0, 0] + g[1, 1])
    rad = np.hypot(0.5 * (g[0, 0] - g[1, 1]), g[0, 1])
    return mid - rad, mid + rad


def inv2(g):
    """Explicit 2x2 inverse; keeps symmetry bit-exact for symmetric input.
    Raises DegenerateMetricError where the determinant is zero or not finite
    (a metric too large for double precision)."""
    g = np.asarray(g)
    with np.errstate(over="ignore", invalid="ignore"):
        det = g[0, 0] * g[1, 1] - g[0, 1] * g[1, 0]
    if not np.all(np.isfinite(det) & (det != 0)):
        raise DegenerateMetricError("metric determinant is zero or not finite")
    out = np.empty_like(g)
    out[0, 0] = g[1, 1] / det
    out[1, 1] = g[0, 0] / det
    out[0, 1] = -g[0, 1] / det
    out[1, 0] = -g[1, 0] / det
    return out


def hermitian_induced(e1, e2, check=True):
    """Induced metric g and skew form w from tangent vectors of shape
    (3, ...): the Hermitian Gram matrix h_ab = <E_a|E_b> splits as g + i w."""
    e = np.stack([np.asarray(e1), np.asarray(e2)])
    h = np.einsum("ac...,bc...->ab...", np.conj(e), e)
    g, omega = h.real, h.imag
    if check:
        check_spd(g, "induced metric")
    return g, omega


# ---------------------------------------------------------------------------
# connection and curvature
# ---------------------------------------------------------------------------


def christoffel_conformal(ux, uy):
    """Connection coefficients of the metric c e^u (dx^2 + dy^2) from the
    derivative fields of u (independent of the constant c)."""
    ux = np.asarray(ux, dtype=float)
    uy = np.asarray(uy, dtype=float)
    gam = np.zeros((2, 2, 2) + ux.shape)
    gam[0, 0, 0] = ux / 2.0
    gam[1, 0, 0] = -uy / 2.0
    gam[0, 0, 1] = gam[0, 1, 0] = uy / 2.0
    gam[1, 1, 1] = uy / 2.0
    gam[0, 1, 1] = -ux / 2.0
    gam[1, 0, 1] = gam[1, 1, 0] = ux / 2.0
    return gam


def christoffel_from_field(u):
    """Conformal-metric connection evaluated on a periodic exponent field."""
    ux = gridmod.ddx(u.values, u.grid)
    uy = gridmod.ddy(u.values, u.grid)
    return christoffel_conformal(ux, uy)


def riemann(gamma, hx, hy):
    """Curvature tensor r^s_kij = d_i gamma^s_kj - d_j gamma^s_ki
    - gamma^r_ki gamma^s_rj + gamma^r_kj gamma^s_ri of a periodic connection,
    with the grid's 4th-order derivatives.

    In two dimensions only the (i, j) = (0, 1) component is independent; the
    (1, 0) slot is stored as its exact negation, so antisymmetry holds
    bit-for-bit.
    """
    gamma = np.asarray(gamma, dtype=float)
    # the core reads only d_x gamma^s_k1 and d_y gamma^s_k0
    dx_gam1 = gridmod.deriv(gamma[:, :, 1], hx, NODE_X)
    dy_gam0 = gridmod.deriv(gamma[:, :, 0], hy, NODE_Y)
    riem = np.zeros((2,) + gamma.shape)
    for s in range(2):
        for k in range(2):
            core = (
                dx_gam1[s, k]
                - dy_gam0[s, k]
                - np.einsum("r...,r...->...", gamma[:, k, 0], gamma[s, :, 1])
                + np.einsum("r...,r...->...", gamma[:, k, 1], gamma[s, :, 0])
            )
            riem[s, k, 0, 1] = core
            riem[s, k, 1, 0] = -core
    return riem


def gauss_curvature(g, riem):
    """K = (1/2) g^{kj} r^s_ksj; inv2 rejects a singular g, and the caller
    checks that g is positive definite."""
    ginv = inv2(np.asarray(g, dtype=float))
    return 0.5 * np.einsum("kj...,sksj...->...", ginv, np.asarray(riem))


def gauss_residual(k_curv, h2, t2, radius):
    """Scalar Gauss identity defect 2K - H^2 + t2 - 2/R^2."""
    return 2.0 * np.asarray(k_curv) - np.asarray(h2) + np.asarray(t2) - 2.0 / radius**2


# ---------------------------------------------------------------------------
# cubic form: invariants, trace, closed forms
# ---------------------------------------------------------------------------


def lower_tensor(t, g):
    """t_kij = g_ks t^s_ij."""
    return np.einsum("ks...,sij...->kij...", np.asarray(g), np.asarray(t))


def trace_vector(t):
    """m_s = t^i_is; zero exactly on minimal surfaces."""
    return np.einsum("iis...->s...", np.asarray(t))


def scalar_invariants(t, g):
    """Second-order invariants (h2, t2) and the fourth-order invariant t4.

    h2 is the squared length of the traced cubic form (the squared mean
    curvature), t2 its complete self-contraction, and t4 the trace of the
    squared contraction matrix q^a_c = t^ajk t_cjk, whose trace is t2; all
    index moves use g, which must be positive definite.
    """
    t = np.asarray(t)
    g = np.asarray(g, dtype=float)
    check_spd(g)
    ginv = inv2(g)
    m = trace_vector(t)
    h2 = np.einsum("sk...,s...,k...->...", ginv, m, m)
    t_low = lower_tensor(t, g)
    t_up = np.einsum("aij...,bi...,cj...->abc...", t, ginv, ginv)
    q = np.einsum("ajk...,cjk...->ac...", t_up, t_low)
    t2 = q[0, 0] + q[1, 1]
    t4 = np.einsum("ac...,ca...->...", q, q)
    return h2, t2, t4


def closed_form_tensor(u, theta):
    """Mixed cubic-form components of the conformal minimal family."""
    u = np.asarray(u, dtype=float)
    a = np.exp(-u) * np.cos(theta)
    b = np.exp(-u) * np.sin(theta)
    t = np.zeros((2, 2, 2) + u.shape)
    t[0, 0, 0] = a
    t[1, 0, 1] = t[1, 1, 0] = t[0, 1, 1] = -a
    t[1, 1, 1] = b
    t[0, 0, 1] = t[0, 1, 0] = t[1, 0, 0] = -b
    return t


def codazzi_residual(t, gamma, g, hx, hy):
    """Per-node max over index choices of nabla_i t_jsk - nabla_j t_isk, on
    periodic fields.  The difference vanishes for i = j and changes sign
    under i <-> j, so only nabla_0 t_1sk and nabla_1 t_0sk are formed."""
    t_low = lower_tensor(t, g)
    gamma = np.asarray(gamma, dtype=float)

    def nabla(i, j, h, axis):
        # nabla_i t_jsk = d_i t_jsk - gam^r_ij t_rsk - gam^r_is t_jrk - gam^r_ik t_jsr
        return (
            gridmod.deriv(t_low[j], h, axis)
            - np.einsum("r...,rsk...->sk...", gamma[:, i, j], t_low)
            - np.einsum("rs...,rk...->sk...", gamma[:, i], t_low[j])
            - np.einsum("rk...,sr...->sk...", gamma[:, i], t_low[j])
        )

    resid = nabla(0, 1, hx, NODE_X) - nabla(1, 0, hy, NODE_Y)
    return np.abs(resid).max(axis=(0, 1))
