"""Connection, curvature and cubic-form invariants of the immersed surfaces.

Index conventions: coordinate index 0 is x, coordinate index 1 is y.  Tensor
fields store component axes first and node axes last, the y nodes before the
x nodes (the grid's (ny, nx)), so every contraction runs over contiguous node
planes.  All functions broadcast over trailing node axes, so single-node
tensors (shape (2, 2, 2) etc.) work unchanged.

The surfaces are conformally immersed, so their induced metric is c I with
the conformal factor c = 2 R^2 e^u (the report certifies this as
conformal_defect).  The curvature and cubic-form invariants therefore take c,
of the node shape, as their metric: raising an index divides by c and
lowering one multiplies by it.  Every connection coefficient of c I is +-a
or +-b, so the connection is the pair of planes (a, b) = (u_x/2, u_y/2); it
is torsion-free and has one independent curvature component, r^1_001.

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

NODE_X, NODE_Y = -1, -2  # array axes of the x and y nodes


# ---------------------------------------------------------------------------
# connection and curvature
# ---------------------------------------------------------------------------


def christoffel_from_field(u):
    """The connection (a, b) = (u_x/2, u_y/2) of the metric c e^u (dx^2 + dy^2)
    from the grid's derivatives of a periodic exponent field u (independent
    of the constant c): two (ny, nx) planes."""
    g = u.grid
    return gridmod.deriv(u.values, g.hx, NODE_X) / 2.0, gridmod.deriv(u.values, g.hy, NODE_Y) / 2.0


def riemann(connection, hx, hy):
    """The one independent curvature component r^1_001 = d_x a + d_y b of the
    conformal connection (a, b) of christoffel_from_field, with the grid's
    4th-order derivatives, shape (ny, nx).

    Of r^s_kij = d_i gamma^s_kj - d_j gamma^s_ki - gamma^r_ki gamma^s_rj
    + gamma^r_kj gamma^s_ri, the quadratic terms cancel identically for this
    connection, r^0_101 = -r^1_001, and the other components follow from
    antisymmetry in (i, j) or vanish.
    """
    return gridmod.deriv(connection[0], hx, NODE_X) + gridmod.deriv(connection[1], hy, NODE_Y)


def gauss_curvature(conf, r):
    """K = (1/2) g^{kj} r^s_ksj of the metric g = conf I from the component
    r = r^1_001 of riemann: -r / conf, which is -(1/2) e^-phi Laplacian(phi)
    for conf = e^phi."""
    return -np.asarray(r) / conf


def gauss_residual(k_curv, h2, t2, radius):
    """Scalar Gauss identity defect 2K - H^2 + t2 - 2/R^2."""
    return 2.0 * np.asarray(k_curv) - np.asarray(h2) + np.asarray(t2) - 2.0 / radius**2


# ---------------------------------------------------------------------------
# cubic form: invariants, trace, closed forms
# ---------------------------------------------------------------------------


def trace_vector(t):
    """m_s = t^i_is; zero exactly on minimal surfaces."""
    return np.einsum("iis...->s...", np.asarray(t))


def scalar_invariants(t, conf):
    """Second-order invariants (h2, t2) and the fourth-order invariant t4 of
    the cubic form t under the metric conf I.

    h2 = m_s m_s / conf is the squared length of the traced cubic form (the
    squared mean curvature), t2 its complete self-contraction, and t4 the
    trace of the squared contraction matrix q^a_c = t^a_jk t^c_jk / conf,
    whose trace is t2.  Raises DegenerateMetricError where the metric's
    determinant conf^2 is zero or not finite in double precision.
    """
    t = np.asarray(t)
    conf = np.asarray(conf, dtype=float)
    with np.errstate(over="ignore"):
        det = conf * conf
    if not np.all(np.isfinite(det) & (det != 0)):
        raise DegenerateMetricError("metric determinant is zero or not finite")
    m = trace_vector(t)
    h2 = (m[0] * m[0] + m[1] * m[1]) / conf
    q = np.einsum("ajk...,cjk...->ac...", t, t) / conf
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


def codazzi_residual(t, connection, conf, hx, hy):
    """Per-node max over index choices of nabla_i t_jsk - nabla_j t_isk, on
    periodic fields, with t lowered by the metric conf I and the conformal
    connection (a, b) of christoffel_from_field.  The difference vanishes for
    i = j and changes sign under i <-> j, so only nabla_0 t_1sk and
    nabla_1 t_0sk are formed; the term gam^r_ij t_rsk of nabla_i t_jsk is
    symmetric in (i, j) for a torsion-free connection and cancels from it.
    The rest, (G_i^T t_j + t_j G_i)[s, k] with G_i[r, s] = gam^r_is, is
    2 p t_j + q (t_j J - J t_j) for G_i = p I + q J: G_0 = a I + b J and
    G_1 = b I - a J with J = [[0, 1], [-1, 0]]."""
    a, b = connection
    t_low = conf * np.asarray(t)

    def nabla(j, p, q, h, axis):
        # nabla_i t_jsk + gam^r_ij t_rsk; t_j J - J t_j = [[-o, d], [d, o]]
        tj = t_low[j]
        o, d = tj[0, 1] + tj[1, 0], tj[0, 0] - tj[1, 1]
        bracket = np.stack((np.stack((-o, d)), np.stack((d, o))))
        return gridmod.deriv(tj, h, axis) - 2.0 * p * tj - q * bracket

    resid = nabla(1, a, b, hx, NODE_X) - nabla(0, b, -a, hy, NODE_Y)
    return np.abs(resid).max(axis=(0, 1))
