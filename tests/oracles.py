"""Independent oracles the tests check pipeline quantities against.

None of these is on the pipeline's path: the generic Levi-Civita connection
cross-checks the conformal closed form, grid differencing of the embedding
cross-checks the analytic tangents, DOP853 shooting cross-checks the
travelling wave's closed form and its quadrature period, trigonometric
interpolation of a wave profile's samples cross-checks its closed-form
evaluation, the OBJ reader reads back what the export stage wrote, and the
loop triangulation cross-checks the vectorized one.
"""

import numpy as np
from scipy.integrate import solve_ivp

from tzitzeica.grid import AXIS_X, AXIS_Y, ddx, ddy, deriv, deriv_nonperiodic
from tzitzeica.invariants import check_spd, inv2
from tzitzeica.wave import _cubic_roots, period_quadrature


def _dfield(values, h, axis, periodic, method):
    if periodic:
        return deriv(values, h, axis, method)
    return deriv_nonperiodic(values, h, axis)


def christoffel_generic(g, hx, hy, periodic=True, method="fd4"):
    """Levi-Civita connection of an arbitrary 2D metric field via
    gamma^k_ij = g^{ks}/2 (d_i g_sj + d_j g_is - d_s g_ij)."""
    g = np.asarray(g, dtype=float)
    check_spd(g)
    ginv = inv2(g)
    dg = np.stack(
        [
            _dfield(g, hx, AXIS_X, periodic, method),
            _dfield(g, hy, AXIS_Y, periodic, method),
        ],
        axis=-3,
    )  # dg[..., a, i, j] = d_a g_ij
    bracket = (
        np.einsum("...isj->...sij", dg)
        + np.einsum("...jis->...sij", dg)
        - dg
    )
    return 0.5 * np.einsum("...ks,...sij->...kij", ginv, bracket)


def fd_tangents(mesh, method="fd4"):
    """Grid finite-difference tangents of the embedding (valid when the frame
    closes over the grid periods)."""
    return (
        ddx(mesh.points, mesh.grid, method),
        ddy(mesh.points, mesh.grid, method),
    )


def turning_points(energy):
    """u_lo < 0 < u_hi with V(u) = E."""
    _, w_lo, w_hi = _cubic_roots(energy)
    return float(np.log(w_lo)), float(np.log(w_hi))


def shoot(energy):
    """Period and dense (u, u') solution of one orbit of u'' = 4 e^{-2u} - 4 e^u
    from the upper turning point, by DOP853 integration.

    The orbit runs u_hi -> u_lo -> u_hi; by time-reversal symmetry the first
    upward crossing of u' = 0 happens exactly at half a period.
    """
    _, u_hi = turning_points(energy)

    def rhs(_t, state):
        u, v = state
        return (v, 4.0 * np.exp(-2.0 * u) - 4.0 * np.exp(u))

    def turning(_t, state):
        return state[1]

    turning.direction = 1.0
    sol = solve_ivp(rhs, (0.0, 1.5 * period_quadrature(energy)), [u_hi, 0.0], method="DOP853",
                    rtol=1e-12, atol=1e-14, dense_output=True, events=turning)
    assert sol.success and len(sol.t_events[0]) > 0, f"shooting failed at E={energy}: {sol.message}"
    return 2.0 * float(sol.t_events[0][0]), sol.sol


def period_shooting(energy):
    return shoot(energy)[0]


def trig_profile(profile, x):
    """Trigonometric interpolant of a wave profile's stored samples at x
    (periodically wrapped)."""
    xm = np.mod(np.asarray(x, dtype=float), profile.period)
    n = len(profile.u)
    coeff = np.fft.rfft(profile.u) / n
    k = np.arange(len(coeff))
    phase = np.exp(2j * np.pi * np.outer(np.ravel(xm) / profile.period, k))
    vals = (phase[:, 0] * coeff[0]).real + 2.0 * (phase[:, 1:] @ coeff[1:]).real
    if n % 2 == 0:
        vals -= (phase[:, -1] * coeff[-1]).real
    return vals.reshape(np.shape(xm))


def parse_obj(path):
    """Minimal OBJ reader for round-trip checks: returns (verts, faces)."""
    verts, faces = [], []
    with open(path) as fh:
        for line in fh:
            parts = line.split()
            if not parts:
                continue
            if parts[0] == "v":
                verts.append([float(v) for v in parts[1:4]])
            elif parts[0] == "f":
                faces.append([int(v.split("/")[0]) - 1 for v in parts[1:4]])
    return np.asarray(verts), np.asarray(faces, dtype=int)


def grid_faces_loop(nx, ny):
    """Two triangles per quad of the (nx, ny) torus grid, one quad at a time
    with y outer; vertex index of node (i, j) is j*nx + i."""
    faces = []
    for j in range(ny):
        jn = (j + 1) % ny
        for i in range(nx):
            inx = (i + 1) % nx
            v00 = j * nx + i
            v10 = j * nx + inx
            v11 = jn * nx + inx
            v01 = jn * nx + i
            faces.append((v00, v10, v11))
            faces.append((v00, v11, v01))
    return faces
