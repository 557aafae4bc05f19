"""Independent oracles the tests check pipeline quantities against.

None of these is on the pipeline's path: the eight connection planes of the
conformal metric, built from the pair (u_x/2, u_y/2), and the generic
Levi-Civita connection cross-check that pair, and the curvature formed from
every plane of a connection's derivatives, with its quadratic terms, and
contracted with the inverse of an arbitrary 2x2 metric cross-checks the
conformal connection's one curvature component and measures revolution tori;
the cubic form taken over the whole grid by subtracting the connection from
the tangents' derivatives cross-checks its Gauss-formula extraction; the
Hermitian Gram matrix of arbitrary tangents gives their induced metric and
skew form for the tangent checks, itself checked against index loops; index
loops over their definitions cross-check the contractions of the cubic
form's scalar invariants and the Codazzi connection terms at the metric c I
of a conformal factor c, and the five-operand contraction of the quartic
invariant its leaner pipeline form;
the closed-form tangents over the whole grid cross-check the report's
blockwise first-order defects, grid differencing of the embedding
cross-checks those tangents, DOP853 shooting cross-checks the travelling
wave's closed form and its quadrature period, trigonometric interpolation of
a wave profile's samples cross-checks its closed-form evaluation, the OBJ
reader reads back what the export stage wrote, the loop triangulation
cross-checks the vectorized one, Newton's method with sparse direct steps on
an assembled Laplacian cross-checks the MINRES steps, the PDE's per-node
residual, its Laplacian applied through the solver's symbol table, measures
how nearly a field solves the equation, the fd4 stencil applied on the grid
cross-checks the solver's Laplacian through its Fourier symbol, a row
sampler that forms each call's row phases anew cross-checks the tabled
phases of grid.row_sampler bit for bit, and MINRES with a new array for
every vector update cross-checks the in-place solver.minres bit for bit.

The z / zbar linear system the frame generators are derived from also lives
here, with its bilinear pairing laws and its one-cell compatibility check,
each at the spectral parameter lam = e^{i theta} formed as the frame forms
it: the frame generators that the march's own call lists write
(lax._coeff_x and lax._coeff_y, run by generator) are checked against its
gauge transform, and the marched psi (tests/reference_march.reference_psi)
against the pairing laws.
"""

import numpy as np
import scipy.sparse as sp
from scipy.integrate import solve_ivp
from scipy.sparse.linalg import spsolve

from tzitzeica import lax
from tzitzeica.grid import AXIS_X, AXIS_Y, _trig_phases, deriv, deriv2, spectral_gradient
from tzitzeica.invariants import NODE_X, NODE_Y, christoffel_from_field
from tzitzeica.linalg3 import hermitian_inner
from tzitzeica.solver import laplacian_symbol
from tzitzeica.wave import _cubic_roots, period_quadrature


def inv2(g):
    """Explicit inverse of each 2x2 matrix of the field g (component axes
    first); keeps symmetry bit-exact for symmetric input."""
    g = np.asarray(g)
    det = g[0, 0] * g[1, 1] - g[0, 1] * g[1, 0]
    assert np.all(np.isfinite(det) & (det != 0)), "singular metric"
    out = np.empty_like(g)
    out[0, 0] = g[1, 1] / det
    out[1, 1] = g[0, 0] / det
    out[0, 1] = -g[0, 1] / det
    out[1, 0] = -g[1, 0] / det
    return out


def christoffel_planes(a, b):
    """The connection gamma[k, i, j], shape (2, 2, 2, ...), upper index first,
    of the conformal metric c e^u I from its pair (a, b) = (u_x/2, u_y/2):
    gamma^0 = [[a, b], [b, -a]] and gamma^1 = [[-b, a], [a, b]]."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return np.array([[[a, b], [b, -a]], [[-b, a], [a, b]]])


def christoffel_generic(g, hx, hy):
    """Levi-Civita connection of an arbitrary periodic 2D metric field g[i, j]
    of shape (2, 2, ny, nx) via
    gamma^k_ij = g^{ks}/2 (d_i g_sj + d_j g_is - d_s g_ij)."""
    g = np.asarray(g, dtype=float)
    ginv = inv2(g)
    dg = np.stack([deriv(g, hx, NODE_X), deriv(g, hy, NODE_Y)])  # dg[a, i, j] = d_a g_ij
    bracket = (
        np.einsum("isj...->sij...", dg)
        + np.einsum("jis...->sij...", dg)
        - dg
    )
    return 0.5 * np.einsum("ks...,sij...->kij...", ginv, bracket)


def gauss_curvature_generic(g, riem):
    """K = (1/2) g^{kj} r^s_ksj of an arbitrary metric field g[i, j] of shape
    (2, 2, ...)."""
    return 0.5 * np.einsum("kj...,sksj...->...", inv2(g), np.asarray(riem))


def lower_tensor_loops(t, g):
    """t_kij = sum_s g_ks t^s_ij of one node's components, by index loops."""
    return np.array([[[sum(g[k, s] * t[s, i, j] for s in range(2)) for j in range(2)]
                      for i in range(2)] for k in range(2)])


def hermitian_induced(e1, e2):
    """Induced metric g and skew form w from tangent vectors of shape
    (3, ...): the Hermitian Gram matrix h_ab = <E_a|E_b> splits as g + i w."""
    e = np.stack([np.asarray(e1), np.asarray(e2)])
    h = np.einsum("ac...,bc...->ab...", np.conj(e), e)
    return h.real, h.imag


def hermitian_induced_loops(e1, e2):
    """g_ab + i w_ab = sum_c conj(E_a^c) E_b^c of one node's tangents, by index
    loops; returns (g, w)."""
    e = (e1, e2)
    h = np.array([[sum(np.conj(e[a][c]) * e[b][c] for c in range(3)) for b in range(2)]
                  for a in range(2)])
    return h.real, h.imag


def scalar_invariants_loops(t, g):
    """(h2, t2, t4) of one node's mixed cubic form t[k, i, j] and metric g, by
    index loops over the definitions, with g^-1 from numpy.linalg.inv:
    m_s = t^i_is, h2 = g^sk m_s m_k, t2 = t^a_bc t_a^bc with t_a^bc =
    g_as g^bi g^cj t^s_ij, and t4 = q^a_c q^c_a with
    q^a_c = t^a_jk g^jp g^kr g_cs t^s_pr."""
    gi = np.linalg.inv(g)
    idx = range(2)
    m = [sum(t[i, i, s] for i in idx) for s in idx]
    h2 = sum(gi[s, k] * m[s] * m[k] for s in idx for k in idx)
    t2 = sum(t[a, b, c] * g[a, s] * gi[b, i] * gi[c, j] * t[s, i, j]
             for a in idx for b in idx for c in idx for s in idx for i in idx for j in idx)
    q = [[sum(t[a, j, k] * gi[j, p] * gi[k, r] * g[c, s] * t[s, p, r]
              for j in idx for k in idx for p in idx for r in idx for s in idx)
          for c in idx] for a in idx]
    t4 = sum(q[a][c] * q[c][a] for a in idx for c in idx)
    return h2, t2, t4


def t4_five_operand(t, g):
    """t4 = q^a_c q^c_a of whole fields, node axes last, with q^a_c =
    t^a_jk g^jp g^kr g_cs t^s_pr contracted by one five-operand einsum."""
    ginv = inv2(g)
    q = np.einsum("ajk...,jp...,kr...,cs...,spr...->ac...", t, ginv, ginv, g, t)
    return np.einsum("ac...,ca...->...", q, q)


def riemann_all_planes(gamma, hx, hy):
    """r^s_kij, shape (2, 2, 2, 2, ...), of an arbitrary periodic connection
    with every plane of d_x gamma and d_y gamma formed, then read as in its
    definition
    d_i gamma^s_kj - d_j gamma^s_ki - gamma^r_ki gamma^s_rj + gamma^r_kj gamma^s_ri
    at (i, j) = (0, 1), the (1, 0) slot its negation."""
    dgam = [deriv(gamma, hx, NODE_X), deriv(gamma, hy, NODE_Y)]
    riem = np.zeros((2,) + gamma.shape)
    for s in range(2):
        for k in range(2):
            core = (
                dgam[0][s, k, 1]
                - dgam[1][s, k, 0]
                - np.einsum("r...,r...->...", gamma[:, k, 0], gamma[s, :, 1])
                + np.einsum("r...,r...->...", gamma[:, k, 1], gamma[s, :, 0])
            )
            riem[s, k, 0, 1] = core
            riem[s, k, 1, 0] = -core
    return riem


def codazzi_loops(t, gamma, g, hx, hy):
    """Per-node max over i, j, s, k of |nabla_i t_jsk - nabla_j t_isk| for
    fields with the node axes last, each connection term summed by index
    loops: nabla_i t_jsk = d_i t_jsk - gam^r_ij t_rsk - gam^r_is t_jrk
    - gam^r_ik t_jsr, with d_i the grid's fd4 derivative of the loop-lowered
    tensor."""
    nodes = list(np.ndindex(t.shape[3:]))
    low = np.empty(t.shape)
    for n in nodes:
        low[(...,) + n] = lower_tensor_loops(t[(...,) + n], g[(...,) + n])
    dt = (deriv(low, hx, -1), deriv(low, hy, -2))
    out = np.zeros(t.shape[3:])
    for n in nodes:
        gam, tl = gamma[(...,) + n], low[(...,) + n]

        def nabla(i, j, s, k):
            return dt[i][(j, s, k) + n] - sum(
                gam[r, i, j] * tl[r, s, k] + gam[r, i, s] * tl[j, r, k] + gam[r, i, k] * tl[j, s, r]
                for r in range(2)
            )

        out[n] = max(abs(nabla(i, j, s, k) - nabla(j, i, s, k))
                     for i in range(2) for j in range(2) for s in range(2) for k in range(2))
    return out


def _tangent_map(mats, u, lam, radius):
    """(T_1, T_2) = (i R e^{u/2} (M + L / lam), R e^{u/2} (L / lam - M)) of
    the columns L, M of the (ny, nx, 3, 3) matrices mats, each (3, ny, nx);
    1 / lam = conj(lam) on the unit circle."""
    col_l, col_m = (np.moveaxis(mats[..., :, k], -1, 0) for k in (0, 1))
    scale = radius * np.exp(0.5 * u)
    inv_lam = np.conj(lam)
    return 1j * scale * (col_m + inv_lam * col_l), scale * (inv_lam * col_l - col_m)


def tangent_analytic(frame, radius):
    """Closed-form tangents E1 = i R e^{u/2} (M + L / lam) and
    E2 = R e^{u/2} (L / lam - M) over the whole grid, each (3, ny, nx), from
    the columns L, M of the base-node frames; the products run in the
    pipeline's order, so its blockwise tangents are matched bit for bit."""
    return _tangent_map(frame.base, frame.u.values, frame.lam, radius)


def second_form_with_connection(frame, radius):
    """Cubic form t[k, i, j] and normal coefficients of nabla_i E_j over the
    whole grid, by subtracting the connection: with E_j from tangent_analytic,
    d_i E_j = (u_i / 2) E_j + T_j(U W_i), u_i from grid.spectral_gradient and
    T_j the tangent map on the columns of U W_i, then
    nabla_i E_j = d_i E_j - gamma^k_ij E_k with gamma from christoffel_planes,
    projected onto i E_k (divided by the metric 2 R^2 e^u) and onto N."""
    u = frame.u.values
    lam = frame.lam
    conf = 2.0 * radius**2 * np.exp(u)
    grads = spectral_gradient(u, frame.grid)
    gamma = christoffel_planes(*christoffel_from_field(frame.u))
    tangents = tangent_analytic(frame, radius)
    normal = np.moveaxis(frame.normal, -1, 0)
    tens = np.empty((2, 2, 2) + u.shape)
    ncoeff = np.empty((2, 2) + u.shape, dtype=complex)
    for i, (coeff, across) in enumerate(((lax._coeff_x, grads[1]), (lax._coeff_y, grads[0]))):
        uw = frame.base @ generator(coeff, u, across, lam)
        from_uw = _tangent_map(uw, u, lam, radius)
        for j in range(2):
            nab = 0.5 * grads[i] * tangents[j] + from_uw[j]
            nab = nab - (gamma[0, i, j] * tangents[0] + gamma[1, i, j] * tangents[1])
            for k in range(2):
                tens[k, i, j] = hermitian_inner(1j * tangents[k], nab).real / conf
            ncoeff[i, j] = hermitian_inner(normal, nab)
    return tens, ncoeff


def fd_tangents(points, grid):
    """Grid finite-difference tangents of the embedding's points (valid when
    the frame closes over the grid periods)."""
    return deriv(points, grid.hx, AXIS_X), deriv(points, grid.hy, AXIS_Y)


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


def pde_residual(u):
    """Per-node residual Delta u - 4 e^{-2u} + 4 e^{u}, the Laplacian applied
    through the solver's symbol table solver.laplacian_symbol, as the solver
    applies it."""
    vals = u.values
    lap = np.fft.irfft2(np.fft.rfft2(vals) * laplacian_symbol(u.grid), vals.shape)
    return lap - 4.0 * np.exp(-2.0 * vals) + 4.0 * np.exp(vals)


def laplacian_fd4(values, grid):
    """The 2D periodic Laplacian of ``values`` by the 4th-order stencil
    grid.deriv2 along each axis."""
    return deriv2(values, grid.hx, AXIS_X) + deriv2(values, grid.hy, AXIS_Y)


def newton_lu(values, grid, tol, max_iter):
    """Newton's method for Delta u = 4 e^{-2u} - 4 e^u on ``grid`` from the
    seed ``values``, each step a sparse direct solve with the Jacobian
    assembled from the dense circulant of the fd4 stencil; returns the field
    values and the sup-norm residual history."""

    def d2(n, h):
        taps = {0: -30.0, 1: 16.0, -1: 16.0, 2: -1.0, -2: -1.0}
        return sp.csr_matrix(sum(c / (12.0 * h * h) * np.roll(np.eye(n), k, axis=1)
                                 for k, c in taps.items()))

    lap = (sp.kron(sp.identity(grid.ny), d2(grid.nx, grid.hx))
           + sp.kron(d2(grid.ny, grid.hy), sp.identity(grid.nx)))
    u = values.ravel()
    history = []
    for _ in range(max_iter + 1):
        r = lap @ u - 4.0 * np.exp(-2.0 * u) + 4.0 * np.exp(u)
        history.append(float(np.abs(r).max()))
        if history[-1] < tol:
            break
        jac = lap + sp.diags(8.0 * np.exp(-2.0 * u) + 4.0 * np.exp(u))
        u = u + spsolve(jac.tocsc(), -r, permc_spec="MMD_AT_PLUS_A")
    return u.reshape(grid.ny, grid.nx), history


# ---------------------------------------------------------------------------
# the psi system, its zero-curvature diagnostic and its bilinear pairing
# ---------------------------------------------------------------------------


def generator(coeff, u, cross, lam):
    """The frame generator that coeff, the march's call list lax._coeff_x or
    lax._coeff_y, writes at samples u and cross (u_y for Wx, u_x for Wy),
    run through lax._run and returned as new (..., 3, 3) matrices."""
    shape = np.shape(u)
    out = np.empty((3, 3) + shape, dtype=complex)
    exps = np.empty((2,) + shape)
    # [i, ...] is a view of the plane even for a scalar u
    lax._run(coeff(u, cross, lam, out, exps[0, ...], exps[1, ...]))
    return np.moveaxis(out, (0, 1), (-2, -1))


def lax_z_matrix(u, u_z, lam):
    """A of d_z psi = A psi."""
    out = np.zeros(np.shape(u) + (3, 3), dtype=complex)
    out[..., 0, 0] = -u_z
    out[..., 0, 2] = 1j * lam
    out[..., 1, 0] = 1j
    out[..., 1, 1] = u_z
    out[..., 2, 1] = 1j
    return out


def lax_zbar_matrix(u, lam):
    """B of d_zbar psi = B psi."""
    out = np.zeros(np.shape(u) + (3, 3), dtype=complex)
    out[..., 0, 1] = 1j * np.exp(-2.0 * u)
    out[..., 1, 2] = 1j * np.exp(u)
    out[..., 2, 0] = 1j * np.exp(u) / lam
    return out


def _expm_taylor(mat):
    """Matrix exponential by its Taylor series to the 12th power."""
    out = np.zeros_like(mat)
    out[...] = np.eye(3)
    power = out.copy()
    for k in range(1, 13):
        power = power @ mat / k
        out = out + power
    return out


def spectral_parameter(theta):
    """lam = cos(theta) + i sin(theta), formed as tzitzeica.lax.FrameField.lam
    forms it."""
    return complex(np.cos(theta), np.sin(theta))


def compatibility_residual(u, theta):
    """Max commutator defect of one-cell transport, x-step then y-step versus
    y-step then x-step.

    The two edge generators are P = A + B (a z-advance plus a zbar-advance by
    the cell width) and Q = i (A - B); the loop defect per cell is
    hx*hy*|d_zbar A - d_z B + [A, B]| + O(h^3), and the bracket expression is
    diag(-1, 1, 0)/4 times the PDE residual, so the defect vanishes with it.
    """
    lam = spectral_parameter(theta)
    grid = u.grid
    vals = u.values
    ux = deriv(vals, grid.hx, AXIS_X)
    uy = deriv(vals, grid.hy, AXIS_Y)
    u_z = 0.5 * (ux - 1j * uy)
    a = lax_z_matrix(vals, u_z, lam)
    b = lax_zbar_matrix(vals, lam)
    p = a + b
    q = 1j * (a - b)
    px_bot = 0.5 * (p + np.roll(p, -1, AXIS_X))
    px_top = np.roll(px_bot, -1, AXIS_Y)
    qy_left = 0.5 * (q + np.roll(q, -1, AXIS_Y))
    qy_right = np.roll(qy_left, -1, AXIS_X)
    tx_bot = _expm_taylor(grid.hx * px_bot)
    tx_top = _expm_taylor(grid.hx * px_top)
    ty_left = _expm_taylor(grid.hy * qy_left)
    ty_right = _expm_taylor(grid.hy * qy_right)
    defect = ty_right @ tx_bot - tx_top @ ty_left
    return float(np.abs(defect).max())


def pairing_series(lam, psis, phis):
    """Bilinear pairing lam (psi1 phi2 - psi2 phi1) - lam^2 psi3 phi3 of psi
    and phi values, elementwise over leading axes.

    For phi propagated at the opposite parameter -mu the pairing obeys
    d_z pairing = i (mu - lam) lam psi2 phi3 and
    d_zbar pairing = i e^u (lam/mu - 1) lam psi3 phi1,
    so it is constant in both variables when mu = lam.
    """
    p = np.asarray(psis, dtype=complex)
    q = np.asarray(phis, dtype=complex)
    return lam * (p[..., 0] * q[..., 1] - p[..., 1] * q[..., 0]) - lam**2 * p[..., 2] * q[..., 2]


def pairing_derivative_z(lam, mu, psis, phis):
    p = np.asarray(psis, dtype=complex)
    q = np.asarray(phis, dtype=complex)
    return 1j * (mu - lam) * lam * p[..., 1] * q[..., 2]


def pairing_derivative_zbar(lam, mu, u, psis, phis):
    p = np.asarray(psis, dtype=complex)
    q = np.asarray(phis, dtype=complex)
    return 1j * np.exp(np.asarray(u)) * (lam / mu - 1.0) * lam * p[..., 2] * q[..., 0]


def pairing_derivative_x(lam, mu, u, psis, phis):
    """d/dx of the pairing when both factors are marched with A + B."""
    return pairing_derivative_z(lam, mu, psis, phis) + pairing_derivative_zbar(
        lam, mu, u, psis, phis
    )


def row_sampler_per_row(arrays, factor, offsets):
    """grid.row_sampler as it was before it tabled the row phases: each call
    forms the phases of its rows with _trig_phases."""
    f = np.asarray(arrays, dtype=float)
    n = f.shape[1]
    spectrum = np.fft.rfft(f.reshape(len(f), n, -1), axis=1)
    parts = np.concatenate((spectrum.real, spectrum.imag), axis=1)
    bins = spectrum.shape[1]
    weight = np.full(bins, 2.0 / n)
    weight[0] = 1.0 / n
    if n % 2 == 0:
        weight[-1] = 1.0 / n
    kernel = weight * _trig_phases(n, factor, offsets)

    def sample(rows):
        phased = (kernel[:, None] * _trig_phases(n, 1, rows)).reshape(-1, bins)
        out = np.matmul(np.concatenate((phased.real, -phased.imag), axis=1), parts)
        return out.reshape((len(f), len(offsets), len(rows)) + f.shape[2:])

    return sample


def minres_allocating(apply, b, rtol, maxiter):
    """solver.minres as it was before it updated its vectors in place: every
    update makes a new array."""
    x = np.zeros_like(b)
    z, az = apply(b)
    beta1 = np.sqrt(np.vdot(b, z))
    if beta1 == 0.0:
        return x, 0, True
    r1 = r2 = b
    w = w2 = np.zeros_like(b)
    oldb, beta, dbar, epsln, phibar, cs, sn = 0.0, beta1, 0.0, 0.0, beta1, -1.0, 0.0
    for itn in range(1, maxiter + 1):
        v = z / beta
        y = az / beta
        if itn >= 2:
            y = y - (beta / oldb) * r1
        alfa = np.vdot(v, y)
        y = y - (alfa / beta) * r2
        r1, r2 = r2, y
        z, az = apply(r2)
        oldb, beta = beta, np.sqrt(np.vdot(r2, z))
        oldeps = epsln
        delta = cs * dbar + sn * alfa
        gbar = sn * dbar - cs * alfa
        epsln = sn * beta
        dbar = -cs * beta
        gamma = max(np.hypot(gbar, beta), np.finfo(float).eps)
        cs, sn = gbar / gamma, beta / gamma
        phi, phibar = cs * phibar, sn * phibar
        w1, w2 = w2, w
        w = (v - oldeps * w1 - delta * w2) / gamma
        x = x + phi * w
        if phibar <= rtol * beta1:
            return x, itn, True
    return x, maxiter, False
