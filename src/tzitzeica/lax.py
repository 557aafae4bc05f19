"""Linear z / zbar systems at a unit-modulus spectral parameter, their
bilinear pairing, and RK4 integration of the unitary moving frame.

The spectral vector psi solves

    d_z    psi = A psi,  A = [[-u_z, 0, i lam], [i, u_z, 0], [0, i, 0]]
    d_zbar psi = B psi,  B = [[0, i e^{-2u}, 0], [0, 0, i e^u],
                              [i e^u / lam, 0, 0]]

whose cross-derivative consistency is exactly u_{z zbar} = e^{-2u} - e^u.
The frame columns are the rescaled components (e^{u/2} psi_1, e^{-u/2} psi_2,
psi_3) of three independent solutions; in the real directions the frame
matrix U = [L M N] obeys d_x U = U Wx and d_y U = U Wy with

    Wx = [[ i uy/2,   i e^-u,  i e^{u/2}/lam ],     (anti-Hermitian for
          [ i e^-u,  -i uy/2,  i e^{u/2}     ],      |lam| = 1, which is
          [ i lam e^{u/2}, i e^{u/2}, 0      ]]      what keeps U unitary)

    Wy = [[-i ux/2,  -e^-u,    e^{u/2}/lam ],
          [ e^-u,     i ux/2, -e^{u/2}     ],
          [-lam e^{u/2}, e^{u/2}, 0        ]]

Integration marches the first grid row in x and then every column in y, with
`substeps` RK4 steps per grid cell.  Wx reads u and u_y only, Wy u and u_x
only, and each march samples just those two arrays; values between nodes
come from grid.trig_upsample, so within the integrator u is treated as the
trigonometric interpolant of its samples and all coefficient values are
exact for that interpolant.  An RK4 step is S <- S P with P built from the
generators alone (Iserles et al., "Lie-group methods", Acta Numerica 2000);
the march visits cells only, and periodic cells reuse their propagators.
Unitarity drift is a diagnostic, repaired only on request by the polar
factor at every cell boundary.

A closing frame marches one more cell in each direction, so it also holds
the wrap-around column i = nx and row j = ny.  Because those cells reuse the
periodic propagators, U(nx, j) U(0, j)^-1 and U(i, ny) U(i, 0)^-1 are the
frame's monodromies over one period, from which surface.torus_closure
measures closure without integrating a second period.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import UnitarityBlowupError
from .grid import AXIS_X, AXIS_Y, ScalarFieldPeriodic, ddx, ddy, deriv, trig_upsample
from .linalg3 import unitarity_defect_map

DEFAULT_SUBSTEPS = 24


@dataclass(frozen=True)
class SpectralPoint:
    """Unit-modulus parameter lam = cos(theta) + i sin(theta)."""

    theta: float

    @property
    def lam(self):
        return complex(np.cos(self.theta), np.sin(self.theta))


# ---------------------------------------------------------------------------
# coefficient matrices
# ---------------------------------------------------------------------------


def lax_z_matrix(u, u_z, lam):
    out = np.zeros(np.shape(u) + (3, 3), dtype=complex)
    out[..., 0, 0] = -u_z
    out[..., 0, 2] = 1j * lam
    out[..., 1, 0] = 1j
    out[..., 1, 1] = u_z
    out[..., 2, 1] = 1j
    return out


def lax_zbar_matrix(u, lam):
    out = np.zeros(np.shape(u) + (3, 3), dtype=complex)
    out[..., 0, 1] = 1j * np.exp(-2.0 * u)
    out[..., 1, 2] = 1j * np.exp(u)
    out[..., 2, 0] = 1j * np.exp(u) / lam
    return out


def frame_coeff_x(u, uy, lam):
    """Generator Wx of d_x U = U Wx; anti-Hermitian for |lam| = 1.  Filled
    plane by plane in a matrix-first buffer, returned as its (..., 3, 3)
    view."""
    emu = np.exp(-u)
    eh = np.exp(0.5 * u)
    out = np.zeros((3, 3) + np.shape(u), dtype=complex)
    out[0, 0] = 0.5j * uy
    out[0, 1] = 1j * emu
    out[0, 2] = 1j * np.conj(lam) * eh
    out[1, 0] = 1j * emu
    out[1, 1] = -0.5j * uy
    out[1, 2] = 1j * eh
    out[2, 0] = 1j * lam * eh
    out[2, 1] = 1j * eh
    return np.moveaxis(out, (0, 1), (-2, -1))


def frame_coeff_y(u, ux, lam):
    """Generator Wy of d_y U = U Wy; anti-Hermitian for |lam| = 1.  Filled
    plane by plane in a matrix-first buffer, returned as its (..., 3, 3)
    view."""
    emu = np.exp(-u)
    eh = np.exp(0.5 * u)
    out = np.zeros((3, 3) + np.shape(u), dtype=complex)
    out[0, 0] = -0.5j * ux
    out[0, 1] = -emu
    out[0, 2] = np.conj(lam) * eh
    out[1, 0] = emu
    out[1, 1] = 0.5j * ux
    out[1, 2] = -eh
    out[2, 0] = -lam * eh
    out[2, 1] = eh
    return np.moveaxis(out, (0, 1), (-2, -1))


# ---------------------------------------------------------------------------
# zero-curvature diagnostic
# ---------------------------------------------------------------------------


def _expm_taylor(mat):
    """Matrix exponential by its Taylor series to the 12th power."""
    out = np.zeros_like(mat)
    out[...] = np.eye(3)
    power = out.copy()
    for k in range(1, 13):
        power = power @ mat / k
        out = out + power
    return out


def compatibility_residual(u, spectral):
    """Max commutator defect of one-cell transport, x-step then y-step versus
    y-step then x-step.

    The two edge generators are P = A + B (a z-advance plus a zbar-advance by
    the cell width) and Q = i (A - B); the loop defect per cell is
    hx*hy*|d_zbar A - d_z B + [A, B]| + O(h^3), and the bracket expression is
    diag(-1, 1, 0)/4 times the PDE residual, so the defect vanishes with it.
    """
    lam = spectral.lam
    grid = u.grid
    vals = u.values
    ux = ddx(vals, grid)
    uy = ddy(vals, grid)
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


# ---------------------------------------------------------------------------
# frame integration
# ---------------------------------------------------------------------------


def _polar(mat):
    """Unitary polar factor of 3x3 matrices stored with the matrix axes first."""
    w, _s, vh = np.linalg.svd(np.moveaxis(mat, (0, 1), (-2, -1)))
    return np.moveaxis(w @ vh, (-2, -1), (0, 1))


def _mul3(a, b):
    """Batched 3x3 product with the matrix axes first, out[i, j] =
    sum_k a[i, k] b[k, j], as three broadcast multiply-adds over contiguous
    batch axes."""
    out = a[:, 0, None] * b[0]
    out += a[:, 1, None] * b[1]
    out += a[:, 2, None] * b[2]
    return out


def _cell_propagators(coeffs, builder, lam, h, m):
    """Propagators C, S_end = S_start C, shape (3, 3, k, ...), of the k cells
    whose 2*m*k + 1 half-substep samples of the builder's inputs before lam,
    coeffs, hold along axis 0.  d S = S W is linear, so an RK4 substep is
    S <- S P with P = I + hs/6 (K1 + 2 K2 + 2 K3 + K4) independent of S; the
    m substep propagators of a cell are multiplied pairwise."""
    hs = h / m
    w = np.ascontiguousarray(np.moveaxis(builder(*coeffs, lam), (-2, -1), (0, 1)))
    k1, wh, w1 = w[:, :, 0:-1:2], w[:, :, 1::2], w[:, :, 2::2]
    k2 = wh + (0.5 * hs) * _mul3(k1, wh)
    k3 = wh + (0.5 * hs) * _mul3(k2, wh)
    k4 = w1 + hs * _mul3(k3, w1)
    prop = (hs / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    prop[[0, 1, 2], [0, 1, 2]] += 1.0
    prop = prop.reshape((3, 3, -1, m) + prop.shape[3:])
    while prop.shape[3] > 1:
        pairs = _mul3(prop[:, :, :, 0:-1:2], prop[:, :, :, 1::2])
        prop = np.concatenate([pairs, prop[:, :, :, -1:]], axis=3) if prop.shape[3] % 2 else pairs
    return prop[:, :, :, 0]


def _march(state, coeffs, builder, lam, h, m, ncells, re_unitarize=False):
    """States at the ncells + 1 cell boundaries of d S = S W, m RK4 substeps
    per cell, shape (ncells + 1,) + state.shape; the state holds its matrix
    axes first.  coeffs, the builder's inputs before lam, hold 2*m*period + 1
    half-substep samples along axis 0, the other axes broadcast against the
    state's batch axes; cell c uses the propagator of cell c % period.  1D coeffs (a single
    line) build every cell at once, batched coeffs one cell at a time to
    bound memory.  A state with more columns than the propagators (a closing
    column) has column i use propagator column i % n."""
    period = (coeffs[0].shape[0] - 1) // (2 * m)
    chunk = period if coeffs[0].ndim == 1 else 1
    state = np.asarray(state, dtype=complex)
    stored = np.empty((ncells + 1,) + state.shape, dtype=complex)
    stored[0] = state
    cells = []
    for c in range(ncells):
        k = c % period
        if k == len(cells):
            block = tuple(a[2 * m * k : 2 * m * min(k + chunk, period) + 1] for a in coeffs)
            props = _cell_propagators(block, builder, lam, h, m)
            cells.extend(props[:, :, i] for i in range(props.shape[2]))
        prop = cells[k]
        if prop.shape[2:] != state.shape[2:]:
            prop = prop[:, :, np.arange(state.shape[2]) % prop.shape[2]]
        state = _mul3(state, prop)
        if re_unitarize:
            state = _polar(state)
        stored[c + 1] = state
    return stored


def _periodic_samples(values, m):
    """Trigonometric samples of periodic data at every half substep along
    axis 0, the first repeated at the end: 2*m*n + 1 samples."""
    fine = np.swapaxes(trig_upsample(values, 2 * m, 0, range(2 * m)), 0, 1)
    fine = fine.reshape((-1,) + fine.shape[2:])
    return np.concatenate([fine, fine[:1]])


@dataclass
class FrameField:
    """Unitary frames at every grid node, shape (ny, nx, 3, 3); a closing
    frame also holds the wrap-around row and column, (ny + 1, nx + 1, 3, 3)."""

    grid: object
    spectral: SpectralPoint
    unitary: np.ndarray = field(repr=False)
    u: ScalarFieldPeriodic = field(repr=False)
    closing: bool = False
    substeps: int = DEFAULT_SUBSTEPS

    @property
    def base(self):
        return self.unitary[: self.grid.ny, : self.grid.nx]

    @property
    def normal(self):
        """Third frame column at the base nodes."""
        return self.base[..., :, 2]


def frame_orthonormality_report(frame):
    """Max unitarity defect over every stored node."""
    return float(unitarity_defect_map(frame.unitary).max())


def integrate_frame(
    u,
    spectral,
    substeps=DEFAULT_SUBSTEPS,
    closing=False,
    re_unitarize=False,
    order="xy",
    blowup=1e-6,
):
    """Integrate the frame over the grid from the identity at the corner node.

    Marches the first row in x and then all columns in y (order="yx" swaps
    the roles; the difference between the two orders is the path-dependence
    diagnostic).  closing=True also integrates the wrap-around column nx and
    row ny, for closure measurements.  Raises UnitarityBlowupError when the
    defect exceeds `blowup`.
    """
    grid = u.grid
    lam = spectral.lam
    m = int(substeps)
    if m < 1:
        raise ValueError("substeps must be >= 1")
    extra = int(closing)

    if order == "xy":
        unitary = _integrate_rows_then_columns(
            u.values,
            grid.nx, grid.ny, grid.hx, grid.hy,
            frame_coeff_x, frame_coeff_y,
            lam, m, extra, re_unitarize,
        )
    elif order == "yx":
        swapped = _integrate_rows_then_columns(
            u.values.T,
            grid.ny, grid.nx, grid.hy, grid.hx,
            frame_coeff_y, frame_coeff_x,
            lam, m, extra, re_unitarize,
        )
        unitary = np.swapaxes(swapped, 0, 1)
    else:
        raise ValueError(f"order must be 'xy' or 'yx', got {order!r}")

    out = FrameField(grid, spectral, unitary, u, bool(closing), m)
    defect = frame_orthonormality_report(out)
    if defect > blowup:
        raise UnitarityBlowupError(f"unitarity defect {defect:.3e} exceeds {blowup:.1e}")
    return out


def _integrate_rows_then_columns(vals, n1, n2, h1, h2, build1, build2, lam, m, extra, re_unit):
    """Generic core: vals is (n2, n1) with axis 1 the first march direction,
    and each builder reads u and its derivative across its march; returns
    frames of shape (n2 + extra, n1 + extra, 3, 3)."""
    # first row, marched along axis 1, every cell propagator in one block
    across = deriv(vals, h2, 0, "spectral")[0]
    row = (_periodic_samples(vals[0], m), _periodic_samples(across, m))
    first = _march(np.eye(3, dtype=complex), row, build1, lam, h1, m, n1 + extra - 1, re_unit)
    # all columns at once, marched along axis 0 one cell row at a time;
    # the closing column n1 reuses the propagators of column 0
    across = deriv(vals, h1, 1, "spectral")
    cols = (_periodic_samples(vals, m), _periodic_samples(across, m))
    stored = _march(np.moveaxis(first, 0, -1), cols, build2, lam, h2, m, n2 + extra - 1, re_unit)
    return np.ascontiguousarray(np.moveaxis(stored, (1, 2), (-2, -1)))


def frame_axis_stencil(frame, axis):
    """Frames and exponent samples at offsets k * (h / substeps), k = -2..2,
    marched from every base node along `axis`.

    Gives the five samples of 4th-order finite-difference stencils for
    derivatives of frame-built fields at sub-grid spacing, without assuming
    periodicity of the frame itself.  The generator's two inputs are
    interpolated at the nine half-substep offsets -4..4 the two RK4 substeps
    each way read, and nowhere else.  Returns (frames, u_samples): lists
    indexed by k + 2, each entry a (3, 3, ny, nx) frame with the matrix axes
    first / a (ny, nx) array.
    """
    grid = frame.grid
    u = frame.u.values
    m = frame.substeps
    lam = frame.spectral.lam
    if axis == "x":
        ax, h, builder, across = AXIS_X, grid.hx, frame_coeff_x, ddy(u, grid, "spectral")
    elif axis == "y":
        ax, h, builder, across = AXIS_Y, grid.hy, frame_coeff_y, ddx(u, grid, "spectral")
    else:
        raise ValueError(f"axis must be 'x' or 'y', got {axis!r}")

    # the builder's inputs at half-substep offsets -4..4 from every node
    near = [trig_upsample(a, 2 * m, ax, range(-4, 5)) for a in (u, across)]
    # one RK4 substep per cell, marched up and down from the node
    base = np.moveaxis(frame.base, (-2, -1), (0, 1))
    up = _march(base, [a[4:] for a in near], builder, lam, h / m, 1, 2)
    down = _march(base, [a[4::-1] for a in near], builder, lam, -h / m, 1, 2)
    return list(down[:0:-1]) + list(up), list(near[0][::2])


# ---------------------------------------------------------------------------
# psi propagation and the bilinear pairing
# ---------------------------------------------------------------------------


def propagate_psi(u, spectral, psi0, mode="x", periods=1):
    """March psi along the first grid row in the x direction, DEFAULT_SUBSTEPS
    RK4 steps per cell.

    mode "x" advances with the full generator A + B (a physical x-move);
    mode "z" advances with A alone, the setting where the single-sided
    pairing derivative identities are exact.  Returns (x positions, psi
    values) at the nx*periods + 1 node boundaries.
    """
    if mode not in ("x", "z"):
        raise ValueError(f"mode must be 'x' or 'z', got {mode!r}")

    def build(u, ux, uy, lam):
        mat = lax_z_matrix(u, 0.5 * (ux - 1j * uy), lam)
        if mode == "x":
            mat = mat + lax_zbar_matrix(u, lam)
        # d psi = M psi is marched as the row vector psi^T: d psi^T = psi^T M^T
        return np.swapaxes(mat, -1, -2)

    grid = u.grid
    m = DEFAULT_SUBSTEPS
    ux = ddx(u.values, grid, "spectral")
    uy = ddy(u.values, grid, "spectral")
    coeffs = tuple(_periodic_samples(a[0], m) for a in (u.values, ux, uy))
    ncells = grid.nx * periods
    psis = _march(np.asarray(psi0, dtype=complex)[None, :], coeffs, build,
                  spectral.lam, grid.hx, m, ncells)[:, 0]
    xs = np.arange(ncells + 1) * grid.hx
    return xs, psis


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
    """d/dx of the pairing when both factors are propagated in mode 'x'."""
    return pairing_derivative_z(lam, mu, psis, phis) + pairing_derivative_zbar(
        lam, mu, u, psis, phis
    )
