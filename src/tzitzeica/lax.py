"""RK4 integration of the unitary moving frame of the Tzitzeica Lax system at
a unit-modulus spectral parameter.

The frame U = [L M N] holds in its columns the rescaled components
(e^{u/2} psi_1, e^{-u/2} psi_2, psi_3) of three independent solutions of

    d_z    psi = A psi,  A = [[-u_z, 0, i lam], [i, u_z, 0], [0, i, 0]]
    d_zbar psi = B psi,  B = [[0, i e^{-2u}, 0], [0, 0, i e^u],
                              [i e^u / lam, 0, 0]]

whose cross-derivative consistency is exactly u_{z zbar} = e^{-2u} - e^u.
The psi system itself, its pairing laws and its one-cell compatibility check
are test oracles (tests/oracles.py); the pipeline integrates only U, which in
the real directions obeys d_x U = U Wx and d_y U = U Wy with

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

from .grid import AXIS_X, AXIS_Y, ScalarFieldPeriodic, ddx, ddy, trig_upsample
from .linalg3 import unitarity_defect_map

DEFAULT_SUBSTEPS = 24
STENCIL_BLOCK_NODES = 2048  # nodes per block of frame_axis_stencil's march


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


def integrate_frame(u, spectral, substeps=DEFAULT_SUBSTEPS, closing=False, re_unitarize=False):
    """Integrate the frame over the grid from the identity at the corner node.

    Marches the first row in x and then all columns in y.  closing=True also
    integrates the wrap-around column nx and row ny, for closure
    measurements.  The unitarity defect is left to the caller to bound.
    """
    grid = u.grid
    lam = spectral.lam
    m = int(substeps)
    if m < 1:
        raise ValueError("substeps must be >= 1")
    extra = int(closing)
    vals = u.values
    # first row, marched in x, every cell propagator in one block
    row = (_periodic_samples(vals[0], m), _periodic_samples(ddy(vals, grid, "spectral")[0], m))
    first = _march(np.eye(3, dtype=complex), row, frame_coeff_x, lam, grid.hx, m,
                   grid.nx + extra - 1, re_unitarize)
    # all columns at once, marched in y one cell row at a time; the closing
    # column nx reuses the propagators of column 0
    cols = (_periodic_samples(vals, m), _periodic_samples(ddx(vals, grid, "spectral"), m))
    stored = _march(np.moveaxis(first, 0, -1), cols, frame_coeff_y, lam, grid.hy, m,
                    grid.ny + extra - 1, re_unitarize)
    unitary = np.ascontiguousarray(np.moveaxis(stored, (1, 2), (-2, -1)))
    return FrameField(grid, spectral, unitary, u, bool(closing), m)


def frame_axis_stencil(frame, axis, reduce):
    """reduce(frames, u_samples) of the frames and exponent samples at
    offsets k * (h / substeps), k = -2..2, marched from every base node along
    `axis`, one block of node rows at a time.

    Gives the five samples of 4th-order finite-difference stencils for
    derivatives of frame-built fields at sub-grid spacing, without assuming
    periodicity of the frame itself.  The generator's two inputs are
    interpolated once for the whole grid at the nine half-substep offsets
    -4..4 the two RK4 substeps each way read, and nowhere else.  The march
    runs on blocks of STENCIL_BLOCK_NODES nodes (at least one row), so its
    memory does not grow with the grid.  For each block, reduce gets lists
    indexed by k + 2 of (3, 3, rows, nx) frames with the matrix axes first
    and of (rows, nx) samples, and returns an array whose second-to-last
    axis is those rows; the blocks' results are joined along that axis.
    Every node is marched on its own, so the result does not depend on the
    block size.
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
    base = np.moveaxis(frame.base, (-2, -1), (0, 1))
    rows = max(1, STENCIL_BLOCK_NODES // grid.nx)
    parts = []
    for j in range(0, grid.ny, rows):
        block = slice(j, j + rows)
        coeffs = [a[:, block] for a in near]
        # one RK4 substep per cell, marched up and down from the node
        up = _march(base[:, :, block], [a[4:] for a in coeffs], builder, lam, h / m, 1, 2)
        down = _march(base[:, :, block], [a[4::-1] for a in coeffs], builder, lam, -h / m, 1, 2)
        parts.append(reduce(list(down[:0:-1]) + list(up), list(coeffs[0][::2])))
    return np.concatenate(parts, axis=-2)
