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
`substeps` RK4 steps per grid cell; the columns are marched over one part
of the cell rows at a time (FRAME_ROW_PARTS parts), each part sampled just
before its march, so the samples of the whole grid never exist at once.
Wx reads u and u_y only, Wy u and u_x only, and each march samples just
those two arrays; values between nodes come from grid.trig_upsample and
grid.trig_planes, so within the integrator u is treated as the trigonometric
interpolant of its samples and all coefficient values are exact for that
interpolant.  An RK4 step is S <- S P with P built from the generators alone
(Iserles et al., "Lie-group methods", Acta Numerica 2000); the march visits
cells only.  Each march builds its generators and propagators in a workspace
allocated before its first cell and shared by marches of one shape, so the
march's speed does not depend on the allocator's state: per-cell
temporaries above glibc's mmap threshold (128 KiB until a larger block is
freed) would be mapped and faulted in afresh for every cell row.  Unitarity
drift is a diagnostic, repaired only on request by the polar factor at
every cell boundary.

A closing frame marches one more cell in each direction, so it also holds
the wrap-around column i = nx and row j = ny.  Because those cells reuse the
periodic propagators, U(nx, j) U(0, j)^-1 and U(i, ny) U(i, 0)^-1 are the
frame's monodromies over one period, from which surface.torus_closure
measures closure without integrating a second period.
"""

from dataclasses import dataclass, field

import numpy as np

from .grid import AXIS_X, AXIS_Y, ScalarFieldPeriodic, ddx, ddy, trig_planes, trig_upsample
from .linalg3 import unitarity_defect_map

DEFAULT_SUBSTEPS = 24
STENCIL_BLOCK_NODES = 1024  # nodes per block of frame_axis_stencil's march
FRAME_ROW_PARTS = 2  # parts of the cell rows integrate_frame samples and marches in turn


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


def frame_coeff_x(u, uy, lam, out):
    """Generator Wx of d_x U = U Wx; anti-Hermitian for |lam| = 1.  Written
    plane by plane into out, a (3, 3) + shape(u) buffer with the matrix axes
    first, and returned as its (..., 3, 3) view."""
    emu = np.exp(-u)
    eh = np.exp(0.5 * u)
    # out[i, j, ...] is a view of the plane even for a scalar u
    np.multiply(0.5j, uy, out=out[0, 0, ...])
    np.multiply(1j, emu, out=out[0, 1, ...])
    np.multiply(1j * np.conj(lam), eh, out=out[0, 2, ...])
    np.multiply(1j, emu, out=out[1, 0, ...])
    np.multiply(-0.5j, uy, out=out[1, 1, ...])
    np.multiply(1j, eh, out=out[1, 2, ...])
    np.multiply(1j * lam, eh, out=out[2, 0, ...])
    np.multiply(1j, eh, out=out[2, 1, ...])
    out[2, 2] = 0.0
    return np.moveaxis(out, (0, 1), (-2, -1))


def frame_coeff_y(u, ux, lam, out):
    """Generator Wy of d_y U = U Wy; anti-Hermitian for |lam| = 1.  Written
    plane by plane into out, a (3, 3) + shape(u) buffer with the matrix axes
    first, and returned as its (..., 3, 3) view."""
    emu = np.exp(-u)
    eh = np.exp(0.5 * u)
    np.multiply(-0.5j, ux, out=out[0, 0, ...])
    np.negative(emu, out=out[0, 1, ...])
    np.multiply(np.conj(lam), eh, out=out[0, 2, ...])
    out[1, 0] = emu
    np.multiply(0.5j, ux, out=out[1, 1, ...])
    np.negative(eh, out=out[1, 2, ...])
    np.multiply(-lam, eh, out=out[2, 0, ...])
    out[2, 1] = eh
    out[2, 2] = 0.0
    return np.moveaxis(out, (0, 1), (-2, -1))


# ---------------------------------------------------------------------------
# frame integration
# ---------------------------------------------------------------------------


def _polar(mat):
    """Unitary polar factor of 3x3 matrices stored with the matrix axes first."""
    w, _s, vh = np.linalg.svd(np.moveaxis(mat, (0, 1), (-2, -1)))
    return np.moveaxis(w @ vh, (-2, -1), (0, 1))


def _mul3(a, b, out, tmp):
    """Batched 3x3 product with the matrix axes first, written into out,
    out[i, j] = sum_k a[i, k] b[k, j], as three broadcast multiply-adds over
    contiguous batch axes; tmp, shaped like out, holds each term."""
    np.multiply(a[:, 0, None], b[0], out=out)
    for k in (1, 2):
        np.add(out, np.multiply(a[:, k, None], b[k], out=tmp), out=out)
    return out


def _cell_propagators(coeffs, builder, lam, h, m, w, ks):
    """Propagators C, S_end = S_start C, of the k cells whose 2*m*k + 1
    half-substep samples of the builder's inputs before lam, coeffs, hold
    along axis 0, as a (3, 3, k, ...) view into the workspace: w,
    (3, 3, 2*m*k + 1, ...), receives the generators and ks, (4, 3, 3, m*k, ...),
    the RK4 stages and the products.  d S = S W is linear, so an RK4 substep is
    S <- S P with P = I + hs/6 (K1 + 2 K2 + 2 K3 + K4) independent of S; the
    m substep propagators of a cell are multiplied pairwise."""
    hs = h / m
    builder(*coeffs, lam, w)
    k1, wh, w1 = w[:, :, 0:-1:2], w[:, :, 1::2], w[:, :, 2::2]
    k2, k3, k4, tmp = ks
    np.add(wh, np.multiply(0.5 * hs, _mul3(k1, wh, k2, tmp), out=k2), out=k2)
    np.add(wh, np.multiply(0.5 * hs, _mul3(k2, wh, k3, tmp), out=k3), out=k3)
    np.add(w1, np.multiply(hs, _mul3(k3, w1, k4, tmp), out=k4), out=k4)
    # P = hs/6 (((K1 + 2 K2) + 2 K3) + K4) + I, summed in K2's buffer
    prop = np.add(k1, np.multiply(2.0, k2, out=k2), out=k2)
    np.add(prop, np.multiply(2.0, k3, out=k3), out=prop)
    np.add(prop, k4, out=prop)
    np.multiply(hs / 6.0, prop, out=prop)
    for i in range(3):
        prop[i, i] += 1.0
    # products of neighbouring pairs, level by level, between two buffers
    shape = (3, 3, -1, m) + prop.shape[3:]
    prop, spare, tmp = (a.reshape(shape) for a in (prop, k3, tmp))
    n = m
    while n > 1:
        half = n // 2
        _mul3(prop[:, :, :, 0 : 2 * half : 2], prop[:, :, :, 1 : 2 * half : 2],
              spare[:, :, :, :half], tmp[:, :, :, :half])
        if n % 2:
            spare[:, :, :, half] = prop[:, :, :, n - 1]
        prop, spare, n = spare, prop, n - half
    return prop[:, :, :, 0]


def _workspace(state, batch, m, k):
    """The buffers of a march from states shaped like state over coefficient
    samples with batch axes batch, k cells at a time: the generators,
    (3, 3, 2*m*k + 1) + batch; the RK4 stages and products,
    (4, 3, 3, m*k) + batch; and three states."""
    return (np.empty((3, 3, 2 * m * k + 1) + batch, dtype=complex),
            np.empty((4, 3, 3, m * k) + batch, dtype=complex),
            np.empty((3,) + np.shape(state), dtype=complex))


def _march(state, coeffs, builder, lam, h, m, out, ws, re_unitarize=False):
    """March d S = S W from state over len(out) cells, m RK4 substeps per
    cell, writing the state after cell c into out[c]; states hold their
    matrix axes first.  coeffs, the builder's inputs before lam, hold
    2*m*len(out) + 1 half-substep samples along axis 0, the other axes
    broadcast against the state's batch axes.  A state with more columns
    than the propagators (a closing column) has column i use propagator
    column i % n.  ws is a _workspace for k cells at a time: all cells of 1D
    coeffs (a single line) at once, one cell of batched coeffs at a time to
    bound memory.  Marches of one shape share one workspace, so a cell
    allocates only the builder's real temporaries, e^-u and e^{u/2} at its
    samples."""
    w, ks, (cur, nxt, tmp) = ws
    k = (w.shape[2] - 1) // (2 * m)
    cur[...] = state
    for c in range(len(out)):
        if c % k == 0:
            block = [a[2 * m * c : 2 * m * (c + k) + 1] for a in coeffs]
            props = _cell_propagators(block, builder, lam, h, m, w, ks)
        prop = props[:, :, c % k]
        if prop.shape[2:] != cur.shape[2:]:
            prop = prop[:, :, np.arange(cur.shape[2]) % prop.shape[2]]
        _mul3(cur, prop, nxt, tmp)
        if re_unitarize:
            nxt[...] = _polar(nxt)
        out[c] = nxt
        cur, nxt = nxt, cur


def _march_samples(arrays, m, start, stop):
    """Trigonometric samples of each periodic array along axis 0 at every
    half substep of the cells start..stop - 1, then at node stop (mod n): the
    2*m*(stop - start) + 1 samples a march over those cells reads, in march
    order, interpolated one offset at a time over the whole axis."""
    samples = []
    for values in arrays:
        out = np.empty((2 * m * (stop - start) + 1,) + values.shape[1:])
        for k, fine in enumerate(trig_planes(values, 2 * m, range(2 * m))):
            out[k : -1 : 2 * m] = fine[start:stop]
            if k == 0:
                out[-1] = fine[stop % len(values)]
        samples.append(out)
    return samples


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

    Marches the first row in x and then every column in y, over one part of
    the cell rows at a time (FRAME_ROW_PARTS parts), each part's samples
    taken just before its march, so no array spans every half-substep sample
    of the grid.  Each marched row goes straight into the node-last result.
    closing=True also integrates the wrap-around column nx and row ny, for
    closure measurements.  The unitarity defect is left to the caller to
    bound.
    """
    grid = u.grid
    lam = spectral.lam
    m = int(substeps)
    if m < 1:
        raise ValueError("substeps must be >= 1")
    extra = int(closing)
    vals = u.values
    unitary = np.empty((grid.ny + extra, grid.nx + extra, 3, 3), dtype=complex)
    unitary[0, 0] = np.eye(3)
    # first row, marched in x, every cell propagator in one block
    cells = grid.nx + extra - 1
    row = _march_samples((vals[0], ddy(vals, grid, "spectral")[0]), m, 0, cells)
    _march(unitary[0, 0], row, frame_coeff_x, lam, grid.hx, m, unitary[0, 1:],
           _workspace(unitary[0, 0], (), m, cells), re_unitarize)
    # every column, marched in y one cell row at a time and one part of the
    # cell rows after another; rows[j] is node row j with the matrix axes
    # first, and the closing column nx reuses the propagators of column 0
    cols = (vals, ddx(vals, grid, "spectral"))
    rows = np.moveaxis(unitary, 1, -1)
    cells = grid.ny + extra - 1
    bounds = [cells * p // FRAME_ROW_PARTS for p in range(FRAME_ROW_PARTS + 1)]
    ws = _workspace(rows[0], (grid.nx,), m, 1)
    for start, stop in zip(bounds[:-1], bounds[1:]):
        _march(rows[start], _march_samples(cols, m, start, stop), frame_coeff_y, lam, grid.hy, m,
               rows[start + 1 : stop + 1], ws, re_unitarize)
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
    and of (rows, nx) samples, and returns a new array whose second-to-last
    axis is those rows (the frames' buffer is reused by the next block); the
    blocks' results are joined along that axis.
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
    shape = None
    for j in range(0, grid.ny, rows):
        block = slice(j, j + rows)
        coeffs = [a[:, block] for a in near]
        if coeffs[0].shape[1:] != shape:
            # frames at offsets -2..2 and the march's workspace, shared by
            # every block of this shape (only a shorter last block differs);
            # the old buffers are released before the new ones are made
            shape = coeffs[0].shape[1:]
            frames = ws = None
            frames = np.empty((5, 3, 3) + shape, dtype=complex)
            ws = _workspace(frames[2], shape, 1, 1)
        # one RK4 substep per cell, marched up and down from the node
        frames[2] = base[:, :, block]
        _march(frames[2], [a[4:] for a in coeffs], builder, lam, h / m, 1, frames[3:], ws)
        _march(frames[2], [a[4::-1] for a in coeffs], builder, lam, -h / m, 1, frames[1::-1], ws)
        parts.append(reduce(list(frames), list(coeffs[0][::2])))
    return np.concatenate(parts, axis=-2)
