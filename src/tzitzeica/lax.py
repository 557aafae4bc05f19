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
`substeps` RK4 steps per grid cell; the columns are marched one cell row at a
time, each sampled just before its march, so no more than one cell row of
samples exists at once.  Wx reads u and u_y only, Wy u and u_x only, and
each march samples just those two arrays: the first row's from
grid.trig_upsample, each cell row's from grid.row_sampler, so within the
integrator u is treated as the trigonometric interpolant of its samples and
all coefficient values are exact for that interpolant.  An RK4 step is
S <- S P with P built from the generators alone (Iserles et al., "Lie-group
methods", Acta Numerica 2000); the march visits cells only.  A cell's
samples are laid out in the order its pairwise product of substep
propagators multiplies them (_substep_offsets), so every pass of the kernel
runs over contiguous runs of each matrix entry's samples, never over a
strided one.  Its buffers form a workspace allocated
before a march's first cell and shared by the marches of one frame, so the
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

import math
from dataclasses import dataclass, field

import numpy as np

from .grid import ScalarFieldPeriodic, ddx, ddy, row_sampler, trig_upsample
from .linalg3 import unitarity_defect_map

DEFAULT_SUBSTEPS = 24
STENCIL_BLOCK_NODES = 1024  # nodes per block of frame_axis_stencil's march


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


def _mul3(a, b, out, tmp, generator=False):
    """Batched 3x3 product with the matrix axes first, written into out,
    out[i, j] = sum_k a[i, k] b[k, j], as three broadcast multiply-adds over
    contiguous batch axes; tmp, shaped like out, holds each term.  For a
    generator b, whose (2, 2) entry is zero, the last term skips column 2."""
    np.multiply(a[:, 0, None], b[0], out=out)
    np.add(out, np.multiply(a[:, 1, None], b[1], out=tmp), out=out)
    j = slice(0, 2) if generator else slice(None)
    np.add(out[:, j], np.multiply(a[:, 2, None], b[2, j], out=tmp[:, j]), out=out[:, j])
    return out


def _shift(c, k, out):
    """I + c K, written into out, a contiguous buffer of matrices with the
    matrix axes first."""
    np.multiply(c, k, out=out)
    diagonal = out.reshape((9,) + out.shape[2:])[::4]
    np.add(diagonal, 1.0, out=diagonal)
    return out


def _head(buf, count):
    """The first count matrices along axis 2 of a workspace buffer's memory,
    as a contiguous (3, 3, count) + batch array."""
    shape = (3, 3, count) + buf.shape[3:]
    return buf.reshape(-1)[: math.prod(shape)].reshape(shape)


def _tree_order(m):
    """The substeps 0..m-1 of a cell in the order _propagators stores them:
    the left substeps of the first level's pairs, then their partners, then
    an odd count's last substep, the pairs in the order of the next level.
    So every level's products read two contiguous halves of the level before
    and write one contiguous level, and the last substep stays last."""
    if m == 1:
        return [0]
    half = m // 2
    pairs = [i for i in _tree_order(half + m % 2) if i < half]
    return [2 * i for i in pairs] + [2 * i + 1 for i in pairs] + [m - 1] * (m % 2)


def _substep_offsets(m):
    """The half-substep offsets from a cell's first node of the samples
    _propagators reads for a cell of m substeps, in tree order: the nodes,
    the substeps' left nodes first and their right nodes last, then the
    midpoints.  For even m the left and the right nodes overlap by half,
    for the right nodes of the first half of the substeps are the left nodes
    of the second."""
    order = _tree_order(m)
    left = [2 * s for s in order]
    right = [2 * s + 2 for s in order]
    nodes = left + right[m // 2 :] if m % 2 == 0 else left + right
    return nodes + [2 * s + 1 for s in order]


def _workspace(m, batch):
    """The buffers of _propagators on cells of m substeps at batch points of
    shape batch, allocated before a march's first cell: the generators at
    the cell's samples, (3, 3, samples) + batch, and four (3, 3, m) + batch
    buffers (a stage's I + c K, two stages, a product's terms)."""
    samples = len(_substep_offsets(m))
    return [np.empty((3, 3, samples) + batch, dtype=complex)] + [
        np.empty((3, 3, m) + batch, dtype=complex) for _ in range(4)]


def _states(state):
    """The buffers of _march from states shaped like state: the current and
    the next state, a product's terms, a closing row's widened propagator."""
    return [np.empty(np.shape(state), dtype=complex) for _ in range(4)]


def _propagators(near, builder, lam, hs, m, ws):
    """The propagator C, S_end = S_start C, of a cell of m RK4 substeps of
    size hs at each batch point, as a (3, 3) + batch view into ws, a
    _workspace.  near, the builder's inputs before lam, holds the cell's
    samples along axis 0 as _substep_offsets lays them out, the substeps in
    tree order.  d S = S W is linear, so a substep is S <- S P with
    P = I + hs/6 (K1 + 2 K2 + 2 K3 + K4) independent of S; the m substep
    propagators are multiplied pairwise, level by level.  Every pass reads
    and writes contiguous runs of one matrix entry's samples."""
    w, x, k2, k3, tmp = ws
    builder(*near, lam, w)
    nodes = w.shape[2] - m
    k1, w1, wm = w[:, :, :m], w[:, :, nodes - m : nodes], w[:, :, nodes:]
    # K2 = (I + hs/2 K1) Wh, K3 = (I + hs/2 K2) Wh, K4 = (I + hs K3) W1
    _mul3(_shift(0.5 * hs, k1, x), wm, k2, tmp, generator=True)
    _mul3(_shift(0.5 * hs, k2, x), wm, k3, tmp, generator=True)
    _shift(hs, k3, x)
    prop = np.add(k2, k3, out=k2)
    k4 = _mul3(x, w1, k3, tmp, generator=True)
    # P = I + hs/6 (2 (K2 + K3) + K1 + K4), summed in K2's buffer
    np.add(prop, prop, out=prop)
    np.add(prop, k1, out=prop)
    np.add(prop, k4, out=prop)
    _shift(hs / 6.0, prop, prop)
    # each level multiplies its first half by its second into a spare buffer
    n, spare = m, (x, k3)
    while n > 1:
        half, odd = n // 2, n % 2
        out = _head(spare[0], half + odd)
        _mul3(prop[:, :, :half], prop[:, :, half : 2 * half], out[:, :, :half], _head(tmp, half))
        if odd:
            out[:, :, half] = prop[:, :, n - 1]
        prop, n, spare = out, half + odd, spare[::-1]
    return prop[:, :, 0]


def _march(state, props, out, states, re_unitarize=False):
    """Write into out[c] the state after cell c: state times the propagators
    props yields, one per cell, in turn.  States and propagators hold their
    matrix axes first; a state with one more column than the propagators (a
    closing row) gives that column the propagator of column 0.  states are
    the march's buffers (_states), so a cell allocates nothing."""
    cur, nxt, tmp, wide = states
    cur[...] = state
    for c, prop in enumerate(props):
        if prop.shape != cur.shape:
            wide[..., :-1] = prop
            wide[..., -1] = prop[..., 0]
            prop = wide
        _mul3(cur, prop, nxt, tmp)
        if re_unitarize:
            nxt[...] = _polar(nxt)
        out[c] = nxt
        cur, nxt = nxt, cur


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

    Marches the first row in x, its cells side by side in one batch, and
    then every column in y, one cell row at a time: each cell row's samples
    come from grid.row_sampler just before its march, so no array spans more
    than one cell row of samples.  Each marched row goes straight into the
    node-last result.  closing=True also integrates the wrap-around column
    nx and row ny, for closure measurements.  The unitarity defect is left
    to the caller to bound.
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
    offsets = _substep_offsets(m)
    ws = _workspace(m, (grid.nx,))
    # first row, marched in x: the cells starting at every node of it, side
    # by side in one batch, cell i's samples in column i of each plane
    row = (vals[0], ddy(vals, grid, "spectral")[0])
    near = trig_upsample(row, 2 * m, 1, offsets).swapaxes(0, 1)
    props = _propagators(near, frame_coeff_x, lam, grid.hx / m, m, ws)
    cells = grid.nx + extra - 1
    _march(unitary[0, 0], np.moveaxis(props[:, :, :cells], -1, 0), unitary[0, 1:],
           _states(unitary[0, 0]), re_unitarize)
    # every column, marched in y one cell row at a time in the same
    # workspace; rows[j] is node row j with the matrix axes first, and the
    # closing column nx reuses the propagators of column 0
    rows = np.moveaxis(unitary, 1, -1)
    sample = row_sampler((vals, ddx(vals, grid, "spectral")), 2 * m, offsets)
    cell_rows = (_propagators(sample([j])[:, :, 0], frame_coeff_y, lam, grid.hy / m, m, ws)
                 for j in range(grid.ny + extra - 1))

    _march(rows[0], cell_rows, rows[1:], _states(rows[0]), re_unitarize)
    return FrameField(grid, spectral, unitary, u, bool(closing), m)


def frame_axis_stencil(frame, axis, reduce):
    """Call reduce(block, frames, u_samples) with the frames and exponent
    samples at offsets k * (h / substeps), k = -2..2, marched from every base
    node along `axis`, one block of node rows at a time.

    Gives the five samples of 4th-order finite-difference stencils for
    derivatives of frame-built fields at sub-grid spacing, without assuming
    periodicity of the frame itself.  Each block's march reads the
    generator's two inputs at the half-substep offsets -4..4 of its own
    nodes and nowhere else: along y from grid.row_sampler, along x from
    grid.trig_upsample of the block's rows.  The march runs on blocks of
    STENCIL_BLOCK_NODES nodes (at least one row), so its memory does not
    grow with the grid.  For each block, reduce gets the slice of its node
    rows and lists indexed by k + 2 of (3, 3, rows, nx) frames with the
    matrix axes first and of (rows, nx) samples; it keeps what it needs of
    them, for the frames' buffer is reused by the next block.  Every node is
    marched on its own, so what reduce gets does not depend on the block
    size.
    """
    grid = frame.grid
    u = frame.u.values
    m = frame.substeps
    lam = frame.spectral.lam
    # half-substep offsets from each node of the samples of the two cells
    # of one substep up, then of the two down, three per cell
    offsets = [sign * (2 * c + k) for sign in (1, -1) for c in range(2) for k in _substep_offsets(1)]
    if axis == "x":
        h, builder, across = grid.hx, frame_coeff_x, ddy(u, grid, "spectral")
    elif axis == "y":
        h, builder, across = grid.hy, frame_coeff_y, ddx(u, grid, "spectral")
        sample = row_sampler((u, across), 2 * m, offsets)
    else:
        raise ValueError(f"axis must be 'x' or 'y', got {axis!r}")

    base = np.moveaxis(frame.base, (-2, -1), (0, 1))
    rows = max(1, STENCIL_BLOCK_NODES // grid.nx)
    shape = None
    for j in range(0, grid.ny, rows):
        block = slice(j, min(j + rows, grid.ny))
        if axis == "x":
            near = trig_upsample((u[block], across[block]), 2 * m, 2, offsets).swapaxes(0, 1)
        else:
            near = sample(range(block.start, block.stop))
        if near.shape[2:] != shape:
            # frames at offsets -2..2 and the march's workspace, shared by
            # every block of this shape (only a shorter last block differs);
            # the old buffers are released before the new ones are made
            shape = near.shape[2:]
            frames = ws = states = None
            frames = np.empty((5, 3, 3) + shape, dtype=complex)
            ws, states = _workspace(1, shape), _states(frames[2])
        # one RK4 substep per cell, marched up and down from the node
        frames[2] = base[:, :, block]
        for sign, out, cells in ((1, frames[3:], (0, 1)), (-1, frames[1::-1], (2, 3))):
            props = (_propagators(near[:, 3 * c : 3 * c + 3], builder, lam, sign * h / m, 1, ws)
                     for c in cells)
            _march(frames[2], props, out, states)
        reduce(block, list(frames), [near[0][offsets.index(2 * k)] for k in range(-2, 3)])
