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
drift is a diagnostic the caller bounds, never repaired: it falls as
substeps^-5, so a run that needs a more nearly unitary frame raises
substeps.  A march that overflows leaves NaN frames, which that bound
names, without numpy warnings.

The report needs the frame's derivatives, and the frame equation gives them
exactly at every node: d_x U = U Wx and d_y U = U Wy, with the generators
built from the node's own u and grid.spectral_gradient.  frame_axis_stencil
forms both, one block of node rows at a time, and hands them with the
block's frames to one reduction; nothing is marched or sampled between
nodes for them.

A closing frame marches one more cell in each direction, so it also holds
the wrap-around column i = nx and row j = ny.  Because those cells reuse the
periodic propagators, U(nx, j) U(0, j)^-1 and U(i, ny) U(i, 0)^-1 are the
frame's monodromies over one period, from which surface.torus_closure
measures closure without integrating a second period.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .grid import ScalarFieldPeriodic, row_sampler, spectral_gradient, trig_upsample
from .linalg3 import unitarity_defect_map

DEFAULT_SUBSTEPS = 24
STENCIL_BLOCK_NODES = 1024  # nodes per block of frame_axis_stencil's derivatives


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


def _march(state, props, out, states):
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
    closing: bool
    substeps: int

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


def integrate_frame(u, spectral, substeps=DEFAULT_SUBSTEPS, closing=False):
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
    ux, uy = spectral_gradient(vals, grid)
    unitary = np.empty((grid.ny + extra, grid.nx + extra, 3, 3), dtype=complex)
    unitary[0, 0] = np.eye(3)
    offsets = _substep_offsets(m)
    ws = _workspace(m, (grid.nx,))
    # an overflowing march leaves NaN frames; the caller's unitarity bound names them
    with np.errstate(over="ignore", invalid="ignore"):
        # first row, marched in x: the cells starting at every node of it,
        # side by side in one batch, cell i's samples in column i of each plane
        near = trig_upsample((vals[0], uy[0]), 2 * m, 1, offsets).swapaxes(0, 1)
        props = _propagators(near, frame_coeff_x, lam, grid.hx / m, m, ws)
        cells = grid.nx + extra - 1
        _march(unitary[0, 0], np.moveaxis(props[:, :, :cells], -1, 0), unitary[0, 1:],
               _states(unitary[0, 0]))
        # every column, marched in y one cell row at a time in the same
        # workspace; rows[j] is node row j with the matrix axes first, and
        # the closing column nx reuses the propagators of column 0
        rows = np.moveaxis(unitary, 1, -1)
        sample = row_sampler((vals, ux), 2 * m, offsets)
        cell_rows = (_propagators(sample([j])[:, :, 0], frame_coeff_y, lam, grid.hy / m, m, ws)
                     for j in range(grid.ny + extra - 1))
        _march(rows[0], cell_rows, rows[1:], _states(rows[0]))
    return FrameField(grid, spectral, unitary, u, bool(closing), m)


def frame_axis_stencil(frame, grads, reduce):
    """Call reduce(block, frames, derivatives) with the base-node frames U
    and the first two columns of the exact derivatives d_x U = U Wx and
    d_y U = U Wy, one block of node rows at a time.

    Wx and Wy are built at the nodes from u and the derivative across each
    axis, grads = (u_x, u_y) of grid.spectral_gradient, the same samples the
    frame's generators read, so nothing is marched or sampled between nodes.  The
    blocks hold STENCIL_BLOCK_NODES nodes (at least one row), so memory does
    not grow with the grid.  For each block, reduce gets the slice of its
    node rows, the (3, 3, rows, nx) frames and the (2, 3, 2, rows, nx)
    derivatives, the axis first and then the matrix axes; it keeps what it
    needs of them, for their buffer is reused by the next block.  Every node
    is computed on its own, so what reduce gets does not depend on the block
    size.  The name is that of the marched stencil this route replaced, kept
    until the benchmark's tracer target is renamed with it.
    """
    grid = frame.grid
    u = frame.u.values
    axes = ((frame_coeff_x, grads[1]), (frame_coeff_y, grads[0]))
    base = np.moveaxis(frame.base, (-2, -1), (0, 1))
    rows = max(1, STENCIL_BLOCK_NODES // grid.nx)
    shape = None
    for j in range(0, grid.ny, rows):
        block = slice(j, min(j + rows, grid.ny))
        frames = base[:, :, block]
        if frames.shape[2:] != shape:
            # buffers shared by every block of this shape (only a shorter
            # last block differs); the old ones are released first
            shape = frames.shape[2:]
            gen = derivs = tmp = None
            gen = np.empty((3, 3) + shape, dtype=complex)
            derivs = np.empty((2, 3, 2) + shape, dtype=complex)
            tmp = np.empty((3, 2) + shape, dtype=complex)
        for (builder, across), out in zip(axes, derivs):
            builder(u[block], across[block], frame.spectral.lam, gen)
            _mul3(frames, gen[:, :2], out, tmp)
        reduce(block, frames, derivs)
