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
only, and each march samples just those two arrays: the first row's from
grid.trig_upsample, the cell rows' from grid.row_sampler, so within the
integrator u is treated as the trigonometric interpolant of its samples and
all coefficient values are exact for that interpolant.  An RK4 step is
S <- S P with P built from the generators alone (Iserles et al., "Lie-group
methods", Acta Numerica 2000); the march visits cells only.

Both marches are one routine (_axis_march): a march of cells along axis 0
of the node planes its generator reads, (u[0], u_y[0]) as an (nx, 1) pair
for the first row and (u, u_x) for the columns.  It decides once, on those
planes, what to build: one step, repeated, when they are alike along the
march; one cell per step, broadcast over the width, when they are alike
across it; every cell otherwise.  Alike means equal as numbers, and equal
planes give equal samples and propagators, so the frame is the one that
building every cell gives: a flat frame (u = 0 as in configs/flat.cfg)
builds two cells, a field of x alone (a lifted wave) its first row and one
cell row, a field of y alone one cell per cell row.
A build samples about BUILD_CELLS cells, BUILD_CELLS // w steps of the
march's width w (at least one), just before it runs, so no more than one
build's samples exist at once.  A build is a schedule, the fixed list of
(ufunc, inputs, out) calls that makes the generators, the RK4 stages and the
pairwise product, made once per march and batch shape (a shorter last build
has its own) over one workspace of flat buffers shared by every build of the
march.  Its views keep each matrix entry's samples contiguous: a cell's
samples are its nodes 0, 2, ..., 2m in half-substeps, then its midpoints
(_substep_offsets), so the stages' node and midpoint generators are
contiguous slices.  Allocated before the first build, the workspace keeps
the march's speed independent of the allocator's state: per-build
temporaries above glibc's mmap threshold (128 KiB until a larger block is
freed) would be mapped and faulted in afresh for every build.
Unitarity drift is a diagnostic the caller bounds, never repaired: it falls
as substeps^-5, so a run that needs a more nearly unitary frame raises
substeps.  A march that overflows leaves NaN frames, which that bound
names, without numpy warnings.

The report needs the frame's derivatives, and the frame equation gives them
exactly at every node: d_x U = U Wx and d_y U = U Wy, with the generators
written by the march's own call lists (_coeff_x, _coeff_y) at the node's u
and the grid.spectral_gradient of the frame's field, which
frame_axis_stencil forms from the frame as integrate_frame does.  It forms
both products, one block of node rows at a time, and hands them with the
block's frames to one reduction; nothing is marched or sampled between
nodes for them.

A closing frame marches one more cell in each direction, so it also holds
the wrap-around column i = nx and row j = ny.  Because those cells reuse the
periodic propagators (the column march gives column nx those of column 0),
U(nx, j) U(0, j)^-1 and U(i, ny) U(i, 0)^-1 are the frame's monodromies over
one period, from which surface.torus_closure measures closure without
integrating a second period.
"""

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .grid import ScalarFieldPeriodic, row_sampler, spectral_gradient, trig_upsample
from .linalg3 import unitarity_defect_map

STENCIL_BLOCK_NODES = 1024  # nodes per block of frame_axis_stencil's derivatives
BUILD_CELLS = 128  # cells sampled per propagator build of integrate_frame (at least one step)


# ---------------------------------------------------------------------------
# coefficient matrices
# ---------------------------------------------------------------------------


def _run(calls):
    """Make each (ufunc, inputs, out) call of a list in turn."""
    for ufunc, inputs, out in calls:
        ufunc(*inputs, out=out)


def _exponentials(u, emu, eh):
    """The calls writing e^-u into emu and e^{u/2} into eh."""
    return [(np.negative, (u,), emu), (np.exp, (emu,), emu),
            (np.multiply, (0.5, u), eh), (np.exp, (eh,), eh)]


def _coeff_x(u, uy, lam, out, emu, eh):
    """The calls writing Wx at samples u, uy plane by plane into out, a
    (3, 3) + shape(u) buffer with the matrix axes first, through e^-u and
    e^{u/2} in emu and eh, buffers shaped like u."""
    # out[i, j, ...] is a view of the plane even for a scalar u
    return _exponentials(u, emu, eh) + [
        (np.multiply, (0.5j, uy), out[0, 0, ...]),
        (np.multiply, (1j, emu), out[0, 1, ...]),
        (np.multiply, (1j * np.conj(lam), eh), out[0, 2, ...]),
        (np.multiply, (1j, emu), out[1, 0, ...]),
        (np.multiply, (-0.5j, uy), out[1, 1, ...]),
        (np.multiply, (1j, eh), out[1, 2, ...]),
        (np.multiply, (1j * lam, eh), out[2, 0, ...]),
        (np.multiply, (1j, eh), out[2, 1, ...]),
        (np.positive, (0j,), out[2, 2, ...]),
    ]


def _coeff_y(u, ux, lam, out, emu, eh):
    """The calls writing Wy as _coeff_x writes Wx."""
    return _exponentials(u, emu, eh) + [
        (np.multiply, (-0.5j, ux), out[0, 0, ...]),
        (np.negative, (emu,), out[0, 1, ...]),
        (np.multiply, (np.conj(lam), eh), out[0, 2, ...]),
        (np.positive, (emu,), out[1, 0, ...]),
        (np.multiply, (0.5j, ux), out[1, 1, ...]),
        (np.negative, (eh,), out[1, 2, ...]),
        (np.multiply, (-lam, eh), out[2, 0, ...]),
        (np.positive, (eh,), out[2, 1, ...]),
        (np.positive, (0j,), out[2, 2, ...]),
    ]


# ---------------------------------------------------------------------------
# frame integration
# ---------------------------------------------------------------------------


def _mul3_calls(a, b, out, tmp, generator=False):
    """The calls of a batched 3x3 product with the matrix axes first, written
    into out, out[i, j] = sum_k a[i, k] b[k, j], as three broadcast
    multiply-adds over the batch axes; tmp, shaped like out, holds each term.
    For a generator b, whose (2, 2) entry is zero, the last term skips
    column 2."""
    j = slice(0, 2) if generator else slice(None)
    return [(np.multiply, (a[:, 0, None], b[0]), out),
            (np.multiply, (a[:, 1, None], b[1]), tmp),
            (np.add, (out, tmp), out),
            (np.multiply, (a[:, 2, None], b[2, j]), tmp[:, j]),
            (np.add, (out[:, j], tmp[:, j]), out[:, j])]


def _mul3(a, b, out, tmp):
    """The batched 3x3 product of _mul3_calls, made now; returns out."""
    _run(_mul3_calls(a, b, out, tmp))
    return out


def _shift_calls(c, k, out):
    """The calls writing I + c K into out, a contiguous buffer of matrices
    with the matrix axes first."""
    diagonal = out.reshape((9,) + out.shape[2:])[::4]
    return [(np.multiply, (c, k), out), (np.add, (diagonal, 1.0), diagonal)]


def _substep_offsets(m):
    """The half-substep offsets from a cell's first node of the samples a
    cell of m substeps reads: its nodes 0, 2, ..., 2m, then its midpoints
    1, 3, ..., 2m - 1."""
    return list(range(0, 2 * m + 1, 2)) + list(range(1, 2 * m, 2))


def _workspace(m, cells):
    """The flat buffers of _schedule for up to cells cells of m substeps,
    allocated before a frame's first build and shared by all its builds: the
    samples and e^-u, e^{u/2} at them, (2, samples) per cell; the generators
    at the samples, (3, 3, samples) per cell; and four (3, 3, m) per cell (a
    stage's I + c K, two stages, a product's terms)."""
    samples = len(_substep_offsets(m))
    return [np.empty(2 * samples * cells) for _ in range(2)] + [
        np.empty(9 * n * cells, dtype=complex) for n in (samples, m, m, m, m)]


def _schedule(ws, coeff, lam, hs, m, batch):
    """The fixed calls of one propagator build, C with S_end = S_start C, on
    cells of m RK4 substeps of size hs at batch points of shape batch, over
    the heads of the _workspace ws that batch needs.  Returns (near, calls,
    props): the (2, samples) + batch view the build reads, coeff's inputs
    before lam at the _substep_offsets samples; the list of
    (ufunc, inputs, out) calls; and the (3, 3) + batch view they leave the
    propagators in.

    d S = S W is linear, so a substep is S <- S P with
    P = I + hs/6 (K1 + 2 K2 + 2 K3 + K4) independent of S; the m substep
    propagators are multiplied pairwise, level by level, each level's pairs
    (2i, 2i + 1) of the one before and an odd count's last one carried.
    Each buffer is used through contiguous heads of its flat memory, each
    matrix entry's samples contiguous in them, so W0, W1 and Wh are
    contiguous slices of the generators, and every level of the product
    writes the head of a spare buffer.  (Levels written into slices of
    full-size spare buffers instead made the product about twice as slow.)"""
    def head(buf, *lead):
        # the buffer's first values as one contiguous lead + batch array
        return buf[: math.prod(lead + batch)].reshape(lead + batch)

    samples = len(_substep_offsets(m))
    near, exps = head(ws[0], 2, samples), head(ws[1], 2, samples)
    w, x, k2, k3, tmp = head(ws[2], 3, 3, samples), *(head(buf, 3, 3, m) for buf in ws[3:])
    calls = coeff(near[0], near[1], lam, w, exps[0], exps[1])
    k1, w1, wh = w[:, :, :m], w[:, :, 1 : m + 1], w[:, :, m + 1 :]
    # K2 = (I + hs/2 K1) Wh, K3 = (I + hs/2 K2) Wh, K4 = (I + hs K3) W1
    calls += _shift_calls(0.5 * hs, k1, x) + _mul3_calls(x, wh, k2, tmp, generator=True)
    calls += _shift_calls(0.5 * hs, k2, x) + _mul3_calls(x, wh, k3, tmp, generator=True)
    calls += _shift_calls(hs, k3, x) + [(np.add, (k2, k3), k2)]
    calls += _mul3_calls(x, w1, k3, tmp, generator=True)
    # P = I + hs/6 (2 (K2 + K3) + K1 + K4), summed in K2's buffer
    calls += [(np.add, (k2, k2), k2), (np.add, (k2, k1), k2), (np.add, (k2, k3), k2)]
    calls += _shift_calls(hs / 6.0, k2, k2)
    # each level multiplies its pairs into the head of a spare buffer, the
    # flat memory of x or of k3, its terms in the head of tmp's
    prop, n, spare = k2, m, (ws[3], ws[5])
    while n > 1:
        half, odd = n // 2, n % 2
        out = head(spare[0], 3, 3, half + odd)
        calls += _mul3_calls(prop[:, :, 0 : 2 * half : 2], prop[:, :, 1 : 2 * half : 2],
                             out[:, :, :half], head(ws[-1], 3, 3, half))
        if odd:
            calls.append((np.positive, (prop[:, :, n - 1],), out[:, :, half]))
        prop, n, spare = out, half + odd, spare[::-1]
    return near, calls, prop[:, :, 0]


def _alike(planes, axis):
    """Whether each node plane equals its first slice along axis everywhere,
    compared with ==: spectral_gradient leaves an exact zero derivative with
    signed zeros, and -0.0 == 0.0."""
    return all((p == np.take(p, [0], axis)).all() for p in planes)


def _upsampled(arrays, factor, offsets):
    """sample(rows) as grid.row_sampler gives it, for (nx, 1) planes of the
    first row, from grid.trig_upsample of the whole row at once."""
    samples = trig_upsample(arrays, factor, 1, offsets).swapaxes(0, 1)
    return lambda rows: samples[:, :, rows]


def _axis_march(state, out, planes, sampler, coeff, lam, hs, m):
    """Write into out[c] the state after cell c of a march along axis 0 of
    planes, the (n, w) node planes coeff's generator reads, from state, a
    (3, 3, width) row of frames with the matrix axes first.

    The planes decide once what is built: one step, repeated, if they are
    alike along the march (_alike on axis 0); one cell per step if they are
    alike across it; every cell of every step otherwise.  A step's b cells
    (one or w) are sampled by sampler(planes, 2 m, offsets) at full width
    and cut to b columns, since the sampler's product over one column alone
    may round otherwise, and built BUILD_CELLS // w steps (at least one) at
    a time in one workspace, each build's steps sampled just before it.
    Column i of the state gets the propagator of cell i mod b: a closing
    row's column w gets column 0's, and one cell goes to every column."""
    along, across = _alike(planes, 0), _alike(planes, 1)
    b = 1 if across else planes[0].shape[1]
    steps = 1 if along else len(out)
    per_build = min(steps, max(1, BUILD_CELLS // planes[0].shape[1]))
    ws, schedules = _workspace(m, per_build * b), {}
    sample = sampler(planes, 2 * m, _substep_offsets(m))
    cols = np.arange(state.shape[-1]) % b

    def props():
        for start in range(0, steps, per_build):
            rows = range(start, min(start + per_build, steps))
            if len(rows) not in schedules:
                schedules[len(rows)] = _schedule(ws, coeff, lam, hs, m, (len(rows), b))
            near, calls, built = schedules[len(rows)]
            near[...] = sample(rows)[..., :b]
            _run(calls)
            # np.take keeps C order (indexing would not), which _mul3 reads fastest
            built = np.take(built, cols, axis=-1)
            yield from (built[:, :, r] for r in range(len(rows)))

    cells = props()
    _march(state, itertools.repeat(next(cells), len(out)) if along else cells, out)


def _march(state, props, out):
    """Write into out[c] the state after cell c: state times the propagators
    props yields, one per cell, in turn, all with their matrix axes first.
    Its buffers are made once, so a cell allocates nothing."""
    cur, nxt, tmp = (np.empty(np.shape(state), dtype=complex) for _ in range(3))
    cur[...] = state
    for c, prop in enumerate(props):
        _mul3(cur, prop, nxt, tmp)
        out[c] = nxt
        cur, nxt = nxt, cur


@dataclass
class FrameField:
    """Unitary frames of the field u at the spectral parameter e^{i theta}
    at every grid node, shape (ny, nx, 3, 3); a closing frame also holds the
    wrap-around row and column, (ny + 1, nx + 1, 3, 3)."""

    u: ScalarFieldPeriodic = field(repr=False)
    theta: float
    unitary: np.ndarray = field(repr=False)
    closing: bool
    substeps: int

    @property
    def grid(self):
        return self.u.grid

    @property
    def lam(self):
        """The unit-modulus parameter lam = cos(theta) + i sin(theta)."""
        return complex(np.cos(self.theta), np.sin(self.theta))

    @property
    def base(self):
        return self.unitary[: self.grid.ny, : self.grid.nx]

    @property
    def normal(self):
        """Third frame column at the base nodes."""
        return self.base[..., :, 2]

    @functools.cached_property
    def unitarity_defect(self):
        """Max unitarity defect over every stored node, measured on first use
        and kept: a frame's matrices are not changed once it is made, and
        dataclasses.replace makes a frame that measures its own."""
        return float(unitarity_defect_map(self.unitary).max())


def integrate_frame(u, theta, substeps, closing):
    """Integrate the frame of the field u at lam = e^{i theta}, with
    substeps RK4 steps per grid cell, from the identity at the corner node.

    Marches the first row in x, sampled by grid.trig_upsample, and then
    every column in y, one cell row at a time, sampled by grid.row_sampler
    just before each build: both by _axis_march, which builds only the
    distinct cells its node planes call for.  Each marched row goes
    straight into the node-last result.
    closing=True also integrates the wrap-around column nx and row ny, for
    closure measurements.  The unitarity defect is left to the caller to
    bound.
    """
    grid = u.grid
    m = int(substeps)
    if m < 1:
        raise ValueError("substeps must be >= 1")
    extra = int(closing)
    vals = u.values
    ux, uy = spectral_gradient(vals, grid)
    unitary = np.empty((grid.ny + extra, grid.nx + extra, 3, 3), dtype=complex)
    unitary[0, 0] = np.eye(3)
    frame = FrameField(u, theta, unitary, bool(closing), m)
    lam = frame.lam
    # an overflowing march leaves NaN frames; the caller's unitarity bound names them
    with np.errstate(over="ignore", invalid="ignore"):
        # the first row, marched in x as a row of width one
        first = unitary[0, ..., None]
        _axis_march(first[0], first[1:], (vals[0, :, None], uy[0, :, None]), _upsampled,
                    _coeff_x, lam, grid.hx / m, m)
        # every column, marched in y; node_rows[j] is node row j with the
        # matrix axes first
        node_rows = np.moveaxis(unitary, 1, -1)
        _axis_march(node_rows[0], node_rows[1:], (vals, ux), row_sampler,
                    _coeff_y, lam, grid.hy / m, m)
    return frame


def frame_axis_stencil(frame, reduce):
    """Call reduce(block, frames, derivatives) with the base-node frames U
    and the first two columns of the exact derivatives d_x U = U Wx and
    d_y U = U Wy, one block of node rows at a time.

    Wx and Wy are written at the nodes by the march's own call lists,
    _coeff_x and _coeff_y, from u and the derivative across each axis, the
    (u_x, u_y) that grid.spectral_gradient forms from frame.u as
    integrate_frame does, so nothing is marched or sampled between nodes.
    The blocks hold STENCIL_BLOCK_NODES nodes (at least one row), so memory
    does not grow with the grid.  For each block, reduce gets the slice of
    its node rows, the (3, 3, rows, nx) frames and the (2, 3, 2, rows, nx)
    derivatives, the axis first and then the matrix axes; it keeps what it
    needs of them, for their buffer is reused by the next block.  Every node
    is computed on its own, so what reduce gets does not depend on the block
    size.  The name is that of the marched stencil this route replaced, kept
    until the benchmark's tracer target is renamed with it.
    """
    grid, lam = frame.grid, frame.lam
    u = frame.u.values
    ux, uy = spectral_gradient(u, grid)
    axes = ((_coeff_x, uy), (_coeff_y, ux))
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
            gen = exps = derivs = tmp = None
            gen = np.empty((3, 3) + shape, dtype=complex)
            exps = np.empty((2,) + shape)
            derivs = np.empty((2, 3, 2) + shape, dtype=complex)
            tmp = np.empty((3, 2) + shape, dtype=complex)
        for (coeff, across), out in zip(axes, derivs):
            _run(coeff(u[block], across[block], lam, gen, exps[0], exps[1]))
            _mul3(frames, gen[:, :2], out, tmp)
        reduce(block, frames, derivs)
