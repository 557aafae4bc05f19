"""Doubly periodic rectangular grids, scalar fields, and discrete derivatives.

Array convention used across the package: a field on an (nx, ny) grid is an
array of shape (ny, nx); axis 1 is the x direction (coordinate index 1 in
tensor formulas), axis 0 is the y direction (coordinate index 2).  Node
(i, j) sits at (i * hx, j * hy) and the grid identifies x ~ x + lx,
y ~ y + ly, so there is no duplicated edge row/column.

Derivatives are the 4th-order periodic stencils (deriv, deriv2), except
spectral_gradient, the exact gradient of the trigonometric interpolant,
which the frame's generators and the report's exact frame derivatives both
read.

Values between nodes are those of the trigonometric interpolant of the
samples: trig_upsample gives them at sub-cell offsets from every node along
one axis, row_sampler along axis 0 from chosen node rows only.  The frame
integrator is their one caller: its first row is sampled by trig_upsample,
the cell rows of its column march, one build's rows at a time, by
row_sampler.

It also owns the layouts of the artifact files: text tables (save_table;
load_field reads a text field, the seed = file input) and binary node files
(save_nodes, load_nodes: the solved field, the frame and the mesh).  A file's
header is its record, the (key, value) pairs of the run that wrote it, and a
reader takes the record of its own run and rejects a file made with another.
"""

import hashlib
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigValidationError

AXIS_X = 1
AXIS_Y = 0


@dataclass(frozen=True)
class PeriodicGrid:
    nx: int
    ny: int
    lx: float
    ly: float

    def __post_init__(self):
        if self.nx < 8 or self.ny < 8:
            raise ValueError(f"need nx, ny >= 8, got ({self.nx}, {self.ny})")
        if not (self.lx > 0 and self.ly > 0):
            raise ValueError(f"need positive periods, got ({self.lx}, {self.ly})")

    @property
    def hx(self):
        return self.lx / self.nx

    @property
    def hy(self):
        return self.ly / self.ny

    @property
    def x(self):
        return np.arange(self.nx) * self.hx


@dataclass
class ScalarFieldPeriodic:
    """Real scalar samples on a PeriodicGrid, shape (ny, nx)."""

    grid: PeriodicGrid
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.grid.ny, self.grid.nx):
            raise ValueError(
                f"field shape {self.values.shape} does not match grid "
                f"({self.grid.ny}, {self.grid.nx})"
            )
        if not np.all(np.isfinite(self.values)):
            raise ValueError("field contains non-finite values")


def zero_field(grid):
    return ScalarFieldPeriodic(grid, np.zeros((grid.ny, grid.nx)))


# ---------------------------------------------------------------------------
# derivatives on periodic data (stencils on one periodic pad; the spectral gradient via FFT)
# ---------------------------------------------------------------------------


def _taps(f, axis):
    """tap(s), the samples f at node + s along ``axis`` for |s| <= 2, as
    slices of one periodic pad of f: tap(s) equals np.roll(f, -s, axis)."""
    n = f.shape[axis]

    def part(start, stop):
        return (slice(None),) * (axis % f.ndim) + (slice(start, stop),)

    pad = np.concatenate((f[part(n - 2, n)], f, f[part(0, 2)]), axis)
    return lambda s: pad[part(2 + s, 2 + s + n)]


def deriv(values, h, axis):
    """First derivative of periodic samples along ``axis`` (4th-order stencil)."""
    tap = _taps(np.asarray(values), axis)
    return (-tap(2) + 8.0 * tap(1) - 8.0 * tap(-1) + tap(-2)) / (12.0 * h)


def deriv2(values, h, axis):
    """Second derivative of periodic samples along ``axis`` (4th-order stencil)."""
    f = np.asarray(values)
    tap = _taps(f, axis)
    return (-tap(2) + 16.0 * tap(1) - 30.0 * f + 16.0 * tap(-1) - tap(-2)) / (12.0 * h * h)


def laplacian_symbol_1d(n, h):
    """Eigenvalues of the 1D periodic 4th-order second-derivative stencil."""
    theta = 2.0 * np.pi * np.arange(n) / n
    return (-30.0 + 32.0 * np.cos(theta) - 2.0 * np.cos(2.0 * theta)) / (12.0 * h * h)


def spectral_gradient(values, grid):
    """(u_x, u_y): the exact derivatives of the trigonometric interpolant of
    real periodic samples of shape (ny, nx), one FFT pair along each axis."""
    kx = 2.0 * np.pi * np.fft.fftfreq(grid.nx, d=grid.hx)
    ky = 2.0 * np.pi * np.fft.fftfreq(grid.ny, d=grid.hy)[:, None]
    ux = np.fft.ifft(1j * kx * np.fft.fft(values, axis=AXIS_X), axis=AXIS_X).real
    uy = np.fft.ifft(1j * ky * np.fft.fft(values, axis=AXIS_Y), axis=AXIS_Y).real
    return ux, uy


def trig_upsample(values, factor, axis, offsets):
    """The trigonometric interpolant of real periodic samples along ``axis``
    at node + k * h / factor for each integer k of ``offsets``, shape
    (len(offsets),) + values.shape; exact for band-limited samples.

    Each offset is a phase shift of the real spectrum.  irfft keeps only the
    real part of an even length's Nyquist bin, which is the symmetric split of
    that bin that keeps the interpolant real."""
    f = np.asarray(values, dtype=float)
    n = f.shape[axis]
    shape = [len(offsets)] + [1] * f.ndim
    shape[axis + 1] = -1
    phase = _trig_phases(n, factor, offsets).reshape(shape)
    return np.fft.irfft(np.fft.rfft(f, axis=axis) * phase, n, axis=axis + 1)


def row_sampler(arrays, factor, offsets):
    """sample(rows): trig_upsample along axis 0 of each of the real periodic
    arrays, all of one shape, at the given node rows only, shape
    (len(arrays), len(offsets), len(rows)) + the arrays' other axes.

    The arrays are transformed by one rfft here, and the phases of every
    node row are tabled once.  A call builds the real (offsets x rows, 2
    bins) matrix that takes the real and imaginary parts of that spectrum to
    the samples: each bin's irfft weight times its phase
    e^{2 pi i nu (j + k / factor) / n} at row j and offset k, split into its
    real part and its negated imaginary part.  It applies that matrix by one
    matrix product, so nothing larger than the requested rows' samples is
    made."""
    f = np.asarray(arrays, dtype=float)
    n = f.shape[1]
    spectrum = np.fft.rfft(f.reshape(len(f), n, -1), axis=1)
    parts = np.concatenate((spectrum.real, spectrum.imag), axis=1)
    bins = spectrum.shape[1]
    # irfft's weights: the mean and an even length's Nyquist bin count once,
    # every other bin twice (it stands for itself and its conjugate)
    weight = np.full(bins, 2.0 / n)
    weight[0] = 1.0 / n
    if n % 2 == 0:
        weight[-1] = 1.0 / n
    kernel = weight * _trig_phases(n, factor, offsets)
    row_phases = _trig_phases(n, 1, range(n))

    def sample(rows):
        phased = (kernel[:, None] * row_phases[rows]).reshape(-1, bins)
        out = np.matmul(np.concatenate((phased.real, -phased.imag), axis=1), parts)
        return out.reshape((len(f), len(offsets), len(rows)) + f.shape[2:])

    return sample


def _trig_phases(n, factor, offsets):
    """exp(2 pi i k j / (n factor)) for each k of offsets (rows) and each
    rfft bin j of n samples (columns)."""
    # k * j reduced mod n * factor keeps every phase angle in [0, 2 pi)
    turns = np.outer(offsets, np.arange(n // 2 + 1)) % (n * factor) / (n * factor)
    return np.exp(2j * np.pi * turns)


# ---------------------------------------------------------------------------
# artifact files: a header line of comma-separated values, then the body.  A
# stage input's header holds its record, the (key, value) pairs of the run that
# wrote it, first grid_record's; its reader takes its own run's record and
# accepts only an equal header (_check_record).  A text table (save_table; a
# seed = file field is read by load_field) holds rows of comma-separated values
# with 17 significant digits; a node file (save_nodes, load_nodes: the field,
# the frame and the mesh) holds its values as little-endian binary numbers in C
# order, complex128 unless the file names another dtype.
# ---------------------------------------------------------------------------


def format_float(v):
    return format(float(v), ".17g")


ROW_BLOCK_FIELDS = 1 << 14


def write_rows(fh, values, line=None):
    """Write a 2D array as text lines, one per row, through the %-template
    ``line`` of one row.  The default template is comma-separated %.17g fields,
    the bytes format_float gives them.  Rows are formatted a block of about
    ROW_BLOCK_FIELDS fields at a time by one %-operation."""
    arr = np.asarray(values)
    line = line or ",".join(["%.17g"] * arr.shape[1]) + "\n"
    rows = max(1, ROW_BLOCK_FIELDS // arr.shape[1])
    for start in range(0, arr.shape[0], rows):
        block = arr[start : start + rows]
        fh.write((line * block.shape[0]) % tuple(block.ravel().tolist()))


def header_line(record):
    """The values of ``record``'s (key, value) pairs as one line: ints and
    strings with str, floats with format_float."""
    return ",".join(str(v) if isinstance(v, (int, str)) else format_float(v)
                    for _key, v in record) + "\n"


def grid_record(grid):
    """The record of a file of values on ``grid``, the text seed's and
    field.bin's, and the first keys of the frame's and the mesh's."""
    return (("nx", grid.nx), ("ny", grid.ny), ("lx", grid.lx), ("ly", grid.ly))


def _check_record(path, head, record, remedy):
    """Raise ValueError unless the header line ``head`` (bytes) has one field
    per (key, value) of ``record``, each parsing as the type of its value, and
    ConfigValidationError, naming the file by its base name and ending with
    ``remedy``, at the first field that parses to another value."""
    fields = head.decode("ascii").strip().split(",")
    if len(fields) != len(record):
        raise ValueError(f"its header has {len(fields)} fields, not {len(record)}")
    for (key, want), text in zip(record, fields):
        got = type(want)(text)
        if got != want:
            raise ConfigValidationError(f"{os.path.basename(path)} was made with {key} = {got!r}, "
                                        f"this run has {key} = {want!r}; {remedy}")


def save_table(path, record, rows):
    """Write the values of ``record`` as the header line, then the 2D
    ``rows`` through write_rows."""
    with open(path, "w") as fh:
        fh.write(header_line(record))
        write_rows(fh, rows)


def save_nodes(path, record, values, dtype="<c16"):
    """Write the values of ``record`` as the header line, then ``values`` as
    ``dtype`` in C order."""
    with open(path, "wb") as fh:
        fh.write(header_line(record).encode("ascii"))
        np.ascontiguousarray(values, dtype=dtype).tofile(fh)


def load_nodes(path, stage, record, shape, dtype="<c16", digest=False):
    """Read a node file that save_nodes wrote with this run's ``record`` and
    ``dtype``; returns its values, of ``shape``, and, when ``digest`` is set,
    the hex digest of the file's bytes from the same read (None otherwise).
    Raises ConfigValidationError, telling to rerun ``stage``, when the file
    was made with another record (see _check_record), or it cannot be read:
    it cannot be opened, its header does not parse by the record, its body is
    other than one ``dtype`` item per value of ``shape``, or a value is not
    finite."""
    remedy = f"rerun the {stage} stage"
    try:
        with open(path, "rb") as fh:
            head = fh.readline()
            _check_record(path, head, record, remedy)
            values = np.fromfile(fh, dtype=dtype)
            tail = len(fh.read())
        if values.size != math.prod(shape) or tail:
            raise ValueError(f"it holds {values.nbytes + tail} bytes of node data; this run "
                             f"calls for {shape} values of {values.itemsize} bytes")
        if not np.isfinite(values).all():
            raise ValueError("it holds non-finite values")
    except (OSError, ValueError) as exc:
        raise ConfigValidationError(f"{path} cannot be read: {exc}; {remedy}") from exc
    sha256 = None
    if digest:
        hasher = hashlib.sha256(head)
        hasher.update(values)
        sha256 = hasher.hexdigest()
    return values.reshape(shape), sha256


def save_field(fld, path):
    """Write the field as a node file: grid_record, then its values as '<f8',
    row-major (y outer)."""
    save_nodes(path, grid_record(fld.grid), fld.values, "<f8")


def load_saved_field(path, grid):
    """Read a field that save_field wrote on ``grid``; returns the field and
    the sha256 hex digest of the file's bytes.  Raises ConfigValidationError
    as load_nodes does."""
    values, sha256 = load_nodes(path, "solve", grid_record(grid), (grid.ny, grid.nx), "<f8",
                                digest=True)
    return ScalarFieldPeriodic(grid, values), sha256


def load_field(path, grid):
    """Read a text field table on ``grid``, the input of seed = file: header
    grid_record, then one value per line, row-major (y outer).  Raises
    ConfigValidationError, telling to check field_path, when the file was
    made on another grid (see _check_record), or it cannot be read: it cannot
    be opened, does not end with a newline (it was cut short), its header
    does not parse, or it holds other than nx * ny lines or a line that is
    not one number (two values, a comment, a blank line), or a non-finite
    value."""
    remedy = "check field_path"
    try:
        with open(path, "rb") as fh:
            data = fh.read()
        if not data.endswith(b"\n"):
            raise ValueError("it does not end with a newline; it was cut short")
        head, _, body = data.partition(b"\n")
        _check_record(path, head, grid_record(grid), remedy)
        # one value per line: a line that is not one number fails the conversion
        values = np.array(body.split(b"\n")[:-1], dtype=float)
        if values.size != grid.nx * grid.ny:
            raise ValueError(f"it holds {values.size} lines, not {grid.nx * grid.ny}")
        if not np.isfinite(values).all():
            raise ValueError("it holds non-finite values")
    except (OSError, ValueError) as exc:
        raise ConfigValidationError(f"{path} cannot be read: {exc}; {remedy}") from exc
    return ScalarFieldPeriodic(grid, values.reshape(grid.ny, grid.nx))
