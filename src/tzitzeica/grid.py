"""Doubly periodic rectangular grids, scalar fields, and discrete derivatives.

Array convention used across the package: a field on an (nx, ny) grid is an
array of shape (ny, nx); axis 1 is the x direction (coordinate index 1 in
tensor formulas), axis 0 is the y direction (coordinate index 2).  Node
(i, j) sits at (i * hx, j * hy) and the grid identifies x ~ x + lx,
y ~ y + ly, so there is no duplicated edge row/column.

Derivatives are the 4th-order periodic stencils (deriv, ddx, ddy, deriv2),
except spectral_gradient, the exact gradient of the trigonometric
interpolant, which the frame's generators and the report's exact frame
derivatives both read.

Values between nodes are those of the trigonometric interpolant of the
samples: trig_upsample gives them at sub-cell offsets from every node along
one axis, row_sampler along axis 0 from chosen node rows only.  The frame
integrator is their one caller: its first row is sampled by trig_upsample,
the cell rows of its column march, one build's rows at a time, by
row_sampler.

It also owns the layouts of the artifact files: text tables (save_table;
load_field reads a text field, the seed = file input) and binary node files
(save_nodes, load_nodes: the solved field, the frame and the mesh).
"""

import hashlib
import math
import re
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

    @property
    def y(self):
        return np.arange(self.ny) * self.hy

    def mesh(self):
        return np.meshgrid(self.x, self.y)


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


def field_from_function(grid, fn):
    xx, yy = grid.mesh()
    return ScalarFieldPeriodic(grid, np.asarray(fn(xx, yy), dtype=float))


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


def ddx(values, grid):
    return deriv(values, grid.hx, AXIS_X)


def ddy(values, grid):
    return deriv(values, grid.hy, AXIS_Y)


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
# artifact files: a header line of comma-separated values (header_line,
# parse_header), then the body.  A text table (save_table; a seed = file field
# is read by load_field) holds rows of comma-separated values with 17
# significant digits; a node file (save_nodes, load_nodes: the field, the frame
# and the mesh) holds its values as little-endian binary numbers in C order,
# complex128 unless the file names another dtype.
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


def header_line(header):
    """The header values as one line: ints and strings with str, floats with
    format_float."""
    return ",".join(str(v) if isinstance(v, (int, str)) else format_float(v) for v in header) + "\n"


def hex_digest(text):
    """A header field holding a sha256 hex digest: 64 lowercase hex digits;
    raises ValueError for any other text."""
    if not re.fullmatch("[0-9a-f]{64}", text):
        raise ValueError(f"{text!r} is not a sha256 hex digest")
    return text


def parse_header(line, types):
    """The header values of ``line``, each converted by its entry of ``types``;
    raises ValueError when the line has other than len(types) fields or a
    value that does not parse or is not finite."""
    fields = line.strip().split(",")
    if len(fields) != len(types):
        raise ValueError(f"header has {len(fields)} fields, not {len(types)}")
    header = tuple(t(f) for t, f in zip(types, fields))
    if not all(math.isfinite(v) for v in header if isinstance(v, float)):
        raise ValueError(f"header values {header} are not finite")
    return header


def save_table(path, header, rows):
    """Write header_line(header), then the 2D ``rows`` through write_rows."""
    with open(path, "w") as fh:
        fh.write(header_line(header))
        write_rows(fh, rows)


def save_nodes(path, header, values, dtype="<c16"):
    """Write header_line(header), then ``values`` as ``dtype`` in C order."""
    with open(path, "wb") as fh:
        fh.write(header_line(header).encode("ascii"))
        np.ascontiguousarray(values, dtype=dtype).tofile(fh)


def load_nodes(path, what, types, shape, dtype="<c16", digest=False):
    """Read a node file written by save_nodes with ``dtype``; returns (header,
    values, sha256), the values reshaped to ``shape(header)`` and, when
    ``digest`` is set, the hex digest of the file's bytes from the same read
    (None otherwise).  Raises
    ConfigValidationError, naming the file as ``what``, when the file cannot
    be opened, its header does not parse by ``types`` (see parse_header), its
    body is other than one ``dtype`` item per value of that shape, or a value
    is not finite."""
    try:
        with open(path, "rb") as fh:
            head = fh.readline()
            header = parse_header(head.decode("ascii"), types)
            values = np.fromfile(fh, dtype=dtype)
            tail = len(fh.read())
        dims = shape(header)
        if min(dims) < 0 or values.size != math.prod(dims) or tail:
            raise ValueError(f"it holds {values.nbytes + tail} bytes of node data; its "
                             f"header calls for {dims} values of {values.itemsize} bytes")
        if not np.isfinite(values).all():
            raise ValueError("it holds non-finite values")
    except (OSError, ValueError) as exc:
        raise ConfigValidationError(f"{what} {path} cannot be read: {exc}") from exc
    sha256 = None
    if digest:
        hasher = hashlib.sha256(head)
        hasher.update(values)
        sha256 = hasher.hexdigest()
    return header, values.reshape(dims), sha256


def header_grid(path, what, header):
    """The PeriodicGrid of an artifact header that starts nx,ny,lx,ly; raises
    ConfigValidationError when it is not a valid grid."""
    try:
        return PeriodicGrid(*header[:4])
    except ValueError as exc:
        raise ConfigValidationError(f"{what} {path} has no valid grid: {exc}") from exc


def check_same_grid(path, got, want):
    """Raise ConfigValidationError unless the grid ``got`` of the file at
    ``path`` is exactly the grid ``want`` it is used with."""
    if got != want:
        raise ConfigValidationError(f"{path} is for {got}, this run for {want}; rerun its stage")


def save_field(fld, path):
    """Write the field as a node file: header nx,ny,lx,ly, then its values as
    '<f8', row-major (y outer)."""
    g = fld.grid
    save_nodes(path, (g.nx, g.ny, g.lx, g.ly), fld.values, "<f8")


def load_saved_field(path, grid):
    """Read a field written by save_field for use on ``grid``; returns the
    field and the sha256 hex digest of the file's bytes.  Raises
    ConfigValidationError as load_nodes does, or when the file's grid is no
    valid grid or is not ``grid``."""
    types = (int, int, float, float)
    header, values, sha256 = load_nodes(path, "field file", types, lambda h: (h[1], h[0]), "<f8",
                                        digest=True)
    check_same_grid(path, header_grid(path, "field file", header), grid)
    return ScalarFieldPeriodic(grid, values), sha256


def load_field(path):
    """Read a text field table, the input of seed = file: header nx,ny,lx,ly,
    then one value per line, row-major (y outer).  Raises
    ConfigValidationError when the file cannot be opened, does not end with a
    newline (it was cut short) or holds no values after its header, the
    header does not parse (see parse_header) or is no valid grid, or the file
    holds other than nx * ny lines or a line that is not one number (two
    values, a comment, a blank line), or a non-finite value."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
        if not data.endswith(b"\n"):
            raise ValueError("it does not end with a newline; it was cut short")
        head, _, body = data.partition(b"\n")
        header = parse_header(head.decode("ascii"), (int, int, float, float))
        if not body:
            raise ValueError("it holds its header and no values")
        # one value per line: a line that is not one number fails the conversion
        values = np.array(body.split(b"\n")[:-1], dtype=float)
        grid = header_grid(path, "field file", header)
        if values.size != grid.nx * grid.ny:
            raise ValueError(f"it holds {values.size} lines, not {grid.nx * grid.ny}")
        if not np.isfinite(values).all():
            raise ValueError("it holds non-finite values")
    except (OSError, ValueError) as exc:
        raise ConfigValidationError(f"field file {path} cannot be read: {exc}") from exc
    return ScalarFieldPeriodic(grid, values.reshape(grid.ny, grid.nx))
