"""Doubly periodic rectangular grids, scalar fields, and discrete derivatives.

Array convention used across the package: a field on an (nx, ny) grid is an
array of shape (ny, nx); axis 1 is the x direction (coordinate index 1 in
tensor formulas), axis 0 is the y direction (coordinate index 2).  Node
(i, j) sits at (i * hx, j * hy) and the grid identifies x ~ x + lx,
y ~ y + ly, so there is no duplicated edge row/column.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigValidationError, ResonanceError

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
# derivatives on periodic data (np.roll stencils; spectral first derivative via FFT)
# ---------------------------------------------------------------------------


def deriv(values, h, axis, method="fd4"):
    """First derivative of periodic samples along ``axis``: the 4th-order
    stencil ("fd4") or the exact derivative of the trigonometric interpolant
    ("spectral")."""
    f = np.asarray(values)
    if method == "fd4":
        return (
            -np.roll(f, -2, axis)
            + 8.0 * np.roll(f, -1, axis)
            - 8.0 * np.roll(f, 1, axis)
            + np.roll(f, 2, axis)
        ) / (12.0 * h)
    if method == "spectral":
        n = f.shape[axis]
        k = 2.0 * np.pi * np.fft.fftfreq(n, d=h)
        shape = [1] * f.ndim
        shape[axis] = n
        out = np.fft.ifft(1j * k.reshape(shape) * np.fft.fft(f, axis=axis), axis=axis)
        return out.real if np.isrealobj(f) else out
    raise ValueError(f"unknown derivative method {method!r}")


def deriv2(values, h, axis):
    """Second derivative of periodic samples along ``axis`` (4th-order stencil)."""
    f = np.asarray(values)
    return (
        -np.roll(f, -2, axis)
        + 16.0 * np.roll(f, -1, axis)
        - 30.0 * f
        + 16.0 * np.roll(f, 1, axis)
        - np.roll(f, 2, axis)
    ) / (12.0 * h * h)


def ddx(values, grid, method="fd4"):
    return deriv(values, grid.hx, AXIS_X, method)


def ddy(values, grid, method="fd4"):
    return deriv(values, grid.hy, AXIS_Y, method)


def laplacian(values, grid):
    return deriv2(values, grid.hx, AXIS_X) + deriv2(values, grid.hy, AXIS_Y)


def deriv_nonperiodic(values, h, axis):
    """One-sided-at-edges derivative for non-periodic oracle data (order 2)."""
    return np.gradient(np.asarray(values), h, axis=axis, edge_order=2)


def trig_upsample(values, factor, axis, offsets):
    """The trigonometric interpolant of real periodic samples along ``axis``
    at node + k * h / factor for each integer k of ``offsets``, shape
    (len(offsets),) + values.shape; exact for band-limited samples.

    Each offset is a phase shift of the real spectrum.  irfft keeps only the
    real part of an even length's Nyquist bin, which is the symmetric split of
    that bin that keeps the interpolant real."""
    f = np.asarray(values, dtype=float)
    n = f.shape[axis]
    # k * j reduced mod n * factor keeps every phase angle in [0, 2 pi)
    turns = np.outer(offsets, np.arange(n // 2 + 1)) % (n * factor) / (n * factor)
    shape = [len(turns)] + [1] * f.ndim
    shape[axis + 1] = -1
    phase = np.exp(2j * np.pi * turns).reshape(shape)
    return np.fft.irfft(np.fft.rfft(f, axis=axis) * phase, n, axis=axis + 1)


# ---------------------------------------------------------------------------
# Laplacian spectrum and the -12 resonance guard
# ---------------------------------------------------------------------------


def laplacian_symbol_1d(n, h):
    """Eigenvalues of the 1D periodic 4th-order second-derivative stencil."""
    theta = 2.0 * np.pi * np.arange(n) / n
    return (-30.0 + 32.0 * np.cos(theta) - 2.0 * np.cos(2.0 * theta)) / (12.0 * h * h)


RESONANCE_GAP = 1e-6


def resonance_gap(grid):
    """Smallest |eig + 12| over the 2D periodic Laplacian spectrum."""
    sx = laplacian_symbol_1d(grid.nx, grid.hx)
    sy = laplacian_symbol_1d(grid.ny, grid.hy)
    eig = sx[None, :] + sy[:, None]
    return float(np.abs(eig + 12.0).min())


def check_resonance(grid):
    """The resonance gap of ``grid``; raises ResonanceError below RESONANCE_GAP."""
    g = resonance_gap(grid)
    if g < RESONANCE_GAP:
        raise ResonanceError(
            f"grid ({grid.nx}x{grid.ny}, lx={grid.lx:.6g}, ly={grid.ly:.6g}) has a "
            f"periodic-Laplacian eigenvalue within {g:.3e} of -12"
        )
    return g


# ---------------------------------------------------------------------------
# artifact tables (field, wave and mesh CSV): a header line of comma-separated
# ints and floats, then rows of comma-separated values, all with 17
# significant digits; save_table writes them, load_table checks them.  The
# frame file shares the header line (header_line, parse_header) and follows
# it with binary node data.
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
    """The header values as one line: ints with str, floats with format_float."""
    return ",".join(str(v) if isinstance(v, int) else format_float(v) for v in header) + "\n"


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


def load_table(path, what, types, width, nrows):
    """Read a table written by save_table; returns (header, rows).

    ``types`` converts each header field, and the header calls for
    ``nrows(header)`` rows of ``width`` values.  Raises ConfigValidationError,
    naming the file as ``what``, when the file cannot be opened, does not end
    with the newline save_table ends it with (it was cut short) or holds no
    rows after its header, the header has other than len(types) fields or a
    value that does not parse or is not finite, or the file holds other rows
    than the header calls for or a non-finite value.
    """
    try:
        with open(path, "rb") as fh:
            fh.seek(-1, 2)  # to the last byte; an empty file raises OSError
            if fh.read(1) != b"\n":
                raise ValueError("it does not end with a newline; it was cut short")
        with open(path) as fh:
            header = parse_header(fh.readline(), types)
            start = fh.tell()
            if not fh.read(1):
                raise ValueError("it holds its header and no rows")
            fh.seek(start)
            rows = np.loadtxt(fh, delimiter=",", ndmin=2)
    except (OSError, ValueError) as exc:
        raise ConfigValidationError(f"{what} {path} cannot be read: {exc}") from exc
    n = nrows(header)
    if rows.shape != (n, width):
        raise ConfigValidationError(
            f"{what} {path} holds {rows.shape[0]} rows of {rows.shape[-1]} values; its header "
            f"needs {n} rows of {width}"
        )
    if not np.isfinite(rows).all():
        raise ConfigValidationError(f"{what} {path} holds non-finite values")
    return header, rows


def header_grid(path, what, header):
    """The PeriodicGrid of a table header that starts nx,ny,lx,ly; raises
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
    g = fld.grid
    save_table(path, (g.nx, g.ny, g.lx, g.ly), fld.values.reshape(-1, 1))


def load_field(path):
    """Read a field written by save_field: header nx,ny,lx,ly, then one value
    per line, row-major (y outer).  Raises ConfigValidationError as load_table
    does, or for an invalid grid."""
    header, values = load_table(path, "field file", (int, int, float, float), 1,
                                lambda h: h[0] * h[1])
    grid = header_grid(path, "field file", header)
    return ScalarFieldPeriodic(grid, values.reshape(grid.ny, grid.nx))
