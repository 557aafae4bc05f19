"""Doubly periodic rectangular grids, scalar fields, and discrete derivatives.

Array convention used across the package: a field on an (nx, ny) grid is an
array of shape (ny, nx); axis 1 is the x direction (coordinate index 1 in
tensor formulas), axis 0 is the y direction (coordinate index 2).  Node
(i, j) sits at (i * hx, j * hy) and the grid identifies x ~ x + lx,
y ~ y + ly, so there is no duplicated edge row/column.
"""

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
# derivatives on periodic data (np.roll stencils; spectral option via FFT)
# ---------------------------------------------------------------------------


def deriv(values, h, axis, method="fd4"):
    """First derivative of periodic samples along ``axis``."""
    f = np.asarray(values)
    if method == "fd4":
        return (
            -np.roll(f, -2, axis)
            + 8.0 * np.roll(f, -1, axis)
            - 8.0 * np.roll(f, 1, axis)
            + np.roll(f, 2, axis)
        ) / (12.0 * h)
    if method == "fd2":
        return (np.roll(f, -1, axis) - np.roll(f, 1, axis)) / (2.0 * h)
    if method == "spectral":
        n = f.shape[axis]
        k = 2.0 * np.pi * np.fft.fftfreq(n, d=h)
        shape = [1] * f.ndim
        shape[axis] = n
        out = np.fft.ifft(1j * k.reshape(shape) * np.fft.fft(f, axis=axis), axis=axis)
        return out.real if np.isrealobj(f) else out
    raise ValueError(f"unknown derivative method {method!r}")


def deriv2(values, h, axis, method="fd4"):
    """Second derivative of periodic samples along ``axis``."""
    f = np.asarray(values)
    if method == "fd4":
        return (
            -np.roll(f, -2, axis)
            + 16.0 * np.roll(f, -1, axis)
            - 30.0 * f
            + 16.0 * np.roll(f, 1, axis)
            - np.roll(f, 2, axis)
        ) / (12.0 * h * h)
    if method == "fd2":
        return (np.roll(f, -1, axis) - 2.0 * f + np.roll(f, 1, axis)) / (h * h)
    if method == "spectral":
        n = f.shape[axis]
        k = 2.0 * np.pi * np.fft.fftfreq(n, d=h)
        shape = [1] * f.ndim
        shape[axis] = n
        out = np.fft.ifft(-(k.reshape(shape) ** 2) * np.fft.fft(f, axis=axis), axis=axis)
        return out.real if np.isrealobj(f) else out
    raise ValueError(f"unknown derivative method {method!r}")


def ddx(values, grid, method="fd4"):
    return deriv(values, grid.hx, AXIS_X, method)


def ddy(values, grid, method="fd4"):
    return deriv(values, grid.hy, AXIS_Y, method)


def laplacian(values, grid, method="fd4"):
    return deriv2(values, grid.hx, AXIS_X, method) + deriv2(values, grid.hy, AXIS_Y, method)


def deriv_nonperiodic(values, h, axis):
    """One-sided-at-edges derivative for non-periodic oracle data (order 2)."""
    return np.gradient(np.asarray(values), h, axis=axis, edge_order=2)


def trig_upsample(values, factor, axis):
    """Trigonometric (zero-padding FFT) interpolation onto a ``factor``-times
    finer grid along ``axis``; exact for band-limited periodic samples."""
    if factor == 1:
        return np.asarray(values).copy()
    f = np.asarray(values)
    n = f.shape[axis]
    nf = n * factor
    spec = np.fft.fft(f, axis=axis)
    spec = np.moveaxis(spec, axis, 0)
    out = np.zeros((nf,) + spec.shape[1:], dtype=complex)
    half = n // 2
    out[: half + 1] = spec[: half + 1]
    out[nf - (n - half - 1) :] = spec[half + 1 :]
    if n % 2 == 0:
        # split the Nyquist bin symmetrically to keep the interpolant real
        out[half] *= 0.5
        out[nf - half] = out[half]
    out = np.fft.ifft(out, axis=0) * factor
    out = np.moveaxis(out, 0, axis)
    return out.real if np.isrealobj(f) else out


# ---------------------------------------------------------------------------
# Laplacian spectrum and the -12 resonance guard
# ---------------------------------------------------------------------------


def laplacian_symbol_1d(n, h, method="fd4"):
    """Eigenvalues of the 1D periodic second-derivative stencil."""
    theta = 2.0 * np.pi * np.arange(n) / n
    if method == "fd4":
        return (-30.0 + 32.0 * np.cos(theta) - 2.0 * np.cos(2.0 * theta)) / (12.0 * h * h)
    if method == "fd2":
        return (2.0 * np.cos(theta) - 2.0) / (h * h)
    raise ValueError(f"unknown method {method!r}")


def resonance_gap(grid, target=-12.0, method="fd4"):
    """Smallest |eig + 12| over the 2D periodic Laplacian spectrum."""
    sx = laplacian_symbol_1d(grid.nx, grid.hx, method)
    sy = laplacian_symbol_1d(grid.ny, grid.hy, method)
    eig = sx[None, :] + sy[:, None]
    return float(np.abs(eig - target).min())


def check_resonance(grid, gap=1e-6, method="fd4"):
    g = resonance_gap(grid, method=method)
    if g < gap:
        raise ResonanceError(
            f"grid ({grid.nx}x{grid.ny}, lx={grid.lx:.6g}, ly={grid.ly:.6g}) has a "
            f"periodic-Laplacian eigenvalue within {g:.3e} of -12"
        )
    return g


# ---------------------------------------------------------------------------
# field CSV I/O: header line "nx,ny,lx,ly", then row-major values (y-outer),
# one per line, 17 significant digits
# ---------------------------------------------------------------------------


def format_float(v):
    return format(float(v), ".17g")


ROW_BLOCK_FIELDS = 1 << 14


def write_rows(fh, values):
    """Write a 2D float array as text lines, one per row, of comma-separated
    fields that have the bytes format_float gives them.  Rows are formatted
    a block of about ROW_BLOCK_FIELDS fields at a time by one %-operation."""
    arr = np.asarray(values, dtype=float)
    line = ",".join(["%.17g"] * arr.shape[1]) + "\n"
    rows = max(1, ROW_BLOCK_FIELDS // arr.shape[1])
    for start in range(0, arr.shape[0], rows):
        block = arr[start : start + rows]
        fh.write((line * block.shape[0]) % tuple(block.ravel().tolist()))


def save_field(fld, path):
    g = fld.grid
    with open(path, "w") as fh:
        fh.write(f"{g.nx},{g.ny},{format_float(g.lx)},{format_float(g.ly)}\n")
        write_rows(fh, fld.values.reshape(-1, 1))


def load_field(path):
    """Read a field written by save_field.

    Raises ConfigValidationError when the header is malformed, the file holds
    other than nx * ny values, or a value is not finite.
    """
    try:
        with open(path) as fh:
            header = fh.readline().strip().split(",")
            if len(header) != 4:
                raise ValueError(f"header has {len(header)} fields, not nx,ny,lx,ly")
            grid = PeriodicGrid(int(header[0]), int(header[1]), float(header[2]), float(header[3]))
            if not np.isfinite([grid.lx, grid.ly]).all():
                raise ValueError(f"periods ({grid.lx}, {grid.ly}) are not finite")
            values = np.loadtxt(fh, ndmin=1)
    except ValueError as exc:
        raise ConfigValidationError(f"field file {path} is malformed: {exc}") from exc
    if values.shape != (grid.nx * grid.ny,):
        raise ConfigValidationError(
            f"field file {path} holds {values.size} values in shape {values.shape}; its header "
            f"needs {grid.nx * grid.ny}, one per line"
        )
    if not np.isfinite(values).all():
        raise ConfigValidationError(f"field file {path} holds non-finite values")
    return ScalarFieldPeriodic(grid, values.reshape(grid.ny, grid.nx))
