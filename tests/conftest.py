import math

import numpy as np
import pytest

from tzitzeica.grid import PeriodicGrid, ScalarFieldPeriodic
from tzitzeica.wave import travelling_wave

# side of the square torus of the two-dimensional solution: 0.97 l0, just
# below l0 = 2 pi / sqrt(6), where cos(2 pi x / l0) cos(2 pi y / l0) is a
# kernel mode of the linearization Delta + 12 at u = 0 and a doubly periodic
# branch bifurcates from u = 0
COSINE_SIDE = 0.97 * 2.0 * math.pi / math.sqrt(6.0)


def mesh(grid):
    """(x, y): the coordinates of the grid's nodes, each of shape (ny, nx)."""
    return np.meshgrid(grid.x, np.arange(grid.ny) * grid.hy)


def field_from_function(grid, fn):
    """The field of the values fn(x, y) at the grid's nodes."""
    xx, yy = mesh(grid)
    return ScalarFieldPeriodic(grid, np.asarray(fn(xx, yy), dtype=float))


def loglog_slope(hs, errs):
    """Least-squares slope of log(err) vs log(h)."""
    return float(np.polyfit(np.log(np.asarray(hs)), np.log(np.asarray(errs)), 1)[0])


def cosine_seed(n):
    """The seed 0.6 cos(2 pi x / l) cos(2 pi y / l) on the n x n grid of side
    COSINE_SIDE; Newton takes it in 5 iterations to a solution that depends
    on both x and y."""
    grid = PeriodicGrid(n, n, COSINE_SIDE, COSINE_SIDE)
    wave = 2.0 * math.pi / COSINE_SIDE
    return field_from_function(grid, lambda x, y: 0.6 * np.cos(wave * x) * np.cos(wave * y))


def random_unitary(rng):
    z = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


@pytest.fixture(scope="session")
def wave61():
    return travelling_wave(6.1)
