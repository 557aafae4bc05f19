import numpy as np
import pytest

from tzitzeica.wave import travelling_wave


def loglog_slope(hs, errs):
    """Least-squares slope of log(err) vs log(h)."""
    return float(np.polyfit(np.log(np.asarray(hs)), np.log(np.asarray(errs)), 1)[0])


def random_unitary(rng):
    z = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


@pytest.fixture(scope="session")
def wave61():
    return travelling_wave(6.1)
