import numpy as np

from tzitzeica.linalg3 import hermitian_inner, unitarity_defect_map

from conftest import random_unitary

# vectors, like the package's, have the component axis first and the node
# axes last: each of these is a stack of one
E1 = np.array([[1.0], [0.0], [0.0]], dtype=complex)
E2 = np.array([[0.0], [1.0], [0.0]], dtype=complex)


def _vectors(rng, n):
    """n random complex 3-vectors, shape (3, n)."""
    return rng.standard_normal((3, n)) + 1j * rng.standard_normal((3, n))


def test_hermitian_inner_examples():
    assert hermitian_inner(E1, E1).tolist() == [1.0]
    assert hermitian_inner(E1, E2).tolist() == [0.0]
    assert hermitian_inner(1j * E1, E1).tolist() == [-1j]
    assert hermitian_inner(np.stack([E1, E2], -1), np.stack([E1, E1], -1)).tolist() == [[1.0, 0.0]]


def test_euclidean_inner_examples():
    assert hermitian_inner(E1, E1).real.tolist() == [1.0]
    assert hermitian_inner(1j * E1, E1).real.tolist() == [0.0]
    assert hermitian_inner((1 + 1j) * E1, E1).real.tolist() == [1.0]


def test_hermitian_conjugate_symmetry_and_positivity():
    rng = np.random.default_rng(7)
    a, b = _vectors(rng, 50), _vectors(rng, 50)
    assert np.abs(hermitian_inner(a, b) - np.conj(hermitian_inner(b, a))).max() < 1e-14
    norm = hermitian_inner(a, a)
    assert np.abs(norm.imag).max() < 1e-15
    assert norm.real.min() > 0.0
    assert hermitian_inner(np.zeros((3, 1)), np.zeros((3, 1))).tolist() == [0.0]


def test_euclidean_complex_structure_compatibility():
    rng = np.random.default_rng(8)
    a, b = _vectors(rng, 50), _vectors(rng, 50)
    assert np.abs(hermitian_inner(1j * a, b).real + hermitian_inner(a, 1j * b).real).max() < 1e-14


def test_unitarity_defect_examples():
    assert unitarity_defect_map(np.eye(3)[None]).tolist() == [0.0]
    phase = np.diag([np.exp(0.37j), 1.0, 1.0])
    assert unitarity_defect_map(phase[None]).max() < 1e-15
    assert abs(unitarity_defect_map(2.0 * np.eye(3)[None]).max() - 3.0) < 1e-15


def test_unitarity_defect_of_products():
    rng = np.random.default_rng(9)
    for _ in range(20):
        u = random_unitary(rng)
        v = random_unitary(rng)
        assert unitarity_defect_map(u[None]).max() < 1e-14
        assert unitarity_defect_map((u @ v)[None]).max() < 1e-13


def test_unitarity_defect_broadcasts():
    rng = np.random.default_rng(10)
    stack = np.stack([random_unitary(rng) for _ in range(5)])
    stack[2] += 1e-3
    defect = unitarity_defect_map(stack)
    assert defect.shape == (5,) and defect[2] > 1e-4
