import numpy as np

from tzitzeica.linalg3 import hermitian_inner, unitarity_defect_map

from conftest import random_unitary

E1 = np.array([1.0, 0.0, 0.0], dtype=complex)
E2 = np.array([0.0, 1.0, 0.0], dtype=complex)


def test_hermitian_inner_examples():
    assert hermitian_inner(E1, E1) == 1.0
    assert hermitian_inner(E1, E2) == 0.0
    assert hermitian_inner(1j * E1, E1) == -1j


def test_euclidean_inner_examples():
    assert hermitian_inner(E1, E1).real == 1.0
    assert hermitian_inner(1j * E1, E1).real == 0.0
    assert hermitian_inner((1 + 1j) * E1, E1).real == 1.0


def test_hermitian_conjugate_symmetry_and_positivity():
    rng = np.random.default_rng(7)
    for _ in range(50):
        a = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        b = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        assert abs(hermitian_inner(a, b) - np.conj(hermitian_inner(b, a))) < 1e-14
        norm = hermitian_inner(a, a)
        assert abs(norm.imag) < 1e-15
        assert norm.real > 0.0
    assert hermitian_inner(np.zeros(3), np.zeros(3)) == 0.0


def test_euclidean_complex_structure_compatibility():
    rng = np.random.default_rng(8)
    for _ in range(50):
        a = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        b = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        assert abs(hermitian_inner(1j * a, b).real + hermitian_inner(a, 1j * b).real) < 1e-14


def test_unitarity_defect_examples():
    assert unitarity_defect_map(np.eye(3)).max() == 0.0
    phase = np.diag([np.exp(0.37j), 1.0, 1.0])
    assert unitarity_defect_map(phase).max() < 1e-15
    assert abs(unitarity_defect_map(2.0 * np.eye(3)).max() - 3.0) < 1e-15


def test_unitarity_defect_of_products():
    rng = np.random.default_rng(9)
    for _ in range(20):
        u = random_unitary(rng)
        v = random_unitary(rng)
        assert unitarity_defect_map(u).max() < 1e-14
        assert unitarity_defect_map(u @ v).max() < 1e-13


def test_unitarity_defect_broadcasts():
    rng = np.random.default_rng(10)
    stack = np.stack([random_unitary(rng) for _ in range(5)])
    stack[2] += 1e-3
    assert unitarity_defect_map(stack).max() > 1e-4
