"""Complex 3-vectors and 3x3 matrices with the Hermitian product of C^3.

Vectors are numpy arrays with a trailing axis of length 3, matrices have
trailing shape (3, 3); all functions broadcast over leading axes.  The
product <a|b> = sum conj(a_i) b_i is conjugate-linear in the first slot; its
real part is the Euclidean product of C^3 viewed as R^6.
"""

import numpy as np


def hermitian_inner(a, b):
    """<a|b> = sum_i conj(a_i) b_i."""
    out = np.sum(np.conj(np.asarray(a)) * np.asarray(b), axis=-1)
    return complex(out) if np.ndim(out) == 0 else out


def gram(mat):
    """U^H U for a matrix or stack of matrices."""
    m = np.asarray(mat)
    return np.einsum("...ji,...jk->...ik", np.conj(m), m)


def unitarity_defect_map(mat):
    """Max-abs entry of U^H U - I per matrix in the stack."""
    d = gram(mat) - np.eye(3)
    return np.abs(d).max(axis=(-2, -1))
