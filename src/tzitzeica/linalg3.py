"""Complex 3-vectors and 3x3 matrices with the Hermitian product of C^3.

Vectors are numpy arrays with a leading axis of length 3, the node axes
last, so every product runs over contiguous node planes and a single vector
(shape (3,)) works unchanged.  The product <a|b> = sum conj(a_i) b_i is
conjugate-linear in the first slot; its real part is the Euclidean product
of C^3 viewed as R^6.
"""

import numpy as np


def hermitian_inner(a, b):
    """<a|b> = sum_i conj(a_i) b_i over axis 0."""
    out = np.sum(np.conj(np.asarray(a)) * np.asarray(b), axis=0)
    return complex(out) if np.ndim(out) == 0 else out


def unitarity_defect_map(mat):
    """Max-abs entry of U^H U - I per matrix of a stack with trailing shape
    (3, 3), contracted over the node planes of one matrix-first copy.  U^H U
    is Hermitian, so its upper triangle suffices."""
    m = np.ascontiguousarray(np.moveaxis(np.asarray(mat), (-2, -1), (0, 1)))
    cm = np.conj(m)
    out = 0.0
    for i in range(3):
        for k in range(i, 3):
            d = np.einsum("j...,j...->...", cm[:, i], m[:, k]) - float(i == k)
            out = np.maximum(out, np.abs(d))
    return out
