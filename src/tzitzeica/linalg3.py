"""Complex 3-vectors and 3x3 matrices with the Hermitian product of C^3.

Vectors are numpy arrays with a leading axis of length 3, the node axes
last, so every product runs over contiguous node planes and a single vector
(shape (3,)) works unchanged.  The product <a|b> = sum conj(a_i) b_i is
conjugate-linear in the first slot; its real part is the Euclidean product
of C^3 viewed as R^6.
"""

import math

import numpy as np

DEFECT_BLOCK_NODES = 2048  # matrices per block of unitarity_defect_map's contraction


def hermitian_inner(a, b):
    """<a|b> = sum_i conj(a_i) b_i over axis 0."""
    out = np.sum(np.conj(np.asarray(a)) * np.asarray(b), axis=0)
    return complex(out) if np.ndim(out) == 0 else out


def unitarity_defect_map(mat):
    """Max-abs entry of U^H U - I per matrix of a stack with trailing shape
    (3, 3).  Contracted over the node planes of a matrix-first copy of one
    block of rows of the stack (leading-axis entries, about DEFECT_BLOCK_NODES
    matrices) at a time, so neither a whole-stack copy nor U^H U is formed.
    U^H U is Hermitian, so its upper triangle suffices."""
    mat = np.asarray(mat)
    stack = mat[None] if mat.ndim == 2 else mat
    out = np.zeros(stack.shape[:-2])
    rows = max(1, DEFECT_BLOCK_NODES // max(1, math.prod(stack.shape[1:-2])))
    for j in range(0, len(stack), rows):
        m = np.ascontiguousarray(np.moveaxis(stack[j : j + rows], (-2, -1), (0, 1)))
        cm = np.conj(m)
        block = out[j : j + rows]
        for i in range(3):
            for k in range(i, 3):
                d = np.einsum("j...,j...->...", cm[:, i], m[:, k]) - float(i == k)
                np.maximum(block, np.abs(d), out=block)
    return out.reshape(mat.shape[:-2])
