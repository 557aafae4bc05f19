"""Newton solver for doubly periodic solutions of Delta u = 4 e^{-2u} - 4 e^u.

Sign convention: cross-differentiating the linear z / zbar systems of the
moving frame forces u_{z zbar} = e^{-2u} - e^{u}; with z = x + i y this is
Delta u = 4 e^{-2u} - 4 e^{u}, which is the form discretized here (the
acceptance suite re-derives this symbolically).  With this sign u = 0 is a
stable center of the 1D reduction and the unique constant solution.

The residual and the Newton linearization share one discrete Laplacian
(4th-order periodic stencil), so a converged iterate re-verifies against
pde_residual to rounding.  Grids whose periodic Laplacian has an eigenvalue
within 1e-6 of -12 are rejected outright: near u = 0 the linearization is
Delta + 12, and regularizing past that resonance would silently corrupt
convergence-order measurements.

Each Newton step factors the Jacobian Delta + diag(8 e^{-2u} + 4 e^u) by
SuperLU with the multiple-minimum-degree ordering of A^T + A (Liu, ACM TOMS
1985), the ordering for structurally symmetric patterns: on 128^2 it has
about half the fill of SuperLU's default COLAMD.  Partial pivoting stays on,
because the Jacobian is indefinite near the -12 resonance.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import NewtonDivergenceError, SingularJacobianError
from .grid import ScalarFieldPeriodic, check_resonance, deriv2, laplacian


def pde_residual(u):
    """Per-node residual Delta u - 4 e^{-2u} + 4 e^{u}."""
    vals = u.values
    return laplacian(vals, u.grid) - 4.0 * np.exp(-2.0 * vals) + 4.0 * np.exp(vals)


def splu(matrix):
    """Sparse LU factorization of a structurally symmetric CSC matrix by
    SuperLU, ordered by minimum degree on A^T + A; the import is paid on
    first use."""
    from scipy.sparse.linalg import splu as superlu

    return superlu(matrix, permc_spec="MMD_AT_PLUS_A")


def laplacian_matrix(grid):
    """Sparse 2D periodic Laplacian: per axis, the fd4 stencil of
    grid.deriv2 applied to the identity; acts on row-major flattened fields
    (y-outer)."""
    import scipy.sparse as sp

    dxx = sp.csr_matrix(deriv2(np.eye(grid.nx), grid.hx, 0))
    dyy = sp.csr_matrix(deriv2(np.eye(grid.ny), grid.hy, 0))
    return (
        sp.kron(sp.identity(grid.ny, format="csr"), dxx)
        + sp.kron(dyy, sp.identity(grid.nx, format="csr"))
    ).tocsc()


def _smallest_eig_estimate(lu, n):
    """Inverse-power estimate, 8 iterations from a fixed random start, of the
    smallest-magnitude Jacobian eigenvalue."""
    v = np.random.default_rng(0).standard_normal(n)
    v /= np.linalg.norm(v)
    mu = np.inf
    for _ in range(8):
        w = lu.solve(v)
        nw = np.linalg.norm(w)
        if not np.isfinite(nw) or nw == 0.0:
            return 0.0
        mu = 1.0 / nw
        v = w / nw
    return mu


@dataclass
class NewtonResult:
    field: ScalarFieldPeriodic
    iterations: int
    residuals: list = field(default_factory=list)

    @property
    def final_residual(self):
        return self.residuals[-1]


def newton_solve(u0, tol, max_iter=30):
    """Solve the discrete PDE by Newton iteration with sparse LU steps.

    Returns the solution field together with the iteration count and the
    sup-norm residual history (seed residual first).  Raises
    NewtonDivergenceError after max_iter, SingularJacobianError if a
    linearization is numerically singular, ResonanceError for bad grids.
    """
    import scipy.sparse as sp

    if tol <= 0:
        raise ValueError("tol must be positive")
    grid = u0.grid
    check_resonance(grid)
    lap = laplacian_matrix(grid)
    u = u0.values.ravel().copy()
    n = u.size

    def residual(vec):
        return lap @ vec - 4.0 * np.exp(-2.0 * vec) + 4.0 * np.exp(vec)

    def finish(vec, iterations, residuals):
        out = ScalarFieldPeriodic(grid, vec.reshape(grid.ny, grid.nx))
        # post-hoc re-verification through the stencil path
        recheck = float(np.abs(pde_residual(out)).max())
        if recheck >= 1.1 * tol:
            raise NewtonDivergenceError(
                f"converged residual {residuals[-1]:.3e} fails re-verification ({recheck:.3e})"
            )
        return NewtonResult(out, iterations, residuals)

    r = residual(u)
    residuals = [float(np.abs(r).max())]
    for it in range(max_iter):
        if residuals[-1] < tol:
            return finish(u, it, residuals)
        jac = lap + sp.diags(8.0 * np.exp(-2.0 * u) + 4.0 * np.exp(u))
        try:
            lu = splu(jac.tocsc())
        except RuntimeError as exc:
            raise SingularJacobianError(f"sparse factorization failed: {exc}") from exc
        step = lu.solve(-r)
        if not np.all(np.isfinite(step)) or np.abs(step).max() > 1e12:
            mu = _smallest_eig_estimate(lu, n)
            if mu < 1e-10:
                raise SingularJacobianError(
                    f"linearized operator has an eigenvalue of magnitude ~{mu:.2e}"
                )
            raise NewtonDivergenceError("Newton step blew up on a well-posed system")
        u = u + step
        r = residual(u)
        residuals.append(float(np.abs(r).max()))
    if residuals[-1] < tol:
        return finish(u, max_iter, residuals)
    raise NewtonDivergenceError(
        f"no convergence after {max_iter} iterations; residual {residuals[-1]:.3e}"
    )
