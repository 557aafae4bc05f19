"""Newton solver for doubly periodic solutions of Delta u = 4 e^{-2u} - 4 e^u.

Sign convention: cross-differentiating the linear z / zbar systems of the
moving frame forces u_{z zbar} = e^{-2u} - e^{u}; with z = x + i y this is
Delta u = 4 e^{-2u} - 4 e^{u}, which is the form discretized here (the
acceptance suite re-derives this symbolically).  With this sign u = 0 is a
stable center of the 1D reduction and the unique constant solution.

The residual and the Newton linearization share one discrete Laplacian, the
4th-order periodic stencil of grid.laplacian.  Grids whose periodic Laplacian
has an eigenvalue within 1e-6 of -12 are rejected outright: near u = 0 the
linearization is Delta + 12, and regularizing past that resonance would
silently corrupt convergence-order measurements.

Each Newton step solves J s = -r, with the symmetric indefinite Jacobian
J = Delta + diag(d), d = 8 e^{-2u} + 4 e^u, by preconditioned MINRES (Paige &
Saunders, SIAM J. Numer. Anal. 12, 1975) to a relative residual of
MINRES_RTOL.  The preconditioner is the SPD Fourier multiplier
|sigma_x + sigma_y + mean(d)|, floored at PRECONDITIONER_FLOOR * mean(d) so no
mode divides by ~0; it is J itself when u is constant, and it costs one real
FFT pair (Vecharynski & Knyazev, SIAM J. Sci. Comput. 35, 2013, on absolute
value preconditioners for indefinite systems).

A step fails when MINRES misses its tolerance within MINRES_MAXITER
iterations, when it is not finite or exceeds 1e12, or when it multiplies the
residual by more than RESIDUAL_GROWTH (a near-singular J sends u far off and
no later step brings it back).  Only then is J
factored, once, by SuperLU with the multiple-minimum-degree ordering of
A^T + A (Liu, ACM TOMS 1985), the ordering for structurally symmetric
patterns; partial pivoting stays on, because J is indefinite near the -12
resonance.  An inverse-power estimate of J's smallest eigenvalue from that
factorization tells a singular linearization from a divergent iteration.
scipy is imported on that path alone.
"""

from dataclasses import dataclass

import numpy as np

from .errors import NewtonDivergenceError, NumericalFailure, SingularJacobianError
from .grid import ScalarFieldPeriodic, check_resonance, deriv2, laplacian, laplacian_symbol_1d

MINRES_RTOL = 1e-13
MINRES_MAXITER = 300
PRECONDITIONER_FLOOR = 1e-2
RESIDUAL_GROWTH = 1e6


def _residual(vals, grid):
    # a diverging iterate overflows exp; the caller stops on the non-finite result
    with np.errstate(over="ignore", invalid="ignore"):
        return laplacian(vals, grid) - 4.0 * np.exp(-2.0 * vals) + 4.0 * np.exp(vals)


def pde_residual(u):
    """Per-node residual Delta u - 4 e^{-2u} + 4 e^{u}."""
    return _residual(u.values, u.grid)


def minres(matvec, psolve, b, rtol, maxiter):
    """Solve the symmetric system A x = b by MINRES preconditioned with the
    SPD operator psolve ~ A^-1, starting from x = 0.

    Returns (x, iterations, converged): converged when the recurrence's
    preconditioned residual norm fell to rtol times that of b within maxiter
    iterations.  Paige & Saunders' recurrence, as in scipy.sparse.linalg.minres.
    """
    x = np.zeros_like(b)
    y = psolve(b)
    beta1 = np.sqrt(np.vdot(b, y))
    if beta1 == 0.0:
        return x, 0, True
    r1 = r2 = b
    w = w2 = np.zeros_like(b)
    oldb, beta, dbar, epsln, phibar, cs, sn = 0.0, beta1, 0.0, 0.0, beta1, -1.0, 0.0
    for itn in range(1, maxiter + 1):
        v = y / beta
        y = matvec(v)
        if itn >= 2:
            y = y - (beta / oldb) * r1
        alfa = np.vdot(v, y)
        y = y - (alfa / beta) * r2
        r1, r2 = r2, y
        y = psolve(r2)
        oldb, beta = beta, np.sqrt(np.vdot(r2, y))
        oldeps = epsln
        delta = cs * dbar + sn * alfa
        gbar = sn * dbar - cs * alfa
        epsln = sn * beta
        dbar = -cs * beta
        gamma = max(np.hypot(gbar, beta), np.finfo(float).eps)
        cs, sn = gbar / gamma, beta / gamma
        phi, phibar = cs * phibar, sn * phibar
        w1, w2 = w2, w
        w = (v - oldeps * w1 - delta * w2) / gamma
        x = x + phi * w
        if phibar <= rtol * beta1:
            return x, itn, True
    return x, maxiter, False


def _preconditioner(grid, dmean):
    """The inverse of |sigma_x + sigma_y + dmean|, floored at
    PRECONDITIONER_FLOOR * dmean, applied to fields of ``grid`` by rfft2."""
    sx = laplacian_symbol_1d(grid.nx, grid.hx)[: grid.nx // 2 + 1]
    sy = laplacian_symbol_1d(grid.ny, grid.hy)
    inv = 1.0 / np.maximum(np.abs(sy[:, None] + sx[None, :] + dmean), PRECONDITIONER_FLOOR * dmean)
    return lambda v: np.fft.irfft2(np.fft.rfft2(v) * inv, (grid.ny, grid.nx))


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


def _diagnose_failed_step(grid, d, why):
    """Factor the Jacobian Delta + diag(d) once and raise the error a failed
    step stands for: SingularJacobianError when it is numerically singular,
    NewtonDivergenceError otherwise."""
    from scipy.sparse import diags

    try:
        lu = splu((laplacian_matrix(grid) + diags(d.ravel())).tocsc())
    except RuntimeError as exc:
        raise SingularJacobianError(f"{why}; sparse factorization failed: {exc}") from exc
    mu = _smallest_eig_estimate(lu, d.size)
    if mu < 1e-10:
        raise SingularJacobianError(
            f"{why}; linearized operator has an eigenvalue of magnitude ~{mu:.2e}"
        )
    raise NewtonDivergenceError(f"{why} on a well-posed system (smallest eigenvalue ~{mu:.2e})")


@dataclass
class NewtonResult:
    field: ScalarFieldPeriodic
    iterations: int
    residuals: list
    minres_iterations: list

    @property
    def final_residual(self):
        return self.residuals[-1]


def newton_solve(u0, tol, max_iter=30):
    """Solve the discrete PDE by Newton iteration with preconditioned MINRES
    steps.

    Returns the solution field together with the iteration count, the
    sup-norm residual history (seed residual first) and the MINRES iteration
    count of each step.  Raises NewtonDivergenceError after max_iter or on a
    non-finite residual, SingularJacobianError or NewtonDivergenceError for a
    failed step, each carrying the residual history up to the failure as
    ``residuals``; ResonanceError for bad grids.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    grid = u0.grid
    check_resonance(grid)
    u = u0.values
    r = _residual(u, grid)
    residuals = [float(np.abs(r).max())]
    counts = []
    try:
        for it in range(max_iter + 1):
            if not np.isfinite(residuals[-1]):
                raise NewtonDivergenceError(f"residual is not finite after {it} iterations")
            if residuals[-1] < tol:
                return NewtonResult(ScalarFieldPeriodic(grid, u), it, residuals, counts)
            if it == max_iter:
                break
            d = 8.0 * np.exp(-2.0 * u) + 4.0 * np.exp(u)
            step, count, converged = minres(
                lambda v: laplacian(v, grid) + d * v,
                _preconditioner(grid, d.mean()),
                -r,
                MINRES_RTOL,
                MINRES_MAXITER,
            )
            if not converged:
                _diagnose_failed_step(grid, d, f"MINRES missed {MINRES_RTOL:g} in {count} iterations")
            if not np.all(np.isfinite(step)) or np.abs(step).max() > 1e12:
                _diagnose_failed_step(grid, d, "Newton step blew up")
            counts.append(count)
            u = u + step
            r = _residual(u, grid)
            residuals.append(float(np.abs(r).max()))
            if residuals[-1] > RESIDUAL_GROWTH * residuals[-2]:
                _diagnose_failed_step(grid, d, f"Newton step {it + 1} took the residual from "
                                               f"{residuals[-2]:.3e} to {residuals[-1]:.3e}")
        raise NewtonDivergenceError(
            f"no convergence after {max_iter} iterations; residual {residuals[-1]:.3e}"
        )
    except NumericalFailure as exc:
        exc.residuals = residuals
        raise
