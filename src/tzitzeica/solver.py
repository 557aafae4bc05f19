"""Newton solver for doubly periodic solutions of Delta u = 4 e^{-2u} - 4 e^u.

Sign convention: cross-differentiating the linear z / zbar systems of the
moving frame forces u_{z zbar} = e^{-2u} - e^{u}; with z = x + i y this is
Delta u = 4 e^{-2u} - 4 e^{u}, which is the form discretized here (the
acceptance suite re-derives this symbolically).  With this sign u = 0 is a
stable center of the 1D reduction and the unique constant solution.

The discrete Laplacian is the 4th-order periodic stencil, a circulant, and
is applied through its exact Fourier symbol sigma = sigma_x + sigma_y
(grid.laplacian_symbol_1d) on the rfft2 half-spectrum.  newton_solve tables
sigma once per solve, and the residual, the Jacobian, the preconditioner and
the resonance guard all read that one table.  The guard rejects a grid whose
Laplacian has an eigenvalue within RESONANCE_GAP of -12, but only once the
seed has failed the convergence test: near u = 0 the linearization is
Delta + 12, and a step regularized past that resonance would silently
corrupt convergence-order measurements, while a seed that already solves the
discrete equation (u = 0 on the flat torus, which lies exactly on the
continuum resonance) takes no step.

Each Newton step solves J s = -r, with the symmetric indefinite Jacobian
J = Delta + diag(d), d = 8 e^{-2u} + 4 e^u, by preconditioned MINRES (Paige &
Saunders, SIAM J. Numer. Anal. 12, 1975).  The preconditioner M is the SPD
Fourier multiplier |sigma + mean(d)|, floored at PRECONDITIONER_FLOOR *
mean(d) so no mode divides by ~0; it is J itself when u is constant
(Vecharynski & Knyazev, SIAM J. Sci. Comput. 35, 2013, on absolute value
preconditioners for indefinite systems).  One MINRES iteration takes one
rfft2 of its residual r and forms both M^-1 r and J M^-1 r from it: the
spectrum scaled by 1/M and by sigma/M, two inverse transforms, and d M^-1 r.

The method is inexact Newton (Dembo, Eisenstat & Steihaug, SIAM J. Numer.
Anal. 19, 1982): step k stops MINRES at a relative residual eta_k.  The
first step has no residual history and is solved to MINRES_RTOL; a looser
first step can carry a near-singular seed to convergence instead of to a
diagnosed failure.  Later steps take Eisenstat & Walker's forcing term
(SIAM J. Sci. Comput. 17, 1996, choice 2) FORCING_GAMMA (r_k / r_{k-1})^2 of
the sup-norm residuals, which keeps the convergence quadratic, floored at
OVERSOLVE_MARGIN * tol / r_k so no step is solved past what the stopping
test can see, and clipped to [MINRES_RTOL, FORCING_MAX].

A step fails when MINRES misses its eta_k within MINRES_MAXITER
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

from .errors import NewtonDivergenceError, NumericalFailure, ResonanceError, SingularJacobianError
from .grid import ScalarFieldPeriodic, deriv2, laplacian_symbol_1d

MINRES_RTOL = 1e-13
MINRES_MAXITER = 300
PRECONDITIONER_FLOOR = 1e-2
FORCING_GAMMA = 0.9
FORCING_MAX = 0.1
OVERSOLVE_MARGIN = 1e-2
RESIDUAL_GROWTH = 1e6
RESONANCE_GAP = 1e-6


def laplacian_symbol(grid):
    """sigma = sigma_x + sigma_y, the eigenvalues of the 2D periodic fd4
    Laplacian on the rfft2 half-spectrum of ``grid``, shape (ny, nx // 2 + 1)."""
    sx = laplacian_symbol_1d(grid.nx, grid.hx)[: grid.nx // 2 + 1]
    return laplacian_symbol_1d(grid.ny, grid.hy)[:, None] + sx


def resonance_gap(sigma):
    """Smallest |eig + 12| over the Laplacian spectrum tabled by
    laplacian_symbol; the 1D symbols are even, so the half-spectrum holds
    every eigenvalue."""
    return float(np.abs(sigma + 12.0).min())


def _residual(vals, sigma):
    # a diverging iterate overflows exp; the caller stops on the non-finite result
    with np.errstate(over="ignore", invalid="ignore"):
        lap = np.fft.irfft2(np.fft.rfft2(vals) * sigma, vals.shape)
        return lap - 4.0 * np.exp(-2.0 * vals) + 4.0 * np.exp(vals)


def pde_residual(u):
    """Per-node residual Delta u - 4 e^{-2u} + 4 e^{u}."""
    return _residual(u.values, laplacian_symbol(u.grid))


def minres(apply, b, rtol, maxiter):
    """Solve the symmetric system A x = b by MINRES preconditioned with an
    SPD operator M ~ |A|, starting from x = 0; ``apply(r)`` returns the pair
    (M^-1 r, A M^-1 r), so each iteration makes one call.

    Returns (x, iterations, converged): converged when the recurrence's
    preconditioned residual norm fell to rtol times that of b within maxiter
    iterations.  Paige & Saunders' recurrence, as in scipy.sparse.linalg.minres.
    Its vectors are buffers of its own, updated in place, so an iteration
    allocates only what apply returns, which may be apply's argument.
    """
    x = np.zeros_like(b)
    z, az = apply(b)
    beta1 = np.sqrt(np.vdot(b, z))
    if beta1 == 0.0:
        return x, 0, True
    # r1, r2 and the next y take three buffers in turn, as w1, w2 and w do
    r1, r2, y = np.empty_like(b), b.copy(), np.empty_like(b)
    w1, w2, w = (np.zeros_like(b) for _ in range(3))
    v, tmp = np.empty_like(b), np.empty_like(b)
    oldb, beta, dbar, epsln, phibar, cs, sn = 0.0, beta1, 0.0, 0.0, beta1, -1.0, 0.0
    for itn in range(1, maxiter + 1):
        np.divide(z, beta, out=v)
        np.divide(az, beta, out=y)
        if itn >= 2:
            np.subtract(y, np.multiply(beta / oldb, r1, out=tmp), out=y)
        alfa = np.vdot(v, y)
        np.subtract(y, np.multiply(alfa / beta, r2, out=tmp), out=y)
        r1, r2, y = r2, y, r1
        z, az = apply(r2)
        oldb, beta = beta, np.sqrt(np.vdot(r2, z))
        oldeps = epsln
        delta = cs * dbar + sn * alfa
        gbar = sn * dbar - cs * alfa
        epsln = sn * beta
        dbar = -cs * beta
        gamma = max(np.hypot(gbar, beta), np.finfo(float).eps)
        cs, sn = gbar / gamma, beta / gamma
        phi, phibar = cs * phibar, sn * phibar
        w1, w2, w = w2, w, w1
        np.subtract(v, np.multiply(oldeps, w1, out=tmp), out=w)
        np.subtract(w, np.multiply(delta, w2, out=tmp), out=w)
        np.divide(w, gamma, out=w)
        np.add(x, np.multiply(phi, w, out=tmp), out=x)
        if phibar <= rtol * beta1:
            return x, itn, True
    return x, maxiter, False


def _preconditioned_jacobian(sigma, d):
    """apply(r) -> (M^-1 r, J M^-1 r) for J = Delta + diag(d), with M the
    Fourier multiplier |sigma + mean(d)| floored at PRECONDITIONER_FLOOR *
    mean(d), sigma the laplacian_symbol table: one rfft2 of r, scaled by 1/M
    and by sigma/M, and two inverse transforms."""
    dmean = d.mean()
    inv = 1.0 / np.maximum(np.abs(sigma + dmean), PRECONDITIONER_FLOOR * dmean)
    sigma_inv = sigma * inv

    def apply(r):
        spectrum = np.fft.rfft2(r)
        y = np.fft.irfft2(spectrum * inv, d.shape)
        return y, np.fft.irfft2(spectrum * sigma_inv, d.shape) + d * y

    return apply


def _forcing_term(residuals, tol):
    """MINRES tolerance of a Newton step after the first: Eisenstat & Walker's
    choice 2, FORCING_GAMMA (r_k / r_{k-1})^2, floored where the step's linear
    residual eta r_k would fall below OVERSOLVE_MARGIN * tol and clipped to
    [MINRES_RTOL, FORCING_MAX]."""
    eta = FORCING_GAMMA * (residuals[-1] / residuals[-2]) ** 2
    return min(max(eta, OVERSOLVE_MARGIN * tol / residuals[-1], MINRES_RTOL), FORCING_MAX)


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
    failed step, and ResonanceError when the seed needs a step on a grid
    whose Laplacian has an eigenvalue within RESONANCE_GAP of -12, each
    carrying the residual history up to the failure as ``residuals``.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    grid = u0.grid
    sigma = laplacian_symbol(grid)
    u = u0.values
    r = _residual(u, sigma)
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
            if it == 0 and (gap := resonance_gap(sigma)) < RESONANCE_GAP:
                raise ResonanceError(f"grid ({grid.nx}x{grid.ny}, lx={grid.lx:.6g}, ly={grid.ly:.6g}) "
                                     f"has a periodic-Laplacian eigenvalue within {gap:.3e} of -12")
            d = 8.0 * np.exp(-2.0 * u) + 4.0 * np.exp(u)
            eta = MINRES_RTOL if it == 0 else _forcing_term(residuals, tol)
            step, count, converged = minres(_preconditioned_jacobian(sigma, d), -r, eta, MINRES_MAXITER)
            if not converged:
                _diagnose_failed_step(grid, d, f"MINRES missed {eta:g} in {count} iterations")
            if not np.all(np.isfinite(step)) or np.abs(step).max() > 1e12:
                _diagnose_failed_step(grid, d, "Newton step blew up")
            counts.append(count)
            u = u + step
            r = _residual(u, sigma)
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
