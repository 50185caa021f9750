"""Hot 1D numeric kernels: vectorized numpy plus LAPACK's tridiagonal solver.

The Picard kernel works on the stacked state ``u = (f, g)`` of shape (2, n)
and takes its face terms and residual from :mod:`crossdiff.fvops`, the one
face operator of the scheme (faces 0..n, zero-flux boundary faces).
"""

from __future__ import annotations

import numpy as np
from scipy.linalg.lapack import dgtsv

from . import fvops


# ---------------------------------------------------------------------------
# tridiagonal direct solve
# ---------------------------------------------------------------------------

def _gtsv(sub, diag, sup, rhs):
    # LAPACK gtsv (Gaussian elimination with partial pivoting), called
    # directly: scipy.linalg.solve_banded dispatches (1, 1) systems to the
    # same routine but spends most of a small solve validating its input
    x, info = dgtsv(sub, diag, sup, rhs)[3:]
    if info != 0:
        raise np.linalg.LinAlgError(f"singular tridiagonal matrix (gtsv info={info})")
    return x


def thomas(lower, diag, upper, rhs):
    """Solve the tridiagonal system with sub-diagonal ``lower[1:]``,
    diagonal ``diag`` and super-diagonal ``upper[:-1]``."""
    return _gtsv(lower[1:], diag, upper[:-1], rhs)


# ---------------------------------------------------------------------------
# homogeneous polynomial evaluation on cell arrays
# ---------------------------------------------------------------------------

def phi_cells(coeffs, x1, x2):
    """sum_j coeffs[j] * x1**j * x2**(n-j) per cell, n = len(coeffs) - 1."""
    n = coeffs.shape[0] - 1
    js = np.arange(n + 1)
    return (coeffs * x1[:, None] ** js * x2[:, None] ** (n - js)).sum(axis=1)


# ---------------------------------------------------------------------------
# Picard solve of one implicit step (1D)
# ---------------------------------------------------------------------------

def picard_1d(prev_f, prev_g, a, b, c, d, tau, dx, eps, rho, reg,
              upwind, tol, max_iters, omega=1.0):
    """Frozen-coefficient iteration for one implicit step from (prev_f,
    prev_g).  Each sweep freezes the face mobilities and the coupling
    gradients at the current iterate and solves one tridiagonal system per
    component: f implicit in f with b*grad(g) on the right-hand side, g
    implicit in g with c*grad(f) there.  ``omega < 1`` under-relaxes the
    update, a restart strategy for when the plain iteration limit-cycles.
    Returns (f, g, iterations, max-norm residual, converged)."""
    prev = np.stack((prev_f, prev_g))
    coef = np.array((a, b, c, d), dtype=float)
    self_coef = np.array([[a], [d]], dtype=float)
    cross_coef = np.array([[b], [c]], dtype=float)
    eps_eff = eps if reg else 0.0
    tau_dx = tau / dx
    tau_dx2 = tau / (dx * dx)

    def evaluate(u):
        # the face terms of the residual at an iterate are the frozen
        # coefficients of the next sweep, so each iterate is evaluated once
        r, ((grad, _, lam, mob, _),) = fvops.implicit_residual(
            u, prev, coef, tau, dx, eps, rho, reg, upwind)
        return (grad, lam * mob), np.abs(r).max()

    u = prev
    (grad, k), res = evaluate(u)
    iters = 0
    while res > tol and iters < max_iters:
        iters += 1
        w = tau_dx2 * (eps_eff + k * self_coef)
        w[:, 0] = w[:, -1] = 0.0
        coupling = k * cross_coef * grad[::-1]
        rhs = prev + tau_dx * (coupling[:, 1:] - coupling[:, :-1])
        diag = 1.0 + w[:, :-1] + w[:, 1:]
        off = -w[:, 1:-1]
        u_new = np.empty_like(prev)
        for i in (0, 1):
            u_new[i] = _gtsv(off[i], diag[i], off[i], rhs[i])
        u = u_new if omega == 1.0 else u + omega * (u_new - u)
        (grad, k), res = evaluate(u)
    return u[0], u[1], iters, res, res <= tol
