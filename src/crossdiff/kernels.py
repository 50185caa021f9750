"""Hot 1D numeric kernels: vectorized numpy plus LAPACK's tridiagonal solver.

Conventions shared by every kernel here (1D, uniform mesh, zero-flux closure):
faces are indexed 0..n for n cells, boundary faces carry zero flux, and the
face value of a mobility is the positive part of the upwind cell value
(upwind with respect to the sign of the driving pressure gradient) or the
mean of the positive parts when arithmetic averaging is requested.  The
regularized variant replaces the positive part by the capped cutoff profile
and multiplies the mobility block by the sigmoid damping factor.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg.lapack import dgtsv


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
# face terms and residual of the implicit step (1D)
# ---------------------------------------------------------------------------
#
# The step works on the stacked state u = (f, g) of shape (2, n), so every
# face quantity below is computed for both components by one array
# operation; row 0 belongs to f, row 1 to g.

def _alpha_cut_vec(z, rho):
    z = np.asarray(z, dtype=float)
    out = np.where(z <= rho - 1.0, np.maximum(z, 0.0), (rho - 1.0) * (rho - z))
    return np.where((z <= 0.0) | (z >= rho), 0.0, out)


def _faces_1d(u, coef, dx, eps, rho, reg, upwind):
    """Everything the step needs on faces 0..n: component gradients,
    damping ``lam`` (the scalar 1.0 without regularization), face
    mobilities and fluxes.  ``coef`` is the (2, 2) pressure matrix
    [[a, b], [c, d]]."""
    n = u.shape[1]
    grad = np.zeros((2, n + 1))
    grad[:, 1:n] = (u[:, 1:] - u[:, :-1]) / dx
    dp = coef[:, :1] * grad[0] + coef[:, 1:] * grad[1]
    if reg:
        pos = np.maximum(u, 0.0)
        s = 0.5 * (pos[0, :-1] + pos[0, 1:] + pos[1, :-1] + pos[1, 1:])
        lam = np.ones(n + 1)
        lam[1:n] = 2.0 / (1.0 + np.exp(eps * s))
        cut = lambda z: _alpha_cut_vec(z, rho)
    else:
        lam = 1.0
        cut = lambda z: np.maximum(z, 0.0)
    mob = np.zeros((2, n + 1))
    if upwind:
        mob[:, 1:n] = cut(np.where(dp[:, 1:n] > 0.0, u[:, 1:], u[:, :-1]))
    else:
        mob[:, 1:n] = 0.5 * (cut(u[:, :-1]) + cut(u[:, 1:]))
    flux = lam * mob * dp
    if reg:
        flux += eps * grad
    return grad, lam, mob, flux


def _residual(u, prev, flux, tau_dx):
    return u - tau_dx * (flux[:, 1:] - flux[:, :-1]) - prev


def residual_1d(f, g, prev_f, prev_g, a, b, c, d, tau, dx,
                eps, rho, reg, upwind):
    """Residual arrays (rf, rg) of the implicit step equation at (f, g)."""
    u = np.stack((f, g))
    coef = np.array([[a, b], [c, d]], dtype=float)
    flux = _faces_1d(u, coef, dx, eps, rho, reg, upwind)[3]
    r = _residual(u, np.stack((prev_f, prev_g)), flux, tau / dx)
    return r[0], r[1]


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
    coef = np.array([[a, b], [c, d]], dtype=float)
    self_coef = np.array([[a], [d]], dtype=float)
    cross_coef = np.array([[b], [c]], dtype=float)
    eps_eff = eps if reg else 0.0
    tau_dx = tau / dx
    tau_dx2 = tau / (dx * dx)

    def evaluate(u):
        # the face terms of the residual at an iterate are the frozen
        # coefficients of the next sweep, so each iterate is evaluated once
        grad, lam, mob, flux = _faces_1d(u, coef, dx, eps, rho, reg, upwind)
        res = np.abs(_residual(u, prev, flux, tau_dx)).max()
        return (grad, lam * mob), res

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
        u_new = np.stack([_gtsv(off[i], diag[i], off[i], rhs[i]) for i in (0, 1)])
        u = u_new if omega == 1.0 else u + omega * (u_new - u)
        (grad, k), res = evaluate(u)
    return u[0], u[1], iters, res, res <= tol
