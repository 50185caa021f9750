"""Finite-volume face operator of the implicit step, in any dimension: the
face fluxes and, for the Newton Jacobian, their derivatives.

The operator works on the stacked state ``u = (f, g)`` of shape
``(2, *grid.shape)``: row 0 belongs to f, row 1 to g, so every face
quantity is computed for both components by one array operation.  Along
grid axis ``k`` (array axis ``k + 1``) the faces are indexed 0..n for n
cells; the face arrays carry that axis last, and the boundary faces 0 and
n carry zero flux.  The face mobility is the positive part of the upwind
cell value (upwind for the sign of the pressure gradient) or the mean of
the positive parts under arithmetic averaging.  With ``reg = (eps, rho)``
(``None`` unregularized) the capped cutoff profile replaces the positive
part, the sigmoid damping factor multiplies the mobility, and ``eps``
times the component gradient is added.
"""

from __future__ import annotations

import numpy as np

from .entropy import alpha_rho


def cut(z, reg):
    """Face mobility of the cell values ``z``: the positive part, or with
    ``reg = (eps, rho)`` the capped profile ``alpha_rho``."""
    return np.maximum(z, 0.0) if reg is None else alpha_rho(z, reg[1])


def cut_derivative(z, reg):
    """Derivative of :func:`cut` at ``z`` (a one-sided value at a kink; 1 for
    the positive part at 0, so that an empty upwind cell stays coupled)."""
    if reg is None:
        return (z >= 0.0).astype(float)
    rho = reg[1]
    return np.where((z > 0.0) & (z <= rho - 1.0), 1.0,
                    np.where((z > rho - 1.0) & (z < rho), 1.0 - rho, 0.0))


def face_gradient(u, dx, axis):
    """Component gradients of the stacked state ``u`` on the faces 0..n
    along grid ``axis`` (that axis last), zero on the boundary faces."""
    u = u.swapaxes(axis + 1, -1)
    grad = np.zeros(u.shape[:-1] + (u.shape[-1] + 1,))
    grad[..., 1:-1] = (u[..., 1:] - u[..., :-1]) / dx
    return grad


def face_terms(u, coef, dx, reg, upwind, axis):
    """(grad, dp, lam, mob, flux) of the stacked state ``u`` on the faces
    0..n along grid ``axis``: component gradients (:func:`face_gradient`),
    pressure gradients, damping (the scalar 1.0 without regularization),
    face mobilities and fluxes.  ``coef`` holds the pressure coefficients
    (a, b, c, d): the pressure of f is a f + b g, that of g is c f + d g."""
    grad = face_gradient(u, dx, axis)
    u = u.swapaxes(axis + 1, -1)
    lo, hi = u[..., :-1], u[..., 1:]
    n = u.shape[-1]
    col = np.asarray(coef, dtype=float).reshape((2, 2) + (1,) * (u.ndim - 1))
    dp = col[:, 0] * grad[0] + col[:, 1] * grad[1]
    lam = 1.0
    if reg is not None:
        pos = np.maximum(u, 0.0)
        s = 0.5 * (pos[0, ..., :-1] + pos[0, ..., 1:] + pos[1, ..., :-1] + pos[1, ..., 1:])
        lam = np.ones(grad.shape[1:])
        lam[..., 1:n] = 2.0 / (1.0 + np.exp(reg[0] * s))
    mob = np.zeros(grad.shape)
    if upwind:
        mob[..., 1:n] = cut(np.where(dp[..., 1:n] > 0.0, hi, lo), reg)
    else:
        mob[..., 1:n] = 0.5 * (cut(lo, reg) + cut(hi, reg))
    flux = lam * mob * dp
    if reg is not None:
        flux += reg[0] * grad
    return grad, dp, lam, mob, flux


def flux_derivative(u, terms, coef, dx, reg, upwind, axis):
    """``dflux[i, j, k, face]`` = d(flux_i)/d(u_j in the cell on side k, left
    or right) on the interior faces along grid ``axis``, in face-array order,
    at the stacked state ``u`` of the :func:`face_terms` ``terms``; mobility
    and damping derivatives included, upwind choice and cut kinks frozen."""
    _, dp, lam, mob, _ = terms
    u = u.swapaxes(axis + 1, -1)
    # stacked (f, g) values on the two sides of the interior faces
    v = np.stack((u[..., :-1], u[..., 1:]), axis=1).reshape(2, 2, -1)
    coef = np.reshape(coef, (2, 2, 1))
    eps = 0.0 if reg is None else reg[0]
    sgn, comp = np.array([-1.0, 1.0]), np.arange(2)
    dp, mob = dp[..., 1:-1].reshape(2, 1, -1), mob[..., 1:-1].reshape(2, -1)
    lam = lam if reg is None else lam[..., 1:-1].ravel()
    # the mobility of component i is the cut of u_i upwind, or its mean
    weight = (dp > 0.0) == (sgn[:, None] > 0.0) if upwind else 0.5
    dmob = weight * cut_derivative(v, reg)
    dflux = sgn[:, None] * (lam * mob[:, None] * coef / dx)[:, :, None]
    dflux[comp, comp] += sgn[:, None] * eps / dx + lam * dmob * dp
    if reg is not None:
        # lam = 2 / (1 + exp(eps s)), s half the sum of the four positive parts
        dlam = -eps * lam * (1.0 - 0.5 * lam) * 0.5 * (v > 0.0)
        dflux += dlam * mob[:, None, None] * dp[:, None]
    return dflux


def implicit_residual(u, prev, coef, tau, dx, reg, upwind):
    """Residual ``u - tau/dx * sum_axis diff(flux) - prev`` of the implicit
    step at the stacked state ``u``, and the face terms of every axis (the
    :func:`face_terms` tuples, in axis order)."""
    terms = [face_terms(u, coef, dx, reg, upwind, axis)
             for axis in range(u.ndim - 1)]
    tau_dx = tau / dx
    r = u
    for axis, (*_, flux) in enumerate(terms):
        r = r - tau_dx * (flux[..., 1:] - flux[..., :-1]).swapaxes(axis + 1, -1)
    return r - prev, terms
