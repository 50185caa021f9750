"""Finite-volume face operator of the implicit step, in any dimension.

The operator works on the stacked state ``u = (f, g)`` of shape
``(2, *grid.shape)``: row 0 belongs to f, row 1 to g, so every face
quantity is computed for both components by one array operation.  Along
grid axis ``k`` (array axis ``k + 1``) the faces are indexed 0..n for n
cells; the face arrays carry that axis last, and the boundary faces 0 and n
carry zero flux (zero-flux closure).  The face value of a mobility is the
positive part of the upwind cell value (upwind with respect to the sign of
the driving pressure gradient) or the mean of the positive parts when
arithmetic averaging is requested.  With ``reg = (eps, rho)`` (``None``
for the unregularized operator) the regularized variant replaces the
positive part by the capped cutoff profile, multiplies the mobility by the
sigmoid damping factor and adds ``eps`` times the component gradient.
"""

from __future__ import annotations

import numpy as np

from .entropy import alpha_rho


def face_terms(u, coef, dx, reg, upwind, axis):
    """(grad, dp, lam, mob, flux) of the stacked state ``u`` on the faces
    0..n along grid ``axis``: component gradients, pressure gradients,
    damping (the scalar 1.0 without regularization), face mobilities and
    fluxes.  ``coef`` holds the pressure coefficients (a, b, c, d): the
    pressure of f is a f + b g, that of g is c f + d g."""
    u = u.swapaxes(axis + 1, -1)
    lo, hi = u[..., :-1], u[..., 1:]
    n = u.shape[-1]
    grad = np.zeros(u.shape[:-1] + (n + 1,))
    grad[..., 1:n] = (hi - lo) / dx
    col = np.asarray(coef, dtype=float).reshape((2, 2) + (1,) * (u.ndim - 1))
    dp = col[:, 0] * grad[0] + col[:, 1] * grad[1]
    if reg is not None:
        eps, rho = reg
        pos = np.maximum(u, 0.0)
        s = 0.5 * (pos[0, ..., :-1] + pos[0, ..., 1:] + pos[1, ..., :-1] + pos[1, ..., 1:])
        lam = np.ones(grad.shape[1:])
        lam[..., 1:n] = 2.0 / (1.0 + np.exp(eps * s))
        cut = lambda z: alpha_rho(z, rho)
    else:
        lam = 1.0
        cut = lambda z: np.maximum(z, 0.0)
    mob = np.zeros(grad.shape)
    if upwind:
        mob[..., 1:n] = cut(np.where(dp[..., 1:n] > 0.0, hi, lo))
    else:
        mob[..., 1:n] = 0.5 * (cut(lo) + cut(hi))
    flux = lam * mob * dp
    if reg is not None:
        flux += eps * grad
    return grad, dp, lam, mob, flux


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
