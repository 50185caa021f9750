"""Finite-volume operator of the implicit step, in any dimension: the face
fluxes, the residual, the Newton Jacobian's pattern and values, and the
residual's rounding floor.

The operator works on the stacked state ``u = (f, g)`` of shape
``(2, *grid.shape)``: row 0 belongs to f, row 1 to g, so every face
quantity is computed for both components by one array operation.  Along
grid axis ``k`` (array axis ``k + 1``) the faces are indexed 0..n for n
cells; the boundary faces 0 and n carry zero flux, so the face arrays hold
the interior faces 1..n-1, with that axis last.  The face mobility is the
positive part of the upwind cell value (upwind for the sign of the pressure
gradient) or the mean of the positive parts under arithmetic averaging.
With ``reg = (eps, rho)`` (``None`` unregularized) the capped cutoff profile
replaces the positive part, the sigmoid damping factor multiplies the
mobility, and ``eps`` times the component gradient is added.
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
    along grid ``axis`` (that axis last), zero on the boundary faces: the
    dissipation's sum over the n - 1 interior ones alone rounds otherwise."""
    u = u.swapaxes(axis + 1, -1)
    grad = np.zeros(u.shape[:-1] + (u.shape[-1] + 1,))
    grad[..., 1:-1] = _gradient(u[..., :-1], u[..., 1:], dx)
    return grad


def _gradient(lo, hi, dx):
    """Gradients between the cell values ``lo`` and ``hi``, ``dx`` apart."""
    return (hi - lo) / dx


def face_terms(u, coef, dx, reg, upwind, axis):
    """(grad, dp, lam, mob, flux) of the stacked state ``u`` on the interior
    faces 1..n-1 along grid ``axis``: component gradients, pressure
    gradients, damping (the scalar 1.0 without regularization), face
    mobilities and fluxes.  ``coef`` holds the pressure coefficients
    (a, b, c, d), or their ``(2, 2, 1, ...)`` array as a solve builds it
    once: the pressure of f is a f + b g, that of g is c f + d g."""
    u = u.swapaxes(axis + 1, -1)
    lo, hi = u[..., :-1], u[..., 1:]
    grad = _gradient(lo, hi, dx)
    col = coef if isinstance(coef, np.ndarray) else np.reshape(coef, (2, 2) + (1,) * (u.ndim - 1))
    terms = col * grad      # terms[i, j] = col[i, j] * grad[j]
    dp = terms[:, 0] + terms[:, 1]
    mob = cut(np.where(dp > 0.0, hi, lo), reg) if upwind else 0.5 * (cut(lo, reg) + cut(hi, reg))
    if reg is None:
        return grad, dp, 1.0, mob, mob * dp
    pos = np.maximum(u, 0.0)
    s = 0.5 * (pos[0, ..., :-1] + pos[0, ..., 1:] + pos[1, ..., :-1] + pos[1, ..., 1:])
    lam = 2.0 / (1.0 + np.exp(reg[0] * s))
    return grad, dp, lam, mob, lam * mob * dp + reg[0] * grad


def implicit_residual(u, prev, coef, tau, dx, reg, upwind):
    """Residual ``u - tau/dx * sum_axis diff(flux) - prev`` of the implicit
    step at the stacked state ``u``, and the face terms of every axis (the
    :func:`face_terms` tuples, in axis order).  The zero boundary fluxes are
    not stored: the first cell takes F_1, which F_1 - 0 equals exactly."""
    terms, tau_dx, r = [], tau / dx, u
    for axis in range(u.ndim - 1):
        terms.append(face_terms(u, coef, dx, reg, upwind, axis))
        flux = terms[-1][-1]
        div = np.zeros(flux.shape[:-1] + (flux.shape[-1] + 1,))
        div[..., :-1] = flux
        div[..., 1:] -= flux
        r = r - tau_dx * div.swapaxes(axis + 1, -1)
    return r - prev, terms


def jacobian_pattern(shape):
    """The intp ``(rows, cols)`` of the entries of :func:`jacobian_values` on a
    grid of ``shape``, over the stacked unknowns (f block, then g block): the
    identity, then per interior face of each axis the 16 entries (i, j, k, row
    side, face), d(residual_i on the row side)/d(u_j on side k)."""
    cells = np.arange(np.prod(shape), dtype=np.intp).reshape(shape)
    comp = cells.size * np.arange(2)
    ident = np.arange(2 * cells.size)
    rows, cols = [ident], [ident]
    for axis in range(cells.ndim):
        moved = cells.swapaxes(axis, -1)
        side = np.stack((moved[..., :-1].ravel(), moved[..., 1:].ravel()))
        full = (2, 2, 2) + side.shape
        rows.append(np.broadcast_to(comp[:, None, None, None, None] + side, full).ravel())
        cols.append(np.broadcast_to(comp[:, None, None, None] + side[:, None], full).ravel())
    return np.concatenate(rows), np.concatenate(cols)


def jacobian_values(u, terms, coef, tau, dx, reg, upwind):
    """Values of the Jacobian of :func:`implicit_residual` at the stacked state
    ``u`` of the face terms ``terms``, at the entries of :func:`jacobian_pattern`
    (summed where they coincide).  ``dflux[i, j, k, face]`` is d(flux_i)/d(u_j
    in the cell on side k, left or right) on the interior faces of one axis,
    mobility and damping derivatives included, upwind choice and cut kinks
    frozen; the residual left of a face sees -tau/dx times it, the one right
    of it +tau/dx times."""
    coef = np.reshape(coef, (2, 2, 1))
    eps = 0.0 if reg is None else reg[0]
    sgn, comp = np.array([-1.0, 1.0]), np.arange(2)
    end = u.size
    vals = np.ones(end + 8 * sum(end // m * (m - 1) for m in u.shape[1:]))
    for axis, (_, dp, lam, mob, _) in enumerate(terms):
        w = u.swapaxes(axis + 1, -1)
        # stacked (f, g) values on the two sides of the interior faces
        v = np.stack((w[..., :-1], w[..., 1:]), axis=1).reshape(2, 2, -1)
        dp, mob = dp.reshape(2, 1, -1), mob.reshape(2, -1)
        lam = lam if reg is None else lam.ravel()
        # the mobility of component i is the cut of u_i upwind, or its mean
        weight = (dp > 0.0) == (sgn[:, None] > 0.0) if upwind else 0.5
        dmob = weight * cut_derivative(v, reg)
        dflux = sgn[:, None] * (lam * mob[:, None] * coef / dx)[:, :, None]
        dflux[comp, comp] += sgn[:, None] * eps / dx + lam * dmob * dp
        if reg is not None:
            # lam = 2 / (1 + exp(eps s)), s half the sum of the four positive parts
            dlam = -eps * lam * (1.0 - 0.5 * lam) * 0.5 * (v > 0.0)
            dflux += dlam * mob[:, None, None] * dp[:, None]
        start, end = end, end + 2 * dflux.size
        np.multiply((tau / dx * sgn)[:, None], dflux[:, :, :, None],
                    out=vals[start:end].reshape(dflux.shape[:3] + (2, -1)))
    return vals


def residual_floor(u, terms, coef, tau, dx):
    """Rounding floor of :func:`implicit_residual` at the stacked state ``u`` of
    the face terms ``terms``: machine epsilon times tau/dx^2 times the largest
    face mobility (damping included) times the coefficient-weighted |f| and
    |g| of the face's two cells, the size of what a face gradient rounds."""
    col = np.reshape(coef, (2, 2))
    top = 0.0
    for axis, (_, _, lam, mob, _) in enumerate(terms):
        size = np.abs(u).swapaxes(axis + 1, -1)
        size = np.maximum(size[..., :-1], size[..., 1:]).reshape(2, -1)
        top = max(top, float(((lam * mob).reshape(2, -1) * (col @ size)).max()))
    return float(np.finfo(float).eps) * tau / dx / dx * top
