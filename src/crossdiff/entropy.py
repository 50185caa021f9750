"""Entropy machinery: convex homogeneous polynomials, the logarithmic
entropy, mobility matrices (exact, truncated, regularized), the constant
symmetrizer, and the algebraic identities behind the positivity checks.

All point-valued operations accept ``X`` as a length-2 sequence whose
components are floats or equal-shape arrays and broadcast over the trailing
shape; matrix-valued results put the 2x2 axes first.
"""

from __future__ import annotations

import numpy as np
from scipy.special import xlogy

from .params import Params

__all__ = [
    "EntropyPoly",
    "build_coefficients",
    "coefficients_by_recursion",
    "eval_phi",
    "grad_phi",
    "hessian_phi",
    "eval_phi1",
    "mobility",
    "mobility_regularized",
    "alpha_rho",
    "symmetrizer",
    "theta_constants",
    "phi_bounds",
    "sn_matrix",
    "det_expansion_coefficient",
    "hessian_det_expansion",
    "hessian_det_lower_bound",
]

from .params import theta_constants  # re-exported: part of this module's surface


class EntropyPoly:
    """Degree-n homogeneous polynomial sum_j coeffs[j] * X1^j * X2^(n-j).

    ``coeffs[0] == 1`` and every coefficient is strictly positive; instances
    are produced by :func:`build_coefficients` or
    :func:`coefficients_by_recursion`.
    """

    __slots__ = ("n", "coeffs")

    def __init__(self, n: int, coeffs: np.ndarray):
        coeffs = np.asarray(coeffs, dtype=float)
        if n < 2:
            raise ValueError(f"degree must be >= 2, got {n}")
        if coeffs.shape != (n + 1,):
            raise ValueError(f"expected {n + 1} coefficients, got {coeffs.shape}")
        if coeffs[0] != 1.0:
            raise ValueError("leading coefficient must be 1")
        if not np.all(np.isfinite(coeffs)):
            raise ValueError(
                "coefficients overflow double precision; "
                "reduce the degree or the coefficient ratios"
            )
        if not np.all(coeffs > 0.0):
            raise ValueError("all coefficients must be positive")
        self.n = int(n)
        self.coeffs = coeffs

    def __repr__(self):
        return f"EntropyPoly(n={self.n}, coeffs={self.coeffs!r})"


def build_coefficients(params: Params, n: int) -> EntropyPoly:
    """Closed-form coefficients binom(n,j) * prod_k (ak+c(n-k-1))/(bk+d(n-k-1)).

    The binomial factor and the ratio product are accumulated incrementally
    so intermediate factorials never overflow.
    """
    _check_degree(n)
    a, b, c, d = params.as_tuple()
    coeffs = np.empty(n + 1)
    coeffs[0] = 1.0
    binom = 1.0
    prod = 1.0
    for j in range(n):
        binom *= (n - j) / (j + 1)
        prod *= (a * j + c * (n - j - 1)) / (b * j + d * (n - j - 1))
        coeffs[j + 1] = binom * prod
    return EntropyPoly(n, coeffs)


def coefficients_by_recursion(params: Params, n: int) -> EntropyPoly:
    """Coefficients via the symmetry recursion
    (j+1)[bj+d(n-j-1)] a_{j+1} = (n-j)[aj+c(n-j-1)] a_j; independent
    cross-check for :func:`build_coefficients`.
    """
    _check_degree(n)
    a, b, c, d = params.as_tuple()
    coeffs = np.empty(n + 1)
    coeffs[0] = 1.0
    for j in range(n):
        num = (n - j) * (a * j + c * (n - j - 1))
        den = (j + 1) * (b * j + d * (n - j - 1))
        coeffs[j + 1] = coeffs[j] * num / den
    return EntropyPoly(n, coeffs)


def _check_degree(n) -> None:
    if int(n) != n or int(n) < 2:
        raise ValueError(f"degree must be an integer >= 2, got {n}")


def _split_point(X, nonneg: bool = False):
    x1 = np.asarray(X[0], dtype=float)
    x2 = np.asarray(X[1], dtype=float)
    if nonneg and (np.any(x1 < 0.0) or np.any(x2 < 0.0)):
        raise ValueError("point components must be nonnegative")
    return x1, x2


def _power_sum(w, e1, e2, x1, x2):
    # sum_j w[j] * x1**e1[j] * x2**e2[j], broadcasting over the shape of x1/x2
    t = x1[..., None] ** e1 * x2[..., None] ** e2
    return t @ w


def eval_phi(poly: EntropyPoly, X):
    """Evaluate the polynomial at a nonnegative point (or arrays of points)."""
    x1, x2 = _split_point(X, nonneg=True)
    n = poly.n
    js = np.arange(n + 1)
    out = _power_sum(poly.coeffs, js, n - js, x1, x2)
    return float(out) if out.ndim == 0 else out


def grad_phi(poly: EntropyPoly, X):
    """Exact gradient, stacked as the leading axis of the result."""
    x1, x2 = _split_point(X)
    n = poly.n
    c = poly.coeffs
    js = np.arange(n + 1)
    d1 = _power_sum(js[1:] * c[1:], js[1:] - 1, n - js[1:], x1, x2)
    d2 = _power_sum((n - js[:n]) * c[:n], js[:n], n - js[:n] - 1, x1, x2)
    return np.stack([d1, d2])


def hessian_phi(poly: EntropyPoly, X):
    """Exact Hessian; shape (2, 2) + shape of the point components."""
    x1, x2 = _split_point(X)
    n = poly.n
    c = poly.coeffs
    js = np.arange(n + 1)
    h11 = _power_sum(js[2:] * (js[2:] - 1) * c[2:], js[2:] - 2, n - js[2:], x1, x2)
    j_mid = js[1:n]
    h12 = _power_sum(j_mid * (n - j_mid) * c[1:n], j_mid - 1, n - j_mid - 1, x1, x2)
    j_lo = js[: n - 1]
    h22 = _power_sum((n - j_lo) * (n - j_lo - 1) * c[: n - 1], j_lo, n - j_lo - 2, x1, x2)
    return np.stack([np.stack([h11, h12]), np.stack([h12, h22])])


def eval_phi1(params: Params, X):
    """Logarithmic entropy L(X1) + (b^2/ad) L(X2) with L(r) = r ln r - r + 1.

    L(0) = 1 by continuity, so the value is finite and nonnegative on the
    whole closed quadrant.
    """
    x1, x2 = _split_point(X, nonneg=True)
    a, b, c, d = params.as_tuple()
    out = _log_deviation(x1) + (b * b) / (a * d) * _log_deviation(x2)
    return float(out) if np.ndim(out) == 0 else out


def _log_deviation(r):
    return xlogy(r, r) - r + 1.0


def mobility(params: Params, X):
    """State-dependent mobility matrix [[a X1, b X1], [c X2, d X2]]."""
    x1, x2 = _split_point(X)
    a, b, c, d = params.as_tuple()
    return np.stack([
        np.stack([a * x1, b * x1]),
        np.stack([c * x2, d * x2]),
    ])


def alpha_rho(z, rho: float):
    """Continuous truncation: identity on [0, rho-1], linearly cut to 0 at rho,
    zero outside [0, rho]; bounded by min(rho, max(z, 0))."""
    if not rho > 1.0:
        raise ValueError(f"truncation level must exceed 1, got {rho}")
    z = np.asarray(z, dtype=float)
    ramp = np.where(z <= rho - 1.0, np.maximum(z, 0.0), (rho - 1.0) * (rho - z))
    out = np.where((z <= 0.0) | (z >= rho), 0.0, ramp)
    return float(out) if out.ndim == 0 else out


def mobility_regularized(params: Params, X, eps: float, rho: float):
    """eps * I + damping(positive parts) * truncated mobility.

    Uniformly elliptic for eps > 0 and convergent (entrywise) to
    :func:`mobility` on the closed quadrant as rho -> inf and eps -> 0.
    """
    if not (0.0 < eps < 1.0):
        raise ValueError(f"eps must lie in (0, 1), got {eps}")
    if not rho > 1.0:
        raise ValueError(f"truncation level must exceed 1, got {rho}")
    x1, x2 = _split_point(X)
    a, b, c, d = params.as_tuple()
    # each state entry through the truncation profile, the whole matrix
    # damped by the sigmoid 2 / (1 + exp(eps * (x1+ + x2+))) of the
    # positive parts, which tends to 1 as eps -> 0
    a1 = np.asarray(alpha_rho(x1, rho), float)
    a2 = np.asarray(alpha_rho(x2, rho), float)
    lam = 2.0 / (1.0 + np.exp(eps * (np.maximum(x1, 0.0) + np.maximum(x2, 0.0))))
    m = lam * np.stack([np.stack([a * a1, b * a1]), np.stack([c * a2, d * a2])])
    eye = np.zeros_like(m)
    eye[0, 0] = eps
    eye[1, 1] = eps
    return m + eye


def symmetrizer(params: Params) -> np.ndarray:
    """Constant SPD matrix [[ac, bc], [bc, bd]] with determinant bc(ad-bc)."""
    a, b, c, d = params.as_tuple()
    return np.array([[a * c, b * c], [b * c, b * d]])


def phi_bounds(params: Params, n: int, X):
    """Sandwich (c X1 + d X2)^n / d^n <= value <= (a X1 + b X2)^n / b^n."""
    _check_degree(n)
    x1, x2 = _split_point(X, nonneg=True)
    a, b, c, d = params.as_tuple()
    lower = (c * x1 + d * x2) ** n / d**n
    upper = (a * x1 + b * x2) ** n / b**n
    if np.ndim(lower) == 0:
        return float(lower), float(upper)
    return lower, upper


def sn_matrix(poly: EntropyPoly, params: Params, X):
    """Hessian times mobility; symmetric positive semidefinite on the quadrant."""
    h = hessian_phi(poly, X)
    m = mobility(params, X)
    return np.einsum("ij...,jk...->ik...", h, m)


def det_expansion_coefficient(params: Params, poly: EntropyPoly, j: int, k: int):
    """Coefficient of the Hessian-determinant expansion, in the factored form
    (ad-bc)(n-1)(n-k)(n-j-1)(j+1-k) a_{j+1} a_k / (w_{j+1} w_k) with
    w_m = b m + d (n-m-1); defined for 0 <= j, k <= n-2.
    """
    n = poly.n
    if not (0 <= j <= n - 2 and 0 <= k <= n - 2):
        raise ValueError(f"indices must lie in [0, {n - 2}], got ({j}, {k})")
    a, b, c, d = params.as_tuple()
    w_j1 = b * (j + 1) + d * (n - j - 2)
    w_k = b * k + d * (n - k - 1)
    num = (a * d - b * c) * (n - 1) * (n - k) * (n - j - 1) * (j + 1 - k)
    return num * poly.coeffs[j + 1] * poly.coeffs[k] / (w_j1 * w_k)


def hessian_det_expansion(params: Params, poly: EntropyPoly, X):
    """Hessian determinant through its double-sum expansion; equals
    det(hessian_phi(poly, X)) on the closed quadrant and serves as an
    independent route to it in the checks.
    """
    x1, x2 = _split_point(X, nonneg=True)
    n = poly.n
    total = np.zeros(np.broadcast(x1, x2).shape)
    for j in range(n - 1):
        for k in range(n - 1):
            A = det_expansion_coefficient(params, poly, j, k)
            total = total + (j + 1) * (n - k - 1) * A * x1 ** (j + k) * x2 ** (
                2 * n - j - k - 4
            )
    return float(total) if total.ndim == 0 else total


def hessian_det_lower_bound(params: Params, poly: EntropyPoly, X):
    """Lower bound ((n-1)/2) (A_top X1^(2n-4) + A_bot X2^(2n-4)) for the
    Hessian determinant, with A_top, A_bot the extreme expansion coefficients."""
    x1, x2 = _split_point(X, nonneg=True)
    n = poly.n
    a_bot = det_expansion_coefficient(params, poly, 0, 0)
    a_top = det_expansion_coefficient(params, poly, n - 2, n - 2)
    out = 0.5 * (n - 1) * (a_top * x1 ** (2 * n - 4) + a_bot * x2 ** (2 * n - 4))
    return float(out) if np.ndim(out) == 0 else out
