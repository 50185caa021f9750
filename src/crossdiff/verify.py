"""Randomized property suites for the entropy machinery.

Each check draws admissible parameter quadruples and sample points, tests
one algebraic property of the constructions in :mod:`crossdiff.entropy`,
and reports pass counts with the worst observed slack.  No PDE is solved
anywhere here; the suites back the ``verify`` CLI subcommand and the
acceptance tests.

The suites share one sampling loop (:func:`_cases`) and one tally
(:func:`_tally`); each ``check_*`` adds only its predicate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import entropy
from .params import Params

COEFF_TOL = 1e-12
SYMMETRY_TOL = 1e-12
GRAD_FD_TOL = 1e-6
HESS_FD_TOL = 1e-5

#: draw_params draws a, b, c, d from [e^-LOG_BOX, e^LOG_BOX], so each ratio
#: of entropy.build_coefficients is at most e^(2 LOG_BOX) and each degree-n
#: coefficient at most (1 + e^(2 LOG_BOX))^n; MAX_DEGREE is the largest n at
#: which that bound is finite
LOG_BOX = 1.5
MAX_DEGREE = int(np.log(np.finfo(float).max) / np.log1p(np.exp(2 * LOG_BOX)))


@dataclass
class CheckResult:
    name: str
    passed: int
    total: int
    worst: float
    note: str = ""

    @property
    def ok(self) -> bool:
        return self.passed == self.total

    def line(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        extra = f" ({self.note})" if self.note else ""
        return (f"{status} {self.name}: {self.passed}/{self.total} samples, "
                f"worst slack {self.worst:.3e}{extra}")


def draw_params(rng: np.random.Generator, count: int) -> list[Params]:
    """Admissible quadruples with a mild margin on the determinant so the
    positivity checks are not run at the edge of floating-point resolution."""
    out = []
    while len(out) < count:
        a, b, c, d = np.exp(rng.uniform(-LOG_BOX, LOG_BOX, size=4))
        if a * d > 1.01 * b * c:
            out.append(Params(a, b, c, d))
    return out


def _cases(seed: int, draws: int, samples: int, n_lo: int, n_hi: int,
           low: float = 0.0):
    """Yield ``(params, poly, X)`` for each of ``draws`` quadruples and each
    degree ``n_lo..n_hi``, with one sample ``X`` of ``samples`` points on
    ``[low, 10]^2`` per quadruple.  All quadruples are drawn first; an
    empty sample draws nothing from the generator."""
    rng = np.random.default_rng(seed)
    for params in draw_params(rng, draws):
        X = rng.uniform(low, 10.0, size=(2, samples))
        for n in range(n_lo, n_hi + 1):
            yield params, entropy.build_coefficients(params, n), X


def _tally(name: str, cases, worst: float, pick, note: str = "") -> CheckResult:
    """Count the passes of each ``(pass mask, worst value)`` pair in
    ``cases`` and fold the values into ``worst`` with ``pick``."""
    passed = total = 0
    for ok, value in cases:
        passed += int(np.count_nonzero(ok))
        total += int(np.size(ok))
        worst = pick(worst, float(value))
    return CheckResult(name, passed, total, worst, note)


def _unit_scaled(m):
    """The 2x2 matrices ``m`` (matrix axes first) each divided exactly by the
    power of two 2^e above its largest entry, and e: the scaled products stay
    finite where those of ``m`` (entries past 1e154 at high degree) overflow."""
    _, e = np.frexp(np.abs(m).max(axis=(0, 1)))
    return np.ldexp(m, -e), e


def check_coefficients(draws: int = 100, n_max: int = 20, seed: int = 0) -> CheckResult:
    """Closed-form coefficients equal the recursion to 1e-12 relative and are
    all strictly positive."""
    def case(params, poly, _):
        rec = entropy.coefficients_by_recursion(params, poly.n).coeffs
        rel = (np.abs(poly.coeffs - rec) / np.abs(rec)).max()
        return rel <= COEFF_TOL and np.all(poly.coeffs > 0.0), rel
    return _tally("coefficient closed form vs recursion",
                  (case(*c) for c in _cases(seed, draws, 0, 2, n_max)), 0.0, max)


def check_sn_symmetry(draws: int = 20, samples: int = 1000,
                      n_lo: int = 2, n_hi: int = 10, seed: int = 1) -> CheckResult:
    """Hessian times mobility is symmetric to 1e-12 of its own magnitude."""
    def case(params, poly, X):
        s = entropy.sn_matrix(poly, params, X)
        scale = np.abs(s).max(axis=(0, 1))
        rel = np.abs(s[0, 1] - s[1, 0]) / np.maximum(scale, 1e-300)
        return rel <= SYMMETRY_TOL, rel.max()
    return _tally("symmetry of hessian*mobility",
                  (case(*c) for c in _cases(seed, draws, samples, n_lo, n_hi)), 0.0, max)


def check_hessian_pd(draws: int = 20, samples: int = 1000,
                     n_lo: int = 2, n_hi: int = 10, seed: int = 2) -> CheckResult:
    """Hessian is positive definite away from the origin and its determinant
    dominates the two-term lower bound from the expansion coefficients."""
    def case(params, poly, X):
        h, e = _unit_scaled(entropy.hessian_phi(poly, X))
        tr = h[0, 0] + h[1, 1]
        det = h[0, 0] * h[1, 1] - h[0, 1] * h[1, 0]
        # closed-form smaller eigenvalue of a symmetric 2x2 matrix
        min_eig = 0.5 * (tr - np.sqrt((h[0, 0] - h[1, 1]) ** 2 + 4.0 * h[0, 1] ** 2))
        bound = entropy.hessian_det_lower_bound(params, poly, X, scale_exp=e)
        scale = np.abs(h).max(axis=(0, 1)) ** 2
        return ((min_eig > 0.0) & (det >= bound * (1.0 - 1e-10) - 1e-12 * scale),
                np.ldexp(min_eig, e).min())
    return _tally("hessian positive definiteness + determinant bound",
                  (case(*c) for c in _cases(seed, draws, samples, n_lo, n_hi, 1e-3)),
                  np.inf, min, note="worst = smallest eigenvalue seen")


def check_sn_pd(draws: int = 20, samples: int = 1000,
                n_lo: int = 2, n_hi: int = 10, seed: int = 3) -> CheckResult:
    """Hessian*mobility has positive trace and determinant on the open quadrant."""
    def case(params, poly, X):
        s, e = _unit_scaled(entropy.sn_matrix(poly, params, X))
        det = s[0, 0] * s[1, 1] - s[0, 1] * s[1, 0]
        with np.errstate(over="ignore"):    # a determinant past 1e308 is not the worst
            worst = np.ldexp(det, 2 * e).min()
        return (s[0, 0] + s[1, 1] > 0.0) & (det > 0.0), worst
    return _tally("positive definiteness of hessian*mobility",
                  (case(*c) for c in _cases(seed, draws, samples, n_lo, n_hi, 1e-3)),
                  np.inf, min, note="worst = smallest determinant seen")


def check_norm_sandwich(draws: int = 20, samples: int = 10000,
                        n_lo: int = 2, n_hi: int = 12, seed: int = 4) -> CheckResult:
    """(c X1 + d X2)^n / d^n <= polynomial <= (a X1 + b X2)^n / b^n."""
    def case(params, poly, X):
        val = entropy.eval_phi(poly, X)
        lower, upper = entropy.phi_bounds(params, poly.n, X)
        slack = 1e-12 * np.maximum(np.maximum(lower, upper), 1.0)
        viol = np.maximum(lower - val, val - upper) / np.maximum(upper, 1e-300)
        return (val >= lower - slack) & (val <= upper + slack), viol.max()
    return _tally("norm sandwich bounds",
                  (case(*c) for c in _cases(seed, draws, samples, n_lo, n_hi)), 0.0, max)


def check_derivatives(draws: int = 5, samples: int = 200,
                      n_lo: int = 2, n_hi: int = 8, seed: int = 5) -> CheckResult:
    """Analytic gradient/Hessian match central finite differences."""
    def case(params, poly, X):
        h = 1e-6
        x1, x2 = X
        # central differences along X1 and X2: fd_g[i] of phi, fd_h[i][j] of grad_j
        steps = (((x1 + h, x2), (x1 - h, x2)), ((x1, x2 + h), (x1, x2 - h)))
        fd_g = [(entropy.eval_phi(poly, p) - entropy.eval_phi(poly, m)) / (2 * h)
                for p, m in steps]
        fd_h = [(entropy.grad_phi(poly, p) - entropy.grad_phi(poly, m)) / (2 * h)
                for p, m in steps]
        grad = entropy.grad_phi(poly, X)
        scale_g = np.maximum(np.abs(grad).max(axis=0), 1e-300)
        rel_g = np.maximum(np.abs(grad[0] - fd_g[0]), np.abs(grad[1] - fd_g[1])) / scale_g
        hess = entropy.hessian_phi(poly, X)
        scale_h = np.maximum(np.abs(hess).max(axis=(0, 1)), 1e-300)
        rel_h = np.maximum.reduce([np.abs(hess[i, j] - fd_h[i][j])
                                   for i, j in ((0, 0), (0, 1), (1, 1))]) / scale_h
        # fmax: a NaN in one of the two maxima does not hide the other
        return ((rel_g <= GRAD_FD_TOL) & (rel_h <= HESS_FD_TOL),
                np.fmax(rel_g.max(), rel_h.max()))
    return _tally("finite-difference consistency of derivatives",
                  (case(*c) for c in _cases(seed, draws, samples, n_lo, n_hi, 0.1)), 0.0, max)


def check_regularized_bounds(draws: int = 10, samples: int = 2000,
                             seed: int = 6) -> CheckResult:
    """Entry bounds, sign pattern, and coercivity of the regularized mobility:
    0 <= entry - eps*I <= 2 rho max(a,b,c,d), off-diagonal rows vanish outside
    [0, rho], and <S M ξ, ξ> >= eps * det(S)/tr(S) |ξ|^2."""
    rng = np.random.default_rng(seed)

    def case(params):
        a, b, c, d = params.as_tuple()
        eps = float(rng.uniform(0.01, 0.99))
        rho = float(rng.uniform(1.5, 50.0))
        X = rng.uniform(-5.0, rho + 5.0, size=(2, samples))
        m = entropy.mobility_regularized(params, X, eps, rho)
        core = m - eps * np.eye(2)[:, :, None]
        hi = 2.0 * rho * max(a, b, c, d)
        ok = np.all((core >= -1e-12) & (core <= hi + 1e-12), axis=(0, 1))
        outside1 = (X[0] < 0.0) | (X[0] > rho)
        outside2 = (X[1] < 0.0) | (X[1] > rho)
        ok &= ~outside1 | ((m[0, 1] == 0.0) & (m[0, 0] >= m[0, 1]))
        ok &= ~outside2 | ((m[1, 0] == 0.0) & (m[1, 1] >= m[1, 0]))
        S = entropy.symmetrizer(params)
        sm = np.einsum("ij,jk...->ik...", S, m)
        xi = rng.standard_normal((2, samples))
        quad = (sm[0, 0] * xi[0] ** 2 + (sm[0, 1] + sm[1, 0]) * xi[0] * xi[1]
                + sm[1, 1] * xi[1] ** 2)
        floor = eps * b * c * (a * d - b * c) / (a * c + b * d)
        margin = quad / (xi[0] ** 2 + xi[1] ** 2) - floor
        return ok & (margin >= -1e-12 * max(1.0, floor)), margin.min()
    return _tally("regularized mobility bounds and coercivity",
                  (case(params) for params in draw_params(rng, draws)), np.inf, min,
                  note="worst = smallest coercivity margin seen")


def run_property_suite(n_max: int = 10, samples: int = 1000,
                       seed: int = 0) -> list[CheckResult]:
    """Full suite at a configurable sample budget; purely algebraic."""
    n_hi = max(3, n_max)
    return [
        check_coefficients(draws=max(10, samples // 10), n_max=max(n_hi, 20),
                           seed=seed),
        check_sn_symmetry(samples=samples, n_hi=n_hi, seed=seed + 1),
        check_hessian_pd(samples=samples, n_hi=n_hi, seed=seed + 2),
        check_sn_pd(samples=samples, n_hi=n_hi, seed=seed + 3),
        check_norm_sandwich(samples=max(samples, 10000), n_hi=max(n_hi, 12),
                            seed=seed + 4),
        check_derivatives(samples=min(samples, 500), seed=seed + 5),
        check_regularized_bounds(samples=samples, seed=seed + 6),
    ]
