"""The 1D kernels against dense and loop-by-loop reference computations."""

import numpy as np
import pytest

import crossdiff as cd
from crossdiff import kernels


def _random_tridiag(rng, n):
    lower = rng.uniform(-1.0, 0.0, size=n)
    upper = rng.uniform(-1.0, 0.0, size=n)
    lower[0] = upper[-1] = 0.0
    diag = 1.0 + np.abs(lower) + np.abs(upper) + rng.uniform(0, 1, size=n)
    rhs = rng.standard_normal(n)
    return lower, diag, upper, rhs


class TestThomas:
    @pytest.mark.parametrize("n", [2, 3, 17, 256])
    def test_against_dense_solve(self, n):
        rng = np.random.default_rng(n)
        lower, diag, upper, rhs = _random_tridiag(rng, n)
        dense = np.diag(diag) + np.diag(lower[1:], -1) + np.diag(upper[:-1], 1)
        expected = np.linalg.solve(dense, rhs)
        np.testing.assert_allclose(kernels.thomas(lower, diag, upper, rhs),
                                   expected, rtol=1e-10)

    def test_singular_system_raises(self):
        lower = np.array([0.0, 0.0, 0.0])
        upper = np.array([0.0, 0.0, 0.0])
        diag = np.array([1.0, 0.0, 1.0])
        with pytest.raises(np.linalg.LinAlgError):
            kernels.thomas(lower, diag, upper, np.ones(3))


class TestPhiCells:
    def test_vectorized_matches_eval(self, params2111):
        rng = np.random.default_rng(1)
        poly = cd.build_coefficients(params2111, 5)
        f = rng.uniform(0, 4, size=64)
        g = rng.uniform(0, 4, size=64)
        expected = cd.eval_phi(poly, (f, g))
        np.testing.assert_allclose(kernels.phi_cells(poly.coeffs, f, g),
                                   expected, rtol=1e-13)

    def test_handles_zeros(self, params2111):
        poly = cd.build_coefficients(params2111, 4)
        f = np.array([0.0, 1.0, 0.0])
        g = np.array([0.0, 0.0, 2.0])
        out = kernels.phi_cells(poly.coeffs, f, g)
        assert out[0] == 0.0
        assert out[1] == pytest.approx(poly.coeffs[4], rel=1e-15)   # f^4 term
        assert out[2] == pytest.approx(poly.coeffs[0] * 16.0, rel=1e-15)


def _random_state(rng, n, allow_negative=False):
    lo = -0.5 if allow_negative else 0.0
    return (rng.uniform(lo, 3.0, size=n), rng.uniform(lo, 3.0, size=n))


COEFS = (2.0, 1.0, 1.0, 1.0)


def _cut(z, rho, reg):
    if not reg:
        return max(z, 0.0)
    if z <= 0.0 or z >= rho:
        return 0.0
    return z if z <= rho - 1.0 else (rho - 1.0) * (rho - z)


def _reference_faces(f, g, dx, eps, rho, reg, upwind):
    """Face by face: (gradf, gradg, lam * mf, lam * mg, flux_f, flux_g) on
    faces 0..n, boundary faces zero."""
    a, b, c, d = COEFS
    n = f.size
    out = np.zeros((6, n + 1))
    for j in range(1, n):
        gf = (f[j] - f[j - 1]) / dx
        gg = (g[j] - g[j - 1]) / dx
        dpf, dpg = a * gf + b * gg, c * gf + d * gg
        lam = 1.0
        if reg:
            s = 0.5 * sum(max(v, 0.0) for v in (f[j - 1], f[j], g[j - 1], g[j]))
            lam = 2.0 / (1.0 + np.exp(eps * s))
        if upwind:
            mf = _cut(f[j] if dpf > 0.0 else f[j - 1], rho, reg)
            mg = _cut(g[j] if dpg > 0.0 else g[j - 1], rho, reg)
        else:
            mf = 0.5 * (_cut(f[j - 1], rho, reg) + _cut(f[j], rho, reg))
            mg = 0.5 * (_cut(g[j - 1], rho, reg) + _cut(g[j], rho, reg))
        e = eps if reg else 0.0
        out[:, j] = (gf, gg, lam * mf, lam * mg,
                     lam * mf * dpf + e * gf, lam * mg * dpg + e * gg)
    return out


def _reference_residual(f, g, F, G, tau, dx, eps, rho, reg, upwind):
    flux_f, flux_g = _reference_faces(f, g, dx, eps, rho, reg, upwind)[4:]
    return (f - tau / dx * np.diff(flux_f) - F,
            g - tau / dx * np.diff(flux_g) - G)


def _reference_picard(F, G, tau, dx, eps, rho, reg, upwind, tol, max_iters, omega):
    """Frozen-coefficient iteration with face terms evaluated afresh for
    every sweep and dense solves of the assembled per-component systems."""
    a, b, c, d = COEFS
    n = F.size
    e = eps if reg else 0.0
    f, g = F.copy(), G.copy()

    def residual(f, g):
        rf, rg = _reference_residual(f, g, F, G, tau, dx, eps, rho, reg, upwind)
        return max(np.abs(rf).max(), np.abs(rg).max())

    def solve(prev, k, self_coef, cross):
        A = np.eye(n)
        for j in range(1, n):
            w = tau / dx**2 * (e + k[j] * self_coef)
            A[j - 1, j - 1] += w
            A[j, j] += w
            A[j - 1, j] -= w
            A[j, j - 1] -= w
        return np.linalg.solve(A, prev + tau / dx * np.diff(k * cross))

    res, iters = residual(f, g), 0
    while res > tol and iters < max_iters:
        iters += 1
        gf, gg, kf, kg = _reference_faces(f, g, dx, eps, rho, reg, upwind)[:4]
        f_new = solve(F, kf, a, b * gg)
        g_new = solve(G, kg, d, c * gf)
        f, g = f + omega * (f_new - f), g + omega * (g_new - g)
        res = residual(f, g)
    return f, g, iters, res, res <= tol


class TestFluxAndResidualLanes:
    @pytest.mark.parametrize("reg", [False, True])
    @pytest.mark.parametrize("upwind", [True, False])
    def test_residual_matches_face_loop(self, reg, upwind):
        rng = np.random.default_rng(42)
        f, g = _random_state(rng, 50, allow_negative=True)
        F, G = _random_state(rng, 50)
        args = (1e-3, 0.02, 0.05, 2.5, reg, upwind)
        rf, rg = kernels.residual_1d(f, g, F, G, *COEFS, *args)
        ref_f, ref_g = _reference_residual(f, g, F, G, *args)
        np.testing.assert_allclose(rf, ref_f, rtol=1e-13, atol=1e-13)
        np.testing.assert_allclose(rg, ref_g, rtol=1e-13, atol=1e-13)

    def test_residual_matches_generic_assembly(self, params2111):
        # the 1D kernel and the dimension-agnostic path implement one scheme
        rng = np.random.default_rng(44)
        grid = cd.Grid1D(30, 1.0)
        f, g = _random_state(rng, 30)
        F, G = _random_state(rng, 30)
        state = cd.State(grid, f, g)
        prev = cd.State(grid, F, G)
        opts = cd.SolverOptions()
        from crossdiff import fvops
        rf_k, rg_k = kernels.residual_1d(f, g, F, G, 2.0, 1.0, 1.0, 1.0,
                                         1e-3, grid.dx, 0.0, np.inf, False, True)
        rf_g, rg_g = fvops.implicit_residual(f, g, F, G, grid, params2111,
                                             1e-3, 0.0, np.inf, False, True)
        np.testing.assert_allclose(rf_k, rf_g, rtol=1e-13, atol=1e-15)
        np.testing.assert_allclose(rg_k, rg_g, rtol=1e-13, atol=1e-15)


class TestPicardLanes:
    @pytest.mark.parametrize("omega", [1.0, 0.5])
    @pytest.mark.parametrize("reg", [False, True])
    @pytest.mark.parametrize("upwind", [True, False])
    def test_matches_dense_reference_iteration(self, upwind, reg, omega):
        n = 24
        x = (np.arange(n) + 0.5) / n
        F = np.maximum(1.2 * np.cos(np.pi * x) + 0.2, 0.0)   # zero patch in f
        G = 1.0 - 0.4 * np.cos(2.0 * np.pi * x)
        args = (1e-3, 1.0 / n, 1e-2, 2.5, reg, upwind, 1e-11, 200, omega)
        f, g, iters, res, ok = kernels.picard_1d(F, G, *COEFS, *args)
        f_ref, g_ref, iters_ref, res_ref, ok_ref = _reference_picard(F, G, *args)
        assert ok and ok_ref
        assert iters == iters_ref
        np.testing.assert_allclose(f, f_ref, rtol=1e-12)
        np.testing.assert_allclose(g, g_ref, rtol=1e-12)

    def test_reports_nonconvergence(self):
        n = 16
        x = (np.arange(n) + 0.5) / n
        F = 1.0 + 0.5 * np.cos(np.pi * x)
        G = np.ones(n)
        f, g, iters, res, ok = kernels.picard_1d(
            F, G, 2.0, 1.0, 1.0, 1.0, 50.0, 1.0 / n, 0.0, np.inf, False, True,
            1e-14, 2)
        assert not ok
        assert iters == 2
        assert res > 1e-14
