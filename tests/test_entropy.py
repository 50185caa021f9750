import math

import numpy as np
import pytest

import crossdiff as cd
from crossdiff import verify

from conftest import random_params


class TestCoefficients:
    def test_reference_n2(self, params2111):
        poly = cd.build_coefficients(params2111, 2)
        np.testing.assert_allclose(poly.coeffs, [1.0, 2.0, 2.0], rtol=1e-15)

    def test_reference_n3(self, params2111):
        poly = cd.build_coefficients(params2111, 3)
        np.testing.assert_allclose(poly.coeffs, [1.0, 3.0, 4.5, 3.0], rtol=1e-15)

    def test_general_n2_closed_form(self):
        # [1, 2c/d, ac/(bd)] for any admissible quadruple
        rng = np.random.default_rng(0)
        for p in random_params(rng, 25):
            poly = cd.build_coefficients(p, 2)
            expected = [1.0, 2.0 * p.c / p.d, p.a * p.c / (p.b * p.d)]
            np.testing.assert_allclose(poly.coeffs, expected, rtol=1e-14)

    def test_leading_coefficient_is_one(self):
        rng = np.random.default_rng(1)
        for p in random_params(rng, 10):
            for n in (2, 5, 11):
                assert cd.build_coefficients(p, n).coeffs[0] == 1.0

    def test_muskat_second_coefficient(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            R, mu = np.exp(rng.uniform(-2, 2, size=2))
            poly = cd.build_coefficients(cd.muskat_params(R, mu), 2)
            assert poly.coeffs[1] == pytest.approx(2.0, rel=1e-14)

    @pytest.mark.parametrize("bad_n", [1, 0, -3, 2.5])
    def test_rejects_bad_degree(self, params2111, bad_n):
        with pytest.raises(ValueError):
            cd.build_coefficients(params2111, bad_n)
        with pytest.raises(ValueError):
            cd.coefficients_by_recursion(params2111, bad_n)

    def test_recursion_reference(self, params2111):
        np.testing.assert_allclose(
            cd.coefficients_by_recursion(params2111, 2).coeffs, [1.0, 2.0, 2.0],
            rtol=1e-15)

    def test_recursion_satisfied_by_closed_form(self):
        # (j+1)[bj + d(n-j-1)] a_{j+1} == (n-j)[aj + c(n-j-1)] a_j
        rng = np.random.default_rng(3)
        for p in random_params(rng, 10):
            a, b, c, d = p.as_tuple()
            for n in (2, 7, 15):
                co = cd.build_coefficients(p, n).coeffs
                for j in range(n):
                    lhs = (j + 1) * (b * j + d * (n - j - 1)) * co[j + 1]
                    rhs = (n - j) * (a * j + c * (n - j - 1)) * co[j]
                    assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_oracle_equivalence_and_positivity(self):
        rng = np.random.default_rng(4)
        for p in random_params(rng, 100):
            for n in range(2, 21):
                closed = cd.build_coefficients(p, n).coeffs
                rec = cd.coefficients_by_recursion(p, n).coeffs
                assert np.all(closed > 0.0)
                np.testing.assert_allclose(closed, rec, rtol=1e-12)

    def test_overflow_raises(self):
        # documented degree limit: coefficients beyond double precision fail loudly
        p = cd.Params(1e12, 1e-12, 1e12, 1e-2)
        with pytest.raises(ValueError, match="overflow"):
            cd.build_coefficients(p, 30)


class TestEvalPhi:
    def test_reference_value(self, params2111):
        poly = cd.build_coefficients(params2111, 2)
        assert cd.eval_phi(poly, (1.0, 1.0)) == pytest.approx(5.0, rel=1e-15)

    def test_zero_at_origin(self, params2111):
        for n in (2, 3, 9):
            poly = cd.build_coefficients(params2111, n)
            assert cd.eval_phi(poly, (0.0, 0.0)) == 0.0

    def test_homogeneity(self):
        rng = np.random.default_rng(5)
        for p in random_params(rng, 5):
            for n in (2, 4, 7):
                poly = cd.build_coefficients(p, n)
                for _ in range(20):
                    x = rng.uniform(0, 5, size=2)
                    lam = rng.uniform(0.1, 3.0)
                    assert cd.eval_phi(poly, lam * x) == pytest.approx(
                        lam**n * cd.eval_phi(poly, x), rel=1e-12)

    def test_rejects_negative_components(self, params2111):
        poly = cd.build_coefficients(params2111, 2)
        with pytest.raises(ValueError, match="nonnegative"):
            cd.eval_phi(poly, (-0.1, 1.0))

    def test_vectorized(self, params2111):
        poly = cd.build_coefficients(params2111, 3)
        x = np.linspace(0, 2, 7)
        vals = cd.eval_phi(poly, (x, x[::-1]))
        assert vals.shape == (7,)
        for i in range(7):
            assert vals[i] == pytest.approx(cd.eval_phi(poly, (x[i], x[6 - i])))


class TestDerivatives:
    def test_grad_reference(self, params2111):
        poly = cd.build_coefficients(params2111, 2)
        np.testing.assert_allclose(cd.grad_phi(poly, (1.0, 1.0)), [6.0, 4.0],
                                   rtol=1e-15)

    def test_grad_zero_at_origin_for_higher_degree(self, params2111):
        for n in (3, 4, 8):
            poly = cd.build_coefficients(params2111, n)
            np.testing.assert_array_equal(cd.grad_phi(poly, (0.0, 0.0)), [0.0, 0.0])

    def test_grad_matches_finite_differences(self):
        rng = np.random.default_rng(6)
        h = 1e-6
        for p in random_params(rng, 5):
            for n in (2, 5, 9):
                poly = cd.build_coefficients(p, n)
                X = rng.uniform(0.1, 10.0, size=(2, 50))
                grad = cd.grad_phi(poly, X)
                fd1 = (cd.eval_phi(poly, (X[0] + h, X[1]))
                       - cd.eval_phi(poly, (X[0] - h, X[1]))) / (2 * h)
                fd2 = (cd.eval_phi(poly, (X[0], X[1] + h))
                       - cd.eval_phi(poly, (X[0], X[1] - h))) / (2 * h)
                scale = np.abs(grad).max(axis=0)
                assert np.all(np.abs(grad[0] - fd1) <= 1e-6 * scale)
                assert np.all(np.abs(grad[1] - fd2) <= 1e-6 * scale)

    def test_hessian_constant_for_degree_two(self, params2111):
        poly = cd.build_coefficients(params2111, 2)
        for x in ((1.0, 1.0), (0.3, 5.0), (7.0, 0.0)):
            np.testing.assert_allclose(cd.hessian_phi(poly, x),
                                       [[4.0, 2.0], [2.0, 2.0]], rtol=1e-15)

    def test_hessian_n2_proportional_to_symmetrizer(self):
        # the degree-2 Hessian is (2/bd) times the symmetrizer
        rng = np.random.default_rng(7)
        for p in random_params(rng, 20):
            poly = cd.build_coefficients(p, 2)
            h = cd.hessian_phi(poly, (1.3, 0.4))
            np.testing.assert_allclose(h, 2.0 / (p.b * p.d) * cd.symmetrizer(p),
                                       rtol=1e-13)

    def test_hessian_matches_grad_differences(self):
        rng = np.random.default_rng(8)
        h = 1e-6
        for p in random_params(rng, 3):
            for n in (2, 4, 7):
                poly = cd.build_coefficients(p, n)
                X = rng.uniform(0.1, 10.0, size=(2, 30))
                hess = cd.hessian_phi(poly, X)
                g_p = cd.grad_phi(poly, (X[0] + h, X[1]))
                g_m = cd.grad_phi(poly, (X[0] - h, X[1]))
                fd11 = (g_p[0] - g_m[0]) / (2 * h)
                fd12 = (g_p[1] - g_m[1]) / (2 * h)
                g_p = cd.grad_phi(poly, (X[0], X[1] + h))
                g_m = cd.grad_phi(poly, (X[0], X[1] - h))
                fd22 = (g_p[1] - g_m[1]) / (2 * h)
                scale = np.abs(hess).max(axis=(0, 1))
                assert np.all(np.abs(hess[0, 0] - fd11) <= 1e-5 * scale)
                assert np.all(np.abs(hess[0, 1] - fd12) <= 1e-5 * scale)
                assert np.all(np.abs(hess[1, 1] - fd22) <= 1e-5 * scale)

    def test_euler_identities_up_to_degree_30(self):
        # phi_n is homogeneous of degree n: X . grad = n phi and H X = (n-1) grad;
        # every term is nonnegative on the quadrant, so both hold to rounding
        rng = np.random.default_rng(10)
        for p in verify.draw_params(rng, 10):
            X = rng.uniform(0.0, 10.0, size=(2, 200))
            for n in range(2, 31):
                poly = cd.build_coefficients(p, n)
                grad = cd.grad_phi(poly, X)
                np.testing.assert_allclose((X * grad).sum(axis=0), n * cd.eval_phi(poly, X),
                                           rtol=1e-13, atol=0.0)
                hess_x = np.einsum("ij...,j...->i...", cd.hessian_phi(poly, X), X)
                np.testing.assert_allclose(hess_x, (n - 1) * grad, rtol=1e-13, atol=0.0)

    def test_hessian_positive_definite_on_quadrant(self):
        rng = np.random.default_rng(9)
        for p in random_params(rng, 5):
            for n in range(2, 11):
                poly = cd.build_coefficients(p, n)
                X = rng.uniform(1e-3, 10.0, size=(2, 1000))
                h = cd.hessian_phi(poly, X)
                tr = h[0, 0] + h[1, 1]
                disc = np.sqrt((h[0, 0] - h[1, 1]) ** 2 + 4 * h[0, 1] ** 2)
                assert np.all(0.5 * (tr - disc) > 0.0)


class TestLogEntropy:
    def test_zero_at_one_one(self, params2111):
        assert cd.eval_phi1(params2111, (1.0, 1.0)) == 0.0

    def test_value_at_origin(self, params2111):
        # L(0) = 1 by continuity and b^2/(ad) = 1/2
        assert cd.eval_phi1(params2111, (0.0, 0.0)) == pytest.approx(1.5, rel=1e-15)

    def test_nonnegative_everywhere(self):
        rng = np.random.default_rng(10)
        for p in random_params(rng, 10):
            x = rng.uniform(0.0, 20.0, size=(2, 200))
            assert np.all(cd.eval_phi1(p, x) >= 0.0)

    def test_rejects_negative(self, params2111):
        with pytest.raises(ValueError, match="nonnegative"):
            cd.eval_phi1(params2111, (1.0, -0.5))


class TestMobility:
    def test_reference(self, params2111):
        np.testing.assert_array_equal(cd.mobility(params2111, (1.0, 2.0)),
                                      [[2.0, 1.0], [2.0, 2.0]])

    def test_zero_at_origin(self, params2111):
        np.testing.assert_array_equal(cd.mobility(params2111, (0.0, 0.0)),
                                      np.zeros((2, 2)))

    def test_linear_scaling(self):
        rng = np.random.default_rng(11)
        for p in random_params(rng, 10):
            x = rng.uniform(0, 5, size=2)
            lam = rng.uniform(0.1, 4.0)
            np.testing.assert_allclose(cd.mobility(p, lam * x),
                                       lam * cd.mobility(p, x), rtol=1e-14)


class TestAlphaRho:
    def test_branch_values(self):
        assert cd.alpha_rho(2.0, 4.0) == 2.0
        assert cd.alpha_rho(3.5, 4.0) == pytest.approx(1.5, rel=1e-15)
        assert cd.alpha_rho(-1.0, 4.0) == 0.0
        assert cd.alpha_rho(4.0, 4.0) == 0.0
        assert cd.alpha_rho(7.0, 4.0) == 0.0

    def test_continuity_at_knees(self):
        for rho in (1.5, 4.0, 100.0):
            for knee in (0.0, rho - 1.0, rho):
                lo = cd.alpha_rho(knee - 1e-12, rho)
                hi = cd.alpha_rho(knee + 1e-12, rho)
                assert abs(hi - lo) < 1e-9

    def test_bounded_by_min_rho_positive_part(self):
        rng = np.random.default_rng(12)
        z = rng.uniform(-10, 30, size=2000)
        for rho in (1.2, 4.0, 17.0):
            vals = cd.alpha_rho(z, rho)
            assert np.all(vals >= 0.0)
            assert np.all(vals <= np.minimum(rho, np.maximum(z, 0.0)) + 1e-15)

    def test_rejects_rho_at_most_one(self):
        with pytest.raises(ValueError):
            cd.alpha_rho(0.5, 1.0)
        with pytest.raises(ValueError):
            cd.alpha_rho(0.5, 0.3)


class TestRegularizedMobility:
    def test_identity_block_at_origin(self, params2111):
        for eps in (0.1, 0.01):
            np.testing.assert_allclose(
                cd.mobility_regularized(params2111, (0.0, 0.0), eps, 5.0),
                eps * np.eye(2), rtol=0, atol=0)

    def test_reference_value(self, params2111):
        m = cd.mobility_regularized(params2111, (1.0, 2.0), 0.1, 1e6)
        lam = 2.0 / (1.0 + math.exp(0.3))
        expected = 0.1 * np.eye(2) + lam * np.array([[2.0, 1.0], [2.0, 2.0]])
        np.testing.assert_allclose(m, expected, rtol=1e-15)

    def test_converges_to_exact_mobility(self):
        rng = np.random.default_rng(13)
        for p in random_params(rng, 5):
            x = rng.uniform(0, 5, size=2)
            exact = cd.mobility(p, x)
            prev_err = np.inf
            for eps, rho in ((1e-2, 1e2), (1e-4, 1e4), (1e-6, 1e6)):
                err = np.abs(cd.mobility_regularized(p, x, eps, rho) - exact).max()
                assert err < prev_err or err == 0.0
                prev_err = err
            assert prev_err <= 1e-4

    def test_entry_bounds(self):
        rng = np.random.default_rng(14)
        for p in random_params(rng, 5):
            rho = 8.0
            eps = 0.3
            X = rng.uniform(-3, rho + 3, size=(2, 500))
            m = cd.mobility_regularized(p, X, eps, rho)
            core = m.copy()
            core[0, 0] -= eps
            core[1, 1] -= eps
            hi = 2 * rho * max(p.as_tuple())
            assert np.all(core >= 0.0)
            assert np.all(core <= hi)

    def test_sign_pattern_outside_band(self, params2111):
        # rows whose state entry is outside [0, rho] vanish off the diagonal
        rho = 5.0
        for x1 in (-2.0, 6.0):
            m = cd.mobility_regularized(params2111, (x1, 2.0), 0.2, rho)
            assert m[0, 1] == 0.0
            assert m[0, 0] >= m[0, 1]
        for x2 in (-2.0, 6.0):
            m = cd.mobility_regularized(params2111, (2.0, x2), 0.2, rho)
            assert m[1, 0] == 0.0
            assert m[1, 1] >= m[1, 0]

    def test_rejects_out_of_range_parameters(self, params2111):
        with pytest.raises(ValueError):
            cd.mobility_regularized(params2111, (1.0, 1.0), 0.0, 5.0)
        with pytest.raises(ValueError):
            cd.mobility_regularized(params2111, (1.0, 1.0), 1.0, 5.0)
        with pytest.raises(ValueError):
            cd.mobility_regularized(params2111, (1.0, 1.0), 0.1, 1.0)


class TestSymmetrizer:
    def test_reference(self, params2111):
        s = cd.symmetrizer(params2111)
        np.testing.assert_array_equal(s, [[2.0, 1.0], [1.0, 1.0]])
        assert np.linalg.det(s) == pytest.approx(1.0, rel=1e-14)

    def test_determinant_identity(self):
        rng = np.random.default_rng(15)
        for p in random_params(rng, 30):
            a, b, c, d = p.as_tuple()
            s = cd.symmetrizer(p)
            assert np.linalg.det(s) == pytest.approx(b * c * (a * d - b * c),
                                                     rel=1e-12)

    def test_det_of_s_times_mobility(self):
        rng = np.random.default_rng(16)
        for p in random_params(rng, 10):
            a, b, c, d = p.as_tuple()
            s = cd.symmetrizer(p)
            for _ in range(20):
                x = rng.uniform(0, 10, size=2)
                prod = s @ cd.mobility(p, x)
                expected = b * c * (a * d - b * c) ** 2 * x[0] * x[1]
                assert np.linalg.det(prod) == pytest.approx(
                    expected, rel=1e-10, abs=1e-12 * max(1.0, expected))

    def test_coercivity_floor_of_regularized_product(self):
        rng = np.random.default_rng(17)
        for p in random_params(rng, 10):
            a, b, c, d = p.as_tuple()
            s = cd.symmetrizer(p)
            eps, rho = 0.05, 20.0
            floor = eps * b * c * (a * d - b * c) / (a * c + b * d)
            for _ in range(20):
                x = rng.uniform(0, rho, size=2)
                prod = s @ cd.mobility_regularized(p, x, eps, rho)
                # symmetric product: closed-form smallest eigenvalue
                tr = prod[0, 0] + prod[1, 1]
                disc = math.sqrt((prod[0, 0] - prod[1, 1]) ** 2
                                 + 4.0 * prod[0, 1] * prod[1, 0])
                min_eig = 0.5 * (tr - disc)
                assert min_eig >= floor * (1.0 - 1e-12)


class TestPhiBounds:
    def test_reference(self, params2111):
        poly = cd.build_coefficients(params2111, 2)
        lo, hi = cd.phi_bounds(params2111, 2, (1.0, 1.0))
        assert (lo, hi) == (4.0, 9.0)
        assert lo <= cd.eval_phi(poly, (1.0, 1.0)) <= hi

    def test_zero_point(self, params2111):
        assert cd.phi_bounds(params2111, 3, (0.0, 0.0)) == (0.0, 0.0)

    def test_sandwich_random(self):
        rng = np.random.default_rng(18)
        for p in random_params(rng, 5):
            X = rng.uniform(0, 10, size=(2, 10000))
            for n in range(2, 13):
                poly = cd.build_coefficients(p, n)
                val = cd.eval_phi(poly, X)
                lo, hi = cd.phi_bounds(p, n, X)
                slack = 1e-12 * np.maximum(hi, 1.0)
                assert np.all(val >= lo - slack)
                assert np.all(val <= hi + slack)


class TestDeterminantIdentities:
    def test_expansion_coefficient_matches_direct_difference(self):
        rng = np.random.default_rng(19)
        for p in random_params(rng, 10):
            for n in (2, 3, 5, 8, 12):
                poly = cd.build_coefficients(p, n)
                co = poly.coeffs
                for j in range(n - 1):
                    for k in range(n - 1):
                        pos = (j + 2) * (n - k) * co[j + 2] * co[k]
                        direct = pos - (n - j - 1) * (k + 1) * co[j + 1] * co[k + 1]
                        closed = cd.det_expansion_coefficient(p, poly, j, k)
                        assert abs(direct - closed) <= 1e-12 * pos

    def test_expansion_antisymmetry(self):
        # A[k-1, j+1] == -A[j, k]
        rng = np.random.default_rng(20)
        for p in random_params(rng, 5):
            n = 9
            poly = cd.build_coefficients(p, n)
            for j in range(n - 2):
                for k in range(1, n - 1):
                    lhs = cd.det_expansion_coefficient(p, poly, k - 1, j + 1)
                    rhs = -cd.det_expansion_coefficient(p, poly, j, k)
                    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-300)

    def test_expansion_equals_determinant(self):
        rng = np.random.default_rng(21)
        for p in random_params(rng, 8):
            for n in (2, 4, 6, 9):
                poly = cd.build_coefficients(p, n)
                X = rng.uniform(0.0, 10.0, size=(2, 100))
                h = cd.hessian_phi(poly, X)
                det = h[0, 0] * h[1, 1] - h[0, 1] * h[1, 0]
                expansion = cd.hessian_det_expansion(p, poly, X)
                scale = np.abs(h).max(axis=(0, 1)) ** 2
                assert np.all(np.abs(det - expansion) <= 1e-9 * np.maximum(scale, 1e-300))

    def test_determinant_lower_bound(self):
        rng = np.random.default_rng(22)
        for p in random_params(rng, 8):
            for n in (2, 3, 5, 10):
                poly = cd.build_coefficients(p, n)
                X = rng.uniform(0.0, 10.0, size=(2, 2000))
                h = cd.hessian_phi(poly, X)
                det = h[0, 0] * h[1, 1] - h[0, 1] * h[1, 0]
                bound = cd.hessian_det_lower_bound(p, poly, X)
                scale = np.abs(h).max(axis=(0, 1)) ** 2
                assert np.all(det >= bound * (1 - 1e-10) - 1e-12 * scale)

    def test_index_range_is_enforced(self, params2111):
        poly = cd.build_coefficients(params2111, 4)
        with pytest.raises(ValueError):
            cd.det_expansion_coefficient(params2111, poly, 3, 0)
        with pytest.raises(ValueError):
            cd.det_expansion_coefficient(params2111, poly, 0, -1)


class TestConcurrency:
    def test_pure_operations_are_thread_safe(self, params2111):
        # all constructions are pure functions of their inputs
        from concurrent.futures import ThreadPoolExecutor

        def work(seed):
            rng = np.random.default_rng(seed)
            poly = cd.build_coefficients(params2111, 8)
            x = rng.uniform(0, 5, size=(2, 100))
            return (cd.eval_phi(poly, x).sum()
                    + cd.eval_phi1(params2111, x).sum()
                    + cd.hessian_phi(poly, x).sum())

        expected = [work(s) for s in range(16)]
        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(work, range(16)))
        assert results == expected


class TestSnMatrix:
    def test_symmetry(self):
        rng = np.random.default_rng(23)
        for p in random_params(rng, 10):
            X = rng.uniform(0.0, 10.0, size=(2, 500))
            for n in range(2, 11):
                poly = cd.build_coefficients(p, n)
                s = cd.sn_matrix(poly, p, X)
                scale = np.abs(s).max(axis=(0, 1))
                assert np.all(np.abs(s[0, 1] - s[1, 0])
                              <= 1e-12 * np.maximum(scale, 1e-300))

    def test_positive_definite_on_open_quadrant(self):
        rng = np.random.default_rng(24)
        for p in random_params(rng, 10):
            X = rng.uniform(1e-3, 10.0, size=(2, 500))
            for n in range(2, 11):
                poly = cd.build_coefficients(p, n)
                s = cd.sn_matrix(poly, p, X)
                tr = s[0, 0] + s[1, 1]
                det = s[0, 0] * s[1, 1] - s[0, 1] * s[1, 0]
                assert np.all(tr > 0.0)
                assert np.all(det > 0.0)
