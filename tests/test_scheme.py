import math

import numpy as np
import pytest
import scipy.sparse
import scipy.sparse.linalg

import crossdiff as cd
from crossdiff import scheme


TOL = 1e-12


def _opts(**kw):
    kw.setdefault("tol", TOL)
    return cd.SolverOptions(**kw)


class TestStepBasics:
    @pytest.mark.parametrize("method", ["picard", "newton"])
    def test_constant_state_is_fixed_point(self, params2111, method):
        grid = cd.Grid1D(16, 1.0)
        st = cd.State.constant(grid, 0.7, 2.3)
        new, rep = cd.step(st, 5.0, params2111, _opts(method=method))
        assert rep.iterations == 0
        np.testing.assert_array_equal(new.f, st.f)
        np.testing.assert_array_equal(new.g, st.g)

    def test_residual_contract(self, params2111, cosine_state):
        st = cosine_state(cells=32, amp=0.1)
        opts = _opts()
        new, rep = cd.step(st, 1e-3, params2111, opts)
        rf, rg = cd.step_residual(new, st, 1e-3, params2111, opts)
        res = max(np.abs(rf).max(), np.abs(rg).max())
        assert res <= opts.tol
        assert rep.residual == pytest.approx(res, rel=1e-6, abs=1e-15)

    def test_mass_conservation_and_entropy_decay(self, params2111, cosine_state):
        st = cosine_state(cells=32, amp=0.1)
        new, rep = cd.step(st, 1e-3, params2111, _opts())
        m0 = st.masses()
        assert abs(rep.masses[0] - m0[0]) <= 1e-10
        assert abs(rep.masses[1] - m0[1]) <= 1e-10
        e2_before = cd.entropy_trace(st, params2111, 2)[1]
        assert rep.entropies[1] <= e2_before * (1 + 1e-9)
        assert new.min_value() >= -1e-12

    def test_degenerate_component_stays_zero(self, params2111):
        grid = cd.Grid1D(32, 1.0)
        x = grid.centers()
        st = cd.State(grid, 1.0 + 0.3 * np.cos(np.pi * x), np.zeros(32))
        f_initial = st.f.copy()
        for _ in range(20):
            st, _ = cd.step(st, 1e-3, params2111, _opts())
        assert np.abs(st.g).max() <= 1e-14
        assert np.abs(st.f - f_initial).max() > 1e-5  # f actually evolved

    def test_degenerate_component_stays_zero_symmetric(self, params2111):
        grid = cd.Grid1D(32, 1.0)
        x = grid.centers()
        st = cd.State(grid, np.zeros(32), 1.0 + 0.3 * np.cos(np.pi * x))
        for _ in range(20):
            st, _ = cd.step(st, 1e-3, params2111, _opts())
        assert np.abs(st.f).max() <= 1e-14

    def test_invalid_inputs(self, params2111):
        grid = cd.Grid1D(8, 1.0)
        st = cd.State.constant(grid, 1.0, 1.0)
        with pytest.raises(cd.InvalidInput):
            cd.step(st, 0.0, params2111, _opts())
        with pytest.raises(cd.InvalidInput):
            cd.step(st, -1e-3, params2111, _opts())
        bad = cd.State(grid, np.full(8, -1.0), np.ones(8))
        with pytest.raises(cd.InvalidInput):
            cd.step(bad, 1e-3, params2111, _opts())
        nan = cd.State(grid, np.full(8, np.nan), np.ones(8))
        with pytest.raises(cd.InvalidInput):
            cd.step(nan, 1e-3, params2111, _opts())

    def test_nonconvergence_raises(self, params2111, cosine_state):
        st = cosine_state(cells=32, amp=0.4)
        with pytest.raises(cd.NonConvergence) as err:
            cd.step(st, 10.0, params2111, _opts(max_iters=2, tol=1e-14))
        assert err.value.iterations == 2
        assert err.value.residual > 1e-14

    def test_arithmetic_face_option(self, params2111, cosine_state):
        st = cosine_state(cells=32, amp=0.2)
        new, rep = cd.step(st, 1e-3, params2111, _opts(mobility_face="arithmetic"))
        assert rep.residual <= TOL
        assert abs(rep.masses[0] - st.masses()[0]) <= 1e-10


class TestNewton:
    def test_matches_picard_1d(self, params2111, cosine_state):
        st = cosine_state(cells=48, amp=0.3)
        new_p, _ = cd.step(st, 1e-3, params2111, _opts(method="picard"))
        new_n, rep_n = cd.step(st, 1e-3, params2111, _opts(method="newton"))
        assert np.abs(new_p.f - new_n.f).max() <= 10 * TOL
        assert np.abs(new_p.g - new_n.g).max() <= 10 * TOL
        assert rep_n.iterations <= 6  # quadratic convergence away from degeneracy

    def test_matches_picard_random_small_problems(self, params2111):
        rng = np.random.default_rng(12)
        for _ in range(5):
            n = int(rng.integers(8, 24))
            grid = cd.Grid1D(n, 1.0)
            st = cd.State(grid, rng.uniform(0.2, 2.0, n), rng.uniform(0.2, 2.0, n))
            new_p, _ = cd.step(st, 5e-4, params2111, _opts(method="picard"))
            new_n, _ = cd.step(st, 5e-4, params2111, _opts(method="newton"))
            assert np.abs(new_p.f - new_n.f).max() <= 10 * TOL
            assert np.abs(new_p.g - new_n.g).max() <= 10 * TOL

    def test_matches_picard_regularized(self, params2111, cosine_state):
        st = cosine_state(cells=24, amp=0.3)
        new_p, _ = cd.step_regularized(st, 1e-3, params2111, 1e-2, 50.0,
                                       _opts(method="picard"))
        new_n, _ = cd.step_regularized(st, 1e-3, params2111, 1e-2, 50.0,
                                       _opts(method="newton"))
        assert np.abs(new_p.f - new_n.f).max() <= 10 * TOL
        assert np.abs(new_p.g - new_n.g).max() <= 10 * TOL


def _degenerate_2d_state(n=16):
    # f is a compactly supported cap: exactly zero on a patch at the corners
    grid = cd.Grid2D(n, 1.0)
    x, y = grid.centers()
    f = 1.5 * np.maximum(0.0, 1.0 - ((x - 0.5) ** 2 + (y - 0.5) ** 2) / 0.35**2)
    g = 1.0 + 0.3 * np.cos(np.pi * x) * np.cos(np.pi * y)
    assert np.any(f == 0.0)
    return cd.State(grid, f, g)


@pytest.fixture
def count_factorizations(monkeypatch):
    """Count sparse LU factorizations made by the solver (``spsolve``
    factors on every call, so it counts too)."""
    calls = []
    for name in ("splu", "spsolve"):
        def counted(*args, _solver=getattr(scipy.sparse.linalg, name), **kwargs):
            calls.append(1)
            return _solver(*args, **kwargs)
        monkeypatch.setattr(scipy.sparse.linalg, name, counted)
    return calls


class TestChordNewton:
    TAU = 1e-2

    def test_reuses_factorization_and_matches_fresh_jacobian(
            self, params2111, count_factorizations, monkeypatch):
        st = _degenerate_2d_state()
        chord, rep_c = cd.step(st, self.TAU, params2111, _opts(method="newton"))
        assert rep_c.residual <= TOL
        # fewer factorizations than updates, and both branches ran: updates
        # with the kept factors accepted, and at least one rejected and
        # followed by a refactorization
        assert 1 < len(count_factorizations) < rep_c.iterations
        count_factorizations.clear()
        monkeypatch.setattr(scheme, "CHORD_CONTRACTION", 0.0)
        fresh, rep_f = cd.step(st, self.TAU, params2111, _opts(method="newton"))
        assert len(count_factorizations) == rep_f.iterations
        assert np.abs(chord.f - fresh.f).max() <= 10 * TOL
        assert np.abs(chord.g - fresh.g).max() <= 10 * TOL

    def test_single_iteration_raises(self, params2111):
        st = _degenerate_2d_state()
        with pytest.raises(cd.NonConvergence) as err:
            cd.step(st, self.TAU, params2111, _opts(method="newton", max_iters=1))
        assert err.value.iterations == 1
        assert err.value.residual > TOL


class TestSuperLUOrdering:
    def test_newton_factorizations_reduce_fill(self, params2111, monkeypatch):
        factored = []
        splu = scipy.sparse.linalg.splu

        def capture(A, *args, **kwargs):
            lu = splu(A, *args, **kwargs)
            factored.append((A, lu))
            return lu

        monkeypatch.setattr(scipy.sparse.linalg, "splu", capture)
        cd.step(_degenerate_2d_state(32), TestChordNewton.TAU, params2111,
                _opts(method="newton"))
        assert factored
        for A, lu in factored:
            colamd = splu(A, permc_spec="COLAMD")
            assert lu.L.nnz + lu.U.nnz <= 0.75 * (colamd.L.nnz + colamd.U.nnz)

    def test_picard_solves_reduce_fill(self, monkeypatch):
        solved = []
        spsolve = scipy.sparse.linalg.spsolve

        def capture(A, b, *args, **kwargs):
            solved.append((A.tocsc(), kwargs.get("permc_spec", "COLAMD")))
            return spsolve(A, b, *args, **kwargs)

        monkeypatch.setattr(scipy.sparse.linalg, "spsolve", capture)
        grid = cd.Grid2D(32, 1.0)
        x, y = grid.centers()
        st = cd.State(grid, 1.0 + 0.3 * np.cos(np.pi * x) * np.cos(np.pi * y),
                      1.0 + 0.2 * np.cos(np.pi * x))
        cd.step(st, 1e-3, cd.Params(2.0, 1.0, 1.0, 1.0), _opts(method="picard"))
        assert solved
        # the Picard matrices share one pattern, so the first two (f and g
        # of the first sweep) stand for all of them
        for A, order in solved[:2]:
            lu = scipy.sparse.linalg.splu(A, permc_spec=order)
            colamd = scipy.sparse.linalg.splu(A, permc_spec="COLAMD")
            assert lu.L.nnz + lu.U.nnz <= 0.75 * (colamd.L.nnz + colamd.U.nnz)


def _monotone_state(grid):
    # strictly positive and increasing along every axis, so with positive
    # (a, b, c, d) both pressure gradients are positive on every face: the
    # upwind choice and the positive-part cut are away from their kinks
    if grid.ndim == 1:
        x = grid.centers()
        f, g = 1.0 + x + 0.2 * x**2, 0.5 + 0.7 * x
    else:
        x, y = grid.centers()
        f, g = 1.0 + x + 0.5 * y + 0.2 * x * y, 0.5 + 0.4 * x + 0.8 * y
    return cd.State(grid, f, g)


class TestJacobian:
    TAU = 1e-2

    @pytest.mark.parametrize("grid", [cd.Grid1D(8, 1.0), cd.Grid2D(5, 1.0)],
                             ids=["1d", "2d"])
    @pytest.mark.parametrize("face", ["upwind", "arithmetic"])
    @pytest.mark.parametrize("regularization", [None, (1e-1, 10.0)],
                             ids=["plain", "regularized"])
    def test_matches_central_differences(self, params2111, grid, face, regularization):
        state = _monotone_state(grid)
        opts = _opts(mobility_face=face, regularization=regularization)
        eps, rho = regularization or (0.0, math.inf)
        P = grid.num_points
        z = np.concatenate([state.f.ravel(), state.g.ravel()])

        def residual(zz):
            st = cd.State(grid, zz[:P].reshape(grid.shape), zz[P:].reshape(grid.shape))
            rf, rg = scheme.step_residual(st, state, self.TAU, params2111, opts)
            return np.concatenate([rf.ravel(), rg.ravel()])

        h = 1e-6
        fd = np.empty((2 * P, 2 * P))
        for j in range(2 * P):
            e = np.zeros(2 * P)
            e[j] = h
            fd[:, j] = (residual(z + e) - residual(z - e)) / (2 * h)
        J = scheme._jacobian(z[:P], z[P:], grid, params2111, self.TAU, eps, rho,
                             regularization is not None, face == "upwind")
        assert np.abs(J.toarray() - fd).max() <= 1e-7 * np.abs(fd).max()


class TestStepRegularized:
    def test_rho_too_small(self, params2111):
        grid = cd.Grid1D(8, 1.0)
        st = cd.State.constant(grid, 3.0, 1.0)
        with pytest.raises(cd.RhoTooSmall):
            cd.step_regularized(st, 1e-3, params2111, 1e-2, 2.0, _opts())

    def test_parameter_ranges(self, params2111):
        grid = cd.Grid1D(8, 1.0)
        st = cd.State.constant(grid, 0.5, 0.5)
        for eps in (0.0, 1.0, -0.5):
            with pytest.raises(cd.InvalidInput):
                cd.step_regularized(st, 1e-3, params2111, eps, 10.0, _opts())
        with pytest.raises(cd.InvalidInput):
            cd.step_regularized(st, 1e-3, params2111, 0.1, 1.0, _opts())

    def test_constant_state_unchanged(self, params2111):
        grid = cd.Grid1D(16, 1.0)
        st = cd.State.constant(grid, 1.2, 0.8)  # below rho - 1
        new, rep = cd.step_regularized(st, 1e-2, params2111, 1e-2, 10.0, _opts())
        np.testing.assert_array_equal(new.f, st.f)
        np.testing.assert_array_equal(new.g, st.g)

    def test_output_capped_and_nonnegative(self, params2111, cosine_state):
        st = cosine_state(cells=32, amp=0.5)
        rho = 3.0
        new, _ = cd.step_regularized(st, 1e-3, params2111, 1e-2, rho, _opts())
        assert new.max_value() <= rho + 1e-10
        assert new.min_value() >= -1e-12

    def test_converges_to_exact_step_in_eps(self, params2111, cosine_state):
        st = cosine_state(cells=64, amp=0.5)
        opts = _opts()
        exact, _ = cd.step(st, 1e-3, params2111, opts)
        prev_diff = np.inf
        for eps in (1e-2, 1e-3, 1e-4):
            approx, _ = cd.step_regularized(st, 1e-3, params2111, eps, 1e3, opts)
            diff = max(np.abs(approx.f - exact.f).max(),
                       np.abs(approx.g - exact.g).max())
            assert diff <= 10 * eps
            assert diff < prev_diff
            prev_diff = diff


class TestRun:
    def test_single_step_when_t_final_equals_tau(self, params2111, cosine_state):
        st = cosine_state(cells=16, amp=0.1)
        traj = cd.run(st, 1e-3, 1e-3, params2111, _opts())
        assert len(traj) == 2  # initial entry + one step
        assert traj[0][0] == 0.0
        assert traj[1][0] == pytest.approx(1e-3)

    def test_entropy_vector_nonincreasing(self, params2111, cosine_state):
        st = cosine_state(cells=32, amp=0.4)
        traj = cd.run(st, 1e-3, 0.05, params2111, _opts())
        E = np.array([rep.entropies for _, _, rep in traj])
        e0 = E[0]
        for n in range(6):
            assert np.all(np.diff(E[:, n]) <= 1e-9 * e0[n])

    def test_observers_called_per_step(self, params2111, cosine_state):
        st = cosine_state(cells=16, amp=0.1)
        seen = []
        cd.run(st, 1e-3, 5e-3, params2111, _opts(),
               observers=[lambda l, t, s, r: seen.append((l, t))])
        assert [l for l, _ in seen] == [1, 2, 3, 4, 5]

    def test_nonconvergence_carries_partial_trajectory(self, params2111, cosine_state):
        st = cosine_state(cells=32, amp=0.5)
        with pytest.raises(cd.NonConvergence) as err:
            cd.run(st, 5.0, 50.0, params2111, _opts(max_iters=2, tol=1e-14))
        assert err.value.step_index == 1
        assert len(err.value.partial) == 1  # just the initial entry

    def test_regularized_run_completes(self, params2111, cosine_state):
        st = cosine_state(cells=32, amp=0.4)
        traj = cd.run(st, 1e-3, 0.01, params2111,
                      _opts(regularization=(1e-3, 1e3)))
        assert len(traj) == 11
        final = traj[-1][1]
        assert final.max_value() <= 1e3 + 1e-10

    def test_invalid_t_final(self, params2111, cosine_state):
        with pytest.raises(cd.InvalidInput):
            cd.run(cosine_state(), 1e-3, 0.0, params2111, _opts())

    def test_long_time_limit_is_constant_state(self, params2111, cosine_state):
        st = cosine_state(cells=32, amp=0.3)
        traj = cd.run(st, 1e-3, 4.0, params2111, _opts())
        final = traj[-1][1]
        mean_f = st.masses()[0] / st.grid.measure
        mean_g = st.masses()[1] / st.grid.measure
        assert np.abs(final.f - mean_f).max() <= 1e-5
        assert np.abs(final.g - mean_g).max() <= 1e-5


class TestClamping:
    def test_clamp_reports_zero_when_nothing_clamped(self, params2111, cosine_state):
        st = cosine_state(cells=16, amp=0.2)
        new, rep = cd.step(st, 1e-3, params2111, _opts(clamp_negative=True))
        assert rep.clamped_mass == (0.0, 0.0)
        assert new.min_value() >= 0.0


class TestPicardRelaxationRetry:
    def test_limit_cycle_is_broken_by_under_relaxation(self):
        # strongly coupled degenerate patches make the plain frozen-coefficient
        # iteration limit-cycle; the under-relaxed retry converges
        from crossdiff import kernels
        p = cd.Params(1.55, 0.96, 2.31, 1.81)
        rng = np.random.default_rng(0)
        n = 24
        f = np.where(rng.uniform(0, 1, n) > 0.4, 1.5, 0.0)
        g = np.where(rng.uniform(0, 1, n) > 0.4, 1.2, 0.0)
        grid = cd.Grid1D(n, 1.0)
        st = cd.State(grid, f, g)
        args = (f, g, p.a, p.b, p.c, p.d, 2e-3, grid.dx, 0.0, np.inf, False,
                True, 1e-11, 400)
        *_, res_plain, ok_plain = kernels.picard_1d(*args, 1.0)
        assert not ok_plain and res_plain > 0.1  # genuine cycle, not slowness
        new, rep = cd.step(st, 2e-3, p, _opts(tol=1e-11, max_iters=400))
        rf, rg = cd.step_residual(new, st, 2e-3, p, _opts(tol=1e-11))
        assert max(np.abs(rf).max(), np.abs(rg).max()) <= 1e-11
        assert new.min_value() >= -1e-12

    def test_relaxed_solution_matches_newton(self):
        p = cd.Params(1.55, 0.96, 2.31, 1.81)
        rng = np.random.default_rng(0)
        n = 24
        grid = cd.Grid1D(n, 1.0)
        st = cd.State(grid, np.where(rng.uniform(0, 1, n) > 0.4, 1.5, 0.0),
                      np.where(rng.uniform(0, 1, n) > 0.4, 1.2, 0.0))
        new_p, _ = cd.step(st, 2e-3, p, _opts(tol=1e-11, max_iters=400))
        new_n, _ = cd.step(st, 2e-3, p, _opts(method="newton", tol=1e-11))
        assert np.abs(new_p.f - new_n.f).max() <= 1e-9
        assert np.abs(new_p.g - new_n.g).max() <= 1e-9


class TestArithmeticFaceNegativity:
    """Arithmetic face averaging carries no positivity guarantee; the solver
    must either fail loudly or clamp with mass accounting."""

    def _front_state(self):
        grid = cd.Grid1D(64, 1.0)
        x = grid.centers()
        return cd.State(grid, np.where(x < 0.3, 2.0, 0.0),
                        np.where(x > 0.7, 2.0, 0.0))

    def test_unclamped_violation_is_loud(self, params2111):
        state = self._front_state()
        with pytest.raises(cd.InvariantViolation) as err:
            for _ in range(50):
                state, _ = cd.step(state, 2e-3, params2111,
                                   _opts(mobility_face="arithmetic"))
        assert err.value.inequality == "nonnegativity"

    def test_clamping_restores_positivity_and_accounts_mass(self, params2111):
        state = self._front_state()
        clamped_total = 0.0
        for _ in range(50):
            state, rep = cd.step(state, 2e-3, params2111,
                                 _opts(mobility_face="arithmetic",
                                       clamp_negative=True))
            clamped_total += sum(rep.clamped_mass)
            assert state.min_value() >= 0.0
        assert clamped_total > 0.0

    def test_upwind_stays_nonnegative_on_same_data(self, params2111):
        state = self._front_state()
        for _ in range(50):
            state, _ = cd.step(state, 2e-3, params2111, _opts())
            assert state.min_value() >= -1e-12


class TestDegenerateFront:
    def test_compact_support_front_stays_nonnegative(self, params2111):
        # half the domain starts at exactly zero; the support spreads while
        # mass is conserved and no negative values appear
        grid = cd.Grid1D(64, 1.0)
        x = grid.centers()
        f = np.where(x < 0.5, 1.0, 0.0)
        st = cd.State(grid, f, np.full(64, 0.5))
        m0 = st.masses()
        support0 = int(np.count_nonzero(st.f > 1e-12))
        for _ in range(100):
            st, rep = cd.step(st, 1e-3, params2111, _opts())
        assert st.min_value() >= -1e-12
        assert abs(st.masses()[0] - m0[0]) <= 1e-9
        assert abs(st.masses()[1] - m0[1]) <= 1e-9
        assert int(np.count_nonzero(st.f > 1e-12)) > support0

    def test_cutoff_band_is_handled(self, params2111):
        # state values inside (rho-1, rho), where the truncation profile
        # decreases, still give a convergent capped step
        grid = cd.Grid1D(32, 1.0)
        x = grid.centers()
        rho = 3.0
        st = cd.State(grid, 2.2 + 0.6 * np.cos(np.pi * x), np.ones(32))
        assert st.max_value() > rho - 1.0  # the declining branch is active
        for method in ("picard", "newton"):
            new, rep = cd.step_regularized(st, 1e-3, params2111, 1e-2, rho,
                                           _opts(method=method))
            assert rep.residual <= TOL
            assert new.max_value() <= rho + 1e-10
            assert new.min_value() >= -1e-12


class TestTwoDimensional:
    def test_y_independent_data_matches_1d(self, params2111):
        n = 16
        grid1 = cd.Grid1D(n, 1.0)
        grid2 = cd.Grid2D(n, 1.0)
        x1 = grid1.centers()
        f1 = 1.0 + 0.3 * np.cos(np.pi * x1)
        st1 = cd.State(grid1, f1, np.ones(n))
        st2 = cd.State(grid2, np.tile(f1, (n, 1)), np.ones((n, n)))
        new1, _ = cd.step(st1, 1e-3, params2111, _opts())
        new2, rep2 = cd.step(st2, 1e-3, params2111, _opts())
        for row in range(n):
            np.testing.assert_allclose(new2.f[row], new1.f, rtol=0, atol=5e-11)
            np.testing.assert_allclose(new2.g[row], new1.g, rtol=0, atol=5e-11)

    def test_2d_mass_conservation_and_decay(self, params2111):
        grid = cd.Grid2D(12, 1.0)
        x, y = grid.centers()
        st = cd.State(grid, 1.0 + 0.25 * np.cos(np.pi * x) * np.cos(np.pi * y),
                      np.ones(grid.shape))
        traj = cd.run(st, 1e-3, 5e-3, params2111, _opts(tol=1e-11))
        masses = np.array([rep.masses for _, _, rep in traj])
        assert np.abs(np.diff(masses, axis=0)).max() <= 1e-10
        E = np.array([rep.entropies for _, _, rep in traj])
        assert np.all(np.diff(E[:, 1]) <= 1e-9 * E[0, 1])

    def test_2d_newton_matches_picard(self, params2111):
        grid = cd.Grid2D(10, 1.0)
        x, y = grid.centers()
        st = cd.State(grid, 1.0 + 0.2 * np.cos(np.pi * x), 1.0 + 0.1 * np.cos(np.pi * y))
        new_p, _ = cd.step(st, 1e-3, params2111, _opts(method="picard", tol=1e-11))
        new_n, _ = cd.step(st, 1e-3, params2111, _opts(method="newton", tol=1e-11))
        assert np.abs(new_p.f - new_n.f).max() <= 1e-10


class TestRandomizedContract:
    def test_step_contract_over_random_problems(self):
        # broad seeded family: rough, degenerate, and front-like states with
        # anisotropic admissible coefficients; every successful solve must
        # satisfy the full step contract, and non-convergence stays rare
        rng = np.random.default_rng(411)
        nonconv = 0
        solved = 0
        cases = 0
        while cases < 150:
            a, b, c, d = np.exp(rng.uniform(-1.2, 1.2, 4))
            if a * d <= 1.02 * b * c:
                continue
            cases += 1
            p = cd.Params(a, b, c, d)
            n = int(rng.integers(2, 97))
            grid = cd.Grid1D(n, float(rng.uniform(0.3, 3.0)))
            x = grid.centers()
            kind = rng.integers(0, 3)
            if kind == 0:
                f = rng.uniform(0.2, 2) + rng.uniform(0, 0.5) * np.cos(np.pi * x / grid.length)
                g = rng.uniform(0, 2, n)
            elif kind == 1:
                f = np.where(rng.uniform(0, 1, n) > 0.4, rng.uniform(0.5, 2), 0.0)
                g = np.where(rng.uniform(0, 1, n) > 0.4, rng.uniform(0.5, 2), 0.0)
            else:
                f = np.where(x < grid.length * rng.uniform(0.2, 0.8),
                             rng.uniform(0.5, 3), 0.0)
                g = np.full(n, rng.uniform(0.0, 1.0))
            st = cd.State(grid, np.maximum(np.asarray(f, float), 0.0),
                          np.maximum(np.asarray(g, float), 0.0))
            tau = float(10 ** rng.uniform(-4.5, -2))
            opts = _opts(tol=1e-11, max_iters=400)
            m0 = st.masses()
            try:
                new, rep = cd.step(st, tau, p, opts)
            except cd.NonConvergence:
                nonconv += 1
                continue
            solved += 1
            rf, rg = cd.step_residual(new, st, tau, p, opts)
            assert max(np.abs(rf).max(), np.abs(rg).max()) <= 1.001 * opts.tol
            assert abs(rep.masses[0] - m0[0]) <= 10 * opts.tol * grid.measure
            assert abs(rep.masses[1] - m0[1]) <= 10 * opts.tol * grid.measure
            assert new.min_value() >= -1e-12
            E0 = cd.entropy_trace(st, p, 4)
            E1 = cd.entropy_trace(new, p, 4)
            assert np.all(E1 <= E0 * (1 + 1e-9) + 1e-13)
        assert solved >= 140
        assert nonconv <= 5


class TestErrors:
    def test_invariant_violation_names_inequality(self):
        err = cd.InvariantViolation("entropy monotonicity E_3", 7, "rose")
        assert "entropy monotonicity E_3" in str(err)
        assert "step 7" in str(err)

    def test_messages_follow_step_index(self):
        # run fills in the step after the step raised; the message follows
        nonconv = cd.NonConvergence(3, 1.5e-3)
        assert " at step" not in str(nonconv)
        nonconv.step_index = 12
        assert "did not converge at step 12" in str(nonconv)
        assert "1.500e-03 after 3 iterations" in str(nonconv)
        violation = cd.InvariantViolation("sup-norm bound", None, "too large")
        assert " at step" not in str(violation)
        violation.step_index = 4
        assert str(violation) == "violated inequality [sup-norm bound] at step 4: too large"

    def test_run_reports_failing_step(self, params2111, cosine_state):
        st = cosine_state(cells=16, amp=0.4)
        with pytest.raises(cd.NonConvergence) as err:
            cd.run(st, 1e-3, 3e-3, params2111,
                   cd.SolverOptions(method="newton", max_iters=1, tol=1e-14))
        assert err.value.step_index == 1
        assert "did not converge at step 1:" in str(err.value)

    def test_solver_options_validation(self):
        with pytest.raises(ValueError):
            cd.SolverOptions(method="bisection")
        with pytest.raises(ValueError):
            cd.SolverOptions(tol=0.0)
        with pytest.raises(ValueError):
            cd.SolverOptions(max_iters=0)
        with pytest.raises(ValueError):
            cd.SolverOptions(regularization=(0.0, 10.0))
        with pytest.raises(ValueError):
            cd.SolverOptions(regularization=(0.1, 0.5))
        with pytest.raises(ValueError):
            cd.SolverOptions(mobility_face="geometric")
