import math

import numpy as np
import pytest
import scipy.sparse
import scipy.sparse.linalg

import crossdiff as cd
from crossdiff import fvops, scheme
from test_kernels import _reference_picard


TOL = 1e-12


def _opts(**kw):
    kw.setdefault("tol", TOL)
    return cd.SolverOptions(**kw)


class TestStepBasics:
    def test_constant_state_is_fixed_point(self, params2111):
        grid = cd.Grid1D(16, 1.0)
        st = cd.State.constant(grid, 0.7, 2.3)
        new, rep = cd.step(st, 5.0, params2111, _opts())
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


def _picard(st, tau, params, tol=TOL, max_iters=200, omega=1.0,
            eps=0.0, rho=math.inf, reg=False):
    """Solution of the implicit step by the dense reference Picard iteration."""
    f, g, _, _, ok = _reference_picard(st.f, st.g, tau, st.grid.dx, eps, rho, reg,
                                       True, tol, max_iters, omega,
                                       coef=params.as_tuple())
    assert ok
    return f, g


class TestNewton:
    """Newton against the frozen-coefficient (Picard) fixed point of the
    same step, computed by the dense reference iteration of the tests."""

    def test_matches_picard_1d(self, params2111, cosine_state):
        st = cosine_state(cells=48, amp=0.3)
        f_p, g_p = _picard(st, 1e-3, params2111)
        new_n, rep_n = cd.step(st, 1e-3, params2111, _opts())
        assert np.abs(f_p - new_n.f).max() <= 10 * TOL
        assert np.abs(g_p - new_n.g).max() <= 10 * TOL
        assert rep_n.iterations <= 6  # quadratic convergence away from degeneracy

    def test_matches_picard_random_small_problems(self, params2111):
        rng = np.random.default_rng(12)
        for _ in range(5):
            n = int(rng.integers(8, 24))
            grid = cd.Grid1D(n, 1.0)
            st = cd.State(grid, rng.uniform(0.2, 2.0, n), rng.uniform(0.2, 2.0, n))
            f_p, g_p = _picard(st, 5e-4, params2111)
            new_n, _ = cd.step(st, 5e-4, params2111, _opts())
            assert np.abs(f_p - new_n.f).max() <= 10 * TOL
            assert np.abs(g_p - new_n.g).max() <= 10 * TOL

    def test_matches_picard_regularized(self, params2111, cosine_state):
        st = cosine_state(cells=24, amp=0.3)
        f_p, g_p = _picard(st, 1e-3, params2111, eps=1e-2, rho=50.0, reg=True)
        new_n, _ = cd.step_regularized(st, 1e-3, params2111, 1e-2, 50.0, _opts())
        assert np.abs(f_p - new_n.f).max() <= 10 * TOL
        assert np.abs(g_p - new_n.g).max() <= 10 * TOL


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
    """Count the Jacobian LU factorizations made by the solver: calls of
    ``scheme._factor``, which builds the band factors in 1D and SuperLU's
    in 2D."""
    calls = []
    factor = scheme._factor

    def counted(*args):
        calls.append(1)
        return factor(*args)

    monkeypatch.setattr(scheme, "_factor", counted)
    return calls


class TestChordNewton:
    TAU = 1e-2

    def test_reuses_factorization_and_matches_fresh_jacobian(
            self, params2111, count_factorizations, monkeypatch):
        st = _degenerate_2d_state()
        chord, rep_c = cd.step(st, self.TAU, params2111, _opts())
        assert rep_c.residual <= TOL
        # fewer factorizations than updates, and both branches ran: updates
        # with the kept factors accepted, and at least one rejected and
        # followed by a refactorization
        assert 1 < len(count_factorizations) < rep_c.iterations
        count_factorizations.clear()
        monkeypatch.setattr(scheme, "CHORD_CONTRACTION", 0.0)
        fresh, rep_f = cd.step(st, self.TAU, params2111, _opts())
        assert len(count_factorizations) == rep_f.iterations
        assert np.abs(chord.f - fresh.f).max() <= 10 * TOL
        assert np.abs(chord.g - fresh.g).max() <= 10 * TOL

    def test_single_iteration_raises(self, params2111):
        st = _degenerate_2d_state()
        with pytest.raises(cd.NonConvergence) as err:
            cd.step(st, self.TAU, params2111, _opts(max_iters=1))
        assert err.value.iterations == 1
        assert err.value.residual > TOL

    def test_upwind_iterates_settle_nonnegative(self):
        # a random 2D case on which the iteration used to stop at a residual
        # below tol with min f = -3.9e-12, below -NONNEG_TOL, and the step
        # raised InvariantViolation; it now iterates until no component is
        # below -NONNEG_TOL
        rng = np.random.default_rng(5)
        while True:
            a, b, c, d = np.exp(rng.uniform(-1.2, 1.2, 4))
            if a * d > b * c:
                break
        n = int(rng.integers(4, 17))
        grid = cd.Grid2D(n, 1.0)
        x, y = grid.centers()
        f = rng.uniform(0.2, 2) + 0.4 * np.cos(np.pi * x) * np.cos(np.pi * y)
        g = rng.uniform(0, 2, (n, n))
        tau = float(10 ** rng.uniform(-4.5, -1.5))
        st = cd.State(grid, np.maximum(f, 0.0), g)
        assert n == 15 and tau == pytest.approx(0.02236, rel=1e-3)
        opts = _opts(tol=1e-11)
        new, rep = cd.step(st, tau, cd.Params(a, b, c, d), opts)
        assert rep.residual <= opts.tol
        assert new.min_value() >= -scheme.NONNEG_TOL
        for m_new, m_old in zip(rep.masses, st.masses()):
            assert abs(m_new - m_old) <= 10 * opts.tol * grid.measure


class TestCarriedFactors:
    """``run`` carries the Newton LU factors from step to step."""

    def _final(self, st, params, opts, t_final=0.2):
        entries = list(cd.run(st, 1e-3, t_final, params, opts))
        return entries[-1][1], [rep for _, _, rep in entries[1:]]

    def test_run_reuses_factors_and_matches_refactoring_every_step(
            self, params2111, cosine_state, count_factorizations, monkeypatch):
        st = cosine_state(cells=64, amp=0.5)
        carried, reports = self._final(st, params2111, _opts())
        assert len(reports) == 200
        assert len(count_factorizations) <= 5
        assert sum(rep.factorizations for rep in reports) == len(count_factorizations)
        count_factorizations.clear()
        monkeypatch.setattr(scheme, "CHORD_CONTRACTION", 0.0)
        fresh, reports = self._final(st, params2111, _opts())
        assert len(count_factorizations) == sum(rep.iterations for rep in reports)
        assert np.abs(carried.f - fresh.f).max() <= 1e-9
        assert np.abs(carried.g - fresh.g).max() <= 1e-9

    def test_regularized_run_reuses_factors(self, params2111, cosine_state,
                                            count_factorizations):
        st = cosine_state(cells=32, amp=0.4)
        _, reports = self._final(st, params2111, _opts(regularization=(1e-3, 1e3)),
                                 t_final=0.05)
        assert len(count_factorizations) <= 5 < sum(rep.iterations for rep in reports)

    def test_extrapolated_start_matches_start_at_prev(self, params2111, cosine_state,
                                                      monkeypatch):
        st = cosine_state(cells=64, amp=0.5)
        extrapolated, reports_x = self._final(st, params2111, _opts())
        step = scheme.step
        monkeypatch.setattr(scheme, "step", lambda *args, start, **kw: step(*args, **kw))
        at_prev, reports_p = self._final(st, params2111, _opts())
        assert np.abs(extrapolated.f - at_prev.f).max() <= 1e-9
        assert np.abs(extrapolated.g - at_prev.g).max() <= 1e-9
        assert [rep.iterations for rep in reports_x] != [rep.iterations for rep in reports_p]
        # on this run the linear start took more updates than the start at
        # prev (1,257 against 1,225); the cubic start takes fewer
        assert sum(rep.iterations for rep in reports_x) < \
            sum(rep.iterations for rep in reports_p)
        assert sum(rep.factorizations for rep in reports_x) <= 5
        assert sum(rep.factorizations for rep in reports_p) <= 5

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_extrapolation_reproduces_polynomials_of_degree_k_minus_1(self, k):
        # states that are polynomials of degree k - 1 in the step index
        rng = np.random.default_rng(k)
        coef = rng.uniform(0.5, 2.0, (k, 2, 5))
        at = lambda l: sum(c * float(l) ** j for j, c in enumerate(coef))
        history = [cd.State(cd.Grid1D(5, 1.0), *at(l)) for l in range(k - 1, -1, -1)]
        start = scheme._extrapolate(history)
        np.testing.assert_allclose(start, at(k), rtol=1e-13)

    def test_extrapolation_is_clipped_at_zero(self):
        # a decreasing component whose extrapolation of every order is
        # negative, next to a constant one
        grid = cd.Grid1D(2, 1.0)
        history = [cd.State(grid, np.array([f, 1.0]), np.array([1.0, f]))
                   for f in (0.1, 0.6, 1.0, 1.3)]
        for k in (2, 3, 4):
            start = scheme._extrapolate(history[:k])
            np.testing.assert_array_equal(start, [[0.0, 1.0], [1.0, 0.0]])

    def test_start_order_ramps_up_with_the_history(self, params2111, cosine_state,
                                                   monkeypatch):
        seen = []
        step = scheme.step

        def recording(prev, *args, start, **kw):
            seen.append((np.stack((prev.f, prev.g)), start))
            return step(prev, *args, start=start, **kw)

        monkeypatch.setattr(scheme, "step", recording)
        st = cosine_state(cells=32, amp=0.4)
        self._final(st, params2111, _opts(), t_final=6e-3)
        u = [prev for prev, _ in seen]
        starts = [start for _, start in seen]
        assert starts[0] is None
        expected = [np.maximum(2 * u[1] - u[0], 0),
                    np.maximum(3 * u[2] - 3 * u[1] + u[0], 0)]
        expected += [np.maximum(4 * u[l] - 6 * u[l - 1] + 4 * u[l - 2] - u[l - 3], 0)
                     for l in range(3, 6)]
        for start, want in zip(starts[1:], expected, strict=True):
            assert start.tobytes() == want.tobytes()
        # each run starts a new history
        seen.clear()
        self._final(st, params2111, _opts(), t_final=2e-3)
        assert seen[0][1] is None

    def test_step_keeps_no_state_across_a_run(self, params2111, cosine_state):
        st = cosine_state(cells=32, amp=0.4)
        before, rep_before = cd.step(st, 1e-3, params2111, _opts())
        self._final(st, params2111, _opts(), t_final=0.02)
        after, rep_after = cd.step(st, 1e-3, params2111, _opts())
        np.testing.assert_array_equal(before.f, after.f)
        np.testing.assert_array_equal(before.g, after.g)
        assert (rep_before.iterations, rep_before.factorizations, rep_before.residual) == \
            (rep_after.iterations, rep_after.factorizations, rep_after.residual)
        assert rep_before.factorizations >= 1


class TestBandFactors:
    """1D Jacobians are factored as band matrices by LAPACK."""

    @pytest.mark.parametrize("face", ["upwind", "arithmetic"])
    @pytest.mark.parametrize("regularization", [None, (1e-1, 10.0)],
                             ids=["plain", "regularized"])
    def test_solves_random_jacobians_like_splu(self, params2111, face, regularization):
        rng = np.random.default_rng(7)
        eps, rho = regularization or (0.0, math.inf)
        reg, upwind = regularization is not None, face == "upwind"
        for n in (2, 3, 17, 64):
            grid = cd.Grid1D(n, 1.0)
            # random sign changes of the pressure gradients, zero components
            u = rng.uniform(0.0, 2.0, (2, n)) * (rng.uniform(size=(2, n)) > 0.2)
            terms = fvops.implicit_residual(u, u, params2111.as_tuple(), 1e-3,
                                            grid.dx, eps, rho, reg, upwind)[1]
            J = scheme._jacobian(u, terms, grid, params2111, 1e-3, eps, rho, reg, upwind)
            lu = scheme._factor(J, grid.ndim)
            assert isinstance(lu, scheme._BandLU)
            b = rng.normal(size=2 * n)
            x_ref = scipy.sparse.linalg.splu(J.tocsc()).solve(b)
            assert np.abs(lu.solve(b) - x_ref).max() <= 1e-12 * np.abs(x_ref).max()

    def test_singular_matrix_raises(self):
        J = scipy.sparse.coo_matrix(([1.0, 1.0, 1.0], ([0, 1, 2], [0, 1, 2])), shape=(4, 4))
        with pytest.raises(RuntimeError, match="dgbtrf info=4"):
            scheme._BandLU(J)


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
                _opts())
        assert factored
        for A, lu in factored:
            colamd = splu(A, permc_spec="COLAMD")
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
        reg, upwind = regularization is not None, face == "upwind"
        u = np.stack((state.f, state.g))
        terms = fvops.implicit_residual(u, u, params2111.as_tuple(), self.TAU,
                                        grid.dx, eps, rho, reg, upwind)[1]
        J = scheme._jacobian(u, terms, grid, params2111, self.TAU, eps, rho, reg, upwind)
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
        traj = list(cd.run(st, 1e-3, 1e-3, params2111, _opts()))
        assert len(traj) == 2  # initial entry + one step
        assert traj[0][0] == 0.0
        assert traj[1][0] == pytest.approx(1e-3)

    def test_entropy_vector_nonincreasing(self, params2111, cosine_state):
        st = cosine_state(cells=32, amp=0.4)
        traj = list(cd.run(st, 1e-3, 0.05, params2111, _opts()))
        E = np.array([rep.entropies for _, _, rep in traj])
        e0 = E[0]
        for n in range(6):
            assert np.all(np.diff(E[:, n]) <= 1e-9 * e0[n])

    def test_yields_step_times_in_order(self, params2111, cosine_state):
        st = cosine_state(cells=16, amp=0.1)
        times = [t for t, _, _ in cd.run(st, 1e-3, 5e-3, params2111, _opts())]
        assert times == [l * 1e-3 for l in range(6)]

    def test_nonconvergence_after_only_the_initial_entry(self, params2111, cosine_state):
        st = cosine_state(cells=32, amp=0.5)
        seen = []
        with pytest.raises(cd.NonConvergence) as err:
            for entry in cd.run(st, 5.0, 50.0, params2111, _opts(max_iters=2, tol=1e-14)):
                seen.append(entry)
        assert err.value.step_index == 1
        assert len(seen) == 1 and seen[0][0] == 0.0 and seen[0][1] is st

    def test_regularized_run_completes(self, params2111, cosine_state):
        st = cosine_state(cells=32, amp=0.4)
        traj = list(cd.run(st, 1e-3, 0.01, params2111,
                           _opts(regularization=(1e-3, 1e3))))
        assert len(traj) == 11
        final = traj[-1][1]
        assert final.max_value() <= 1e3 + 1e-10

    def test_invalid_t_final(self, params2111, cosine_state):
        with pytest.raises(cd.InvalidInput):
            cd.run(cosine_state(), 1e-3, 0.0, params2111, _opts())

    @pytest.mark.parametrize("n_max", [700, 1000])
    def test_rejects_n_max_with_non_finite_entropy(self, params2111, cosine_state, n_max):
        # E_558 of this state overflows; the degree-865 coefficients do too
        st = cosine_state(cells=16, amp=0.9)
        with pytest.raises(cd.InvalidInput, match="E_558 of the initial state"):
            cd.run(st, 1e-3, 2e-3, params2111, _opts(n_max=n_max))

    def test_long_time_limit_is_constant_state(self, params2111, cosine_state):
        st = cosine_state(cells=32, amp=0.3)
        traj = list(cd.run(st, 1e-3, 4.0, params2111, _opts()))
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


class TestLimitCycleData:
    """Strongly coupled degenerate patches on which the plain
    frozen-coefficient (Picard) iteration limit-cycles (residual 0.85 after
    400 sweeps of the reference iteration); under-relaxed by 1/2 it
    converges in 159 sweeps."""

    P = cd.Params(1.55, 0.96, 2.31, 1.81)
    TAU = 2e-3

    def _state(self):
        rng = np.random.default_rng(0)
        n = 24
        return cd.State(cd.Grid1D(n, 1.0),
                        np.where(rng.uniform(0, 1, n) > 0.4, 1.5, 0.0),
                        np.where(rng.uniform(0, 1, n) > 0.4, 1.2, 0.0))

    def test_newton_residual_and_nonnegativity(self):
        st = self._state()
        opts = _opts(tol=1e-11)
        new, rep = cd.step(st, self.TAU, self.P, opts)
        rf, rg = cd.step_residual(new, st, self.TAU, self.P, opts)
        assert max(np.abs(rf).max(), np.abs(rg).max()) <= 1e-11
        assert new.min_value() >= -1e-12

    def test_matches_relaxed_picard_reference(self):
        st = self._state()
        f_p, g_p = _picard(st, self.TAU, self.P, tol=1e-11, max_iters=400, omega=0.5)
        new_n, _ = cd.step(st, self.TAU, self.P, _opts(tol=1e-11))
        assert np.abs(f_p - new_n.f).max() <= 1e-9
        assert np.abs(g_p - new_n.g).max() <= 1e-9


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

    @pytest.mark.parametrize("cells, tol", [(256, 1e-7), (4096, 1e-9)])
    def test_zero_front_cap_is_solved_nonnegative(self, params2111, cells, tol):
        # f = max(1.5 (1 - 4x^2), 0) is zero on half the domain; with
        # frozen-coefficient (Picard) iteration the 256-cell step ended at
        # min f = -2.2e-12 and the 4096-cell step stalled at residual 1.16
        grid = cd.Grid1D(cells, 1.0)
        x = grid.centers()
        st = cd.State(grid, np.maximum(1.5 * (1.0 - 4.0 * x**2), 0.0),
                      1.0 + 0.3 * np.cos(np.pi * x))
        new, rep = cd.step(st, 1e-3, params2111, cd.SolverOptions(tol=tol))
        assert rep.residual <= tol
        assert new.min_value() >= -scheme.NONNEG_TOL
        for m_new, m_old in zip(rep.masses, st.masses()):
            assert abs(m_new - m_old) <= 10 * tol * grid.measure

    def test_cutoff_band_is_handled(self, params2111):
        # state values inside (rho-1, rho), where the truncation profile
        # decreases, still give a convergent capped step
        grid = cd.Grid1D(32, 1.0)
        x = grid.centers()
        rho = 3.0
        st = cd.State(grid, 2.2 + 0.6 * np.cos(np.pi * x), np.ones(32))
        assert st.max_value() > rho - 1.0  # the declining branch is active
        new, rep = cd.step_regularized(st, 1e-3, params2111, 1e-2, rho, _opts())
        assert rep.residual <= TOL
        assert new.max_value() <= rho + 1e-10
        assert new.min_value() >= -1e-12


class TestTwoDimensional:
    @pytest.mark.parametrize("axis", [1, 0], ids=["x", "y"])
    def test_y_independent_data_matches_1d(self, params2111, axis):
        # data varying along one axis only (x: array axis 1, y: axis 0) steps
        # like the 1D step along that axis
        n = 16
        grid1 = cd.Grid1D(n, 1.0)
        grid2 = cd.Grid2D(n, 1.0)
        x1 = grid1.centers()
        f1 = 1.0 + 0.3 * np.cos(np.pi * x1)
        st1 = cd.State(grid1, f1, np.ones(n))
        f2 = np.broadcast_to(f1 if axis == 1 else f1[:, None], (n, n))
        st2 = cd.State(grid2, f2, np.ones((n, n)))
        new1, _ = cd.step(st1, 1e-3, params2111, _opts())
        new2, rep2 = cd.step(st2, 1e-3, params2111, _opts())
        for line in range(n):
            f_line = new2.f[line] if axis == 1 else new2.f[:, line]
            g_line = new2.g[line] if axis == 1 else new2.g[:, line]
            np.testing.assert_allclose(f_line, new1.f, rtol=0, atol=5e-11)
            np.testing.assert_allclose(g_line, new1.g, rtol=0, atol=5e-11)

    def test_2d_mass_conservation_and_decay(self, params2111):
        grid = cd.Grid2D(12, 1.0)
        x, y = grid.centers()
        st = cd.State(grid, 1.0 + 0.25 * np.cos(np.pi * x) * np.cos(np.pi * y),
                      np.ones(grid.shape))
        traj = list(cd.run(st, 1e-3, 5e-3, params2111, _opts(tol=1e-11)))
        masses = np.array([rep.masses for _, _, rep in traj])
        assert np.abs(np.diff(masses, axis=0)).max() <= 1e-10
        E = np.array([rep.entropies for _, _, rep in traj])
        assert np.all(np.diff(E[:, 1]) <= 1e-9 * E[0, 1])


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
            list(cd.run(st, 1e-3, 3e-3, params2111,
                        cd.SolverOptions(max_iters=1, tol=1e-14)))
        assert err.value.step_index == 1
        assert "did not converge at step 1:" in str(err.value)

    @pytest.mark.parametrize("dimension", [1, 2], ids=["1d", "2d"])
    def test_nan_start_raises_nonconvergence(self, params2111, cosine_state, dimension):
        # NaN > tol is False: a NaN residual must not pass as converged, and
        # the singular Jacobian it can give (SuperLU in 2D) must not escape
        # as a bare RuntimeError
        st = cosine_state(cells=16, amp=0.4) if dimension == 1 else _degenerate_2d_state(8)
        start = np.stack((st.f, st.g))
        start.flat[3] = np.nan
        with pytest.raises(cd.NonConvergence) as err:
            cd.step(st, 1e-3, params2111, _opts(), start=start)
        assert math.isnan(err.value.residual)

    def test_solver_options_validation(self):
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
