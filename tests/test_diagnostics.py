import numpy as np
import pytest

import crossdiff as cd
from crossdiff import diagnostics


def lp_norm(grid, values, p: int) -> float:
    """Discrete L_p norm (integral form) of a cell field."""
    return float(grid.integrate(np.abs(np.asarray(values, float)) ** p) ** (1.0 / p))


def ln_chain_values(prev, new, params, n: int):
    """(lhs, rhs) of the norm chain ||c f + d g||_n <= (d/b) ||a F + b G||_n
    linking consecutive states of a run."""
    a, b, c, d = params.as_tuple()
    lhs = lp_norm(new.grid, c * new.f + d * new.g, n)
    rhs = (d / b) * lp_norm(prev.grid, a * prev.f + b * prev.g, n)
    return lhs, rhs


class TestEntropyTrace:
    def test_inf_from_the_degree_whose_coefficients_overflow(self, params2111):
        # the degree-865 coefficients of (2, 1, 1, 1) overflow double precision
        st = cd.State.constant(cd.Grid1D(4, 1.0), 0.1, 0.1)
        E = cd.entropy_trace(st, params2111, 870)
        assert np.all(np.isfinite(E[:864])) and np.all(np.isinf(E[864:]))

    def test_constant_one_one(self, params2111):
        grid = cd.Grid1D(16, 1.0)
        st = cd.State.constant(grid, 1.0, 1.0)
        E = cd.entropy_trace(st, params2111, 2)
        assert E[0] == pytest.approx(0.0, abs=1e-15)
        assert E[1] == pytest.approx(5.0, rel=1e-14)

    def test_zero_state(self, params2111):
        grid = cd.Grid1D(16, 1.0)
        st = cd.State.constant(grid, 0.0, 0.0)
        E = cd.entropy_trace(st, params2111, 5)
        assert E[0] == pytest.approx(1.5, rel=1e-14)  # 1 + b^2/(ad)
        np.testing.assert_array_equal(E[1:], np.zeros(4))

    def test_homogeneous_scaling(self, params2111):
        rng = np.random.default_rng(0)
        grid = cd.Grid1D(20, 1.0)
        st = cd.State(grid, rng.uniform(0, 2, 20), rng.uniform(0, 2, 20))
        lam = 1.7
        scaled = cd.State(grid, lam * st.f, lam * st.g)
        E = cd.entropy_trace(st, params2111, 6)
        E_scaled = cd.entropy_trace(scaled, params2111, 6)
        for n in range(2, 7):
            assert E_scaled[n - 1] == pytest.approx(lam**n * E[n - 1], rel=1e-12)

    def test_rejects_genuinely_negative_state(self, params2111):
        grid = cd.Grid1D(8, 1.0)
        st = cd.State(grid, np.full(8, -0.5), np.ones(8))
        with pytest.raises(ValueError, match="nonnegative"):
            cd.entropy_trace(st, params2111, 3)

    def test_clips_roundoff_negatives(self, params2111):
        grid = cd.Grid1D(8, 1.0)
        f = np.ones(8)
        f[3] = -1e-13
        st = cd.State(grid, f, np.ones(8))
        E = cd.entropy_trace(st, params2111, 2)
        assert np.all(np.isfinite(E))

    def test_measure_scaling(self, params2111):
        # constant states: E_n = |Omega| * polynomial value
        grid = cd.Grid1D(10, 2.0)
        st = cd.State.constant(grid, 1.0, 1.0)
        assert cd.entropy_trace(st, params2111, 2)[1] == pytest.approx(10.0, rel=1e-13)

    def test_log_entropy_only(self, params2111):
        grid = cd.Grid1D(10, 1.0)
        st = cd.State.constant(grid, 0.0, 0.0)
        E = cd.entropy_trace(st, params2111, 1)
        assert E.shape == (1,)
        assert E[0] == pytest.approx(1.5, rel=1e-14)
        with pytest.raises(ValueError):
            cd.entropy_trace(st, params2111, 0)


class TestLinfSum:
    def test_constant(self):
        grid = cd.Grid1D(8, 1.0)
        assert cd.linf_sum(cd.State.constant(grid, 1.0, 1.0)) == 2.0

    def test_cell_centered_ramp(self):
        grid = cd.Grid1D(10, 1.0)
        st = cd.State(grid, grid.centers(), np.zeros(10))
        assert cd.linf_sum(st) == pytest.approx(0.95, rel=1e-15)

    def test_bound_constant(self, params2111):
        assert cd.linf_bound_constant(params2111) == 2.0
        p = cd.Params(1.0, 2.0, 3.0, 7.0)
        assert cd.linf_bound_constant(p) == pytest.approx((7 / 2) * 2 / 3, rel=1e-15)

    def test_bound_holds_along_run(self, params2111, cosine_state):
        st = cosine_state(cells=32, amp=0.5)
        cap = cd.linf_bound_constant(params2111) * cd.linf_sum(st)
        traj = list(cd.run(st, 1e-3, 0.02, params2111, cd.SolverOptions(tol=1e-12)))
        for _, _, rep in traj:
            assert rep.linf <= cap * (1 + 1e-8)


class TestDissipation:
    def test_constant_state_is_zero(self, params2111):
        grid = cd.Grid1D(16, 1.0)
        assert cd.dissipation(cd.State.constant(grid, 2.0, 3.0), params2111) == 0.0

    def test_cosine_rayleigh_quotient(self, params2111):
        # f = cos(pi x), g = 0: value approaches a * pi^2 / 2 under refinement
        grid = cd.Grid1D(256, 1.0)
        st = cd.State(grid, np.cos(np.pi * grid.centers()), np.zeros(256))
        expected = params2111.a * np.pi**2 / 2.0
        assert cd.dissipation(st, params2111) == pytest.approx(expected, rel=0.02)

    def test_nonnegative(self, params2111):
        rng = np.random.default_rng(1)
        grid = cd.Grid1D(32, 1.0)
        for _ in range(20):
            st = cd.State(grid, rng.standard_normal(32), rng.standard_normal(32))
            assert cd.dissipation(st, params2111) >= 0.0

    def test_2d_matches_1d_for_y_independent_data(self, params2111):
        n = 16
        grid1 = cd.Grid1D(n, 1.0)
        grid2 = cd.Grid2D(n, 1.0)
        f = 1.0 + 0.5 * np.cos(np.pi * grid1.centers())
        st1 = cd.State(grid1, f, np.ones(n))
        st2 = cd.State(grid2, np.tile(f, (n, 1)), np.ones((n, n)))
        assert cd.dissipation(st2, params2111) == pytest.approx(
            cd.dissipation(st1, params2111), rel=1e-12)


class TestSteadyResidual:
    def test_constant_state(self, params2111):
        grid = cd.Grid1D(16, 1.0)
        assert cd.steady_residual(cd.State.constant(grid, 1.0, 2.0), params2111) == 0.0

    def test_positive_for_nonconstant_pressure(self, params2111, cosine_state):
        st = cosine_state(cells=32, amp=0.1)
        assert cd.steady_residual(st, params2111) > 0.0

    def test_decreases_along_run(self, params2111, cosine_state):
        st = cosine_state(cells=32, amp=0.3)
        before = cd.steady_residual(st, params2111)
        traj = list(cd.run(st, 1e-3, 1.0, params2111, cd.SolverOptions(tol=1e-12)))
        after = cd.steady_residual(traj[-1][1], params2111)
        assert after < 0.01 * before

    def test_2d_constant_and_perturbed(self, params2111):
        grid = cd.Grid2D(8, 1.0)
        assert cd.steady_residual(cd.State.constant(grid, 1.0, 1.0),
                                  params2111) == 0.0
        x, y = grid.centers()
        st = cd.State(grid, 1 + 0.1 * np.cos(np.pi * y), np.ones(grid.shape))
        assert cd.steady_residual(st, params2111) > 0.0


class TestStructuralProperties:
    def test_log_entropy_zero_iff_unit_state(self, params2111):
        grid = cd.Grid1D(12, 1.0)
        unit = cd.State.constant(grid, 1.0, 1.0)
        assert cd.entropy_trace(unit, params2111, 1)[0] == 0.0
        rng = np.random.default_rng(2)
        for _ in range(10):
            f = np.ones(12)
            f[rng.integers(0, 12)] += rng.uniform(0.01, 1.0)
            st = cd.State(grid, f, np.ones(12))
            assert cd.entropy_trace(st, params2111, 1)[0] > 0.0

    def test_entropy_sandwich_per_state(self, params2111):
        rng = np.random.default_rng(3)
        grid = cd.Grid1D(24, 1.0)
        for _ in range(10):
            st = cd.State(grid, rng.uniform(0, 3, 24), rng.uniform(0, 3, 24))
            for n in (2, 4, 8):
                lo, en, hi = diagnostics.entropy_sandwich(st, params2111, n)
                assert lo <= en * (1 + 1e-12)
                assert en <= hi * (1 + 1e-12)

    def test_entropy_root_pinned_between_sup_norms(self, params2111):
        # the boundedness mechanism: the n-th roots of the sandwich bounds
        # are L_n norms on |Omega| = 1, which rise to the sup norms of
        # (c f + d g)/d and (a f + b g)/b; values in [0.5, 1] keep every
        # power of degree 512 above the underflow range
        grid = cd.Grid1D(16, 1.0)
        x = grid.centers()
        st = cd.State(grid, 0.75 + 0.25 * np.cos(np.pi * x), 0.75 - 0.25 * np.sin(3 * x))
        a, b, c, d = params2111.as_tuple()
        sup_lo = np.max((c * st.f + d * st.g) / d)
        sup_hi = np.max((a * st.f + b * st.g) / b)
        prev_lo = prev_hi = 0.0
        for n in (2, 8, 32, 128, 512):
            lo, en, hi = diagnostics.entropy_sandwich(st, params2111, n)
            assert lo <= en * (1 + 1e-12)
            assert en <= hi * (1 + 1e-12)
            root_lo, root_hi = lo ** (1 / n), hi ** (1 / n)
            assert prev_lo <= root_lo <= sup_lo * (1 + 1e-12)
            assert prev_hi <= root_hi <= sup_hi * (1 + 1e-12)
            # the cell of the maximum alone contributes sup^n / 16
            assert root_lo >= sup_lo * (1 / 16) ** (1 / n)
            assert root_hi >= sup_hi * (1 / 16) ** (1 / n)
            prev_lo, prev_hi = root_lo, root_hi
        # so E_512^(1/512) lies in [0.9946 sup_lo, sup_hi]
        assert sup_lo * (1 / 16) ** (1 / n) <= en ** (1 / n) <= sup_hi

    def test_norm_chain_between_consecutive_states(self, params2111, cosine_state):
        st = cosine_state(cells=32, amp=0.4)
        traj = list(cd.run(st, 1e-3, 0.02, params2111, cd.SolverOptions(tol=1e-12)))
        for (_, prev, _), (_, cur, _) in zip(traj, traj[1:]):
            for n in (2, 4, 8, 16):
                lhs, rhs = ln_chain_values(prev, cur, params2111, n)
                assert lhs <= rhs * (1 + 1e-10)


class TestRunVerdicts:
    def test_pass_on_well_behaved_run(self, params2111, cosine_state):
        st = cosine_state(cells=32, amp=0.4)
        traj = list(cd.run(st, 1e-3, 0.05, params2111, cd.SolverOptions(tol=1e-12)))
        verdicts = traj[-1][2].verdicts
        assert verdicts.all_ok
        lines = verdicts.lines()
        assert any("overall: PASS" in line for line in lines)
        assert sum("entropy monotonicity" in line for line in lines) == 6

    def test_slacks_are_negative_or_tiny(self, params2111, cosine_state):
        st = cosine_state(cells=16, amp=0.2)
        traj = list(cd.run(st, 1e-3, 0.01, params2111, cd.SolverOptions(tol=1e-12)))
        verdicts = traj[-1][2].verdicts
        for slack in verdicts.entropy_slack.values():
            assert slack <= 1e-9
        assert verdicts.dissipation_slack <= 1e-8
        assert verdicts.linf_slack <= 1e-8


def _report(entropies, dissipation=0.0, linf=1.0, masses=(1.0, 1.0)):
    return cd.StepReport(iterations=1, residual=0.0, masses=masses,
                         entropies=np.asarray(entropies, float),
                         dissipation=dissipation, linf=linf)


class TestRunMonitor:
    def test_entropy_rise_is_decided_by_the_reported_slack(self, params2111):
        opts = cd.SolverOptions(n_max=2)
        e_prev = 2.0
        for rise, breach in ((1.1e-9, True), (0.9e-9, False)):
            monitor = cd.RunMonitor(_report([0.5, e_prev]), params2111, 1e-3, 1.0, opts)
            report = _report([0.5, e_prev + rise * e_prev])
            slack = (report.entropies[1] - e_prev) / e_prev
            if breach:
                with pytest.raises(cd.InvariantViolation) as err:
                    monitor.observe(report)
                assert err.value.inequality == "entropy monotonicity E_2"
                assert f"measured slack {slack:.3e} exceeds" in str(err.value)
            else:
                monitor.observe(report)
            assert report.verdicts.entropy_slack[2] == slack
            line = report.verdicts.lines()[1]
            verdict = "FAIL" if breach else "PASS"
            assert line == (f"entropy monotonicity E_2: measured slack {slack:.3e} "
                            f"(tolerance 1e-09) -> {verdict}")

    def test_keeps_worst_slack_and_cumulative_dissipation(self, params2111):
        monitor = cd.RunMonitor(_report([0.5, 2.0]), params2111, 1e-3, 1.0,
                                cd.SolverOptions(n_max=2))
        first = _report([0.49, 2.0 * (1 + 5e-10)], dissipation=3.0)
        second = _report([0.4, 1.0], dissipation=4.0)
        monitor.observe(first)
        monitor.observe(second)
        assert second.dissipation_cum == 1e-3 * 3.0 + 1e-3 * 4.0
        assert second.verdicts.entropy_slack[2] == first.verdicts.entropy_slack[2] > 0.0
        assert second.verdicts.all_ok

    def test_non_finite_entropy_fails(self, params2111):
        # inf - inf is NaN, and max(0.0, nan) is 0.0: a NaN slack must not
        # read as a pass
        report0 = _report([0.5, np.inf])
        opts = cd.SolverOptions(n_max=2, check_invariants=False)
        monitor = cd.RunMonitor(report0, params2111, 1e-3, 1.0, opts)
        report = _report([0.5, np.inf])
        with np.errstate(invalid="ignore"):
            monitor.observe(report)
            monitor.observe(_report([0.5, 1.0]))
        assert np.isnan(report.verdicts.entropy_slack[2])
        assert not report.verdicts.all_ok
        assert "overall: FAIL" in report.verdicts.lines()
        with pytest.raises(cd.InvariantViolation, match="E_2"):
            with np.errstate(invalid="ignore"):
                cd.RunMonitor(report0, params2111, 1e-3, 1.0,
                              cd.SolverOptions(n_max=2)).observe(_report([0.5, np.inf]))
