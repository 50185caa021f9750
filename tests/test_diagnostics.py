import dataclasses

import numpy as np
import pytest

import crossdiff as cd
from crossdiff import diagnostics, kernels
from conftest import random_params


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


def _state_with_zeros(grid, seed):
    """Random nonnegative state with exact zeros in f, g and both."""
    rng = np.random.default_rng(seed)
    f, g = rng.uniform(0.0, 3.0, (2, *grid.shape))
    f[rng.random(grid.shape) < 0.3] = 0.0
    g[rng.random(grid.shape) < 0.2] = 0.0
    return cd.State(grid, f, g)


_REPORT_CASES = [(cd.Grid1D(64, 1.0), 0), (cd.Grid1D(257, 2.5), 1),
                 (cd.Grid2D(12, 1.0), 2), (cd.Grid2D(7, 0.6), 3)]


class TestStackedReport:
    """The per-step report works on the stacked state; it equals the
    per-component formulas bit for bit."""

    @pytest.mark.parametrize("grid, seed", _REPORT_CASES)
    def test_entropy_trace_equals_per_component_formulas(self, grid, seed):
        st = _state_with_zeros(grid, seed)
        for params in [cd.Params(2.0, 1.0, 1.0, 1.0)] + random_params(
                np.random.default_rng(seed), 3):
            f, g = np.maximum(st.f.ravel(), 0.0), np.maximum(st.g.ravel(), 0.0)
            vol = grid.cell_volume
            top, flat, weights, starts = diagnostics._moment_gather(params, 8)
            moments = kernels.power_moments(f, g, top).ravel()
            want = np.full(8, np.inf)
            want[0] = vol * cd.eval_phi1(params, (f, g)).sum()
            want[1:top] = vol * np.add.reduceat(moments[flat] * weights, starts)
            assert cd.entropy_trace(st, params, 8).tobytes() == want.tobytes()

    @pytest.mark.parametrize("grid, seed", _REPORT_CASES)
    def test_dissipation_equals_the_stacked_difference_formula(self, grid, seed):
        # the face gradient of fvops: differences of the stacked (f, g) over
        # dx on the interior faces, zero on the boundary faces
        st = _state_with_zeros(grid, seed)
        for params in [cd.Params(2.0, 1.0, 1.0, 1.0)] + random_params(
                np.random.default_rng(seed), 3):
            theta1, theta2 = cd.theta_constants(params)
            total = 0.0
            for axis in range(grid.ndim):
                u = st.u.swapaxes(axis + 1, -1)
                grad = np.zeros(u.shape[:-1] + (grid.num_cells + 1,))
                grad[..., 1:-1] = (u[..., 1:] - u[..., :-1]) / grid.dx
                gp = params.a * grad[0] + theta1 * grad[1]
                total += float(np.sum(gp * gp + theta2 * grad[1] * grad[1]))
            assert cd.dissipation(st, params) == grid.cell_volume * total / params.a

    @pytest.mark.parametrize("grid, seed", _REPORT_CASES)
    def test_dissipation_agrees_with_the_earlier_difference_formula(self, grid, seed):
        # np.diff of the stacked (a f + theta1 g, g): the same sum, rounded
        # in another order
        st = _state_with_zeros(grid, seed)
        for params in [cd.Params(2.0, 1.0, 1.0, 1.0)] + random_params(
                np.random.default_rng(seed), 3):
            theta1, theta2 = cd.theta_constants(params)
            u = np.stack((params.a * st.f + theta1 * st.g, st.g))
            total = 0.0
            for axis in range(grid.ndim):
                gp, gg = np.diff(u, axis=axis + 1) / grid.dx
                total += float(np.sum(gp * gp + theta2 * gg * gg))
            assert cd.dissipation(st, params) == pytest.approx(
                grid.cell_volume * total / params.a, rel=1e-13, abs=0.0)


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


def _report(entropies, dissipation=0.0, linf=1.0, masses=(1.0, 1.0),
            clamped_mass=(0.0, 0.0)):
    return cd.StepReport(iterations=1, residual=0.0, masses=masses,
                         entropies=np.asarray(entropies, float), dissipation=dissipation,
                         linf=linf, tau=1e-3, clamped_mass=clamped_mass)


class TestRunMonitor:
    def test_entropy_rise_is_decided_by_the_reported_slack(self, params2111):
        opts = cd.SolverOptions(n_max=2)
        e_prev = 2.0
        for rise, breach in ((1.1e-9, True), (0.9e-9, False)):
            monitor = cd.RunMonitor(_report([0.5, e_prev]), params2111, 1.0, opts)
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
        monitor = cd.RunMonitor(_report([0.5, 2.0]), params2111, 1.0,
                                cd.SolverOptions(n_max=2))
        first = _report([0.49, 2.0 * (1 + 5e-10)], dissipation=3.0)
        second = _report([0.4, 1.0], dissipation=4.0)
        monitor.observe(first)
        monitor.observe(second)
        assert second.dissipation_cum == 1e-3 * 3.0 + 1e-3 * 4.0
        assert second.verdicts.entropy_slack[2] == first.verdicts.entropy_slack[2] > 0.0
        assert second.verdicts.all_ok

    def test_dissipation_cum_sums_each_reports_tau_times_dissipation(self, params2111):
        # the README example; the initial report starts the sum at zero, and
        # the last report's slacks are the running worst of the reports' own
        # measurements
        grid = cd.Grid1D(64, 1.0)
        state = cd.State(grid, 1.0 + 0.5 * np.cos(np.pi * grid.centers()), np.ones(64))
        entries = cd.run(state, 1e-3, 1.0, params2111, cd.SolverOptions(tol=1e-12))
        total, steps, reports = 0.0, 0, []
        for t, _, report in entries:
            assert report.tau == 1e-3
            if t > 0.0:
                total += report.tau * report.dissipation
                steps += 1
            assert report.dissipation_cum == total
            reports.append(report)
        assert steps == 1000 and total > 0.0
        e1_initial = reports[0].entropies[0]
        cap = diagnostics.linf_bound_constant(params2111) * reports[0].linf
        entropy, dissipation = np.zeros(6), 0.0
        linf = (reports[0].linf - cap) / cap
        for prev, cur in zip(reports, reports[1:]):
            entropy = np.maximum(entropy, (cur.entropies - prev.entropies) / prev.entropies)
            dissipation = np.maximum(
                dissipation, (cur.entropies[0] + cur.dissipation_cum - e1_initial) / e1_initial)
            linf = np.maximum(linf, (cur.linf - cap) / cap)
        verdicts = reports[-1].verdicts
        assert verdicts.entropy_slack == dict(enumerate(entropy.tolist(), start=1))
        assert verdicts.dissipation_slack == dissipation and verdicts.linf_slack == linf

    def test_a_report_that_raises_is_not_folded_in(self, params2111):
        # after a caught breach, the next report is folded from the last
        # accepted one, as if the breach had not been observed; the breach
        # used to fail every later report and count in dissipation_cum
        opts = cd.SolverOptions(n_max=2)
        first = dict(entropies=[0.49, 2.0 * (1 + 5e-10)], dissipation=3.0)
        second = dict(entropies=[0.4, 1.0], dissipation=4.0)
        monitor = cd.RunMonitor(_report([0.5, 2.0]), params2111, 1.0, opts)
        twin = cd.RunMonitor(_report([0.5, 2.0]), params2111, 1.0, opts)
        monitor.observe(_report(**first))
        twin.observe(_report(**first))
        with pytest.raises(cd.InvariantViolation, match="E_2"):
            monitor.observe(_report([0.49, 3.0], dissipation=5.0))
        report, unbroken = _report(**second), _report(**second)
        monitor.observe(report)
        twin.observe(unbroken)
        assert report.dissipation_cum == unbroken.dissipation_cum == 1e-3 * 3.0 + 1e-3 * 4.0
        assert report.verdicts == unbroken.verdicts and report.verdicts.all_ok

    def test_non_finite_entropy_fails(self, params2111):
        # inf - inf is NaN, and max(0.0, nan) is 0.0: a NaN slack must not
        # read as a pass
        report0 = _report([0.5, np.inf])
        opts = cd.SolverOptions(n_max=2, check_invariants=False)
        monitor = cd.RunMonitor(report0, params2111, 1.0, opts)
        report = _report([0.5, np.inf])
        with np.errstate(invalid="ignore"):
            monitor.observe(report)
            monitor.observe(_report([0.5, 1.0]))
        assert np.isnan(report.verdicts.entropy_slack[2])
        assert not report.verdicts.all_ok
        assert "overall: FAIL" in report.verdicts.lines()
        with pytest.raises(cd.InvariantViolation, match="E_2"):
            with np.errstate(invalid="ignore"):
                cd.RunMonitor(report0, params2111, 1.0,
                              cd.SolverOptions(n_max=2)).observe(_report([0.5, np.inf]))

    def test_the_first_breach_in_summary_order_is_named(self, params2111):
        # E_3 and the sup-norm bound breach at once: E_3 comes first in the
        # summary, so it is named, and both verdicts fail
        opts = cd.SolverOptions(n_max=3)
        cap = diagnostics.linf_bound_constant(params2111)
        monitor = cd.RunMonitor(_report([0.5, 2.0, 3.0]), params2111, 1.0, opts)
        report = _report([0.5, 2.0, 3.0 * (1.0 + 1e-6)], linf=10.0 * cap)
        with pytest.raises(cd.InvariantViolation) as err:
            monitor.observe(report)
        assert err.value.inequality == "entropy monotonicity E_3"
        failed = [name for name, slack, tol in report.verdicts.checks() if not slack <= tol]
        assert failed == ["entropy monotonicity E_3", "sup-norm bound"]
        with pytest.raises(cd.InvariantViolation) as err:
            monitor.observe(_report([0.5, 2.0, 3.0], linf=10.0 * cap))
        assert err.value.inequality == "sup-norm bound"

    @pytest.mark.parametrize("slack", [-1.0, 0.0, -0.0, 1e-9, 1e-8, 2e-8, np.inf, np.nan])
    def test_all_ok_is_every_check_passing(self, slack):
        # all_ok reads the slacks without the checks' names; it must agree
        # with checks() wherever the slack sits
        for place in range(4):
            slacks = [0.0] * 4
            slacks[place] = slack
            verdicts = cd.RunVerdicts({1: slacks[0], 2: slacks[1]}, *slacks[2:])
            assert verdicts.all_ok == all(s <= tol for _, s, tol in verdicts.checks())

    def test_mass_drift_is_enforced_net_of_clamped_mass(self, params2111):
        # tol 1e-10 on a unit measure: each component may drift by 1e-9
        opts = cd.SolverOptions(n_max=2)
        tol = diagnostics.MASS_SLACK_FACTOR * opts.tol
        drifted = dict(masses=(1.0 + 2.0 * tol, 1.0))

        def observe(opts, **kw):
            monitor = cd.RunMonitor(_report([0.5, 2.0]), params2111, 1.0, opts)
            monitor.observe(_report([0.5, 2.0], **kw))

        with pytest.raises(cd.InvariantViolation) as err:
            observe(opts, **drifted)
        assert err.value.inequality == "mass conservation"
        assert "component f drifted by" in str(err.value)
        observe(opts, masses=(1.0, 1.0 - 0.5 * tol))
        observe(opts, clamped_mass=(2.0 * tol, 0.0), **drifted)
        observe(dataclasses.replace(opts, check_invariants=False), **drifted)
