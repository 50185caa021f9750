"""Acceptance criteria, one test per criterion.

Every test enforces the criterion's stated tolerance and wall-time budget
and prints one pass/fail line (visible with ``pytest -s``; with ``pytest
-v`` the per-test PASSED/FAILED line carries the same information).
Criteria 6-8 share a single 1000-step trajectory.
"""

import time

import numpy as np
import pytest

import crossdiff as cd
from crossdiff import cli, verify


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def _criterion5_setup():
    params = cd.Params(2.0, 1.0, 1.0, 1.0)
    grid = cd.Grid1D(64, 1.0)
    x = grid.centers()
    initial = cd.State(grid, 1.0 + 0.5 * np.cos(np.pi * x), np.ones(64))
    opts = cd.SolverOptions(tol=1e-12)
    return params, initial, opts


@pytest.fixture(scope="module")
def thousand_step_run():
    params, initial, opts = _criterion5_setup()
    start = time.perf_counter()
    trajectory = list(cd.run(initial, 1e-3, 1.0, params, opts))
    elapsed = time.perf_counter() - start
    return params, trajectory, elapsed


def test_criterion_01_coefficient_oracle_equivalence():
    start = time.perf_counter()
    result = verify.check_coefficients(draws=100, n_max=20, seed=101)
    elapsed = time.perf_counter() - start
    ok = result.ok and elapsed <= 1.0
    _report(1, ok, f"closed form vs recursion rel err {result.worst:.2e} "
                   f"(<= 1e-12), all positive, {elapsed:.2f}s <= 1s")


def test_criterion_02_sn_symmetry():
    start = time.perf_counter()
    result = verify.check_sn_symmetry(draws=20, samples=1000, n_lo=2, n_hi=10,
                                      seed=102)
    elapsed = time.perf_counter() - start
    ok = result.ok and elapsed <= 5.0
    _report(2, ok, f"max asymmetry {result.worst:.2e} of scale (<= 1e-12), "
                   f"{elapsed:.2f}s <= 5s")


def test_criterion_03_positive_definiteness():
    start = time.perf_counter()
    hess = verify.check_hessian_pd(draws=20, samples=1000, n_lo=2, n_hi=10,
                                   seed=103)
    sn = verify.check_sn_pd(draws=20, samples=1000, n_lo=2, n_hi=10, seed=104)
    elapsed = time.perf_counter() - start
    ok = hess.ok and sn.ok and elapsed <= 5.0
    _report(3, ok, f"hessian min eig > 0 with determinant bound "
                   f"({hess.passed}/{hess.total}), product trace/det > 0 "
                   f"({sn.passed}/{sn.total}), {elapsed:.2f}s <= 5s")


def test_criterion_04_norm_sandwich():
    start = time.perf_counter()
    result = verify.check_norm_sandwich(draws=20, samples=10000, n_lo=2,
                                        n_hi=12, seed=105)
    elapsed = time.perf_counter() - start
    ok = result.ok and elapsed <= 5.0
    _report(4, ok, f"zero violations in {result.total} evaluations, "
                   f"{elapsed:.2f}s <= 5s")


def test_criterion_05_single_step_conservation_and_positivity():
    params, initial, opts = _criterion5_setup()
    m0 = initial.masses()
    start = time.perf_counter()
    new, report = cd.step(initial, 1e-3, params, opts)
    elapsed = time.perf_counter() - start
    drift = max(abs(report.masses[0] - m0[0]), abs(report.masses[1] - m0[1]))
    minimum = new.min_value()
    ok = drift <= 1e-10 and minimum >= -1e-12 and elapsed <= 1.0
    _report(5, ok, f"mass drift {drift:.2e} <= 1e-10, min {minimum:.2e} >= "
                   f"-1e-12, {elapsed:.2f}s <= 1s")


def test_criterion_06_entropy_monotonicity(thousand_step_run):
    params, trajectory, elapsed = thousand_step_run
    E = np.array([rep.entropies for _, _, rep in trajectory])
    worst = -np.inf
    for n in range(6):
        increments = np.diff(E[:, n])
        worst = max(worst, float(increments.max() / E[0, n]))
    ok = worst <= 1e-9 and len(trajectory) == 1001 and elapsed <= 30.0
    _report(6, ok, f"1000 steps, worst relative E_n increment {worst:.2e} "
                   f"<= 1e-9 for n in 1..6, {elapsed:.1f}s <= 30s")


def test_criterion_07_sup_norm_bound(thousand_step_run):
    params, trajectory, _ = thousand_step_run
    linf0 = trajectory[0][2].linf
    growth = cd.linf_bound_constant(params)
    assert growth == 2.0  # (d/b) max(a,b)/min(c,d) at (2,1,1,1)
    worst = max(rep.linf for _, _, rep in trajectory)
    ok = worst <= growth * linf0 * (1.0 + 1e-8)
    _report(7, ok, f"max ||f+g||_inf {worst:.6f} <= 2 * {linf0:.6f} * (1+1e-8)")


def test_criterion_08_dissipation_inequality(thousand_step_run):
    params, trajectory, _ = thousand_step_run
    th = cd.theta_constants(params)
    assert (th.theta1, th.theta2) == (0.75, 0.4375)
    e1_initial = trajectory[0][2].entropies[0]
    tau = 1e-3
    cum = 0.0
    worst = -np.inf
    for _, _, rep in trajectory[1:]:
        cum += tau * rep.dissipation
        worst = max(worst, rep.entropies[0] + cum)
    ok = worst <= e1_initial * (1.0 + 1e-8)
    _report(8, ok, f"max over steps of E_1 + cumulative dissipation "
                   f"{worst:.15e} <= E_1(0) * (1+1e-8) = "
                   f"{e1_initial * (1 + 1e-8):.15e}")


def test_criterion_09_long_time_limit():
    params, initial, opts = _criterion5_setup()
    start = time.perf_counter()
    trajectory = list(cd.run(initial, 1e-3, 10.0, params, opts))
    elapsed = time.perf_counter() - start
    final = trajectory[-1][1]
    residual = cd.steady_residual(final, params)
    mean_f = initial.masses()[0] / initial.grid.measure
    mean_g = initial.masses()[1] / initial.grid.measure
    dist = max(np.abs(final.f - mean_f).max(), np.abs(final.g - mean_g).max())
    ok = residual <= 1e-6 and dist <= 1e-5 and elapsed <= 120.0
    _report(9, ok, f"steady flux residual {residual:.2e} <= 1e-6, distance to "
                   f"constant state {dist:.2e} <= 1e-5, {elapsed:.1f}s <= 120s")


def test_criterion_10_regularized_to_exact_consistency():
    params, initial, opts = _criterion5_setup()
    start = time.perf_counter()
    exact, _ = cd.step(initial, 1e-3, params, opts)
    diffs = []
    for eps in (1e-2, 1e-3, 1e-4):
        approx, _ = cd.step_regularized(initial, 1e-3, params, eps, 1e3, opts)
        diffs.append(max(np.abs(approx.f - exact.f).max(),
                         np.abs(approx.g - exact.g).max()))
    elapsed = time.perf_counter() - start
    monotone = diffs[0] > diffs[1] > diffs[2]
    within = all(d <= 10.0 * eps for d, eps in zip(diffs, (1e-2, 1e-3, 1e-4)))
    ok = monotone and within and elapsed <= 10.0
    _report(10, ok, f"diffs {[f'{d:.2e}' for d in diffs]} decrease with eps and "
                    f"stay <= 10*eps, {elapsed:.1f}s <= 10s")


def test_criterion_11_degenerate_decoupling():
    params = cd.Params(2.0, 1.0, 1.0, 1.0)
    grid = cd.Grid1D(64, 1.0)
    x = grid.centers()
    opts = cd.SolverOptions(tol=1e-12)
    start = time.perf_counter()

    state = cd.State(grid, 1.0 + 0.5 * np.cos(np.pi * x), np.zeros(64))
    f0 = state.f.copy()
    worst_g = 0.0
    for _ in range(100):
        state, _ = cd.step(state, 1e-3, params, opts)
        worst_g = max(worst_g, float(np.abs(state.g).max()))
    f_moved = np.abs(state.f - f0).max() > 1e-4

    state = cd.State(grid, np.zeros(64), 1.0 + 0.5 * np.cos(np.pi * x))
    g0 = state.g.copy()
    worst_f = 0.0
    for _ in range(100):
        state, _ = cd.step(state, 1e-3, params, opts)
        worst_f = max(worst_f, float(np.abs(state.f).max()))
    g_moved = np.abs(state.g - g0).max() > 1e-4

    elapsed = time.perf_counter() - start
    ok = (worst_g <= 1e-14 and worst_f <= 1e-14 and f_moved and g_moved
          and elapsed <= 5.0)
    _report(11, ok, f"vanishing component stays <= 1e-14 for 100 steps "
                    f"(max |g| {worst_g:.2e}, max |f| {worst_f:.2e}) while the "
                    f"other evolves, {elapsed:.1f}s <= 5s")


def test_criterion_12_muskat_preset_equivalence(tmp_path):
    start = time.perf_counter()
    common = ["--cells", "64", "--t-final", "5e-3", "--tau", "1e-3",
              "--tol", "1e-12", "--seed", "9", "--snapshot-every", "2"]
    assert cli.main(["run", "--muskat-R", "1", "--muskat-mu", "1", *common,
                     "--out", str(tmp_path / "muskat")]) == 0
    assert cli.main(["run", "--a", "2", "--b", "1", "--c", "1", "--d", "1",
                     *common, "--out", str(tmp_path / "explicit")]) == 0
    names = sorted(p.name for p in (tmp_path / "muskat").glob("*.csv"))
    names.append("summary.txt")
    identical = all(
        (tmp_path / "muskat" / name).read_bytes()
        == (tmp_path / "explicit" / name).read_bytes()
        for name in names)
    elapsed = time.perf_counter() - start
    ok = identical and len(names) >= 4 and elapsed <= 5.0
    _report(12, ok, f"{len(names)} output files bit-identical between the "
                    f"muskat preset and explicit coefficients, "
                    f"{elapsed:.1f}s <= 5s")
