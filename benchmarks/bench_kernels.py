#!/usr/bin/env python3
"""Time the hot kernels and one Newton step on desk-scale problems.

Times the per-step entropy report (``diagnostics.entropy_trace`` of
E_1..E_6, from one power-moment product), the whole per-step report
(``diagnostics.step_report``: masses, entropies, dissipation and sup norm,
a function of the state alone), the run monitor's bookkeeping of one step
(``diagnostics.RunMonitor.observe`` of the report of one step on 64 cells,
each call on a fresh monitor built from the report of the initial state),
the cubic Newton start of a run from four states (``scheme._extrapolate``),
the implicit-step residual
(``fvops.implicit_residual``, the face operator shared by every dimension)
and the values of the upwind Newton Jacobian (``fvops.jacobian_values``:
the flux derivatives of ``fvops.flux_derivative`` along each axis, in the
order of the entries of ``fvops.jacobian_pattern``) at
``--cells`` cells (the monitor row excepted), and the Jacobian once more
on a fixed 64x64 grid with a zero patch in f, and prints microseconds per
call (best of the repeats).  Two more rows time one Newton step, one on
the 1D grid of ``--cells`` cells and one on the 64x64 grid, and print
milliseconds, Jacobian LU factorizations, Newton iterations and the storage
of the step's last factors: the band array entries of the 1D LAPACK
factors, the L+U nonzeros of the 2D SuperLU factors (the fill left by its
column order).  The next row times one 100-step 1D run on ``--cells``
cells, which carries the LU factors from step to step, and prints
milliseconds, factorizations and iterations per step.  The ``factor 2d``
row times, on the 64x64 grid, the one-time build of the Jacobian's
structure (``scheme._structure``: the column order of the unknowns and the
place of each entry of ``fvops.jacobian_pattern`` in the factors' storage)
and the SuperLU factorization of one Jacobian's values, and prints the
fill.  The ``zero-front run 1d`` rows run 50 steps of the zero-front
cap f = max(1.5 (1 - 4x^2), 0) on 1024 cells, with the Anderson-mixed chord
updates the solver makes and, in the ``plain`` row, with
``scheme._anderson`` patched in this script to return the plain update;
they print ms per step, updates and factorizations.  The import row
prints the median wall time of 5 fresh interpreters that run ``import
crossdiff.cli``, and whether they loaded ``scipy.special``, ``scipy.linalg``
and ``scipy.sparse`` (no run needs them: the solver reaches LAPACK and
SuperLU through their compiled modules).  Run:

    python benchmarks/bench_kernels.py [--cells N] [--repeats R]
"""

import argparse
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

SRC = str(Path(__file__).resolve().parents[1] / "src")
sys.path.insert(0, SRC)

from crossdiff import diagnostics, fvops, scheme  # noqa: E402
from crossdiff.grid import Grid1D, Grid2D, State  # noqa: E402
from crossdiff.params import Params  # noqa: E402
from crossdiff.diagnostics import step_report  # noqa: E402
from crossdiff.scheme import (  # noqa: E402
    SolverOptions, _extrapolate, _factor, _structure, run, step)

PARAMS = Params(2.0, 1.0, 1.0, 1.0)


def _time_us(func, repeats):
    func()  # warm-up (imports, cache effects)
    best = np.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        func()
        best = min(best, time.perf_counter() - t0)
    return 1e6 * best


def _bump_state(cells: int) -> State:
    """A smooth positive profile on the 1D grid of ``cells`` cells."""
    grid = Grid1D(cells, 1.0)
    return State(grid, 1.0 + 0.5 * np.cos(np.pi * grid.centers()), np.ones(cells))


def _square_state() -> State:
    """The 64x64 state: f a compactly supported cap (zero near the corners)."""
    grid = Grid2D(64, 1.0)
    x, y = grid.centers()
    f = 1.5 * np.maximum(0.0, 1.0 - ((x - 0.5) ** 2 + (y - 0.5) ** 2) / 0.35**2)
    g = 1.0 + 0.3 * np.cos(np.pi * x) * np.cos(np.pi * y)
    return State(grid, f, g)


def _zero_front_state(cells: int) -> State:
    """The zero-front cap: f = max(1.5 (1 - 4x^2), 0), zero on half the
    cells (one front, at x = 1/2), and g = 1 + 0.3 cos(pi x)."""
    grid = Grid1D(cells, 1.0)
    x = grid.centers()
    return State(grid, np.maximum(1.5 * (1.0 - 4.0 * x**2), 0.0),
                 1.0 + 0.3 * np.cos(np.pi * x))


def _jacobian_call(state: State, tau: float):
    """Upwind Jacobian values at ``state``, face terms computed once, with the
    grid's structure built, as it is during every solve (the heap it leaves
    sets where the values' arrays land)."""
    _structure(state.grid.shape)
    u, coef, dx = state.u, PARAMS.as_tuple(), state.grid.dx
    terms = fvops.implicit_residual(u, u, coef, tau, dx, None, True)[1]
    return lambda: fvops.jacobian_values(u, terms, coef, tau, dx, None, True)


def _fill(lu) -> int:
    """Storage of LU factors: band array entries in 1D, L+U nonzeros in 2D."""
    return lu.lu.size if isinstance(lu.lu, np.ndarray) else lu.lu.L.nnz + lu.lu.U.nnz


def bench(cells: int, repeats: int) -> None:
    tau = 1e-3
    state = _bump_state(cells)
    square = _square_state()
    u = state.u
    opts = SolverOptions()
    # four states one step apart, newest first, as a run keeps them
    history = [State(state.grid, state.f * (1.0 - 1e-3 * j), state.g) for j in range(4)]
    # the first step from the README example's state, one fresh monitor per call
    small = _bump_state(64)
    report0 = step_report(small, PARAMS, tau, opts.n_max)
    report1 = step(small, tau, PARAMS, opts)[1]
    monitors = iter([diagnostics.RunMonitor(report0, PARAMS, small.grid.measure, opts)
                     for _ in range(repeats + 1)])

    rows = [
        ("entropy_trace (n=6)", cells, lambda: diagnostics.entropy_trace(state, PARAMS, 6)),
        ("report 1d", cells, lambda: step_report(state, PARAMS, tau, opts.n_max, 1, 0.0)),
        ("monitor 1d", small.grid.num_points, lambda: next(monitors).observe(report1)),
        ("extrapolate 1d", cells, lambda: _extrapolate(history)),
        ("implicit_residual", cells, lambda: fvops.implicit_residual(
            u, u, PARAMS.as_tuple(), tau, state.grid.dx, None, True)),
        ("jacobian 1d", cells, _jacobian_call(state, tau)),
        ("jacobian 2d", square.grid.num_points, _jacobian_call(square, tau)),
    ]
    print(f"{'kernel':<24} {'cells':>7} {'us/call':>12}")
    for name, n, func in rows:
        print(f"{name:<24} {n:>7} {_time_us(func, repeats):>12.1f}")


def bench_newton(cells: int, repeats: int) -> None:
    """One Newton step with tau 1e-3 per row: 1D on ``cells`` cells from
    :func:`_bump_state`, to tol 1e-9 (the residual floor grows like
    tau/dx^2 times machine epsilon, and 1e-9 stays above it up to at least
    16384 cells), and 2D from :func:`_square_state`, to tol 1e-10."""
    cases = (
        ("newton 1d", _bump_state(cells), SolverOptions(tol=1e-9)),
        ("newton 2d", _square_state(), SolverOptions(tol=1e-10)),
    )
    print(f"\n{'step':<24} {'cells':>7} {'ms/call':>12} {'factorizations':>15} "
          f"{'iterations':>11} {'LU entries':>11}")
    for label, state, opts in cases:
        factors = []
        _, report = step(state, 1e-3, PARAMS, opts, factors=factors)
        ms = 1e-3 * _time_us(lambda: step(state, 1e-3, PARAMS, opts), repeats)
        print(f"{label:<24} {state.grid.num_points:>7} {ms:>12.1f} "
              f"{report.factorizations:>15} {report.iterations:>11} {_fill(factors[0]):>11}")

    # the 1D case marched 100 steps, timed once
    _, state, opts = cases[0]
    steps = 100
    t0 = time.perf_counter()
    reports = [rep for _, _, rep in run(state, 1e-3, steps * 1e-3, PARAMS, opts)][1:]
    ms = 1e3 * (time.perf_counter() - t0) / steps
    print(f"\n{'run':<24} {'cells':>7} {'ms/step':>12} {'factorizations/step':>20} "
          f"{'iterations/step':>16}")
    print(f"{'newton run':<24} {cells:>7} {ms:>12.2f} "
          f"{sum(r.factorizations for r in reports) / steps:>20.2f} "
          f"{sum(r.iterations for r in reports) / steps:>16.2f}")


def bench_factor(repeats: int) -> None:
    """On the 64x64 grid of :func:`_square_state`: the build of the
    Jacobian's structure, which a process makes once per grid shape, and
    the SuperLU factorization of the upwind Jacobian at that state, made
    once per Jacobian, and the fill."""
    state = _square_state()
    vals = _jacobian_call(state, 1e-3)()
    structure_ms = 1e-3 * _time_us(lambda: _structure.__wrapped__(state.grid.shape), repeats)
    factor_ms = 1e-3 * _time_us(lambda: _factor(vals, state.grid), repeats)
    print(f"\n{'factor':<24} {'cells':>7} {'structure ms':>12} {'factor ms':>12} "
          f"{'LU entries':>11}")
    print(f"{'factor 2d':<24} {state.grid.num_points:>7} {structure_ms:>12.2f} "
          f"{factor_ms:>12.2f} {_fill(_factor(vals, state.grid)):>11}")


def bench_zero_front(cells: int = 1024, steps: int = 50, runs: int = 3) -> None:
    """``steps`` steps of the zero-front cap of :func:`_zero_front_state` on
    ``cells`` cells (tau 1e-3, tol 1e-9), best of ``runs``: once with the
    Anderson-mixed chord updates the solver makes, once with
    ``scheme._anderson`` patched to return the plain update."""
    state = _zero_front_state(cells)
    opts = SolverOptions(tol=1e-9)
    print(f"\n{'run':<24} {'cells':>7} {'ms/step':>12} {'updates':>12} "
          f"{'factorizations':>15}")
    mixed = scheme._anderson
    for label, anderson in (("zero-front run 1d", mixed),
                            ("zero-front run 1d plain", lambda du, pairs: du)):
        scheme._anderson = anderson
        try:
            best = np.inf
            for _ in range(runs):
                t0 = time.perf_counter()
                reports = [rep for _, _, rep in run(state, 1e-3, steps * 1e-3, PARAMS, opts)]
                best = min(best, time.perf_counter() - t0)
        finally:
            scheme._anderson = mixed
        print(f"{label:<24} {cells:>7} {1e3 * best / steps:>12.2f} "
              f"{sum(r.iterations for r in reports):>12} "
              f"{sum(r.factorizations for r in reports):>15}")


def bench_import(runs: int = 5) -> None:
    """Wall time of fresh interpreters importing ``crossdiff.cli`` from
    this checkout, and the optional scipy subpackages that import loaded."""
    optional = ("scipy.special", "scipy.linalg", "scipy.sparse")
    code = ("import sys, crossdiff.cli; print(*('loaded' if m in sys.modules "
            f"else 'absent' for m in {optional!r}))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    times = []
    for _ in range(runs):
        t0 = time.perf_counter()
        loaded = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                                capture_output=True, text=True).stdout.split()
        times.append(time.perf_counter() - t0)
    print(f"\n{'import':<24} {'runs':>7} {'ms':>12} "
          + " ".join(f"{m:>13}" for m in optional))
    print(f"{'import crossdiff.cli':<24} {runs:>7} {1e3 * statistics.median(times):>12.1f} "
          + " ".join(f"{v:>13}" for v in loaded))


if __name__ == "__main__":
    parser = argparse.ArgumentParser()
    parser.add_argument("--cells", type=int, default=4096)
    parser.add_argument("--repeats", type=int, default=20)
    args = parser.parse_args()
    bench(args.cells, args.repeats)
    bench_newton(args.cells, args.repeats)
    bench_factor(args.repeats)
    bench_zero_front()
    bench_import()
