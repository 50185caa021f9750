#!/usr/bin/env python3
"""Time the hot kernels and one Newton step on desk-scale problems.

Times the per-step entropy report (``diagnostics.entropy_trace`` of
E_1..E_6, from one power-moment product), the whole per-step report
(``scheme._report_for``: masses, entropies, dissipation and sup norm), the
cubic Newton start of a run from four states (``scheme._extrapolate``), the
implicit-step residual (``fvops.implicit_residual``, the face operator
shared by every dimension) and the assembly of the upwind Newton Jacobian
(``scheme._jacobian``, the COO triplet that the factors take) at
``--cells`` cells, and the Jacobian once more on a fixed 64x64 grid with a
zero patch in f, and prints microseconds per call (best of the repeats).
Two more rows time one Newton step, one on the 1D grid of ``--cells``
cells and one on the 64x64 grid, and print
milliseconds, Jacobian LU factorizations, Newton iterations and the storage
of the step's last factors: the band array entries of the 1D LAPACK
factors, the L+U nonzeros of the 2D SuperLU factors (the fill left by its
column order).  The last row times one 100-step 1D run on ``--cells``
cells, which carries the LU factors from step to step, and prints
milliseconds, factorizations and iterations per step.  The import row
prints the median wall time of 5 fresh interpreters that run ``import
crossdiff.cli``, and whether they loaded ``scipy.special`` and
``scipy.sparse`` (neither is needed before a 2D factorization).  Run:

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

from crossdiff import diagnostics, fvops  # noqa: E402
from crossdiff.grid import Grid1D, Grid2D, State  # noqa: E402
from crossdiff.params import Params  # noqa: E402
from crossdiff.scheme import (  # noqa: E402
    SolverOptions, _BandLU, _extrapolate, _jacobian, _report_for, run, step)

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


def _jacobian_call(state: State, tau: float):
    """Upwind Jacobian assembly at ``state``, face terms computed once."""
    u = state.u
    terms = fvops.implicit_residual(u, u, PARAMS.as_tuple(), tau, state.grid.dx,
                                    None, True)[1]
    return lambda: _jacobian(u, terms, state.grid, PARAMS, tau, None, True)


def bench(cells: int, repeats: int) -> None:
    tau = 1e-3
    state = _bump_state(cells)
    square = _square_state()
    u = state.u
    opts = SolverOptions()
    # four states one step apart, newest first, as a run keeps them
    history = [State(state.grid, state.f * (1.0 - 1e-3 * j), state.g) for j in range(4)]

    rows = [
        ("entropy_trace (n=6)", cells, lambda: diagnostics.entropy_trace(state, PARAMS, 6)),
        ("report 1d", cells, lambda: _report_for(state, PARAMS, opts, 1, 0.0)),
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
        lu = factors[0]
        fill = lu.lu.size if isinstance(lu, _BandLU) else lu.L.nnz + lu.U.nnz
        ms = 1e-3 * _time_us(lambda: step(state, 1e-3, PARAMS, opts), repeats)
        print(f"{label:<24} {state.grid.num_points:>7} {ms:>12.1f} "
              f"{report.factorizations:>15} {report.iterations:>11} {fill:>11}")

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


def bench_import(runs: int = 5) -> None:
    """Wall time of fresh interpreters importing ``crossdiff.cli`` from
    this checkout, and the optional scipy subpackages that import loaded."""
    optional = ("scipy.special", "scipy.sparse")
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
    bench_import()
