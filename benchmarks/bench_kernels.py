#!/usr/bin/env python3
"""Time the hot kernels and one Newton step on desk-scale problems.

Times the per-step entropy report (``diagnostics.entropy_trace`` of
E_1..E_6, from one power-moment product) and the implicit-step residual
(``fvops.implicit_residual``, the face operator shared by every dimension)
at ``--cells`` cells and prints microseconds per call (best of
the repeats).  Two more rows time one Newton step, one on the 1D grid of
``--cells`` cells and one on a fixed 64x64 grid with a zero patch in f, and
print milliseconds, Jacobian LU factorizations, Newton iterations and the
storage of the step's last factors: the band array entries of the 1D LAPACK
factors, the L+U nonzeros of the 2D SuperLU factors (the fill left by its
column order).  The last row times one 100-step 1D run on ``--cells`` cells,
which carries the LU factors from step to step, and prints milliseconds,
factorizations and iterations per step.  Run:

    python benchmarks/bench_kernels.py [--cells N] [--repeats R]
"""

import argparse
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from crossdiff import diagnostics, fvops  # noqa: E402
from crossdiff.grid import Grid1D, Grid2D, State  # noqa: E402
from crossdiff.params import Params  # noqa: E402
from crossdiff.scheme import SolverOptions, _BandLU, run, step  # noqa: E402


def _time_us(func, repeats):
    func()  # warm-up (imports, cache effects)
    best = np.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        func()
        best = min(best, time.perf_counter() - t0)
    return 1e6 * best


def bench(cells: int, repeats: int) -> None:
    a, b, c, d = 2.0, 1.0, 1.0, 1.0
    tau, dx = 1e-3, 1.0 / cells
    x = (np.arange(cells) + 0.5) / cells
    F = 1.0 + 0.5 * np.cos(np.pi * x)
    G = np.ones(cells)
    u = np.stack((F, G))
    state = State(Grid1D(cells, 1.0), F, G)

    rows = [
        ("entropy_trace (n=6)", lambda: diagnostics.entropy_trace(
            state, Params(a, b, c, d), 6)),
        ("implicit_residual", lambda: fvops.implicit_residual(
            u, u, (a, b, c, d), tau, dx, 0.0, np.inf, False, True)),
    ]
    print(f"{'kernel':<24} {'cells':>7} {'us/call':>12}")
    for name, func in rows:
        print(f"{name:<24} {cells:>7} {_time_us(func, repeats):>12.1f}")


def bench_newton(cells: int, repeats: int) -> None:
    """One Newton step with tau 1e-3 per row: 1D on ``cells`` cells from a
    smooth positive profile, to tol 1e-9 (the residual floor grows like
    tau/dx^2 times machine epsilon, and 1e-9 stays above it up to at least
    16384 cells), and 2D on a fixed 64x64 grid where f is a compactly
    supported cap (zero near the corners), to tol 1e-10."""
    params = Params(2.0, 1.0, 1.0, 1.0)
    grid1 = Grid1D(cells, 1.0)
    x1 = grid1.centers()
    grid2 = Grid2D(64, 1.0)
    x, y = grid2.centers()
    f = 1.5 * np.maximum(0.0, 1.0 - ((x - 0.5) ** 2 + (y - 0.5) ** 2) / 0.35**2)
    g = 1.0 + 0.3 * np.cos(np.pi * x) * np.cos(np.pi * y)
    cases = (
        ("newton 1d", State(grid1, 1.0 + 0.5 * np.cos(np.pi * x1), np.ones(cells)),
         SolverOptions(tol=1e-9)),
        ("newton 2d", State(grid2, f, g), SolverOptions(tol=1e-10)),
    )
    print(f"\n{'step':<24} {'cells':>7} {'ms/call':>12} {'factorizations':>15} "
          f"{'iterations':>11} {'LU entries':>11}")
    for label, state, opts in cases:
        factors = []
        _, report = step(state, 1e-3, params, opts, factors=factors)
        lu = factors[0]
        fill = lu.lu.size if isinstance(lu, _BandLU) else lu.L.nnz + lu.U.nnz
        ms = 1e-3 * _time_us(lambda: step(state, 1e-3, params, opts), repeats)
        print(f"{label:<24} {state.grid.num_points:>7} {ms:>12.1f} "
              f"{report.factorizations:>15} {report.iterations:>11} {fill:>11}")

    # the 1D case marched 100 steps, timed once
    _, state, opts = cases[0]
    steps = 100
    t0 = time.perf_counter()
    reports = [rep for _, _, rep in run(state, 1e-3, steps * 1e-3, params, opts)][1:]
    ms = 1e3 * (time.perf_counter() - t0) / steps
    print(f"\n{'run':<24} {'cells':>7} {'ms/step':>12} {'factorizations/step':>20} "
          f"{'iterations/step':>16}")
    print(f"{'newton run':<24} {cells:>7} {ms:>12.2f} "
          f"{sum(r.factorizations for r in reports) / steps:>20.2f} "
          f"{sum(r.iterations for r in reports) / steps:>16.2f}")


if __name__ == "__main__":
    parser = argparse.ArgumentParser()
    parser.add_argument("--cells", type=int, default=4096)
    parser.add_argument("--repeats", type=int, default=20)
    args = parser.parse_args()
    bench(args.cells, args.repeats)
    bench_newton(args.cells, args.repeats)
