#!/usr/bin/env python3
"""Time the 1D kernels on desk-scale problems.

Times the tridiagonal solve, the homogeneous-polynomial cell evaluation,
the implicit-step residual (``fvops.implicit_residual``, the face operator
shared by every dimension and solver) and one Picard solve of an implicit step to a
max-norm residual of 1e-9 (plain and regularized), and prints microseconds
per call (best of the repeats).  A last row times one 2D Newton step on a
fixed 64x64 grid with a zero patch in f and prints milliseconds, sparse LU
factorizations, Newton iterations and the L+U nonzeros of the step's first
factorization (the fill left by the SuperLU column order).  Run:

    python benchmarks/bench_kernels.py [--cells N] [--repeats R]
"""

import argparse
import sys
import time
from pathlib import Path

import numpy as np
import scipy.sparse.linalg

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from crossdiff import fvops, kernels  # noqa: E402
from crossdiff.entropy import build_coefficients  # noqa: E402
from crossdiff.grid import Grid2D, State  # noqa: E402
from crossdiff.params import Params  # noqa: E402
from crossdiff.scheme import SolverOptions, step  # noqa: E402


def _time_us(func, repeats):
    func()  # warm-up (imports, cache effects)
    best = np.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        func()
        best = min(best, time.perf_counter() - t0)
    return 1e6 * best


def bench(cells: int, repeats: int) -> None:
    rng = np.random.default_rng(0)
    a, b, c, d = 2.0, 1.0, 1.0, 1.0
    tau, dx = 1e-3, 1.0 / cells
    x = (np.arange(cells) + 0.5) / cells
    F = 1.0 + 0.5 * np.cos(np.pi * x)
    G = np.ones(cells)
    u = np.stack((F, G))
    lower = -rng.uniform(0.1, 1.0, cells)
    upper = -rng.uniform(0.1, 1.0, cells)
    lower[0] = upper[-1] = 0.0
    diag = 1.0 + np.abs(lower) + np.abs(upper)
    rhs = rng.standard_normal(cells)
    coeffs = build_coefficients(Params(a, b, c, d), 6).coeffs

    rows = [
        ("thomas", lambda: kernels.thomas(lower, diag, upper, rhs)),
        ("phi_cells (n=6)", lambda: kernels.phi_cells(coeffs, F, G)),
        ("implicit_residual", lambda: fvops.implicit_residual(
            u, u, (a, b, c, d), tau, dx, 0.0, np.inf, False, True)),
    ]
    for label, reg, eps, rho in (("picard_1d", False, 0.0, np.inf),
                                 ("picard_1d regularized", True, 1e-3, 1e3)):
        # the residual floor grows like tau/dx^2 times machine epsilon: tol
        # 1e-12 stalls from about 1024 cells, 1e-9 converges up to at least
        # 16384, and a stalled solve would time the iteration cap instead
        args = (F, G, a, b, c, d, tau, dx, eps, rho, reg, True, 1e-9, 200)
        if not kernels.picard_1d(*args)[4]:
            label += " (not converged)"
        rows.append((label, lambda args=args: kernels.picard_1d(*args)))

    print(f"{'kernel':<24} {'cells':>7} {'us/call':>12}")
    for name, func in rows:
        print(f"{name:<24} {cells:>7} {_time_us(func, repeats):>12.1f}")


def bench_newton_2d(repeats: int) -> None:
    """One Newton step, tau 1e-3 to tol 1e-10, on a fixed 64x64 grid where
    f is a compactly supported cap (zero near the corners)."""
    grid = Grid2D(64, 1.0)
    x, y = grid.centers()
    f = 1.5 * np.maximum(0.0, 1.0 - ((x - 0.5) ** 2 + (y - 0.5) ** 2) / 0.35**2)
    g = 1.0 + 0.3 * np.cos(np.pi * x) * np.cos(np.pi * y)
    state = State(grid, f, g)
    params = Params(2.0, 1.0, 1.0, 1.0)
    opts = SolverOptions(method="newton", tol=1e-10)
    factors = []
    splu = scipy.sparse.linalg.splu

    def counted_splu(*args, **kwargs):
        factors.append(splu(*args, **kwargs))
        return factors[-1]

    scipy.sparse.linalg.splu = counted_splu
    try:
        _, report = step(state, 1e-3, params, opts)
    finally:
        scipy.sparse.linalg.splu = splu
    fill = factors[0].L.nnz + factors[0].U.nnz
    ms = 1e-3 * _time_us(lambda: step(state, 1e-3, params, opts), repeats)
    print(f"\n{'step':<24} {'cells':>7} {'ms/call':>12} {'factorizations':>15} "
          f"{'iterations':>11} {'L+U nnz':>10}")
    print(f"{'newton 2d':<24} {grid.num_points:>7} {ms:>12.1f} {len(factors):>15} "
          f"{report.iterations:>11} {fill:>10}")


if __name__ == "__main__":
    parser = argparse.ArgumentParser()
    parser.add_argument("--cells", type=int, default=4096)
    parser.add_argument("--repeats", type=int, default=20)
    args = parser.parse_args()
    bench(args.cells, args.repeats)
    bench_newton_2d(args.repeats)
