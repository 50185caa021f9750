#!/usr/bin/env python3
"""Time the 1D kernels on desk-scale problems.

Times the tridiagonal solve, the homogeneous-polynomial cell evaluation,
the implicit-step residual and one Picard solve of an implicit step to a
max-norm residual of 1e-9 (plain and regularized), and prints microseconds
per call (best of the repeats).  Run:

    python benchmarks/bench_kernels.py [--cells N] [--repeats R]
"""

import argparse
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from crossdiff import kernels  # noqa: E402
from crossdiff.entropy import build_coefficients  # noqa: E402
from crossdiff.params import Params  # noqa: E402


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
    lower = -rng.uniform(0.1, 1.0, cells)
    upper = -rng.uniform(0.1, 1.0, cells)
    lower[0] = upper[-1] = 0.0
    diag = 1.0 + np.abs(lower) + np.abs(upper)
    rhs = rng.standard_normal(cells)
    coeffs = build_coefficients(Params(a, b, c, d), 6).coeffs

    rows = [
        ("thomas", lambda: kernels.thomas(lower, diag, upper, rhs)),
        ("phi_cells (n=6)", lambda: kernels.phi_cells(coeffs, F, G)),
        ("residual_1d", lambda: kernels.residual_1d(
            F, G, F, G, a, b, c, d, tau, dx, 0.0, np.inf, False, True)),
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


if __name__ == "__main__":
    parser = argparse.ArgumentParser()
    parser.add_argument("--cells", type=int, default=4096)
    parser.add_argument("--repeats", type=int, default=20)
    args = parser.parse_args()
    bench(args.cells, args.repeats)
