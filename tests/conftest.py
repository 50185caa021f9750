from dataclasses import replace

import numpy as np
import pytest

import crossdiff as cd


@pytest.fixture(scope="session", autouse=True)
def warm_kernels():
    """Run each step path once so timed tests measure algorithms, not
    first-call import and cache costs."""
    p = cd.Params(2.0, 1.0, 1.0, 1.0)
    grid = cd.Grid1D(8, 1.0)
    ic = cd.State(grid, np.linspace(0.5, 1.5, 8), np.ones(8))
    opts = cd.SolverOptions(tol=1e-10)
    cd.step(ic, 1e-4, p, opts)
    cd.step(ic, 1e-4, p, replace(opts, regularization=(1e-2, 100.0)))
    cd.entropy_trace(ic, p, 3)


@pytest.fixture
def params2111():
    return cd.Params(2.0, 1.0, 1.0, 1.0)


@pytest.fixture
def cosine_state():
    def make(cells=64, length=1.0, amp=0.5, g0=1.0):
        grid = cd.Grid1D(cells, length)
        x = grid.centers()
        return cd.State(grid, 1.0 + amp * np.cos(np.pi * x / length),
                        np.full(cells, g0))
    return make


def random_params(rng, count, margin=1.01):
    out = []
    while len(out) < count:
        a, b, c, d = np.exp(rng.uniform(-1.5, 1.5, size=4))
        if a * d > margin * b * c:
            out.append(cd.Params(a, b, c, d))
    return out
