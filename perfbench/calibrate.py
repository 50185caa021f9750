"""Host-speed probe: fixed work that does not touch crossdiff.

Run as ``python3 perfbench/calibrate.py KIND``; the harness times the
process from spawn to exit, interleaved with the runs it measures, and
scales the run times by ``CAL_REF_S[KIND] / median(probe times)``.  The
probe mirrors the dominant cost of a workload, so its time moves with the
host's speed the same way while no change to the program can move it:

* ``python`` -- interpreter start, the numpy/scipy imports crossdiff needs,
  and many small banded solves and array operations on 64 cells (the
  per-call overhead of the 1D Picard path);
* ``sparse`` -- the same start-up plus SuperLU solves of a fixed two-block
  2D system with 8192 unknowns (the sparse Newton path).
"""

import sys

import numpy as np
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg
import scipy.special  # noqa: F401  (imported by crossdiff as well)

#: median probe time per kind on the host the benchmark was defined on
#: (2-CPU Xeon VM, Python 3.11, numpy 2.4, scipy 1.17); only the ratio to
#: the median of a run matters, so these are fixed constants
CAL_REF_S = {"python": 0.9, "sparse": 1.1}


def small_calls() -> None:
    n = 64
    x = np.linspace(0.0, 1.0, n)
    ab = np.vstack([-np.ones(n), 2.5 * np.ones(n), -np.ones(n)])
    for _ in range(8000):
        scipy.linalg.solve_banded((1, 1), ab, x)
        np.maximum(x - 0.5, 0.0) * np.cos(x) + x


def sparse_solves() -> None:
    n = 64
    t = scipy.sparse.diags([-1.0, 2.5, -1.0], [-1, 0, 1], shape=(n, n))
    eye = scipy.sparse.identity(n)
    block = scipy.sparse.kron(t, eye) + scipy.sparse.kron(eye, t)
    coupling = 0.1 * scipy.sparse.identity(n * n)
    system = scipy.sparse.bmat([[block, coupling], [coupling, block]]).tocsr()
    rhs = np.ones(2 * n * n)
    for _ in range(8):
        scipy.sparse.linalg.spsolve(system, rhs)


if __name__ == "__main__":
    {"python": small_calls, "sparse": sparse_solves}[sys.argv[1]]()
