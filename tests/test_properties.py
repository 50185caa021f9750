"""Property-based search for counterexamples to the structure of one step.

Hypothesis draws admissible parameters, small nonnegative states with exact
zeros and time steps; each draw must either fail to converge, loudly, or
give a step that keeps the invariants the run monitor enforces.
"""

import numpy as np
import pytest

import crossdiff as cd
from crossdiff.diagnostics import ENTROPY_REL_SLACK, MASS_SLACK_FACTOR
from crossdiff.scheme import NONNEG_TOL

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

OPTS = cd.SolverOptions()       # upwind faces, tol = 1e-10, E_1..E_6

# a, b, c, d in the box [e^-1.5, e^1.5] of verify.LOG_BOX, with ad > 1.01 bc
params = (st.tuples(*[st.floats(-1.5, 1.5)] * 4)
          .map(lambda logs: np.exp(logs).tolist())
          .filter(lambda abcd: abcd[0] * abcd[3] > 1.01 * abcd[1] * abcd[2])
          .map(lambda abcd: cd.Params(*abcd)))
# half of the values are exact zeros: degenerate cells and fronts
values = st.one_of(st.just(0.0), st.floats(0.0, 2.0))
taus = st.floats(-4.0, -1.0).map(lambda e: 10.0 ** e)


@st.composite
def states(draw):
    if draw(st.booleans()):
        grid = cd.Grid1D(draw(st.integers(4, 16)), 1.0)
    else:
        grid = cd.Grid2D(draw(st.integers(2, 4)), 1.0)
    f, g = (draw(st.lists(values, min_size=grid.num_points, max_size=grid.num_points))
            for _ in range(2))
    return cd.State(grid, np.reshape(f, grid.shape), np.reshape(g, grid.shape))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(params=params, prev=states(), tau=taus)
def test_step_keeps_mass_sign_and_entropies(params, prev, tau):
    try:
        new, report = cd.step(prev, tau, params, OPTS)
    except cd.NonConvergence:
        return
    drift = np.abs(np.subtract(new.masses(), prev.masses()))
    assert (drift <= MASS_SLACK_FACTOR * OPTS.tol * prev.grid.measure).all(), drift
    assert new.min_value() >= -NONNEG_TOL
    before = cd.entropy_trace(prev, params, OPTS.n_max)
    rise = (report.entropies - before) / np.maximum(before, 1e-300)
    assert (rise <= ENTROPY_REL_SLACK).all(), rise
