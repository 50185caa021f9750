"""Property-based search for counterexamples to the structure of one step.

Hypothesis draws admissible parameters, small nonnegative states with exact
zeros and time steps; each draw must either fail to converge, loudly, or
give a step that keeps the invariants the run monitor enforces.  It also
draws two-cell faces, whose entropy dissipation density must not be
negative: the decay of each E_n in a step rests on that sign, and pairs of
states, at which the residual must close the zero-flux boundary faces bit
for bit as the padded difference of the interior fluxes does.
"""

import itertools

import numpy as np
import pytest

import crossdiff as cd
from crossdiff import entropy, fvops
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


def _face_density(u, flux, params, n):
    """The dissipation density sum_i F_i dw_i of E_n at the face between the
    two cells of each row of the stacked ``u`` (shape ``(2, rows, 2)``), with
    ``w = grad phi_n(u)`` and the face fluxes ``flux`` (shape ``(2, rows)``),
    and its scale sum_i |F_i| |dw_i|."""
    w = entropy.grad_phi(entropy.build_coefficients(params, n), u)
    dw = w[..., 1] - w[..., 0]
    return (flux * dw).sum(axis=0), (np.abs(flux) * np.abs(dw)).sum(axis=0)


@st.composite
def faces(draw):
    """Every face whose four cell values (f and g of two cells) come from a
    drawn pool of up to 6 values, as rows of a stacked ``(2, rows, 2)``."""
    pool = draw(st.lists(values, min_size=1, max_size=6))
    cells = np.array(list(itertools.product(pool, repeat=4)))     # (f_0, f_1, g_0, g_1)
    return cells.T.reshape(2, 2, -1).transpose(0, 2, 1)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(params=params, n=st.integers(2, 30), u=faces(), upwind=st.booleans())
def test_face_dissipation_density_is_nonnegative(params, n, u, upwind):
    flux = fvops.face_terms(u, params.as_tuple(), 1.0, None, upwind, axis=1)[-1][..., 0]
    density, scale = _face_density(u, flux, params, n)
    assert (density >= -1e-12 * scale).all(), (density, scale)


def test_downwind_face_dissipation_density_is_negative():
    # the control: with the mobility of each component taken downwind of its
    # pressure gradient, the density has no sign.  Here f's downwind cell is
    # empty, so only g's flux is left, and it runs up g's entropy gradient
    params, n = cd.Params(4.0, 1.0, 1.0, 1.0), 4
    u = np.array([[[0.0, 0.5]], [[1.0, 0.25]]])     # (f, g) of the two cells
    _, dp, _, _, flux = fvops.face_terms(u, params.as_tuple(), 1.0, None, True, axis=1)
    downwind = np.maximum(np.where(dp[..., 0] > 0.0, u[..., 0], u[..., 1]), 0.0) * dp[..., 0]
    density, scale = _face_density(u, downwind, params, n)
    assert density[0] < 0.0 and density[0] == -scale[0]
    assert _face_density(u, flux[..., 0], params, n)[0][0] > 0.0


# plain, regularized, and capped: values above rho - 1 = 1.2 are on the cut's ramp
regs = st.sampled_from([None, (1e-3, 1e3), (0.3, 2.2)])


@st.composite
def state_pairs(draw):
    """A state, and a previous state's stacked array on its grid."""
    state = draw(states())
    prev = draw(st.lists(values, min_size=state.u.size, max_size=state.u.size))
    return state, np.reshape(prev, state.u.shape)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(params=params, pair=state_pairs(), tau=taus, reg=regs, upwind=st.booleans())
def test_residual_closes_the_boundary_faces_bit_for_bit(params, pair, tau, reg, upwind):
    # the face arrays hold the interior faces only; padding them with the
    # zero boundary fluxes and differencing must give the residual's bits
    state, prev = pair
    u, dx, coef = state.u, state.grid.dx, params.as_tuple()
    want = u
    for axis in range(state.grid.ndim):
        flux = fvops.face_terms(u, coef, dx, reg, upwind, axis)[-1]
        zero = np.zeros(flux.shape[:-1] + (1,))
        padded = np.concatenate((zero, flux, zero), axis=-1)
        want = want - (tau / dx * np.diff(padded)).swapaxes(axis + 1, -1)
    want = want - prev
    r = fvops.implicit_residual(u, prev, coef, tau, dx, reg, upwind)[0]
    np.testing.assert_array_equal(r, want)
    np.testing.assert_array_equal(np.signbit(r), np.signbit(want))
