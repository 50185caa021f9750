"""Scaling symmetries of whole runs of the unregularized scheme.

The system is 2-homogeneous: with ``u -> lam u`` and ``t -> t / lam`` every
term of the implicit step scales by ``lam``, so a run from ``lam u0`` with
``tau / lam`` and ``tol * lam`` passes through ``lam`` times the states of
the original run.  With ``x -> mu x`` and ``t -> mu^2 t`` the step equation
is unchanged.  For powers of two every operation of a step scales exactly,
so these laws hold bit for bit, iteration counts included; E_n (n >= 2) is
homogeneous of degree n.  A mirrored initial state gives the mirrored run
up to rounding: the residual mirrors exactly, but the LU factors eliminate
in one direction.

The fixed cases run 20 steps of the zero-front cap ``f = max(1.5 (1 - 4 (x -
0.3)^2), 0)`` with ``g = 1 + 0.3 cos(pi x)`` on 64 cells in 1D; in 2D, on
16^2 cells, g varies along y instead (``1 + 0.3 cos(pi y)``), so that the
state varies along both axes.  Hypothesis (derandomized) also draws states
with exact zeros on up to 64 cells in 1D and 16^2 in 2D, a face average, a
time step and a power of two for lam or mu, and runs 4 steps, drawing
values in [2^-10, 2] or 0.  A wider search of such draws found three ways
in which the amplitude law fails; each is pinned below as it stands: the
absolute nonnegativity slack of the upwind iteration, values so small
that a step's products underflow, and E_n's powers, which numpy does not
round alike for u and lam u.
"""

import numpy as np
import pytest

import crossdiff as cd
from crossdiff.scheme import NONNEG_TOL

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

PARAMS = cd.Params(2.0, 1.0, 1.0, 1.0)
TAU, TOL, STEPS = 1e-3, 1e-10, 20


def _initial(dimension, g_zero=False):
    """The (f, g) arrays of the case on the unit square of its dimension."""
    grid = cd.Grid1D(64, 1.0) if dimension == 1 else cd.Grid2D(16, 1.0)
    x, y = (grid.centers(),) * 2 if dimension == 1 else grid.centers()
    f = np.maximum(1.5 * (1.0 - 4.0 * (x - 0.3) ** 2), 0.0)
    return f, np.zeros_like(f) if g_zero else 1.0 + 0.3 * np.cos(np.pi * y)


def _run(f, g, face, tau=TAU, tol=TOL, length=1.0):
    """The final state and the reports of ``STEPS`` steps of ``tau`` from
    (f, g) on the grid of their shape and side ``length``."""
    grid = (cd.Grid1D if f.ndim == 1 else cd.Grid2D)(f.shape[-1], length)
    entries = list(cd.run(cd.State(grid, f, g), tau, STEPS * tau, PARAMS,
                          cd.SolverOptions(tol=tol, mobility_face=face)))
    return entries[-1][1], [report for _, _, report in entries]


def _counts(reports):
    return [(rep.iterations, rep.factorizations) for rep in reports]


dimensions = pytest.mark.parametrize("dimension", [1, 2], ids=["1d", "2d"])
faces = pytest.mark.parametrize("face", ["upwind", "arithmetic"])


@dimensions
@faces
@pytest.mark.parametrize("lam", [2.0, 4.0, 0.5])
def test_amplitude_scaling_is_exact(dimension, face, lam):
    f, g = _initial(dimension)
    base, reports = _run(f, g, face)
    scaled, scaled_reports = _run(lam * f, lam * g, face, tau=TAU / lam, tol=TOL * lam)
    assert np.array_equal(scaled.u, lam * base.u)
    assert _counts(scaled_reports) == _counts(reports)
    degrees = np.arange(2, len(reports[0].entropies) + 1)
    for rep, scaled_rep in zip(reports, scaled_reports):
        # E_1 has a logarithm and no such law
        assert np.array_equal(scaled_rep.entropies[1:], lam ** degrees * rep.entropies[1:])
        assert scaled_rep.dissipation_cum == lam * rep.dissipation_cum


@dimensions
@faces
@pytest.mark.parametrize("mu", [2.0, 0.5])
def test_length_scaling_is_exact(dimension, face, mu):
    f, g = _initial(dimension)
    base, reports = _run(f, g, face)
    scaled, scaled_reports = _run(f, g, face, tau=TAU * mu * mu, length=mu)
    assert np.array_equal(scaled.u, base.u)
    assert _counts(scaled_reports) == _counts(reports)
    for rep, scaled_rep in zip(reports, scaled_reports):
        assert np.array_equal(scaled_rep.entropies, mu ** dimension * rep.entropies)
        assert scaled_rep.dissipation_cum == mu ** dimension * rep.dissipation_cum


@dimensions
@faces
def test_mirrored_run_is_the_mirror_to_rounding(dimension, face):
    f, g = _initial(dimension)
    base, reports = _run(f, g, face)
    for axis in range(dimension):
        mirrored, mirrored_reports = _run(np.flip(f, axis).copy(), np.flip(g, axis).copy(),
                                          face)
        assert _counts(mirrored_reports) == _counts(reports)
        # measured: 1.8e-16 in 1D, 3.5e-16 in 2D, relative to the maximum;
        # in 1D the first step already differs (by 1e-22, near the front)
        gap = np.abs(np.flip(mirrored.u, axis + 1) - base.u).max()
        assert gap <= 1e-15 * base.u.max()


@dimensions
@faces
def test_zero_component_stays_zero(dimension, face):
    # g = 0 solves its equation; the 1D band solve keeps it exactly, the 2D
    # sparse LU leaves rounding of both signs (1.4e-22 measured)
    f, g = _initial(dimension, g_zero=True)
    final, _ = _run(f, g, face)
    if dimension == 1:
        assert not final.g.any()
    else:
        assert np.abs(final.g).max() <= 1e-18


DRAW_STEPS = 4      # the fourth step starts from the cubic extrapolation
DEGREES = np.arange(2, cd.SolverOptions.n_max + 1)    # E_n without a logarithm


@st.composite
def cases(draw):
    """(f, g, face, tau): a state on 2..64 cells in 1D or 2^2..16^2 in 2D,
    half of its values exact zeros."""
    if draw(st.booleans()):
        shape = (draw(st.integers(2, 64)),)
    else:
        shape = (draw(st.integers(2, 16)),) * 2
    values = st.one_of(st.just(0.0), st.floats(2.0 ** -10, 2.0))
    size = int(np.prod(shape))
    f, g = (np.reshape(draw(st.lists(values, min_size=size, max_size=size)), shape)
            for _ in "fg")
    return (f, g, draw(st.sampled_from(["upwind", "arithmetic"])),
            draw(st.sampled_from([1e-4, 1e-3])))


def _march(f, g, face, tau, tol=TOL, length=1.0):
    """The stacked states and the reports of a run of ``DRAW_STEPS`` steps
    from (f, g), and the error that ended it early, if any."""
    grid = (cd.Grid1D if f.ndim == 1 else cd.Grid2D)(f.shape[-1], length)
    entries, error = [], None
    try:
        for _, state, report in cd.run(cd.State(grid, f, g), tau, DRAW_STEPS * tau, PARAMS,
                                       cd.SolverOptions(tol=tol, mobility_face=face)):
            entries.append((state.u, report))
    except cd.SchemeError as err:
        error = err
    return entries, error


def _assert_law(base, scaled, state_factor, entropy_factor, dissipation_factor):
    """The scaled run is the base run with its states times ``state_factor``,
    E_2..E_n times ``entropy_factor`` (a scalar or one factor per degree) and
    the cumulative dissipation times ``dissipation_factor``, bit for bit,
    with the same counts and the same error, if any, at the same step."""
    (entries, error), (scaled_entries, scaled_error) = base, scaled
    assert type(scaled_error) is type(error)
    assert getattr(scaled_error, "step_index", None) == getattr(error, "step_index", None)
    assert len(scaled_entries) == len(entries)
    for (u, rep), (scaled_u, scaled_rep) in zip(entries, scaled_entries):
        assert np.array_equal(scaled_u, state_factor * u)
        assert ((scaled_rep.iterations, scaled_rep.factorizations)
                == (rep.iterations, rep.factorizations))
        assert np.array_equal(scaled_rep.entropies[1:], entropy_factor * rep.entropies[1:])
        assert scaled_rep.dissipation_cum == dissipation_factor * rep.dissipation_cum


@settings(derandomize=True, max_examples=25, deadline=None)
@given(case=cases(), k=st.sampled_from([-2, -1, 1, 2]))
def test_drawn_amplitude_scaling_is_exact(case, k):
    f, g, face, tau = case
    lam = 2.0 ** k
    _assert_law(_march(f, g, face, tau),
                _march(lam * f, lam * g, face, tau / lam, tol=TOL * lam),
                lam, lam ** DEGREES, lam)


@settings(derandomize=True, max_examples=25, deadline=None)
@given(case=cases(), k=st.sampled_from([-1, 1]))
def test_drawn_length_scaling_is_exact(case, k):
    f, g, face, tau = case
    measure = (2.0 ** k) ** f.ndim
    _assert_law(_march(f, g, face, tau),
                _march(f, g, face, tau * 4.0 ** k, length=2.0 ** k),
                1.0, measure, measure)


def test_absolute_nonnegativity_slack_breaks_the_amplitude_law():
    # finding: an upwind iteration goes on while an iterate has a component
    # below -NONNEG_TOL, an absolute slack.  At step 2 of this rough state the
    # base run stops at a minimum of -2.52e-13; times lam = 4 that is below
    # -1e-12, so the scaled run makes one more update, and its bits differ
    rng = np.random.default_rng(98)
    u = rng.uniform(2.0 ** -10, 2.0, (2, 16)) * (rng.uniform(size=(2, 16)) < 0.5)
    (entries, _), (scaled, _) = (_march(*u, "upwind", 1e-4),
                                 _march(*(4.0 * u), "upwind", 1e-4 / 4.0, tol=TOL * 4.0))
    assert 4.0 * entries[2][0].min() < -NONNEG_TOL <= entries[2][0].min()
    assert _counts([rep for _, rep in entries]) == [(0, 0), (5, 1), (6, 0), (6, 0), (6, 0)]
    assert _counts([rep for _, rep in scaled]) == [(0, 0), (5, 1), (7, 0), (6, 0), (6, 0)]


def test_subnormal_values_round_under_amplitude_scaling():
    # finding: from one full cell the upwind front decays by tens to
    # hundreds of orders of magnitude per cell.  At step 4 the base run holds
    # 3.0e-307, and the scaled run's 7.6e-308 comes from products that
    # underflow to subnormals: it differs there, and only there, by 2^-1073
    f = np.zeros(13)
    f[-1] = 1.0
    (entries, _), (scaled, _) = (_march(f, 0.0 * f, "upwind", 1e-4),
                                 _march(0.25 * f, 0.0 * f, "upwind", 4e-4, tol=TOL / 4.0))
    assert _counts([rep for _, rep in scaled]) == _counts([rep for _, rep in entries])
    gaps = [scaled_u - 0.25 * u for (u, _), (scaled_u, _) in zip(entries, scaled)]
    assert any(gap.any() for gap in gaps)
    for (u, _), gap in zip(entries, gaps):
        assert (np.abs(u[gap != 0.0]) < 2.0 ** -1000).all()
        assert np.abs(gap).max() <= 4 * 2.0 ** -1074


def test_entropies_of_a_scaled_run_agree_to_one_unit():
    # finding: E_n reads a table of powers that numpy's ** does not round
    # alike for u and lam u (here E_3 at step 4 differs in its last bit),
    # while the states, counts and dissipation scale exactly
    f, g = np.zeros(2), np.array([0.0, 1.0])
    (entries, _), (scaled, _) = (_march(f, g, "upwind", 1e-4),
                                 _march(f / 4.0, g / 4.0, "upwind", 4e-4, tol=TOL / 4.0))
    assert _counts([rep for _, rep in scaled]) == _counts([rep for _, rep in entries])
    for (u, rep), (scaled_u, scaled_rep) in zip(entries, scaled):
        assert np.array_equal(scaled_u, u / 4.0)
        assert scaled_rep.dissipation_cum == rep.dissipation_cum / 4.0
        expected = 0.25 ** DEGREES * rep.entropies[1:]
        assert (np.abs(scaled_rep.entropies[1:] - expected) <= np.spacing(expected)).all()
