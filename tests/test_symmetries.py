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

Every case runs 20 steps of the zero-front cap ``f = max(1.5 (1 - 4 (x -
0.3)^2), 0)`` with ``g = 1 + 0.3 cos(pi x)`` on 64 cells in 1D; in 2D, on
16^2 cells, g varies along y instead (``1 + 0.3 cos(pi y)``), so that the
state varies along both axes.
"""

import numpy as np
import pytest

import crossdiff as cd

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
