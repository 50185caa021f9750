import dataclasses
import gc
import importlib
import importlib.util
import math
import os
import subprocess
import sys
import warnings
import weakref
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse
import scipy.sparse.linalg

import crossdiff as cd
from crossdiff import fvops, scheme
from test_kernels import _reference_picard


TOL = 1e-12


def _opts(**kw):
    kw.setdefault("tol", TOL)
    return cd.SolverOptions(**kw)


class TestStepBasics:
    def test_constant_state_is_fixed_point(self, params2111):
        grid = cd.Grid1D(16, 1.0)
        st = cd.State.constant(grid, 0.7, 2.3)
        new, rep = cd.step(st, 5.0, params2111, _opts())
        assert rep.iterations == 0
        np.testing.assert_array_equal(new.f, st.f)
        np.testing.assert_array_equal(new.g, st.g)

    def test_residual_contract(self, params2111, cosine_state):
        st = cosine_state(cells=32, amp=0.1)
        opts = _opts()
        new, rep = cd.step(st, 1e-3, params2111, opts)
        rf, rg = cd.step_residual(new, st, 1e-3, params2111, opts)
        res = max(np.abs(rf).max(), np.abs(rg).max())
        assert res <= opts.tol
        assert rep.residual == pytest.approx(res, rel=1e-6, abs=1e-15)

    def test_mass_conservation_and_entropy_decay(self, params2111, cosine_state):
        st = cosine_state(cells=32, amp=0.1)
        new, rep = cd.step(st, 1e-3, params2111, _opts())
        m0 = st.masses()
        assert abs(rep.masses[0] - m0[0]) <= 1e-10
        assert abs(rep.masses[1] - m0[1]) <= 1e-10
        e2_before = cd.entropy_trace(st, params2111, 2)[1]
        assert rep.entropies[1] <= e2_before * (1 + 1e-9)
        assert new.min_value() >= -1e-12

    def test_degenerate_component_stays_zero(self, params2111):
        grid = cd.Grid1D(32, 1.0)
        x = grid.centers()
        st = cd.State(grid, 1.0 + 0.3 * np.cos(np.pi * x), np.zeros(32))
        f_initial = st.f.copy()
        for _ in range(20):
            st, _ = cd.step(st, 1e-3, params2111, _opts())
        assert np.abs(st.g).max() <= 1e-14
        assert np.abs(st.f - f_initial).max() > 1e-5  # f actually evolved

    def test_degenerate_component_stays_zero_symmetric(self, params2111):
        grid = cd.Grid1D(32, 1.0)
        x = grid.centers()
        st = cd.State(grid, np.zeros(32), 1.0 + 0.3 * np.cos(np.pi * x))
        for _ in range(20):
            st, _ = cd.step(st, 1e-3, params2111, _opts())
        assert np.abs(st.f).max() <= 1e-14

    def test_invalid_inputs(self, params2111):
        grid = cd.Grid1D(8, 1.0)
        st = cd.State.constant(grid, 1.0, 1.0)
        with pytest.raises(cd.InvalidInput):
            cd.step(st, 0.0, params2111, _opts())
        with pytest.raises(cd.InvalidInput):
            cd.step(st, -1e-3, params2111, _opts())
        bad = cd.State(grid, np.full(8, -1.0), np.ones(8))
        with pytest.raises(cd.InvalidInput):
            cd.step(bad, 1e-3, params2111, _opts())
        nan = cd.State(grid, np.full(8, np.nan), np.ones(8))
        with pytest.raises(cd.InvalidInput):
            cd.step(nan, 1e-3, params2111, _opts())

    def test_nonconvergence_raises(self, params2111, cosine_state):
        st = cosine_state(cells=32, amp=0.4)
        with pytest.raises(cd.NonConvergence) as err:
            cd.step(st, 10.0, params2111, _opts(max_iters=2, tol=1e-14))
        assert err.value.iterations == 2
        assert err.value.residual > 1e-14

    def test_arithmetic_face_option(self, params2111, cosine_state):
        st = cosine_state(cells=32, amp=0.2)
        new, rep = cd.step(st, 1e-3, params2111, _opts(mobility_face="arithmetic"))
        assert rep.residual <= TOL
        assert abs(rep.masses[0] - st.masses()[0]) <= 1e-10


def _picard(st, tau, params, tol=TOL, max_iters=200, omega=1.0,
            eps=0.0, rho=math.inf, reg=False):
    """Solution of the implicit step by the dense reference Picard iteration."""
    f, g, _, _, ok = _reference_picard(st.f, st.g, tau, st.grid.dx, eps, rho, reg,
                                       True, tol, max_iters, omega,
                                       coef=params.as_tuple())
    assert ok
    return f, g


class TestNewton:
    """Newton against the frozen-coefficient (Picard) fixed point of the
    same step, computed by the dense reference iteration of the tests."""

    def test_matches_picard_1d(self, params2111, cosine_state):
        st = cosine_state(cells=48, amp=0.3)
        f_p, g_p = _picard(st, 1e-3, params2111)
        new_n, rep_n = cd.step(st, 1e-3, params2111, _opts())
        assert np.abs(f_p - new_n.f).max() <= 10 * TOL
        assert np.abs(g_p - new_n.g).max() <= 10 * TOL
        assert rep_n.iterations <= 6  # quadratic convergence away from degeneracy

    def test_matches_picard_random_small_problems(self, params2111):
        rng = np.random.default_rng(12)
        for _ in range(5):
            n = int(rng.integers(8, 24))
            grid = cd.Grid1D(n, 1.0)
            st = cd.State(grid, rng.uniform(0.2, 2.0, n), rng.uniform(0.2, 2.0, n))
            f_p, g_p = _picard(st, 5e-4, params2111)
            new_n, _ = cd.step(st, 5e-4, params2111, _opts())
            assert np.abs(f_p - new_n.f).max() <= 10 * TOL
            assert np.abs(g_p - new_n.g).max() <= 10 * TOL

    def test_matches_picard_regularized(self, params2111, cosine_state):
        st = cosine_state(cells=24, amp=0.3)
        f_p, g_p = _picard(st, 1e-3, params2111, eps=1e-2, rho=50.0, reg=True)
        new_n, _ = cd.step_regularized(st, 1e-3, params2111, 1e-2, 50.0, _opts())
        assert np.abs(f_p - new_n.f).max() <= 10 * TOL
        assert np.abs(g_p - new_n.g).max() <= 10 * TOL


def _degenerate_2d_state(n=16):
    # f is a compactly supported cap: exactly zero on a patch at the corners
    grid = cd.Grid2D(n, 1.0)
    x, y = grid.centers()
    f = 1.5 * np.maximum(0.0, 1.0 - ((x - 0.5) ** 2 + (y - 0.5) ** 2) / 0.35**2)
    g = 1.0 + 0.3 * np.cos(np.pi * x) * np.cos(np.pi * y)
    assert np.any(f == 0.0)
    return cd.State(grid, f, g)


@pytest.fixture
def count_factorizations(monkeypatch):
    """Count the Jacobian LU factorizations made by the solver: calls of
    ``scheme._factor``, which builds the band factors in 1D and SuperLU's
    in 2D."""
    calls = []
    factor = scheme._factor

    def counted(*args):
        calls.append(1)
        return factor(*args)

    monkeypatch.setattr(scheme, "_factor", counted)
    return calls


class TestChordNewton:
    TAU = 1e-2

    def test_reuses_factorization_and_matches_fresh_jacobian(
            self, params2111, count_factorizations, monkeypatch):
        st = _degenerate_2d_state()
        chord, rep_c = cd.step(st, self.TAU, params2111, _opts())
        assert rep_c.residual <= TOL
        # fewer factorizations than updates, and both branches ran: updates
        # with the kept factors accepted, and at least one rejected and
        # followed by a refactorization
        assert 1 < len(count_factorizations) < rep_c.iterations
        count_factorizations.clear()
        monkeypatch.setattr(scheme, "CHORD_CONTRACTION", 0.0)
        fresh, rep_f = cd.step(st, self.TAU, params2111, _opts())
        assert len(count_factorizations) == rep_f.iterations
        assert np.abs(chord.f - fresh.f).max() <= 10 * TOL
        assert np.abs(chord.g - fresh.g).max() <= 10 * TOL

    def test_single_iteration_raises(self, params2111):
        st = _degenerate_2d_state()
        with pytest.raises(cd.NonConvergence) as err:
            cd.step(st, self.TAU, params2111, _opts(max_iters=1))
        assert err.value.iterations == 1
        assert err.value.residual > TOL

    def test_upwind_iterates_settle_nonnegative(self):
        # a random 2D case on which the iteration used to stop at a residual
        # below tol with min f = -3.9e-12, below -NONNEG_TOL, and the step
        # raised InvariantViolation; it now iterates until no component is
        # below -NONNEG_TOL
        rng = np.random.default_rng(5)
        while True:
            a, b, c, d = np.exp(rng.uniform(-1.2, 1.2, 4))
            if a * d > b * c:
                break
        n = int(rng.integers(4, 17))
        grid = cd.Grid2D(n, 1.0)
        x, y = grid.centers()
        f = rng.uniform(0.2, 2) + 0.4 * np.cos(np.pi * x) * np.cos(np.pi * y)
        g = rng.uniform(0, 2, (n, n))
        tau = float(10 ** rng.uniform(-4.5, -1.5))
        st = cd.State(grid, np.maximum(f, 0.0), g)
        assert n == 15 and tau == pytest.approx(0.02236, rel=1e-3)
        opts = _opts(tol=1e-11)
        new, rep = cd.step(st, tau, cd.Params(a, b, c, d), opts)
        assert rep.residual <= opts.tol
        assert new.min_value() >= -scheme.NONNEG_TOL
        for m_new, m_old in zip(rep.masses, st.masses()):
            assert abs(m_new - m_old) <= 10 * opts.tol * grid.measure


class TestAndersonChord:
    def _linear_chord_updates(self, monkeypatch):
        # the residual u - target with stale factors of its Jacobian (the
        # identity) that leave the error e at d * e, d from 0 to 0.2: every
        # plain chord update cuts the residual by 5x, so none refactors
        target = 1.0 + np.random.default_rng(0).uniform(0.0, 1.0, (2, 32))
        d = np.linspace(0.0, 0.2, 64)

        class Stale:
            def solve(self, b):
                return (1.0 - d) * b

        monkeypatch.setattr(scheme.fvops, "implicit_residual",
                            lambda v, *args: (v - target, None))
        prev = cd.State(cd.Grid1D(32, 1.0), np.ones(32), np.ones(32))
        opts = _opts(tol=1e-10, mobility_face="arithmetic")
        new, iters, res, n_lu = scheme._newton_sparse(
            prev, 1e-3, cd.Params(2.0, 1.0, 1.0, 1.0), opts, [Stale()], None)
        assert res <= opts.tol and n_lu == 0
        assert np.abs(new.u - target).max() <= opts.tol
        return iters

    def test_mixing_reaches_tol_in_fewer_updates_on_stale_factors(self, monkeypatch):
        mixed = self._linear_chord_updates(monkeypatch)
        monkeypatch.setattr(scheme, "_anderson", lambda du, pairs: du)
        plain = self._linear_chord_updates(monkeypatch)
        # the plain residual falls as 0.2^k from at most 1: 14 updates
        assert plain == 14
        assert mixed <= 10

    @pytest.mark.parametrize("depth", [1, 2])
    def test_closed_form_is_the_least_squares_mix(self, depth):
        rng = np.random.default_rng(depth)
        du = rng.standard_normal((2, 8))
        pairs = [(rng.standard_normal((2, 8)), rng.standard_normal((2, 8)))
                 for _ in range(depth)]
        Y = np.stack([y.ravel() for _, y in pairs], axis=1)
        gamma = np.linalg.lstsq(Y, du.ravel(), rcond=None)[0]
        expected = du - sum(c * (s + y) for c, (s, y) in zip(gamma, pairs))
        np.testing.assert_allclose(scheme._anderson(du, pairs), expected, rtol=1e-12)

    def test_singular_gram_gives_the_plain_update(self):
        rng = np.random.default_rng(3)
        du, s, y = rng.standard_normal((3, 2, 8))
        zero = np.zeros_like(y)
        for pairs in ([(s, zero)], [(s, y), (s, 2.0 * y)], [(s, np.full_like(y, np.nan))]):
            assert scheme._anderson(du, pairs) is du

    def test_2d_zero_patch_run_makes_fewer_updates(self):
        # f is a cap that is exactly zero around the corners of the grid;
        # with plain chord updates these 10 steps took 88 updates and 4
        # factorizations
        n = 24
        c = (np.arange(n) + 0.5) / n
        X, Y = np.meshgrid(c, c, indexing="ij")
        f = 1.5 * np.maximum(0.0, 1.0 - ((X - 0.5) ** 2 + (Y - 0.5) ** 2) / 0.35**2)
        g = 1.0 + 0.3 * np.cos(np.pi * X) * np.cos(np.pi * Y)
        reports = [rep for _, _, rep in cd.run(cd.State(cd.Grid2D(n, 1.0), f, g), 1e-3,
                                               1e-2, cd.muskat_params(1.0, 1.0),
                                               cd.SolverOptions(tol=1e-10))]
        assert len(reports) == 11
        assert sum(rep.factorizations for rep in reports) <= 4
        assert sum(rep.iterations for rep in reports) <= 68


class TestCarriedFactors:
    """``run`` carries the Newton LU factors from step to step."""

    def _final(self, st, params, opts, t_final=0.2):
        entries = list(cd.run(st, 1e-3, t_final, params, opts))
        return entries[-1][1], [rep for _, _, rep in entries[1:]]

    def test_run_reuses_factors_and_matches_refactoring_every_step(
            self, params2111, cosine_state, count_factorizations, monkeypatch):
        st = cosine_state(cells=64, amp=0.5)
        carried, reports = self._final(st, params2111, _opts())
        assert len(reports) == 200
        assert len(count_factorizations) <= 5
        assert sum(rep.factorizations for rep in reports) == len(count_factorizations)
        count_factorizations.clear()
        monkeypatch.setattr(scheme, "CHORD_CONTRACTION", 0.0)
        fresh, reports = self._final(st, params2111, _opts())
        assert len(count_factorizations) == sum(rep.iterations for rep in reports)
        assert np.abs(carried.f - fresh.f).max() <= 1e-9
        assert np.abs(carried.g - fresh.g).max() <= 1e-9

    def test_regularized_run_reuses_factors(self, params2111, cosine_state,
                                            count_factorizations):
        st = cosine_state(cells=32, amp=0.4)
        _, reports = self._final(st, params2111, _opts(regularization=(1e-3, 1e3)),
                                 t_final=0.05)
        assert len(count_factorizations) <= 5 < sum(rep.iterations for rep in reports)

    def test_extrapolated_start_matches_start_at_prev(self, params2111, cosine_state,
                                                      monkeypatch):
        st = cosine_state(cells=64, amp=0.5)
        extrapolated, reports_x = self._final(st, params2111, _opts())
        step = scheme.step
        monkeypatch.setattr(scheme, "step", lambda *args, start, **kw: step(*args, **kw))
        at_prev, reports_p = self._final(st, params2111, _opts())
        assert np.abs(extrapolated.f - at_prev.f).max() <= 1e-9
        assert np.abs(extrapolated.g - at_prev.g).max() <= 1e-9
        assert [rep.iterations for rep in reports_x] != [rep.iterations for rep in reports_p]
        # on this run the linear start took more updates than the start at
        # prev (1,257 against 1,225); the cubic start takes fewer
        assert sum(rep.iterations for rep in reports_x) < \
            sum(rep.iterations for rep in reports_p)
        assert sum(rep.factorizations for rep in reports_x) <= 5
        assert sum(rep.factorizations for rep in reports_p) <= 5

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_extrapolation_reproduces_polynomials_of_degree_k_minus_1(self, k):
        # states that are polynomials of degree k - 1 in the step index
        rng = np.random.default_rng(k)
        coef = rng.uniform(0.5, 2.0, (k, 2, 5))
        at = lambda l: sum(c * float(l) ** j for j, c in enumerate(coef))
        history = [cd.State(cd.Grid1D(5, 1.0), *at(l)) for l in range(k - 1, -1, -1)]
        start = scheme._extrapolate(history)
        np.testing.assert_allclose(start, at(k), rtol=1e-13)

    def test_extrapolation_is_clipped_at_zero(self):
        # a decreasing component whose extrapolation of every order is
        # negative, next to a constant one
        grid = cd.Grid1D(2, 1.0)
        history = [cd.State(grid, np.array([f, 1.0]), np.array([1.0, f]))
                   for f in (0.1, 0.6, 1.0, 1.3)]
        for k in (2, 3, 4):
            start = scheme._extrapolate(history[:k])
            np.testing.assert_array_equal(start, [[0.0, 1.0], [1.0, 0.0]])

    def test_start_order_ramps_up_with_the_history(self, params2111, cosine_state,
                                                   monkeypatch):
        seen = []
        step = scheme.step

        def recording(prev, *args, start, **kw):
            seen.append((np.stack((prev.f, prev.g)), start))
            return step(prev, *args, start=start, **kw)

        monkeypatch.setattr(scheme, "step", recording)
        st = cosine_state(cells=32, amp=0.4)
        self._final(st, params2111, _opts(), t_final=6e-3)
        u = [prev for prev, _ in seen]
        starts = [start for _, start in seen]
        assert starts[0] is None
        expected = [np.maximum(2 * u[1] - u[0], 0),
                    np.maximum(3 * u[2] - 3 * u[1] + u[0], 0)]
        expected += [np.maximum(4 * u[l] - 6 * u[l - 1] + 4 * u[l - 2] - u[l - 3], 0)
                     for l in range(3, 6)]
        for start, want in zip(starts[1:], expected, strict=True):
            assert start.tobytes() == want.tobytes()
        # each run starts a new history
        seen.clear()
        self._final(st, params2111, _opts(), t_final=2e-3)
        assert seen[0][1] is None

    def test_states_share_arrays_and_none_is_written_in_place(self, params2111,
                                                               cosine_state):
        # a step without updates hands back the previous array itself
        st = cd.State.constant(cd.Grid1D(16, 1.0), 0.7, 2.3)
        new, rep = cd.step(st, 5.0, params2111, _opts())
        assert rep.iterations == 0 and new.u is st.u
        # the states of a run (and the starts built from them) leave every
        # earlier state as it was
        kept = []
        for _, state, _ in cd.run(cosine_state(cells=32, amp=0.4), 1e-3, 6e-3,
                                  params2111, _opts()):
            assert state.f.base is state.u
            kept.append((state, state.u.copy()))
        for state, u in kept:
            assert state.u.tobytes() == u.tobytes()

    def test_step_keeps_no_state_across_a_run(self, params2111, cosine_state):
        st = cosine_state(cells=32, amp=0.4)
        before, rep_before = cd.step(st, 1e-3, params2111, _opts())
        self._final(st, params2111, _opts(), t_final=0.02)
        after, rep_after = cd.step(st, 1e-3, params2111, _opts())
        np.testing.assert_array_equal(before.f, after.f)
        np.testing.assert_array_equal(before.g, after.g)
        assert (rep_before.iterations, rep_before.factorizations, rep_before.residual) == \
            (rep_after.iterations, rep_after.factorizations, rep_after.residual)
        assert rep_before.factorizations >= 1


def _sparse_jacobian(vals, grid):
    """The Newton Jacobian over the stacked unknowns (f block, then g block)
    of the values ``vals`` of ``fvops.jacobian_values``, each placed through its
    slot in the factors' storage of ``scheme._structure``."""
    s = scheme._structure(grid.shape)
    if s.csc is None:   # the band array: slot = col (3K + 1) + 2K + row - col
        col = s.slots // (3 * scheme.BANDS + 1)
        row = s.slots % (3 * scheme.BANDS + 1) - 2 * scheme.BANDS + col
    else:
        indices, indptr = s.csc
        row, col = indices[s.slots], np.searchsorted(indptr, s.slots, side="right") - 1
    return scipy.sparse.csc_matrix((vals, (s.q[row], s.q[col])), shape=(len(s.q),) * 2)


def _random_jacobian(rng, grid, params, tau, face, regularization):
    # random sign changes of the pressure gradients, zero components
    shape = (2, *grid.shape)
    u = rng.uniform(0.0, 2.0, shape) * (rng.uniform(size=shape) > 0.2)
    upwind = face == "upwind"
    terms = fvops.implicit_residual(u, u, params.as_tuple(), tau, grid.dx,
                                    regularization, upwind)[1]
    return fvops.jacobian_values(u, terms, params.as_tuple(), tau, grid.dx,
                                 regularization, upwind)


class TestBandFactors:
    """1D Jacobians are factored as band matrices by LAPACK."""

    @pytest.mark.parametrize("face", ["upwind", "arithmetic"])
    @pytest.mark.parametrize("regularization", [None, (1e-1, 10.0)],
                             ids=["plain", "regularized"])
    def test_solves_random_jacobians_like_splu(self, params2111, face, regularization):
        rng = np.random.default_rng(7)
        for n in (2, 3, 17, 64):
            grid = cd.Grid1D(n, 1.0)
            vals = _random_jacobian(rng, grid, params2111, 1e-3, face, regularization)
            lu = scheme._factor(vals, grid)
            # dgbtrf's band array: K fill rows, K super-, the main and K subdiagonals
            assert lu.lu.shape == (3 * scheme.BANDS + 1, 2 * n)
            b = rng.normal(size=2 * n)
            x_ref = scipy.sparse.linalg.splu(_sparse_jacobian(vals, grid)).solve(b)
            assert np.abs(lu.solve(b) - x_ref).max() <= 1e-12 * np.abs(x_ref).max()

    def test_singular_matrix_raises(self):
        # the identity of a 2-cell grid but for the equation of g_1, the 4th
        # unknown of (f_0, g_0, f_1, g_1)
        vals = np.zeros(len(scheme._structure((2,)).slots))
        vals[:3] = 1.0
        with pytest.raises(RuntimeError, match="dgbtrf info=4"):
            scheme._factor(vals, cd.Grid1D(2, 1.0))


@pytest.fixture
def fall_back(monkeypatch, tmp_path):
    """A function that makes the file path of ``scheme._extension`` fail (scipy's
    package directory does not exist), reloads the compiled modules through
    it and returns the list of the modules the fallback goes on to import."""
    imported = []
    find_spec, import_module = importlib.util.find_spec, importlib.import_module

    def missing_scipy(name, *args):
        if name == "scipy":
            return SimpleNamespace(submodule_search_locations=[str(tmp_path / "scipy")])
        return find_spec(name, *args)

    def record(name, *args):
        imported.append(name)
        return import_module(name, *args)

    def use():
        monkeypatch.setattr(importlib.util, "find_spec", missing_scipy)
        monkeypatch.setattr(importlib, "import_module", record)
        scheme._extension.cache_clear()
        flapack = scheme._extension("linalg", "_flapack")
        monkeypatch.setattr(scheme, "dgbtrf", flapack.dgbtrf)
        monkeypatch.setattr(scheme, "dgbtrs", flapack.dgbtrs)
        return imported

    yield use
    scheme._extension.cache_clear()


def _band_factors(vals, grid, monkeypatch):
    """The band array and pivots that ``scheme._factor`` has dgbtrf return."""
    dgbtrf, made = scheme.dgbtrf, []

    def record(*args, **kwargs):
        made.append(dgbtrf(*args, **kwargs))
        return made[-1]

    monkeypatch.setattr(scheme, "dgbtrf", record)
    scheme._factor(vals, grid)
    monkeypatch.setattr(scheme, "dgbtrf", dgbtrf)
    lu, piv, info = made[0]
    return lu.tobytes(), piv.tobytes()


class TestExtensionModules:
    """``scheme`` loads LAPACK's and SuperLU's compiled modules from their
    files; where that fails, it imports them through scipy's packages."""

    def test_fallback_gives_the_same_band_factors(self, params2111, monkeypatch, fall_back):
        rng = np.random.default_rng(17)
        grid = cd.Grid1D(33, 1.0)
        vals = _random_jacobian(rng, grid, params2111, 1e-3, "upwind", None)
        direct = _band_factors(vals, grid, monkeypatch)
        assert fall_back() == ["scipy.linalg._flapack"]
        assert _band_factors(vals, grid, monkeypatch) == direct

    def test_fallback_gives_the_same_superlu_solves(self, params2111, fall_back):
        rng = np.random.default_rng(19)
        grid = cd.Grid2D(9, 1.0)
        vals = _random_jacobian(rng, grid, params2111, 1e-3, "upwind", (1e-1, 10.0))
        b = rng.normal(size=2 * grid.num_points)
        direct = scheme._factor(vals, grid).solve(b)
        imported = fall_back()
        scheme._structure.cache_clear()     # orders through the fallback too
        assert scheme._factor(vals, grid).solve(b).tobytes() == direct.tobytes()
        assert imported == ["scipy.linalg._flapack", "scipy.sparse.linalg._dsolve._superlu"]

    def test_direct_modules_are_the_packages_modules(self):
        src = Path(__file__).resolve().parents[1] / "src"
        code = ("import sys\nfrom crossdiff import scheme\n"
                "superlu = scheme._extension('sparse.linalg._dsolve', '_superlu')\n"
                "assert 'scipy.linalg' not in sys.modules\n"
                "assert 'scipy.sparse' not in sys.modules\n"
                "import scipy.linalg.lapack, scipy.sparse.linalg._dsolve._superlu as S\n"
                "assert scheme.dgbtrf is scipy.linalg.lapack.dgbtrf\n"
                "assert scheme.dgbtrs is scipy.linalg.lapack.dgbtrs\n"
                "assert superlu.gstrf is S.gstrf\n")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [str(src), os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr


class TestSuperLUOrdering:
    def test_newton_factorizations_reduce_fill(self, params2111, monkeypatch):
        factored = []
        gstrf = scheme._gstrf

        def capture(n, data, csc, ilu, **options):
            lu = gstrf(n, data, csc, ilu, **options)
            if not ilu:
                factored.append((scipy.sparse.csc_matrix((data, *csc), shape=(n, n)), lu))
            return lu

        monkeypatch.setattr(scheme, "_gstrf", capture)
        cd.step(_degenerate_2d_state(32), TestChordNewton.TAU, params2111,
                _opts())
        assert factored
        for A, lu in factored:
            colamd = scipy.sparse.linalg.splu(A, permc_spec="COLAMD")
            assert lu.L.nnz + lu.U.nnz <= 0.75 * (colamd.L.nnz + colamd.U.nnz)


class TestJacobianPattern:
    """The structure of the Newton Jacobian depends on the grid's shape only,
    so :func:`scheme._structure` orders it and places its entries once per
    shape, and every factorization takes that order."""

    @pytest.mark.parametrize("grid", [cd.Grid1D(9, 1.0), cd.Grid2D(6, 2.0)],
                             ids=["1d", "2d"])
    def test_values_fill_one_structure_per_grid(self, grid):
        rng = np.random.default_rng(5)
        cases = [(cd.Params(2.0, 1.0, 1.0, 1.0), 1e-3, "upwind", None),
                 (cd.Params(1.0, 0.5, 0.3, 2.0), 2e-2, "arithmetic", None),
                 (cd.Params(3.0, 0.1, 0.2, 1.0), 1e-4, "upwind", (1e-1, 10.0)),
                 (cd.Params(1.0, 0.9, 0.9, 1.0), 5e-3, "arithmetic", (1e-2, 2.0))]
        structure = scheme._structure(grid.shape)
        for case in cases:
            assert len(_random_jacobian(rng, grid, *case)) == len(structure.slots)
        assert scheme._structure(grid.shape) is structure

    @pytest.mark.parametrize("face", ["upwind", "arithmetic"])
    @pytest.mark.parametrize("regularization", [None, (1e-1, 10.0)],
                             ids=["plain", "regularized"])
    def test_cached_order_solves_random_jacobians_like_splu(self, params2111, face,
                                                             regularization):
        rng = np.random.default_rng(11)
        scheme._structure.cache_clear()
        for n in (2, 3, 7, 16):
            grid = cd.Grid2D(n, 1.0)
            for _ in range(3):
                vals = _random_jacobian(rng, grid, params2111, 1e-3, face, regularization)
                lu = scheme._factor(vals, grid)
                assert isinstance(lu, scheme._LU) and len(lu.q) == 2 * n * n
                b = rng.normal(size=2 * n * n)
                x_ref = scipy.sparse.linalg.splu(_sparse_jacobian(vals, grid)).solve(b)
                assert np.abs(lu.solve(b) - x_ref).max() <= 1e-12 * np.abs(x_ref).max()

    def test_structure_order_is_the_order_splu_picks(self, params2111):
        # the order of the structure is the one SuperLU picks for each
        # Jacobian on its own, which keeps the fill of SUPERLU_ORDERING
        rng = np.random.default_rng(13)
        for n in (*range(2, 21), 64):
            grid = cd.Grid2D(n, 1.0)
            for face, regularization in (("upwind", None), ("arithmetic", None),
                                         ("upwind", (1e-1, 10.0))):
                J = _sparse_jacobian(_random_jacobian(rng, grid, params2111, 1e-3, face,
                                                      regularization), grid)
                lu = scipy.sparse.linalg.splu(J, permc_spec=scheme.SUPERLU_ORDERING)
                assert np.array_equal(scheme._structure(grid.shape).q,
                                      np.argsort(lu.perm_c)), (n, face, regularization)

    def test_run_orders_each_grid_shape_once(self, params2111, monkeypatch):
        specs, ordered = [], []
        gstrf = scheme._gstrf

        def record(n, data, csc, ilu, **options):
            if ilu:     # the incomplete factors that order a structure
                ordered.append(n)
            else:
                specs.append(options["ColPerm"])
            return gstrf(n, data, csc, ilu, **options)

        monkeypatch.setattr(scheme, "_gstrf", record)
        scheme._structure.cache_clear()
        lu_count = 0
        for n in (12, 16, 12):
            for _, _, rep in cd.run(_degenerate_2d_state(n), 1e-2, 5e-2, params2111,
                                    _opts()):
                lu_count += rep.factorizations
        # every factorization takes the structure's order as it is
        assert specs == ["NATURAL"] * lu_count and lu_count > 3
        assert ordered == [2 * 12 * 12, 2 * 16 * 16]

    def test_cache_keeps_no_factors_alive(self, params2111, monkeypatch):
        # SuperLU objects take no weak references, so the test holds the
        # first ones and counts the other references left to them: a cached
        # view of a perm_c would be one
        made, wrappers = [], []
        gstrf, factor = scheme._gstrf, scheme._factor

        def keep(*args, **kwargs):
            lu = gstrf(*args, **kwargs)
            made.append(lu)
            return lu

        def keep_wrapper(*args):
            lu = factor(*args)
            wrappers.append(weakref.ref(lu))
            return lu

        monkeypatch.setattr(scheme, "_gstrf", keep)
        monkeypatch.setattr(scheme, "_factor", keep_wrapper)
        scheme._structure.cache_clear()
        reports = [rep for _, _, rep in cd.run(_degenerate_2d_state(16), 1e-2, 5e-2,
                                                params2111, _opts())]
        assert sum(rep.factorizations for rep in reports) > 1
        assert scheme._structure.cache_info().currsize == 1
        ordering, first = made[:2]  # the structure's incomplete factors, the first LU
        del made[:]
        gc.collect()
        assert wrappers[0]() is None
        # the name and the argument
        assert sys.getrefcount(ordering) == 2 and sys.getrefcount(first) == 2


def _monotone_state(grid):
    # strictly positive and increasing along every axis, so with positive
    # (a, b, c, d) both pressure gradients are positive on every face: the
    # upwind choice and the positive-part cut are away from their kinks
    if grid.ndim == 1:
        x = grid.centers()
        f, g = 1.0 + x + 0.2 * x**2, 0.5 + 0.7 * x
    else:
        x, y = grid.centers()
        f, g = 1.0 + x + 0.5 * y + 0.2 * x * y, 0.5 + 0.4 * x + 0.8 * y
    return cd.State(grid, f, g)


def _wavy_state(grid):
    # not monotone, so upwind takes the left cell on some faces, and with
    # rho = 2 some values lie on the cap ramp (1, 2); the phase shifts keep
    # every cell value and its central differences off the kinks at 1 and 2
    if grid.ndim == 1:
        x = grid.centers()
        f = 1.0 + 0.5 * np.cos(np.pi * x + 0.3)
        g = 0.9 + 0.4 * np.cos(2 * np.pi * x + 0.1)
    else:
        x, y = grid.centers()
        f = 1.05 + 0.5 * np.cos(np.pi * x + 0.3) * np.cos(np.pi * y + 0.2)
        g = 0.9 + 0.4 * np.cos(2 * np.pi * y + 0.1) + 0.1 * x
    return cd.State(grid, f, g)


class TestJacobian:
    TAU = 1e-2

    def _check(self, params, state, face, regularization):
        grid = state.grid
        opts = _opts(mobility_face=face, regularization=regularization)
        P = grid.num_points
        z = np.concatenate([state.f.ravel(), state.g.ravel()])

        def residual(zz):
            st = cd.State(grid, zz[:P].reshape(grid.shape), zz[P:].reshape(grid.shape))
            rf, rg = scheme.step_residual(st, state, self.TAU, params, opts)
            return np.concatenate([rf.ravel(), rg.ravel()])

        h = 1e-6
        fd = np.empty((2 * P, 2 * P))
        for j in range(2 * P):
            e = np.zeros(2 * P)
            e[j] = h
            fd[:, j] = (residual(z + e) - residual(z - e)) / (2 * h)
        upwind = face == "upwind"
        u = np.stack((state.f, state.g))
        terms = fvops.implicit_residual(u, u, params.as_tuple(), self.TAU,
                                        grid.dx, regularization, upwind)[1]
        vals = fvops.jacobian_values(u, terms, params.as_tuple(), self.TAU, grid.dx,
                                     regularization, upwind)
        J = _sparse_jacobian(vals, grid).toarray()
        assert np.abs(J - fd).max() <= 1e-7 * np.abs(fd).max()

    @pytest.mark.parametrize("grid", [cd.Grid1D(8, 1.0), cd.Grid2D(5, 1.0)],
                             ids=["1d", "2d"])
    @pytest.mark.parametrize("face", ["upwind", "arithmetic"])
    @pytest.mark.parametrize("regularization", [None, (1e-1, 10.0)],
                             ids=["plain", "regularized"])
    def test_matches_central_differences(self, params2111, grid, face, regularization):
        self._check(params2111, _monotone_state(grid), face, regularization)

    @pytest.mark.parametrize("grid", [cd.Grid1D(8, 1.0), cd.Grid2D(5, 1.0)],
                             ids=["1d", "2d"])
    @pytest.mark.parametrize("face", ["upwind", "arithmetic"])
    @pytest.mark.parametrize("regularization", [None, (1e-1, 2.0)],
                             ids=["plain", "capped"])
    def test_matches_central_differences_off_monotone(self, params2111, grid, face,
                                                      regularization):
        state = _wavy_state(grid)
        if regularization is None:
            dp = params2111.a * np.diff(state.f, axis=0) + params2111.b * np.diff(state.g, axis=0)
            assert (dp < 0.0).any() and (dp > 0.0).any()   # upwind takes both sides
        else:
            assert ((state.f > 1.0) & (state.f < 2.0)).any()   # values on the cap ramp
        self._check(params2111, state, face, regularization)


class TestStepRegularized:
    def test_rho_too_small(self, params2111):
        grid = cd.Grid1D(8, 1.0)
        st = cd.State.constant(grid, 3.0, 1.0)
        with pytest.raises(cd.RhoTooSmall):
            cd.step_regularized(st, 1e-3, params2111, 1e-2, 2.0, _opts())

    def test_step_with_regularization_checks_rho(self, params2111):
        grid = cd.Grid1D(8, 1.0)
        st = cd.State.constant(grid, 3.0, 1.0)
        with pytest.raises(cd.RhoTooSmall):
            cd.step(st, 1e-3, params2111, _opts(regularization=(1e-2, 2.0)))

    @pytest.mark.parametrize("make_grid", [cd.Grid1D, cd.Grid2D], ids=["1d", "2d"])
    def test_is_step_with_regularization_option(self, params2111, make_grid):
        grid = make_grid(12, 1.0)
        x = grid.centers() if grid.ndim == 1 else grid.centers()[0]
        st = cd.State(grid, 1.0 + 0.5 * np.cos(np.pi * x), np.ones(grid.shape))
        opts = _opts(mobility_face="arithmetic")
        new_r, rep_r = cd.step_regularized(st, 1e-3, params2111, 1e-2, 50.0, opts)
        new_s, rep_s = cd.step(st, 1e-3, params2111,
                               dataclasses.replace(opts, regularization=(1e-2, 50.0)))
        np.testing.assert_array_equal(new_r.f, new_s.f)
        np.testing.assert_array_equal(new_r.g, new_s.g)
        np.testing.assert_array_equal(rep_r.entropies, rep_s.entropies)
        assert (rep_r.iterations, rep_r.residual) == (rep_s.iterations, rep_s.residual)

    def test_parameter_ranges(self, params2111):
        grid = cd.Grid1D(8, 1.0)
        st = cd.State.constant(grid, 0.5, 0.5)
        for eps in (0.0, 1.0, -0.5):
            with pytest.raises(cd.InvalidInput, match=r"eps must lie in \(0, 1\)"):
                cd.step_regularized(st, 1e-3, params2111, eps, 10.0, _opts())
        with pytest.raises(cd.InvalidInput, match="rho must exceed 1, got 1.0"):
            cd.step_regularized(st, 1e-3, params2111, 0.1, 1.0, _opts())

    def test_constant_state_unchanged(self, params2111):
        grid = cd.Grid1D(16, 1.0)
        st = cd.State.constant(grid, 1.2, 0.8)  # below rho - 1
        new, rep = cd.step_regularized(st, 1e-2, params2111, 1e-2, 10.0, _opts())
        np.testing.assert_array_equal(new.f, st.f)
        np.testing.assert_array_equal(new.g, st.g)

    def test_output_capped_and_nonnegative(self, params2111, cosine_state):
        st = cosine_state(cells=32, amp=0.5)
        rho = 3.0
        new, _ = cd.step_regularized(st, 1e-3, params2111, 1e-2, rho, _opts())
        assert new.max_value() <= rho + 1e-10
        assert new.min_value() >= -1e-12

    @pytest.mark.parametrize("excess", [0.5, 2.0])
    def test_cap_is_enforced_beyond_cap_tol(self, params2111, cosine_state, monkeypatch,
                                            excess):
        # the solve is made to return values at rho + excess * CAP_TOL
        rho = 3.0

        def overshoot(prev, *args):
            above = np.full_like(prev.u, rho + excess * scheme.CAP_TOL)
            return cd.State(prev.grid, *above), 1, 0.0, 1

        monkeypatch.setattr(scheme, "_newton_sparse", overshoot)
        try:
            cd.step_regularized(cosine_state(cells=16), 1e-3, params2111, 1e-2, rho, _opts())
        except cd.InvariantViolation as err:
            assert excess > 1.0 and err.inequality == "boundedness cap"
        else:
            assert excess < 1.0

    def test_converges_to_exact_step_in_eps(self, params2111, cosine_state):
        st = cosine_state(cells=64, amp=0.5)
        opts = _opts()
        exact, _ = cd.step(st, 1e-3, params2111, opts)
        prev_diff = np.inf
        for eps in (1e-2, 1e-3, 1e-4):
            approx, _ = cd.step_regularized(st, 1e-3, params2111, eps, 1e3, opts)
            diff = max(np.abs(approx.f - exact.f).max(),
                       np.abs(approx.g - exact.g).max())
            assert diff <= 10 * eps
            assert diff < prev_diff
            prev_diff = diff


class TestRun:
    def test_single_step_when_t_final_equals_tau(self, params2111, cosine_state):
        st = cosine_state(cells=16, amp=0.1)
        traj = list(cd.run(st, 1e-3, 1e-3, params2111, _opts()))
        assert len(traj) == 2  # initial entry + one step
        assert traj[0][0] == 0.0
        assert traj[1][0] == pytest.approx(1e-3)

    def test_entropy_vector_nonincreasing(self, params2111, cosine_state):
        st = cosine_state(cells=32, amp=0.4)
        traj = list(cd.run(st, 1e-3, 0.05, params2111, _opts()))
        E = np.array([rep.entropies for _, _, rep in traj])
        e0 = E[0]
        for n in range(6):
            assert np.all(np.diff(E[:, n]) <= 1e-9 * e0[n])

    def test_yields_step_times_in_order(self, params2111, cosine_state):
        st = cosine_state(cells=16, amp=0.1)
        times = [t for t, _, _ in cd.run(st, 1e-3, 5e-3, params2111, _opts())]
        assert times == [l * 1e-3 for l in range(6)]

    def test_nonconvergence_after_only_the_initial_entry(self, params2111, cosine_state):
        st = cosine_state(cells=32, amp=0.5)
        seen = []
        with pytest.raises(cd.NonConvergence) as err:
            for entry in cd.run(st, 5.0, 50.0, params2111, _opts(max_iters=2, tol=1e-14)):
                seen.append(entry)
        assert err.value.step_index == 1
        assert len(seen) == 1 and seen[0][0] == 0.0 and seen[0][1] is st

    def test_regularized_run_completes(self, params2111, cosine_state):
        st = cosine_state(cells=32, amp=0.4)
        traj = list(cd.run(st, 1e-3, 0.01, params2111,
                           _opts(regularization=(1e-3, 1e3))))
        assert len(traj) == 11
        final = traj[-1][1]
        assert final.max_value() <= 1e3 + 1e-10

    def test_invalid_t_final(self, params2111, cosine_state):
        with pytest.raises(cd.InvalidInput):
            cd.run(cosine_state(), 1e-3, 0.0, params2111, _opts())

    @pytest.mark.parametrize("n_max", [700, 1000])
    def test_rejects_n_max_with_non_finite_entropy(self, params2111, cosine_state, n_max):
        # E_558 of this state overflows; the degree-865 coefficients do too
        st = cosine_state(cells=16, amp=0.9)
        with pytest.raises(cd.InvalidInput, match="E_558 of the initial state"):
            cd.run(st, 1e-3, 2e-3, params2111, _opts(n_max=n_max))

    @pytest.mark.parametrize("n_max", [1000, 10**8, 10**13])
    def test_huge_n_max_is_rejected_without_long_arrays(self, params2111, cosine_state,
                                                        monkeypatch, n_max):
        # the entropies are evaluated no further than the first degree whose
        # coefficients overflow (865 here), so the message is that of n_max=1000
        trace = scheme.diagnostics.entropy_trace

        def guarded(state, params, n_max=6):
            assert n_max <= 10**4, f"entropy_trace asked for {n_max} degrees"
            return trace(state, params, n_max)

        monkeypatch.setattr(scheme.diagnostics, "entropy_trace", guarded)
        st = cosine_state(cells=16, amp=0.9)
        with pytest.raises(cd.InvalidInput) as err:
            cd.run(st, 1e-3, 2e-3, params2111, _opts(n_max=n_max))
        assert str(err.value) == (
            f"n_max={n_max} is too large: E_558 of the initial state is not "
            f"finite in double precision; choose n_max < 558")

    @pytest.mark.parametrize("n_max", [1000, 10**13])
    def test_step_rejects_huge_n_max_without_long_arrays(self, params2111, cosine_state,
                                                         monkeypatch, n_max):
        # 10**13 ended in numpy's MemoryError (72.8 TiB); a step checks its
        # new state as run checks the initial one
        trace = scheme.diagnostics.entropy_trace

        def guarded(state, params, n_max=6):
            assert n_max <= 10**4, f"entropy_trace asked for {n_max} degrees"
            return trace(state, params, n_max)

        monkeypatch.setattr(scheme.diagnostics, "entropy_trace", guarded)
        st = cosine_state(cells=16, amp=0.9)
        with pytest.raises(cd.InvalidInput) as err:
            cd.step(st, 1e-3, params2111, _opts(n_max=n_max))
        assert str(err.value) == (
            f"n_max={n_max} is too large: E_565 of the new state is not "
            f"finite in double precision; choose n_max < 565")

    def test_step_to_overflowing_e1_blames_the_values(self, params2111):
        # a constant state stays constant; E_1 of f = 1e307 overflows at
        # every n_max, which the n_max advice ("choose n_max < 1") missed
        grid = cd.Grid1D(8, 1.0)
        st = cd.State(grid, np.full(8, 1e307), np.ones(8))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(cd.InvalidInput) as err:
                cd.step(st, 1e-3, params2111, _opts(n_max=1))
        assert str(err.value) == ("E_1 of the new state is not finite: its values are out "
                                  "of double-precision range for every n_max")

    def test_run_builds_the_coefficient_table_once(self, params2111, cosine_state,
                                                   monkeypatch):
        # the coefficients overflow from degree 865 on; the table of degrees
        # 2..864 was built twice per run, for n_max and for 865
        built = []
        build = scheme.diagnostics.build_coefficients

        def counted(params, n):
            built.append(n)
            return build(params, n)

        monkeypatch.setattr(scheme.diagnostics, "build_coefficients", counted)
        monkeypatch.setattr(scheme.diagnostics, "_OVERFLOWED", {})
        scheme.diagnostics._moment_gather.cache_clear()
        st = cosine_state(cells=16, amp=0.9)
        for n_max in (10**13, 1000, 10**13):
            with pytest.raises(cd.InvalidInput, match="E_558 of the initial state"):
                cd.run(st, 1e-3, 2e-3, params2111, _opts(n_max=n_max))
        assert built == list(range(2, 866))

    def test_long_time_limit_is_constant_state(self, params2111, cosine_state):
        st = cosine_state(cells=32, amp=0.3)
        traj = list(cd.run(st, 1e-3, 4.0, params2111, _opts()))
        final = traj[-1][1]
        mean_f = st.masses()[0] / st.grid.measure
        mean_g = st.masses()[1] / st.grid.measure
        assert np.abs(final.f - mean_f).max() <= 1e-5
        assert np.abs(final.g - mean_g).max() <= 1e-5


class TestBarenblatt:
    """With g = 0 and (a, b, c, d) = (2, 1, 1, 1) the f equation is the
    porous-medium equation f_t = (f^2)_xx, whose Barenblatt solution
    t^(-1/3) (C - (x - 1/2)^2 t^(-2/3) / 12)_+ has its front at
    sqrt(12 C) t^(1/3).  From the exact profile at t = 1e-3, run to 4e-3
    with tau proportional to dx; the L1 error falls at first order."""

    C = 0.25

    def _exact(self, x, t):
        return t ** (-1 / 3) * np.maximum(self.C - (x - 0.5) ** 2 * t ** (-2 / 3) / 12, 0.0)

    def test_converges_at_first_order_with_the_front(self, params2111):
        errors, fronts = [], []
        for n in (64, 128, 256):
            grid = cd.Grid1D(n, 1.0)
            x = grid.centers()
            initial = cd.State(grid, self._exact(x, 1e-3), np.zeros(n))
            *_, (_, final, _) = cd.run(initial, 3e-3 / (n / 4), 3e-3, params2111,
                                       _opts(tol=1e-11))
            assert not final.g.any()
            errors.append(np.abs(final.f - self._exact(x, 4e-3)).sum() * grid.dx)
            # the implicit step leaves f > 0 far beyond the front (down to
            # 1e-293), so the front is where f passes 1% of its maximum
            fronts.append((final.f > 0.01 * final.f.max()).sum() * grid.dx / 2)
        orders = np.log2(np.divide(errors[:-1], errors[1:]))
        assert (orders >= 0.8).all(), (errors, orders)
        front_errors = np.abs(np.subtract(fronts, math.sqrt(12 * self.C) * 4e-3 ** (1 / 3)))
        assert (np.diff(front_errors) < 0).all(), fronts
        assert front_errors[-1] <= 2 / 256, fronts


class TestBarenblatt2D:
    """The 2D porous-medium equation f_t = div grad(f^2) (g = 0, (a, b, c, d)
    = (2, 1, 1, 1)) has the radial Barenblatt solution
    t^(-1/2) (C - |x - (1/2, 1/2)|^2 t^(-1/2) / 16)_+, with its front at
    radius 4 sqrt(C) t^(1/4).  From the exact profile at t = 1e-3, run to
    4e-3 with tau proportional to dx: the flux derivatives along both axes
    meet the degenerate front."""

    C = 0.1

    def _exact(self, grid, t):
        x, y = grid.centers()
        r2 = (x - 0.5) ** 2 + (y - 0.5) ** 2
        return t ** (-1 / 2) * np.maximum(self.C - r2 * t ** (-1 / 2) / 16, 0.0)

    def test_converges_with_the_front_and_stays_symmetric(self, params2111):
        errors, fronts = [], []
        for n in (16, 32, 64):
            grid = cd.Grid2D(n, 1.0)
            initial = cd.State(grid, self._exact(grid, 1e-3), np.zeros(grid.shape))
            *_, (_, final, _) = cd.run(initial, 3e-3 / (n / 4), 3e-3, params2111,
                                       _opts(tol=1e-11))
            # g = 0 solves its equation; the 2D sparse LU leaves rounding in it
            assert np.abs(final.g).max() <= 1e-18
            # the initial profile is symmetric under x <-> y, and so is each step
            assert np.abs(final.f - final.f.T).max() <= 1e-12 * final.f.max()
            errors.append(np.abs(final.f - self._exact(grid, 4e-3)).sum() * grid.dx ** 2)
            # the front radius of the area where f passes 1% of its maximum
            area = (final.f > 0.01 * final.f.max()).sum() * grid.dx ** 2
            fronts.append(math.sqrt(area / math.pi))
        orders = np.log2(np.divide(errors[:-1], errors[1:]))
        assert (orders >= 0.7).all(), (errors, orders)
        front_errors = np.abs(np.subtract(fronts, 4 * math.sqrt(self.C) * 4e-3 ** (1 / 4)))
        assert (np.diff(front_errors) < 0).all(), fronts
        assert front_errors[-1] <= 2 / 64, fronts


class TestLinearDecay:
    """Near the constant state (1, 1) the step is, to first order in the
    amplitude, ``(I + tau M A L_h) u_new = u_prev`` with ``M = I``: the mode
    ``v cos(pi x)``, for ``v`` an eigenvector of ``A`` with eigenvalue
    kappa, is damped per step by exactly ``1 / (1 + tau kappa mu)``, where
    ``mu = (4/dx^2) sin^2(pi dx/2)`` is its eigenvalue of the zero-flux
    Laplacian ``L_h`` (``cos(pi x) cos(pi y)`` in 2D, twice that)."""

    AMP = 1e-6

    @pytest.mark.parametrize("dimension", [1, 2])
    @pytest.mark.parametrize("cells", [16, 64])
    @pytest.mark.parametrize("face", ["upwind", "arithmetic"])
    def test_mode_decays_by_the_linear_factor(self, params2111, dimension, cells, face):
        grid = (cd.Grid1D, cd.Grid2D)[dimension - 1](cells, 1.0)
        mode = np.prod(np.cos(np.pi * np.reshape(grid.centers(), (dimension,) + grid.shape)),
                       axis=0)
        mu = dimension * 4.0 / grid.dx ** 2 * np.sin(np.pi * grid.dx / 2.0) ** 2
        tau = 1e-3
        kappas, vectors = np.linalg.eigh(np.array([[2.0, 1.0], [1.0, 1.0]]))
        for kappa, v in zip(kappas, vectors.T):
            shape = self.AMP * v.reshape((2,) + (1,) * dimension) * mode
            new, _ = cd.step(cd.State(grid, *(1.0 + shape)), tau, params2111,
                             _opts(tol=1e-14, mobility_face=face))
            ratio = np.sum((new.u - 1.0) * shape) / np.sum(shape * shape)
            want = 1.0 / (1.0 + tau * kappa * mu)
            # first order in the amplitude: upwind faces switch with its sign
            assert abs((1.0 - ratio) - (1.0 - want)) <= 1e-6 * (1.0 - want)


class TestClamping:
    def test_clamp_reports_zero_when_nothing_clamped(self, params2111, cosine_state):
        st = cosine_state(cells=16, amp=0.2)
        new, rep = cd.step(st, 1e-3, params2111, _opts(clamp_negative=True))
        assert rep.clamped_mass == (0.0, 0.0)
        assert new.min_value() >= 0.0


class TestReportFaceTerms:
    """A step's report is a function of the new state alone: its dissipation
    is that of the new state, whatever the face average, regularization or
    clamping of the step."""

    @staticmethod
    def _state(grid, fronts):
        # a compactly supported cap of f over a positive g, or f and g
        # supported on opposite sides (arithmetic faces take these negative);
        # in 2D f varies along x and g along y
        x, y = grid.centers() if grid.ndim == 2 else (grid.centers(),) * 2
        if fronts:
            return cd.State(grid, np.where(x < 0.3, 2.0, 0.0), np.where(y > 0.7, 2.0, 0.0))
        return cd.State(grid, 1.5 * np.maximum(0.0, 1.0 - ((x - 0.5) / 0.3) ** 2),
                        1.0 + 0.3 * np.cos(np.pi * y))

    @pytest.mark.parametrize("grid", [cd.Grid1D(48, 1.0), cd.Grid2D(9, 1.0)],
                             ids=["1d", "2d"])
    @pytest.mark.parametrize("kw", [
        {}, {"mobility_face": "arithmetic"}, {"regularization": (1e-2, 10.0)},
        {"mobility_face": "arithmetic", "clamp_negative": True},
    ], ids=["upwind", "arithmetic", "regularized", "clamped"])
    def test_report_dissipation_is_that_of_the_new_state(self, params2111, grid, kw):
        clamp = kw.get("clamp_negative", False)
        new, rep = cd.step(self._state(grid, clamp), 1e-2, params2111,
                           _opts(tol=1e-11, **kw))
        assert rep.dissipation > 0.0 and (sum(rep.clamped_mass) > 0.0) == clamp
        assert rep.dissipation == cd.dissipation(new, params2111)


class TestLimitCycleData:
    """Strongly coupled degenerate patches on which the plain
    frozen-coefficient (Picard) iteration limit-cycles (residual 0.85 after
    400 sweeps of the reference iteration); under-relaxed by 1/2 it
    converges in 159 sweeps."""

    P = cd.Params(1.55, 0.96, 2.31, 1.81)
    TAU = 2e-3

    def _state(self):
        rng = np.random.default_rng(0)
        n = 24
        return cd.State(cd.Grid1D(n, 1.0),
                        np.where(rng.uniform(0, 1, n) > 0.4, 1.5, 0.0),
                        np.where(rng.uniform(0, 1, n) > 0.4, 1.2, 0.0))

    def test_newton_residual_and_nonnegativity(self):
        st = self._state()
        opts = _opts(tol=1e-11)
        new, rep = cd.step(st, self.TAU, self.P, opts)
        rf, rg = cd.step_residual(new, st, self.TAU, self.P, opts)
        assert max(np.abs(rf).max(), np.abs(rg).max()) <= 1e-11
        assert new.min_value() >= -1e-12

    def test_matches_relaxed_picard_reference(self):
        st = self._state()
        f_p, g_p = _picard(st, self.TAU, self.P, tol=1e-11, max_iters=400, omega=0.5)
        new_n, _ = cd.step(st, self.TAU, self.P, _opts(tol=1e-11))
        assert np.abs(f_p - new_n.f).max() <= 1e-9
        assert np.abs(g_p - new_n.g).max() <= 1e-9


class TestArithmeticFaceNegativity:
    """Arithmetic face averaging carries no positivity guarantee; the solver
    must either fail loudly or clamp with mass accounting."""

    def _front_state(self):
        grid = cd.Grid1D(64, 1.0)
        x = grid.centers()
        return cd.State(grid, np.where(x < 0.3, 2.0, 0.0),
                        np.where(x > 0.7, 2.0, 0.0))

    def test_unclamped_violation_is_loud(self, params2111):
        state = self._front_state()
        with pytest.raises(cd.InvariantViolation) as err:
            for _ in range(50):
                state, _ = cd.step(state, 2e-3, params2111,
                                   _opts(mobility_face="arithmetic"))
        assert err.value.inequality == "nonnegativity"

    def test_clamping_restores_positivity_and_accounts_mass(self, params2111):
        state = self._front_state()
        clamped_total = 0.0
        for _ in range(50):
            state, rep = cd.step(state, 2e-3, params2111,
                                 _opts(mobility_face="arithmetic",
                                       clamp_negative=True))
            clamped_total += sum(rep.clamped_mass)
            assert state.min_value() >= 0.0
        assert clamped_total > 0.0

    def test_upwind_stays_nonnegative_on_same_data(self, params2111):
        state = self._front_state()
        for _ in range(50):
            state, _ = cd.step(state, 2e-3, params2111, _opts())
            assert state.min_value() >= -1e-12


class TestDegenerateFront:
    def test_compact_support_front_stays_nonnegative(self, params2111):
        # half the domain starts at exactly zero; the support spreads while
        # mass is conserved and no negative values appear
        grid = cd.Grid1D(64, 1.0)
        x = grid.centers()
        f = np.where(x < 0.5, 1.0, 0.0)
        st = cd.State(grid, f, np.full(64, 0.5))
        m0 = st.masses()
        support0 = int(np.count_nonzero(st.f > 1e-12))
        for _ in range(100):
            st, rep = cd.step(st, 1e-3, params2111, _opts())
        assert st.min_value() >= -1e-12
        assert abs(st.masses()[0] - m0[0]) <= 1e-9
        assert abs(st.masses()[1] - m0[1]) <= 1e-9
        assert int(np.count_nonzero(st.f > 1e-12)) > support0

    @pytest.mark.parametrize("cells, tol", [(256, 1e-7), (4096, 1e-9)])
    def test_zero_front_cap_is_solved_nonnegative(self, params2111, cells, tol):
        # f = max(1.5 (1 - 4x^2), 0) is zero on half the domain; with
        # frozen-coefficient (Picard) iteration the 256-cell step ended at
        # min f = -2.2e-12 and the 4096-cell step stalled at residual 1.16
        grid = cd.Grid1D(cells, 1.0)
        x = grid.centers()
        st = cd.State(grid, np.maximum(1.5 * (1.0 - 4.0 * x**2), 0.0),
                      1.0 + 0.3 * np.cos(np.pi * x))
        new, rep = cd.step(st, 1e-3, params2111, cd.SolverOptions(tol=tol))
        assert rep.residual <= tol
        assert new.min_value() >= -scheme.NONNEG_TOL
        for m_new, m_old in zip(rep.masses, st.masses()):
            assert abs(m_new - m_old) <= 10 * tol * grid.measure

    def test_zero_front_moves_many_cells_per_update(self, params2111):
        # the positive part's derivative is taken as 1 at 0, so a face whose
        # upwind cell is empty still couples to the Newton update; with 0
        # there the support grew about one cell per side per update, and
        # this step took 36 updates for the 68 cells it grows by
        assert fvops.cut_derivative(np.array([-1.0, 0.0, 2.0]), None).tolist() == [0, 1, 1]
        grid = cd.Grid1D(1024, 1.0)
        x = grid.centers()
        st = cd.State(grid, np.maximum(1.5 * (1.0 - 4.0 * x**2), 0.0),
                      1.0 + 0.3 * np.cos(np.pi * x))
        new, rep = cd.step(st, 1e-3, params2111, cd.SolverOptions(tol=1e-9))
        grown = np.count_nonzero(new.f > 1e-12) - np.count_nonzero(st.f > 0.0)
        assert rep.iterations <= 20 < grown
        assert new.min_value() >= -scheme.NONNEG_TOL

    def test_cutoff_band_is_handled(self, params2111):
        # state values inside (rho-1, rho), where the truncation profile
        # decreases, still give a convergent capped step
        grid = cd.Grid1D(32, 1.0)
        x = grid.centers()
        rho = 3.0
        st = cd.State(grid, 2.2 + 0.6 * np.cos(np.pi * x), np.ones(32))
        assert st.max_value() > rho - 1.0  # the declining branch is active
        new, rep = cd.step_regularized(st, 1e-3, params2111, 1e-2, rho, _opts())
        assert rep.residual <= TOL
        assert new.max_value() <= rho + 1e-10
        assert new.min_value() >= -1e-12


class TestTwoDimensional:
    @pytest.mark.parametrize("axis", [1, 0], ids=["x", "y"])
    def test_y_independent_data_matches_1d(self, params2111, axis):
        # data varying along one axis only (x: array axis 1, y: axis 0) steps
        # like the 1D step along that axis
        n = 16
        grid1 = cd.Grid1D(n, 1.0)
        grid2 = cd.Grid2D(n, 1.0)
        x1 = grid1.centers()
        f1 = 1.0 + 0.3 * np.cos(np.pi * x1)
        st1 = cd.State(grid1, f1, np.ones(n))
        f2 = np.broadcast_to(f1 if axis == 1 else f1[:, None], (n, n))
        st2 = cd.State(grid2, f2, np.ones((n, n)))
        new1, _ = cd.step(st1, 1e-3, params2111, _opts())
        new2, rep2 = cd.step(st2, 1e-3, params2111, _opts())
        for line in range(n):
            f_line = new2.f[line] if axis == 1 else new2.f[:, line]
            g_line = new2.g[line] if axis == 1 else new2.g[:, line]
            np.testing.assert_allclose(f_line, new1.f, rtol=0, atol=5e-11)
            np.testing.assert_allclose(g_line, new1.g, rtol=0, atol=5e-11)

    def test_2d_mass_conservation_and_decay(self, params2111):
        grid = cd.Grid2D(12, 1.0)
        x, y = grid.centers()
        st = cd.State(grid, 1.0 + 0.25 * np.cos(np.pi * x) * np.cos(np.pi * y),
                      np.ones(grid.shape))
        traj = list(cd.run(st, 1e-3, 5e-3, params2111, _opts(tol=1e-11)))
        masses = np.array([rep.masses for _, _, rep in traj])
        assert np.abs(np.diff(masses, axis=0)).max() <= 1e-10
        E = np.array([rep.entropies for _, _, rep in traj])
        assert np.all(np.diff(E[:, 1]) <= 1e-9 * E[0, 1])


class TestRandomizedContract:
    def test_step_contract_over_random_problems(self):
        # broad seeded family: rough, degenerate, and front-like states with
        # anisotropic admissible coefficients; every successful solve must
        # satisfy the full step contract, and non-convergence stays rare
        rng = np.random.default_rng(411)
        nonconv = 0
        solved = 0
        cases = 0
        while cases < 150:
            a, b, c, d = np.exp(rng.uniform(-1.2, 1.2, 4))
            if a * d <= 1.02 * b * c:
                continue
            cases += 1
            p = cd.Params(a, b, c, d)
            n = int(rng.integers(2, 97))
            grid = cd.Grid1D(n, float(rng.uniform(0.3, 3.0)))
            x = grid.centers()
            kind = rng.integers(0, 3)
            if kind == 0:
                f = rng.uniform(0.2, 2) + rng.uniform(0, 0.5) * np.cos(np.pi * x / grid.length)
                g = rng.uniform(0, 2, n)
            elif kind == 1:
                f = np.where(rng.uniform(0, 1, n) > 0.4, rng.uniform(0.5, 2), 0.0)
                g = np.where(rng.uniform(0, 1, n) > 0.4, rng.uniform(0.5, 2), 0.0)
            else:
                f = np.where(x < grid.length * rng.uniform(0.2, 0.8),
                             rng.uniform(0.5, 3), 0.0)
                g = np.full(n, rng.uniform(0.0, 1.0))
            st = cd.State(grid, np.maximum(np.asarray(f, float), 0.0),
                          np.maximum(np.asarray(g, float), 0.0))
            tau = float(10 ** rng.uniform(-4.5, -2))
            opts = _opts(tol=1e-11, max_iters=400)
            m0 = st.masses()
            try:
                new, rep = cd.step(st, tau, p, opts)
            except cd.NonConvergence:
                nonconv += 1
                continue
            solved += 1
            rf, rg = cd.step_residual(new, st, tau, p, opts)
            assert max(np.abs(rf).max(), np.abs(rg).max()) <= 1.001 * opts.tol
            assert abs(rep.masses[0] - m0[0]) <= 10 * opts.tol * grid.measure
            assert abs(rep.masses[1] - m0[1]) <= 10 * opts.tol * grid.measure
            assert new.min_value() >= -1e-12
            E0 = cd.entropy_trace(st, p, 4)
            E1 = cd.entropy_trace(new, p, 4)
            assert np.all(E1 <= E0 * (1 + 1e-9) + 1e-13)
        assert solved >= 140
        assert nonconv <= 5


class TestErrors:
    def test_invariant_violation_names_inequality(self):
        err = cd.InvariantViolation("entropy monotonicity E_3", "rose")
        err.step_index = 7
        assert "entropy monotonicity E_3" in str(err)
        assert "step 7" in str(err)

    def test_messages_follow_step_index(self):
        # run fills in the step after the step raised; the message follows
        nonconv = cd.NonConvergence(3, 1.5e-3)
        assert " at step" not in str(nonconv)
        nonconv.step_index = 12
        assert "did not converge at step 12" in str(nonconv)
        assert "1.500e-03 after 3 iterations" in str(nonconv)
        violation = cd.InvariantViolation("sup-norm bound", "too large")
        assert " at step" not in str(violation)
        violation.step_index = 4
        assert str(violation) == "violated inequality [sup-norm bound] at step 4: too large"

    def test_run_reports_failing_step(self, params2111, cosine_state):
        st = cosine_state(cells=16, amp=0.4)
        with pytest.raises(cd.NonConvergence) as err:
            list(cd.run(st, 1e-3, 3e-3, params2111,
                        cd.SolverOptions(max_iters=1, tol=1e-14)))
        assert err.value.step_index == 1
        assert "did not converge at step 1:" in str(err.value)

    @pytest.mark.parametrize("dimension", [1, 2], ids=["1d", "2d"])
    def test_nan_start_raises_nonconvergence(self, params2111, cosine_state, dimension):
        # NaN > tol is False: a NaN residual must not pass as converged, and
        # the singular Jacobian it can give (SuperLU in 2D) must not escape
        # as a bare RuntimeError
        st = cosine_state(cells=16, amp=0.4) if dimension == 1 else _degenerate_2d_state(8)
        start = np.stack((st.f, st.g))
        start.flat[3] = np.nan
        with pytest.raises(cd.NonConvergence) as err:
            cd.step(st, 1e-3, params2111, _opts(), start=start)
        assert math.isnan(err.value.residual)

    def test_search_stalled_at_the_rounding_floor_blames_tol(self, params2111, cosine_state):
        # no residual reaches 1e-300: the failed search names tol and the
        # floor of the residual instead of the time step
        with pytest.raises(cd.NonConvergence) as err:
            cd.step(cosine_state(cells=64), 1e-3, params2111, _opts(tol=1e-300))
        message = str(err.value)
        assert "tol=1e-300 is below the rounding floor of the residual" in message
        assert all(name in message for name in ("tol >= ", "tau <= ", "dx >= "))
        assert "time step too large" not in message

    def test_floor_is_named_only_near_the_floor(self, params2111, cosine_state):
        u = cosine_state(cells=64).u
        coef, dx = params2111.as_tuple(), 1.0 / 64
        terms = fvops.implicit_residual(u, u, coef, 1e-3, dx, None, True)[1]
        floor = fvops.residual_floor(u, terms, coef, 1e-3, dx)
        assert 1e-16 < floor < 1e-13
        cause = scheme._floor_cause
        assert cause(u, terms, coef, 1e-3, dx, 1e-300, floor) is not None
        assert cause(u, terms, coef, 1e-3, dx, 1e-300, 5 * floor) is None
        assert cause(u, terms, coef, 1e-3, dx, 1e-300, math.nan) is None
        # a floor that overflows names no tol, tau or dx
        assert cause(u, terms, coef, 1e-3, 1e-300, 1e-300, 1.0) is None
        assert "time step too large" in str(cd.NonConvergence(1, 1.0, cause=None))

    @pytest.mark.parametrize("grid", [cd.Grid1D(8, 1e-300), cd.Grid1D(8, 5e-324),
                                      cd.Grid2D(4, 1e-300)], ids=["1d", "dx-zero", "2d"])
    def test_rejects_overflowing_tau_over_dx_squared(self, params2111, grid, recwarn):
        # dx * dx underflows to 0 (and dx itself for the smallest length)
        st = cd.State(grid, np.ones(grid.shape), np.ones(grid.shape))
        for call in (lambda: cd.step(st, 1e-3, params2111, _opts()),
                     lambda: cd.run(st, 1e-3, 1e-3, params2111, _opts())):
            with pytest.raises(cd.InvalidInput, match=r"^tau/dx\^2 is not finite for "
                               r"tau=0\.001 and length=.* choose a larger length"):
                call()
        assert not recwarn.list

    def test_invalid_input_is_a_value_error(self):
        assert issubclass(cd.InvalidInput, ValueError)
        assert issubclass(cd.RhoTooSmall, ValueError)
        with pytest.raises(cd.InvalidInput, match="^tol must be positive$"):
            cd.SolverOptions(tol=0.0)
        with pytest.raises(cd.InvalidInput, match=r"^rho must exceed 1, got 0\.5$"):
            cd.SolverOptions(regularization=(0.1, 0.5))

    def test_rejects_infinite_tol_and_non_integral_counts(self):
        with pytest.raises(cd.InvalidInput, match="^tol must be finite, got inf$"):
            cd.SolverOptions(tol=math.inf)
        with pytest.raises(cd.InvalidInput, match=r"^n_max must be an integer, got 2\.5$"):
            cd.SolverOptions(n_max=2.5)
        with pytest.raises(cd.InvalidInput, match=r"^max_iters must be an integer, got 3\.0$"):
            cd.SolverOptions(max_iters=3.0)
        opts = cd.SolverOptions(n_max=np.int64(3), max_iters=np.int32(5))
        assert (opts.n_max, opts.max_iters) == (3, 5)

    def test_step_index_is_declared_once(self):
        assert cd.SchemeError("x").step_index is None
        assert cd.InvalidInput("x").step_index is None
        assert cd.RhoTooSmall(1.5, 2.0).step_index is None
        owners = [cls for cls in (cd.SchemeError, cd.InvalidInput, cd.RhoTooSmall,
                                  cd.NonConvergence, cd.InvariantViolation)
                  if "step_index" in cls.__dict__]
        assert owners == [cd.SchemeError]

    def test_run_reports_failing_step_of_rejected_rho(self, params2111, cosine_state):
        # the first step's previous state has sup 1.4 > rho
        st = cosine_state(cells=16, amp=0.4)
        with pytest.raises(cd.RhoTooSmall) as err:
            list(cd.run(st, 1e-3, 3e-3, params2111, _opts(regularization=(1e-2, 1.2))))
        assert err.value.step_index == 1

    def test_run_reports_step_of_any_scheme_error(self, params2111, cosine_state,
                                                  monkeypatch):
        calls = []

        def third_step_fails(*args, **kwargs):
            calls.append(None)
            if len(calls) == 3:
                raise cd.InvalidInput("rejected")
            return step(*args, **kwargs)

        step = scheme.step
        monkeypatch.setattr(scheme, "step", third_step_fails)
        entries = []
        with pytest.raises(cd.InvalidInput) as err:
            entries.extend(cd.run(cosine_state(cells=16, amp=0.4), 1e-3, 5e-3,
                                  params2111, _opts()))
        assert err.value.step_index == 3 and len(entries) == 3
        assert str(err.value) == "rejected"

    def test_solver_options_validation(self):
        with pytest.raises(ValueError):
            cd.SolverOptions(tol=0.0)
        with pytest.raises(ValueError):
            cd.SolverOptions(max_iters=0)
        with pytest.raises(ValueError):
            cd.SolverOptions(n_max=0)
        with pytest.raises(ValueError):
            cd.SolverOptions(regularization=(0.0, 10.0))
        with pytest.raises(ValueError):
            cd.SolverOptions(regularization=(0.1, 0.5))
        with pytest.raises(ValueError):
            cd.SolverOptions(mobility_face="geometric")
