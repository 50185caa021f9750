"""Implicit time stepping for the cross-diffusion system.

One step solves, cellwise on the mesh,

    u - tau * div(mobility(u) * face_gradient(u)) = prev,

with the component flux at a face equal to the (positive-part, upwind or
arithmetic) face mobility times the face gradient of that component's
pressure (a f + b g for f, c f + d g for g).  With ``opts.regularization =
(eps, rho)``, the one value the solve hands down to the face operator, the
same step uses the capped/damped mobility plus an eps-identity diffusion block.

:mod:`crossdiff.fvops`, one operator for every dimension, gives the
residual, the Newton Jacobian's pattern and values, and the residual's
rounding floor; this module orders, stores, factors and iterates.  The
nonlinear solve is a chord Newton iteration (one LU factorization reused,
with Anderson-mixed updates, while it contracts the residual by the factor
its back-end's price sets, 10x for the band LU and 4x for SuperLU,
refreshed with Armijo backtracking when it does not).  The unknowns are
ordered once per grid shape, and the Jacobian is factored as a band matrix
by LAPACK in 1D and by SuperLU in 2D, both called through scipy's compiled
modules, loaded on their own: no run imports ``scipy.linalg`` or
``scipy.sparse``.  Convergence is declared on the max-norm of the true
nonlinear residual.  The first SuperLU load of a process, where libc is
glibc, sets malloc's mmap threshold to its 32 MiB cap and its trim
threshold to 256 MiB, for the whole process: SuperLU allocates L and U
afresh at each factorization, which page-faulted the freed set back in
(4.8 MB, 1,238 minor faults at 64x64) on grids up to about 112x112.  RSS
no longer shrinks between 2D factorizations.

``run`` marches the piecewise-constant-in-time sequence one step at a time
and carries the LU factors from each step into the next: the Jacobian does
not depend on the previous state, and step l+1 starts near the iterate at
which step l's last factors were built, at the cubic extrapolation
``max(4 u_l - 6 u_{l-1} + 4 u_{l-2} - u_{l-3}, 0)`` of the last four
states (of lower order while fewer are known).  By default
:class:`diagnostics.RunMonitor` raises :class:`InvariantViolation` (naming
the inequality) on the first breach.
"""

from __future__ import annotations

import collections
import ctypes
import functools
import importlib.machinery
import importlib.util
import math
import numbers
import os
from dataclasses import dataclass

import numpy as np

from . import diagnostics, fvops
from .errors import InvalidInput, InvariantViolation, NonConvergence, RhoTooSmall, SchemeError
from .grid import State
from .params import Params

# slacks of the checks inside a step; the run's inequalities are monitored
# by diagnostics.RunMonitor
NONNEG_TOL = 1e-12
CAP_TOL = 1e-10

# a Newton update made with kept LU factors is accepted only if it cuts the
# residual max-norm to at most this fraction of its current value (and, at
# that rate, the remaining iterations still reach tol); otherwise the
# Jacobian is refactored at the current iterate.  The fraction is set by the
# back-end that built the factors, by what a factorization costs in updates:
# one or two for LAPACK's band LU of a 1D Jacobian, 15-20 for SuperLU at 64x64
CHORD_CONTRACTION = {"band": 0.1, "superlu": 0.25}

# a search that fails at a residual within this factor of the rounding floor
# of the residual (fvops.residual_floor) is blamed on tol
FLOOR_FACTOR = 4.0

# SuperLU column order of the 2D Newton Jacobian, computed once per grid shape from
# the one structure of its Jacobians: minimum degree on the structure of A + A^T.
# On 2D grids of 32x32 cells and more it leaves about 0.5-0.6 of the L+U fill of
# the default COLAMD order.  Each factorization takes the reordered matrix as it
# is ("NATURAL"), with SuperLU's default partial pivoting
SUPERLU_ORDERING = "MMD_AT_PLUS_A"

# sub- and superdiagonals of the 1D Jacobian over the unknowns (f_0, g_0, f_1, ...)
BANDS = 3


@functools.cache
def _extension(package, name):
    """scipy's compiled module ``scipy.<package>.<name>``, loaded from its file
    so that none of scipy's package inits runs (``scipy.linalg``'s loads
    numpy.f2py and numpy.testing, and costs more than the rest of a run's
    set-up).  This relies on scipy's private layout; on any failure the
    module is imported through its packages, which gives the same module."""
    fullname = f"scipy.{package}.{name}"
    try:
        root = importlib.util.find_spec("scipy").submodule_search_locations[0]
        spec = importlib.machinery.PathFinder.find_spec(
            fullname, [os.path.join(root, *package.split("."))])
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module
    except Exception:
        return importlib.import_module(fullname)


# LAPACK's band LU of the 1D Jacobians
_flapack = _extension("linalg", "_flapack")
dgbtrf, dgbtrs = _flapack.dgbtrf, _flapack.dgbtrs


@dataclass(frozen=True)
class SolverOptions:
    max_iters: int = 200
    tol: float = 1e-10                  # max-norm residual, field units
    mobility_face: str = "upwind"       # upwind | arithmetic
    regularization: tuple[float, float] | None = None   # (eps, rho)
    clamp_negative: bool = False
    n_max: int = 6                      # entropy orders traced per step
    check_invariants: bool = True

    def __post_init__(self):
        if self.mobility_face not in ("upwind", "arithmetic"):
            raise InvalidInput(f"unknown face average {self.mobility_face!r}")
        if not self.tol > 0.0:
            raise InvalidInput("tol must be positive")
        if self.tol == math.inf:
            raise InvalidInput(f"tol must be finite, got {self.tol}")
        for name in ("max_iters", "n_max"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral):
                raise InvalidInput(f"{name} must be an integer, got {value}")
            if value < 1:
                raise InvalidInput(f"{name} must be >= 1")
        if self.regularization is not None:
            eps, rho = self.regularization
            if not (0.0 < eps < 1.0):
                raise InvalidInput(f"eps must lie in (0, 1), got {eps}")
            if not rho > 1.0:
                raise InvalidInput(f"rho must exceed 1, got {rho}")


def step(prev: State, tau: float, params: Params, opts: SolverOptions, *,
         factors: list | None = None,
         start: np.ndarray | None = None) -> tuple[State, diagnostics.StepReport]:
    """Advance one implicit step, of the eps/rho-regularized system when
    ``opts.regularization = (eps, rho)`` is set.

    A regularized step raises :class:`RhoTooSmall` when rho is below the
    sup-norm of ``prev``; its output is capped by rho (checked, with
    violations raised) and its entropy decay is only approximate: the
    increment is reported, not enforced.

    ``factors`` is the one-slot holder through which :func:`run` carries the
    Newton LU factors from step to step, and ``start`` the stacked ``(f, g)``
    at which :func:`run` starts the Newton iteration (default ``prev``);
    without them the step depends on nothing but ``prev`` and the options.
    As in :func:`run`, :class:`InvalidInput` names an ``opts.n_max`` for
    which some E_n of the state, here the new one, is not finite.
    """
    _validate_step_inputs(prev, tau)
    if opts.regularization is not None:
        rho, sup = opts.regularization[1], prev.max_value()
        if rho < sup:
            raise RhoTooSmall(rho, sup)
    new, iters, res, n_lu = _newton_sparse(prev, tau, params, opts, factors, start)
    clamped = (0.0, 0.0)
    if opts.clamp_negative:
        clamped = tuple(-m for m in State._wrap(new.grid, np.minimum(new.u, 0.0)).masses())
        new = State._wrap(new.grid, np.maximum(new.u, 0.0))
    elif (m := new.min_value()) < -NONNEG_TOL:
        raise InvariantViolation("nonnegativity", f"min component {m:.3e} < -{NONNEG_TOL:.0e}")
    if opts.regularization is not None:
        rho = opts.regularization[1]
        if (top := new.max_value()) > rho + CAP_TOL:
            raise InvariantViolation(
                "boundedness cap",
                f"max component {top:.6e} exceeds rho={rho} beyond {CAP_TOL:.0e}")
    return new, diagnostics.step_report(new, params, tau, opts.n_max, iters, res,
                                        clamped, n_lu)


def run(initial: State, tau: float, t_final: float, params: Params,
        opts: SolverOptions):
    """March to t_final with uniform steps; returns an iterator over
    (time, state, report) that starts with the initial entry and keeps only
    the current state.

    Invalid arguments raise :class:`InvalidInput` when ``run`` is called:
    ``t_final`` must be a whole multiple of ``tau`` (to 1e-9 relative), and
    E_1..E_n_max must be finite at the initial state (the error names the
    first degree whose E_n is not).  Every report goes
    through one :class:`diagnostics.RunMonitor`, which enforces the run's
    inequalities when ``opts.check_invariants`` is set.  An error of a step
    carries its ``step_index``; the entries yielded before it are the valid
    part of the run.
    """
    _validate_step_inputs(initial, tau)
    if not t_final > 0.0:
        raise InvalidInput(f"t_final must be positive, got {t_final}")
    ratio = t_final / tau
    n_steps = round(ratio) if math.isfinite(ratio) else 0
    if n_steps < 1 or abs(ratio - n_steps) > 1e-9 * n_steps:
        raise InvalidInput(f"t_final={t_final} is not a whole multiple of "
                           f"the time step tau={tau}")
    report = diagnostics.step_report(initial, params, tau, opts.n_max,
                                     state_name="initial state")
    monitor = diagnostics.RunMonitor(report, params, initial.grid.measure, opts)
    return _march(initial, report, tau, n_steps, params, opts, monitor)


def _march(state, report, tau, n_steps, params, opts, monitor):
    yield 0.0, state, report
    factors = []    # the LU factors carried from step to step
    history = []    # the last accepted states, newest first
    for l in range(1, n_steps + 1):
        history = [state] + history[:3]
        start = None if len(history) == 1 else _extrapolate(history)
        try:
            state, report = step(state, tau, params, opts, factors=factors, start=start)
            monitor.observe(report)
        except SchemeError as err:
            err.step_index = l
            raise
        yield l * tau, state, report


def _extrapolate(history):
    """The Newton start of the next step of a run, as a stacked ``(f, g)``:
    the polynomial through the k = 2..4 states of ``history`` (newest
    first, one step apart), evaluated one step ahead (its k-th backward
    difference vanishes) and clipped at zero."""
    k = len(history)
    start = k * history[0].u
    for j in range(1, k):
        start += (-1) ** j * math.comb(k, j + 1) * history[j].u
    return np.maximum(start, 0.0, out=start)


# ---------------------------------------------------------------------------
# internals
# ---------------------------------------------------------------------------

def _validate_step_inputs(prev: State, tau: float) -> None:
    if not tau > 0.0:
        raise InvalidInput(f"time step must be positive, got {tau}")
    grid = prev.grid
    # dx * dx may underflow to 0, so tau is divided by dx twice
    if not (grid.dx > 0.0 and math.isfinite(tau / grid.dx / grid.dx)):
        raise InvalidInput(f"tau/dx^2 is not finite for tau={tau} and length={grid.length} "
                           f"over {grid.num_cells} cells (dx={grid.dx}): choose a larger "
                           f"length or a smaller tau")
    m = prev.min_value()
    if m < -10.0 * NONNEG_TOL:
        raise InvalidInput(f"previous state has negative component {m}")
    if not np.isfinite(prev.u).all():
        raise InvalidInput("previous state contains non-finite values")


def step_residual(state: State, prev: State, tau: float, params: Params,
                  opts: SolverOptions) -> tuple[np.ndarray, np.ndarray]:
    """Nonlinear residual arrays of the implicit step equation; the
    contract checked by the solvers and the tests."""
    r = fvops.implicit_residual(
        state.u, prev.u, params.as_tuple(), tau, state.grid.dx,
        opts.regularization, opts.mobility_face == "upwind")[0]
    return r[0], r[1]


_Structure = collections.namedtuple("_Structure", "q q_inv slots size csc")


@functools.lru_cache(maxsize=4)
def _structure(shape):
    """What every Newton Jacobian on a grid of ``shape`` shares, whatever the
    state, parameters, ``tau``, face average and regularization: the order
    ``q`` of the stacked unknowns that the factors take and its inverse
    ``q_inv``, and the place ``slots`` of each entry of :func:`fvops.jacobian_pattern`
    among the ``size`` stored entries of ``J[q][:, q]``: LAPACK's band array in
    1D, the data of the CSC ``(indices, indptr)`` ``csc`` in 2D."""
    rows, cols = fvops.jacobian_pattern(shape)
    n, nnz = 2 * math.prod(shape), len(rows)
    if len(shape) == 1:     # the place of each unknown in (f_0, g_0, f_1, ...)
        perm = np.arange(n).reshape(-1, 2).T.ravel()
    else:
        # a diagonally dominant matrix of the pattern (whose first n entries are
        # the identity): its incomplete factors with every entry dropped cost
        # little, and SuperLU orders them as it would J
        slots, csc = _csc(rows, cols, n)
        data = np.bincount(slots, np.r_[np.full(n, float(nnz)), np.ones(nnz - n)])
        perm = _gstrf(n, data, csc, True, ILU_DropTol=np.inf, ILU_FillFactor=1.0,
                      ColPerm=SUPERLU_ORDERING).perm_c.astype(np.intp)
    q, q_inv = np.argsort(perm), perm
    rows, cols = perm[rows], perm[cols]     # places in J[q][:, q]
    if len(shape) == 1:
        # A[i, j] goes to ab[2K + i - j, j] of the column-major (3K+1, n) band
        # array, whose first K rows are dgbtrf's fill workspace
        slots = cols * (3 * BANDS + 1) + 2 * BANDS + rows - cols
        return _Structure(q, q_inv, slots, (3 * BANDS + 1) * n, None)
    slots, csc = _csc(rows, cols, n)
    return _Structure(q, q_inv, slots, len(csc[0]), csc)


def _csc(rows, cols, n):
    """The CSC pattern ``(indices, indptr)`` of the entries ``(rows, cols)`` of
    an ``n`` x ``n`` matrix, and the place ``slots`` of each entry among the
    pattern's data (shared where entries coincide)."""
    keys = cols * n     # column-major places
    keys += rows
    order = np.argsort(keys)
    keys = keys[order]
    new = np.r_[True, keys[1:] != keys[:-1]]    # the first of equal keys
    slots = np.empty_like(keys)
    slots[order] = np.cumsum(new) - 1
    keys = keys[new]    # the distinct places, sorted
    return slots, ((keys % n).astype(np.int32),
                   np.searchsorted(keys, n * np.arange(n + 1)).astype(np.int32))


@functools.cache
def _set_malloc_thresholds():
    """Once per process, where libc exports glibc's ``mallopt``: keep freed
    blocks below 32 MiB in the heap for reuse (see the module docstring)."""
    libc = ctypes.CDLL(None) if os.name == "posix" else None
    if hasattr(libc, "mallopt"):    # M_MMAP_THRESHOLD at glibc's cap, then M_TRIM_THRESHOLD
        for param, value in ((-3, 32 << 20), (-1, 256 << 20)):
            if libc.mallopt(param, value) != 1:
                break   # refused (a 32-bit glibc caps it lower): set no more


def _gstrf(n, data, csc, ilu, **options):
    """SuperLU's LU factors (incomplete ones with ``ilu``) of the ``n`` x ``n``
    matrix of CSC ``data`` and ``csc = (indices, indptr)``, taking ``options``
    as ``scipy.sparse.linalg.splu`` and ``spilu`` pass them.  The factors' ``L``
    and ``U`` import ``scipy.sparse`` when they are read."""
    _set_malloc_thresholds()
    superlu = _extension("sparse.linalg._dsolve", "_superlu")
    return superlu.gstrf(n, len(data), data, *csc, csc_construct_func=_csc_array,
                         ilu=ilu, options=options)


def _csc_array(*args, **kwargs):
    from scipy.sparse import csc_array
    return csc_array(*args, **kwargs)


@dataclass
class _LU:
    """LU factors ``lu`` of ``J[q][:, q]`` and their ``lu_solve`` (LAPACK's band
    array in 1D, a SuperLU object in 2D), solving over J's unknowns, and the
    chord ``contraction`` of their back-end (:data:`CHORD_CONTRACTION`)."""
    lu: object
    q: np.ndarray
    q_inv: np.ndarray
    lu_solve: object
    contraction: float

    def solve(self, b):
        return self.lu_solve(b[self.q])[self.q_inv]


def _factor(vals, grid):
    """LU factors, with ``.solve(b)``, of the Newton Jacobian of the values
    ``vals`` of :func:`fvops.jacobian_values` on ``grid``, in the order of its
    structure: band factors by LAPACK in 1D, SuperLU's in 2D, each through its
    compiled module (see :func:`_extension`)."""
    s = _structure(grid.shape)
    n = len(s.q)
    data = np.bincount(s.slots, vals, s.size)
    del vals    # freed before the factorization
    if s.csc is None:
        lu, piv, info = dgbtrf(data.reshape(n, -1).T, BANDS, BANDS, overwrite_ab=True)
        if info != 0:
            raise RuntimeError(f"band LU factorization failed (dgbtrf info={info})")
        return _LU(lu, s.q, s.q_inv,
                   lambda b: dgbtrs(lu, BANDS, BANDS, b, piv, overwrite_b=True)[0],
                   CHORD_CONTRACTION["band"])
    # the options of splu(permc_spec="NATURAL"), which also sets SymmetricMode:
    # without it SuperLU pivots otherwise
    lu = _gstrf(n, data, s.csc, False, ColPerm="NATURAL", SymmetricMode=True)
    return _LU(lu, s.q, s.q_inv, lu.solve, CHORD_CONTRACTION["superlu"])


def _newton_sparse(prev, tau, params, opts, factors, start):
    """Semi-smooth chord Newton with Armijo backtracking on the stacked
    state ``(f, g)`` from ``start`` (default ``prev``); returns the state,
    the number of updates, the final residual max-norm and the number of
    factorizations.

    ``factors`` (or None) is a one-slot holder of LU factors of the Jacobian
    at an earlier iterate, possibly of an earlier step with the same
    ``tau``, parameters and face average (the Jacobian does not depend on
    ``prev``).  They are taken out on entry, so that the holder keeps no
    reference while a new LU is built, and the factors in use are put back
    on success; on any error the holder stays empty.

    Each iteration first tries a chord update with the kept factors and
    accepts it if it contracts the true residual by the factors'
    ``contraction`` (:data:`CHORD_CONTRACTION` of their back-end) and, at
    the ratio it achieved, the iterations left still reach ``tol``;
    otherwise the Jacobian is refactored at the current iterate and the
    fresh Newton direction is backtracked on the true residual.  A chord
    update is Anderson-mixed (:func:`_anderson`) with the pairs of the last
    three updates made with the same factors in this step.  With upwind
    faces the iteration also goes on, within ``max_iters``, while an iterate
    has a component below ``-NONNEG_TOL``: the exact solution of the upwind
    step is nonnegative, so such an iterate is not yet the solution even if
    its residual is below ``tol``.  Only a failed search on a fresh Jacobian,
    a singular Jacobian or an exhausted ``max_iters`` raises
    :class:`NonConvergence` (a NaN residual too: it fails ``phi <= tol``).
    """
    grid = prev.grid
    reg = opts.regularization
    upwind = opts.mobility_face == "upwind"
    coef = np.array(params.as_tuple()).reshape((2, 2) + (1,) * grid.ndim)  # fvops' column

    def norm(v):
        r, terms = fvops.implicit_residual(v, prev.u, coef, tau, grid.dx, reg, upwind)
        return np.abs(r).max(), r, terms

    u = prev.u if start is None else start
    phi, r, terms = norm(u)
    iters = n_lu = 0
    lu = factors.pop() if factors else None
    last, pairs = None, []  # the last (u, du) made with lu, and (s, y) pairs
    while ((not phi <= opts.tol or (upwind and u.min() < -NONNEG_TOL))
           and iters < opts.max_iters):
        iters += 1
        if lu is not None:
            du = lu.solve(-r.ravel()).reshape(u.shape)
            if last is not None:
                pairs = [(u - last[0], du - last[1])] + pairs[:1]
            last = u, du
            u_try = u + _anderson(du, pairs)
            phi_try, r_try, terms_try = norm(u_try)
            # a linear rate that cannot reach tol within max_iters would
            # make the step fail where a fresh Jacobian converges
            if phi_try <= lu.contraction * phi and (
                    phi_try <= opts.tol
                    or math.log(opts.tol / phi_try)
                    >= (opts.max_iters - iters) * math.log(phi_try / phi)):
                u, phi, r, terms = u_try, phi_try, r_try, terms_try
                continue
            lu = None   # release the stale factors before building new ones
        try:
            lu = _factor(fvops.jacobian_values(u, terms, coef, tau, grid.dx, reg, upwind),
                         grid)
        except RuntimeError as err:     # a singular (or NaN) Jacobian
            raise NonConvergence(iters, float(phi)) from err
        n_lu += 1
        du = lu.solve(-r.ravel()).reshape(u.shape)
        last, pairs = (u, du), []
        t_step = 1.0
        for _ in range(30):
            u_try = u + t_step * du
            phi_try, r_try, terms_try = norm(u_try)
            if phi_try < (1.0 - 1e-4 * t_step) * phi:
                u, phi, r, terms = u_try, phi_try, r_try, terms_try
                break
            t_step *= 0.5
        else:
            raise NonConvergence(iters, float(phi),
                                 cause=_floor_cause(u, terms, coef, tau, grid.dx, opts.tol, phi))
    if not phi <= opts.tol:
        raise NonConvergence(iters, float(phi))
    if factors is not None and lu is not None:
        factors.append(lu)
    return State._wrap(grid, u), iters, float(phi), n_lu


def _floor_cause(u, terms, coef, tau, dx, tol, phi):
    """The cause of a failed search at the residual ``phi`` if the rounding
    floor of the residual keeps it above ``tol``, else None."""
    floor = fvops.residual_floor(u, terms, coef, tau, dx)
    need = FLOOR_FACTOR * floor
    if not phi <= need < math.inf:
        return None
    # the floor scales like tau/dx^2: each of these puts it FLOOR_FACTOR below tol
    return (f"tol={tol:.3g} is below the rounding floor of the residual, about {floor:.3g} "
            f"here: machine epsilon times tau/dx^2 times the face flux scale; "
            f"tol >= {need:.3g}, tau <= {tau * tol / need:.3g} or "
            f"dx >= {dx * math.sqrt(need / tol):.3g} would reach it")


def _anderson(du, pairs):
    """The type-II Anderson mix ``du - sum_k gamma_k (s_k + y_k)`` of the chord
    update ``du`` with the ``pairs`` ``(s_k, y_k)`` of iterate and update
    differences, ``gamma`` minimising ``|du - sum_k gamma_k y_k|_2`` (Cramer's
    rule, in Python floats: numpy's scalars round alike but cost more); ``du``
    itself if the Gram determinant is not positive and finite."""
    if not pairs:
        return du
    y = [pair[1] for pair in pairs]
    g11, b1 = float(np.vdot(y[0], y[0])), float(np.vdot(y[0], du))
    det, gamma = g11, [b1]
    if len(y) == 2:
        g12, g22, b2 = (float(np.vdot(*v)) for v in ((y[0], y[1]), (y[1], y[1]), (y[1], du)))
        det, gamma = g11 * g22 - g12 * g12, [g22 * b1 - g12 * b2, g11 * b2 - g12 * b1]
    if not 0.0 < det < math.inf:
        return du
    for (s, y_k), c in zip(pairs, gamma):
        du = du - c / det * (s + y_k)
    return du
