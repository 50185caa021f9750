"""Implicit time stepping for the cross-diffusion system.

One step solves, cellwise on the mesh,

    u - tau * div(mobility(u) * face_gradient(u)) = prev,

with the component flux at a face equal to the (positive-part, upwind or
arithmetic) face mobility times the face gradient of that component's
pressure (a f + b g for f, c f + d g for g).  With ``opts.regularization =
(eps, rho)``, the one value the solve hands down to the face operator, the
same step uses the capped/damped mobility plus an eps-identity diffusion block.

The face fluxes and the residual come from :mod:`crossdiff.fvops`, one
operator for every dimension.  The nonlinear solve is a chord Newton
iteration in every dimension (analytic Jacobian including mobility
derivatives, one LU factorization reused while it keeps contracting the
residual, refreshed with Armijo backtracking when it does not).  In 1D the
Jacobian is factored as a band matrix by LAPACK, in 2D by SuperLU.
Convergence is declared on the max-norm of the true nonlinear residual.

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

import math
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.linalg

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
# Jacobian is refactored at the current iterate
CHORD_CONTRACTION = 0.25

# SuperLU column order of the 2D Newton splu: minimum degree on the structure
# of A + A^T.  The Jacobian is face-coupled with a structurally symmetric
# pattern; on 2D grids of 32x32 cells and more this order leaves about
# 0.5-0.6 of the L+U fill of the default COLAMD order.  The pivot threshold
# stays at SuperLU's default (partial pivoting)
SUPERLU_ORDERING = "MMD_AT_PLUS_A"


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
            raise ValueError(f"unknown face average {self.mobility_face!r}")
        if not self.tol > 0.0:
            raise ValueError("tol must be positive")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if self.n_max < 1:
            raise ValueError("n_max must be >= 1")
        if self.regularization is not None:
            eps, rho = self.regularization
            if not (0.0 < eps < 1.0):
                raise ValueError(f"eps must lie in (0, 1), got {eps}")
            if not rho > 1.0:
                raise ValueError(f"rho must exceed 1, got {rho}")


@dataclass
class StepReport:
    iterations: int                     # Newton updates, chord ones included
    residual: float
    masses: tuple[float, float]
    entropies: np.ndarray = field(repr=False)
    dissipation: float
    linf: float
    clamped_mass: tuple[float, float] = (0.0, 0.0)
    factorizations: int = 0             # Jacobian LU factorizations (_factor calls)
    # set by the run monitor on the reports of a run
    dissipation_cum: float = 0.0
    verdicts: diagnostics.RunVerdicts | None = None


def step(prev: State, tau: float, params: Params, opts: SolverOptions, *,
         factors: list | None = None,
         start: np.ndarray | None = None) -> tuple[State, StepReport]:
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
    """
    _validate_step_inputs(prev, tau)
    if opts.regularization is not None:
        rho, sup = opts.regularization[1], prev.max_value()
        if rho < sup:
            raise RhoTooSmall(rho, sup)
    new, iters, res, n_lu = _newton_sparse(prev, tau, params, opts, factors, start)
    return _finalize_step(new, params, opts, iters, res, n_lu)


def step_regularized(prev: State, tau: float, params: Params, eps: float,
                     rho: float, opts: SolverOptions, *, factors: list | None = None,
                     start: np.ndarray | None = None) -> tuple[State, StepReport]:
    """:func:`step` with ``opts.regularization = (eps, rho)``; an ``eps``
    outside (0, 1) or a ``rho`` not above 1 raises :class:`InvalidInput`."""
    try:
        opts = replace(opts, regularization=(eps, rho))
    except ValueError as err:   # SolverOptions' check of the (eps, rho) ranges
        raise InvalidInput(str(err)) from err
    return step(prev, tau, params, opts, factors=factors, start=start)


def run(initial: State, tau: float, t_final: float, params: Params,
        opts: SolverOptions):
    """March to t_final with uniform steps; returns an iterator over
    (time, state, report) that starts with the initial entry and keeps only
    the current state.

    Invalid arguments raise :class:`InvalidInput` when ``run`` is called:
    ``t_final`` must be a whole multiple of ``tau`` (to 1e-9 relative), and
    E_1..E_n_max must be finite at the initial state.  Every report goes
    through one :class:`diagnostics.RunMonitor`, which enforces the run's
    inequalities when ``opts.check_invariants`` is set.  An error of a step
    carries its ``step_index``; the entries yielded before it are the valid
    part of the run.
    """
    if not t_final > 0.0:
        raise InvalidInput(f"t_final must be positive, got {t_final}")
    _validate_step_inputs(initial, tau)
    ratio = t_final / tau
    n_steps = round(ratio) if math.isfinite(ratio) else 0
    if n_steps < 1 or abs(ratio - n_steps) > 1e-9 * n_steps:
        raise InvalidInput(f"t_final={t_final} is not a whole multiple of "
                           f"the time step tau={tau}")
    report = initial_report(initial, params, opts)
    monitor = diagnostics.RunMonitor(report, params, tau, initial.grid.measure, opts)
    return _march(initial, report, tau, n_steps, params, opts, monitor)


def initial_report(initial: State, params: Params, opts: SolverOptions) -> StepReport:
    """The report of the initial state of a run; raises
    :class:`InvalidInput` naming the first degree whose E_n is not finite
    in double precision."""
    with np.errstate(over="ignore", invalid="ignore"):
        report = _report_for(initial, params, opts, iterations=0, residual=0.0)
    overflow = np.flatnonzero(~np.isfinite(report.entropies))
    if overflow.size:
        n = int(overflow[0]) + 1
        raise InvalidInput(
            f"n_max={opts.n_max} is too large: E_{n} of the initial state is "
            f"not finite in double precision; choose n_max < {n}")
    return report


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
            err.step_index = getattr(err, "step_index", None) or l
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


def _jacobian(u, terms, grid, params, tau, reg, upwind):
    """Analytic Jacobian of the implicit residual at the stacked state ``u``
    as the COO triplet ``(data, (rows, cols))`` that scipy's sparse
    constructors take (duplicates summed on use) over the stacked unknowns
    (f block, then g block); ``terms`` are the per-axis face terms of ``u`` that
    :func:`fvops.implicit_residual` returns with its residual, ``reg`` the
    ``(eps, rho)`` of a regularized step or None.  Mobility and damping
    derivatives included, the upwind choice and the cut's kinks frozen at
    the iterate.  Along each axis ``dflux[i, j, k]`` is d(flux_i)/d(u_j) at
    the interior faces, with u_j in the cell on side k (left, right)."""
    P, dx = grid.num_points, grid.dx
    coef = np.reshape(params.as_tuple(), (2, 2, 1))
    eps = 0.0 if reg is None else reg[0]
    sgn = np.array([-1.0, 1.0])
    comp = np.arange(2)
    cells = np.arange(P).reshape(grid.shape)
    # the identity, then 16 entries per interior face of each axis
    nnz = 2 * P + sum(16 * (P // n) * (n - 1) for n in grid.shape)
    rows, cols = np.empty((2, nnz), np.int32)
    rows[:2 * P] = cols[:2 * P] = np.arange(2 * P)
    vals = np.ones(nnz)
    end = 2 * P
    for axis, (_, dp, lam, mob, _) in enumerate(terms):
        # flat cell indices and stacked (f, g) values on the two sides of the
        # interior faces, in the order of the face arrays (this axis last)
        moved = cells.swapaxes(axis, -1)
        side = np.stack((moved[..., :-1].ravel(), moved[..., 1:].ravel()))
        v = np.take(u.reshape(2, -1), side, axis=1)
        dp = dp[..., 1:-1].reshape(2, 1, -1)
        mob = mob[..., 1:-1].reshape(2, -1)
        lam = lam if reg is None else lam[..., 1:-1].ravel()
        # the mobility of component i is the cut of u_i upwind, or its mean
        weight = (dp > 0.0) == (sgn[:, None] > 0.0) if upwind else 0.5
        dmob = weight * fvops.cut_derivative(v, reg)
        dflux = sgn[:, None] * (lam * mob[:, None] * coef / dx)[:, :, None]
        dflux[comp, comp] += sgn[:, None] * eps / dx + lam * dmob * dp
        if reg is not None:
            # lam = 2 / (1 + exp(eps s)), s half the sum of the four positive parts
            dlam = -eps * lam * (1.0 - 0.5 * lam) * 0.5 * (v > 0.0)
            dflux += dlam * mob[:, None, None] * dp[:, None]
        # entries (i, j, k, row side, face): the residual left of a face
        # sees -tau/dx flux, right of it +tau/dx flux
        start, end = end, end + 2 * dflux.size
        shape = dflux.shape[:3] + side.shape
        np.multiply((tau / dx * sgn)[:, None], dflux[:, :, :, None],
                    out=vals[start:end].reshape(shape))
        rows[start:end].reshape(shape)[...] = P * comp[:, None, None, None, None] + side
        cols[start:end].reshape(shape)[...] = P * comp[:, None, None, None] + side[:, None]
    return vals, (rows, cols)


class _BandLU:
    """LAPACK band LU factors (``dgbtrf``) of the ``n`` x ``n`` 1D Jacobian
    ``J`` (a COO triplet), taken over the interleaved unknowns
    ``(f_0, g_0, f_1, g_1, ...)``: a cell couples to itself and its two
    neighbours only, so the band has ``K`` sub- and superdiagonals.
    ``solve`` takes and returns vectors over the stacked unknowns, as
    SuperLU's factors do."""

    K = 3

    def __init__(self, J, n):
        K = self.K
        data, ij = J
        row, col = (2 * (i % (n // 2)) + i // (n // 2) for i in ij)
        # A[i, j] goes to ab[2K + i - j, j] of the column-major (3K+1, n)
        # band array, whose first K rows are dgbtrf's fill workspace
        ab = np.bincount(col * (3 * K + 1) + 2 * K + row - col, data,
                         (3 * K + 1) * n).reshape(n, 3 * K + 1).T
        self.lu, self.piv, info = scipy.linalg.lapack.dgbtrf(ab, K, K, overwrite_ab=True)
        if info != 0:
            raise RuntimeError(f"band LU factorization failed (dgbtrf info={info})")

    def solve(self, b):
        x, _ = scipy.linalg.lapack.dgbtrs(self.lu, self.K, self.K,
                                          b.reshape(2, -1).T.ravel(), self.piv,
                                          overwrite_b=True)
        return x.reshape(-1, 2).T.ravel()


def _factor(J, grid):
    """LU factors, with ``.solve(b)``, of the Newton Jacobian ``J`` (a COO
    triplet over the stacked unknowns of ``grid``): band factors in 1D,
    SuperLU's in 2D.  Only a 2D run loads ``scipy.sparse``."""
    n = 2 * grid.num_points
    if grid.ndim == 1:
        return _BandLU(J, n)
    import scipy.sparse.linalg
    J = scipy.sparse.csc_matrix(J, shape=(n, n))   # drops the triplet first
    return scipy.sparse.linalg.splu(J, permc_spec=SUPERLU_ORDERING)


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

    Each iteration first tries the full update with the kept factors and
    accepts it if it contracts the true residual by ``CHORD_CONTRACTION``
    and, at the ratio it achieved, the iterations left still reach ``tol``;
    otherwise the Jacobian is refactored at the current iterate and the
    fresh Newton direction is backtracked on the true residual.  With upwind
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
    coef = params.as_tuple()

    def norm(v):
        r, terms = fvops.implicit_residual(v, prev.u, coef, tau, grid.dx, reg, upwind)
        return np.abs(r).max(), r, terms

    u = prev.u if start is None else start
    phi, r, terms = norm(u)
    iters = n_lu = 0
    lu = factors.pop() if factors else None
    while ((not phi <= opts.tol or (upwind and u.min() < -NONNEG_TOL))
           and iters < opts.max_iters):
        iters += 1
        if lu is not None:
            u_try = u + lu.solve(-r.ravel()).reshape(u.shape)
            phi_try, r_try, terms_try = norm(u_try)
            # a linear rate that cannot reach tol within max_iters would
            # make the step fail where a fresh Jacobian converges
            if phi_try <= CHORD_CONTRACTION * phi and (
                    phi_try <= opts.tol
                    or math.log(opts.tol / phi_try)
                    >= (opts.max_iters - iters) * math.log(phi_try / phi)):
                u, phi, r, terms = u_try, phi_try, r_try, terms_try
                continue
            lu = None   # release the stale factors before building new ones
        try:
            lu = _factor(_jacobian(u, terms, grid, params, tau, reg, upwind), grid)
        except RuntimeError as err:     # a singular (or NaN) Jacobian
            raise NonConvergence(iters, float(phi)) from err
        n_lu += 1
        du = lu.solve(-r.ravel()).reshape(u.shape)
        t_step = 1.0
        for _ in range(30):
            u_try = u + t_step * du
            phi_try, r_try, terms_try = norm(u_try)
            if phi_try < (1.0 - 1e-4 * t_step) * phi:
                u, phi, r, terms = u_try, phi_try, r_try, terms_try
                break
            t_step *= 0.5
        else:
            raise NonConvergence(iters, float(phi))
    if not phi <= opts.tol:
        raise NonConvergence(iters, float(phi))
    if factors is not None and lu is not None:
        factors.append(lu)
    return State._wrap(grid, u), iters, float(phi), n_lu


def _finalize_step(new, params, opts, iters, res, n_lu):
    clamped = (0.0, 0.0)
    if opts.clamp_negative:
        clamped = tuple(-m for m in State._wrap(new.grid, np.minimum(new.u, 0.0)).masses())
        new = State._wrap(new.grid, np.maximum(new.u, 0.0))
    else:
        m = new.min_value()
        if m < -NONNEG_TOL:
            raise InvariantViolation(
                "nonnegativity", None,
                f"min component {m:.3e} < -{NONNEG_TOL:.0e}")
    if opts.regularization is not None:
        rho = opts.regularization[1]
        top = new.max_value()
        if top > rho + CAP_TOL:
            raise InvariantViolation(
                "boundedness cap", None,
                f"max component {top:.6e} exceeds rho={rho} beyond {CAP_TOL:.0e}")
    report = _report_for(new, params, opts, iterations=iters, residual=res,
                         clamped_mass=clamped, factorizations=n_lu)
    return new, report


def _report_for(state, params, opts, iterations, residual, clamped_mass=(0.0, 0.0),
                factorizations=0):
    return StepReport(
        iterations=iterations, residual=residual, masses=state.masses(),
        entropies=diagnostics.entropy_trace(state, params, opts.n_max),
        dissipation=diagnostics.dissipation(state, params),
        linf=diagnostics.linf_sum(state), clamped_mass=clamped_mass,
        factorizations=factorizations)
