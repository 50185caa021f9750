"""Implicit time stepping for the cross-diffusion system.

One step solves, cellwise on the mesh,

    u - tau * div(mobility(u) * face_gradient(u)) = prev,

with the component flux at a face equal to the (positive-part, upwind or
arithmetic) face mobility times the face gradient of that component's
pressure (a f + b g for f, c f + d g for g).  The regularized variant uses
the capped/damped mobility plus an eps-identity diffusion block.

The nonlinear solve is Picard (frozen face mobilities and frozen coupling
gradients; tridiagonal solves per component in 1D, sparse direct in 2D) or
Newton (analytic Jacobian including mobility derivatives, one sparse LU
factorization reused while it keeps contracting the residual, refreshed
with Armijo backtracking when it does not).  Convergence is declared on the
max-norm of the true nonlinear residual.

``run`` marches the piecewise-constant-in-time sequence and, by default,
verifies the structural inequalities after every step, raising
:class:`InvariantViolation` (naming the inequality) on the first breach.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse
import scipy.sparse.linalg

from . import diagnostics, fvops, kernels
from .diagnostics import DISSIPATION_REL_SLACK, ENTROPY_REL_SLACK, LINF_REL_SLACK
from .grid import State
from .params import Params

# slack factors for the per-step structure checks (the relative slacks of
# the entropy, sup-norm and dissipation checks come from diagnostics)
MASS_SLACK_FACTOR = 10.0        # * tol * |Omega|
NONNEG_TOL = 1e-12
CAP_TOL = 1e-10

# a Newton update made with the step's kept LU factorization is accepted
# only if it cuts the residual max-norm to at most this fraction of its
# current value; otherwise the Jacobian is refactored at the current iterate
CHORD_CONTRACTION = 0.25

# SuperLU column order for the Newton splu and the 2D Picard spsolve calls:
# minimum degree on the structure of A + A^T.  Both matrices are face-coupled
# with a structurally symmetric pattern; on 2D grids of 32x32 cells and more
# this order leaves about 0.5-0.6 of the L+U fill of the default COLAMD
# order.  The pivot threshold stays at SuperLU's default (partial pivoting)
SUPERLU_ORDERING = "MMD_AT_PLUS_A"


class SchemeError(Exception):
    pass


class InvalidInput(SchemeError):
    pass


def _at_step(step_index: int | None) -> str:
    return f" at step {step_index}" if step_index is not None else ""


class NonConvergence(SchemeError):
    # the message is rendered on demand, because ``run`` fills in
    # ``step_index`` after the step raised
    def __init__(self, iterations: int, residual: float, step_index: int | None = None):
        super().__init__(iterations, residual, step_index)
        self.iterations = iterations
        self.residual = residual
        self.step_index = step_index
        self.partial = None

    def __str__(self) -> str:
        return (f"nonlinear solve did not converge{_at_step(self.step_index)}: "
                f"residual {self.residual:.3e} after {self.iterations} iterations "
                f"(time step too large or state too degenerate)")


class RhoTooSmall(InvalidInput):
    def __init__(self, rho: float, sup: float):
        super().__init__(
            f"truncation level rho={rho} is below the state bound {sup}; "
            f"choose rho >= max(1, ||prev||_inf)"
        )


class InvariantViolation(SchemeError):
    """A structural inequality failed beyond its slack; names the inequality."""

    def __init__(self, inequality: str, step_index: int | None, detail: str):
        super().__init__(inequality, step_index, detail)
        self.inequality = inequality
        self.step_index = step_index
        self.detail = detail
        self.partial = None

    def __str__(self) -> str:
        return (f"violated inequality [{self.inequality}]"
                f"{_at_step(self.step_index)}: {self.detail}")


@dataclass(frozen=True)
class SolverOptions:
    method: str = "picard"              # picard | newton
    max_iters: int = 200
    tol: float = 1e-10                  # max-norm residual, field units
    mobility_face: str = "upwind"       # upwind | arithmetic
    regularization: tuple[float, float] | None = None   # (eps, rho)
    clamp_negative: bool = False
    n_max: int = 6                      # entropy orders traced per step
    check_invariants: bool = True

    def __post_init__(self):
        if self.method not in ("picard", "newton"):
            raise ValueError(f"unknown method {self.method!r}")
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
    iterations: int
    residual: float
    masses: tuple[float, float]
    entropies: np.ndarray = field(repr=False)
    dissipation: float
    linf: float
    clamped_mass: tuple[float, float] = (0.0, 0.0)


def step(prev: State, tau: float, params: Params, opts: SolverOptions) -> tuple[State, StepReport]:
    """Advance one implicit step; regularized automatically when
    ``opts.regularization`` is set."""
    if opts.regularization is not None:
        eps, rho = opts.regularization
        return step_regularized(prev, tau, params, eps, rho, opts)
    _validate_step_inputs(prev, tau)
    new, iters, res = _solve_implicit(prev, tau, params, opts, 0.0, math.inf, False)
    return _finalize_step(new, prev, params, opts, iters, res, rho=None)


def step_regularized(prev: State, tau: float, params: Params, eps: float,
                     rho: float, opts: SolverOptions) -> tuple[State, StepReport]:
    """Advance one implicit step of the eps/rho-regularized system.

    The output is capped by rho (checked, with violations raised) and the
    entropy decay is only approximate: its increment is reported, not
    enforced.
    """
    _validate_step_inputs(prev, tau)
    if not (0.0 < eps < 1.0):
        raise InvalidInput(f"eps must lie in (0, 1), got {eps}")
    if not rho > 1.0:
        raise InvalidInput(f"rho must exceed 1, got {rho}")
    sup = max(prev.f.max(), prev.g.max())
    if rho < sup:
        raise RhoTooSmall(rho, sup)
    new, iters, res = _solve_implicit(prev, tau, params, opts, eps, rho, True)
    return _finalize_step(new, prev, params, opts, iters, res, rho=rho)


def run(initial: State, tau: float, t_final: float, params: Params,
        opts: SolverOptions, observers=()) -> list[tuple[float, State, StepReport]]:
    """March to t_final with uniform steps; returns [(time, state, report)]
    including the initial entry.  ``t_final`` must be a whole multiple of
    ``tau`` (to 1e-9 relative), so the run ends exactly at ``t_final``.

    With ``opts.check_invariants`` (default) every accepted step is tested
    against mass conservation, nonnegativity, entropy monotonicity, the
    sup-norm bound, and the cumulative dissipation inequality; the first
    breach raises :class:`InvariantViolation` carrying the partial
    trajectory in ``.partial``.  For regularized runs only mass and
    nonnegativity are enforced (the cap is checked inside the step) since
    the regularization trades exact entropy decay for coercivity.
    """
    if not t_final > 0.0:
        raise InvalidInput(f"t_final must be positive, got {t_final}")
    _validate_step_inputs(initial, tau)
    ratio = t_final / tau
    n_steps = round(ratio) if math.isfinite(ratio) else 0
    if n_steps < 1 or abs(ratio - n_steps) > 1e-9 * n_steps:
        raise InvalidInput(f"t_final={t_final} is not a whole multiple of "
                           f"the time step tau={tau}")
    regularized = opts.regularization is not None

    report0 = _report_for(initial, params, opts, iterations=0, residual=0.0)
    trajectory: list[tuple[float, State, StepReport]] = [(0.0, initial, report0)]
    e1_initial = report0.entropies[0]
    linf_initial = report0.linf
    linf_cap = diagnostics.linf_bound_constant(params) * linf_initial
    dissipation_cum = 0.0

    state = initial
    for l in range(1, n_steps + 1):
        try:
            state_new, report = step(state, tau, params, opts)
        except SchemeError as err:
            err.step_index = getattr(err, "step_index", None) or l
            err.partial = trajectory
            raise
        dissipation_cum += tau * report.dissipation
        if opts.check_invariants:
            try:
                _check_step_invariants(
                    trajectory[-1][2], report, initial.grid.measure, opts,
                    regularized, e1_initial, linf_cap, dissipation_cum,
                )
            except InvariantViolation as err:
                err.step_index = l
                err.partial = trajectory
                raise
        t = l * tau
        trajectory.append((t, state_new, report))
        for obs in observers:
            obs(l, t, state_new, report)
        state = state_new
    return trajectory


# ---------------------------------------------------------------------------
# internals
# ---------------------------------------------------------------------------

def _validate_step_inputs(prev: State, tau: float) -> None:
    if not tau > 0.0:
        raise InvalidInput(f"time step must be positive, got {tau}")
    m = prev.min_value()
    if m < -10.0 * NONNEG_TOL:
        raise InvalidInput(f"previous state has negative component {m}")
    if not (np.all(np.isfinite(prev.f)) and np.all(np.isfinite(prev.g))):
        raise InvalidInput("previous state contains non-finite values")


# the plain frozen-coefficient iteration can limit-cycle on strongly coupled
# or very rough data; retrying with constant under-relaxation breaks the
# cycle at the cost of a slower (still linear) rate
PICARD_RELAXATIONS = (1.0, 0.5, 0.25)


def _solve_implicit(prev, tau, params, opts, eps, rho, reg):
    if opts.method == "picard" and prev.grid.ndim == 1:
        a, b, c, d = params.as_tuple()
        upwind = opts.mobility_face == "upwind"
        iters = 0
        res = math.inf
        for omega in PICARD_RELAXATIONS:
            f, g, iters, res, ok = kernels.picard_1d(
                prev.f, prev.g, a, b, c, d, tau, prev.grid.dx,
                eps, rho, reg, upwind, opts.tol, opts.max_iters, omega,
            )
            if ok:
                return State(prev.grid, f, g), int(iters), float(res)
        raise NonConvergence(int(iters), float(res))
    if opts.method == "picard":
        return _picard_sparse(prev, tau, params, opts, eps, rho, reg)
    return _newton_sparse(prev, tau, params, opts, eps, rho, reg)


def step_residual(state: State, prev: State, tau: float, params: Params,
                  opts: SolverOptions, eps: float = 0.0, rho: float = math.inf,
                  reg: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Nonlinear residual arrays of the implicit step equation; the
    contract checked by the solvers and the tests."""
    if opts.regularization is not None and not reg:
        eps, rho = opts.regularization
        reg = True
    a, b, c, d = params.as_tuple()
    if state.grid.ndim == 1:
        rf, rg = kernels.residual_1d(
            state.f, state.g, prev.f, prev.g, a, b, c, d, tau, state.grid.dx,
            eps, rho, reg, opts.mobility_face == "upwind",
        )
        return rf, rg
    fv, gv = state.f.ravel(), state.g.ravel()
    rf, rg = fvops.implicit_residual(
        fv, gv, prev.f.ravel(), prev.g.ravel(), state.grid, params, tau,
        eps, rho, reg, opts.mobility_face == "upwind")
    return rf.reshape(state.grid.shape), rg.reshape(state.grid.shape)


def _picard_sparse(prev, tau, params, opts, eps, rho, reg):
    """Frozen-coefficient iteration with a sparse direct solve per component;
    dimension-agnostic (used for 2D; 1D goes through the tridiagonal kernel)."""
    iters = 0
    res = math.inf
    for omega in PICARD_RELAXATIONS:
        fv, gv, iters, res, ok = _picard_sparse_once(prev, tau, params, opts,
                                                     eps, rho, reg, omega)
        if ok:
            shape = prev.grid.shape
            return State(prev.grid, fv.reshape(shape), gv.reshape(shape)), iters, res
    raise NonConvergence(iters, res)


def _picard_sparse_once(prev, tau, params, opts, eps, rho, reg, omega):
    a, b, c, d = params.as_tuple()
    grid = prev.grid
    P = grid.num_points
    dx = grid.dx
    upwind = opts.mobility_face == "upwind"
    eps_eff = eps if reg else 0.0
    prev_f = prev.f.ravel()
    prev_g = prev.g.ravel()
    fv = prev_f.copy()
    gv = prev_g.copy()
    rf, rg = fvops.implicit_residual(fv, gv, prev_f, prev_g, grid, params, tau, eps, rho, reg, upwind)
    res = max(np.abs(rf).max(), np.abs(rg).max())
    iters = 0
    eye = scipy.sparse.identity(P, format="csr")
    while res > opts.tol and iters < opts.max_iters:
        iters += 1
        rows_f, cols_f, vals_f = [], [], []
        rows_g, cols_g, vals_g = [], [], []
        rhs_f = prev_f.copy()
        rhs_g = prev_g.copy()
        for axis in range(grid.ndim):
            t = fvops.face_terms(fv, gv, grid, params, eps, rho, reg, upwind, axis)
            L, R = t["L"], t["R"]
            wf = tau * (eps_eff + t["lam"] * t["mf"] * a) / (dx * dx)
            wg = tau * (eps_eff + t["lam"] * t["mg"] * d) / (dx * dx)
            for rows, cols, vals, w in ((rows_f, cols_f, vals_f, wf),
                                        (rows_g, cols_g, vals_g, wg)):
                rows.extend((L, L, R, R))
                cols.extend((L, R, R, L))
                vals.extend((w, -w, w, -w))
            bt = tau * t["lam"] * t["mf"] * b * t["gradg"]
            ct = tau * t["lam"] * t["mg"] * c * t["gradf"]
            fvops.accumulate_div(P, L, R, bt, dx, rhs_f)
            fvops.accumulate_div(P, L, R, ct, dx, rhs_g)
        A_f = scipy.sparse.coo_matrix(
            (np.concatenate(vals_f), (np.concatenate(rows_f), np.concatenate(cols_f))),
            shape=(P, P)).tocsr()
        A_g = scipy.sparse.coo_matrix(
            (np.concatenate(vals_g), (np.concatenate(rows_g), np.concatenate(cols_g))),
            shape=(P, P)).tocsr()
        f_new = scipy.sparse.linalg.spsolve(eye + A_f, rhs_f, permc_spec=SUPERLU_ORDERING)
        g_new = scipy.sparse.linalg.spsolve(eye + A_g, rhs_g, permc_spec=SUPERLU_ORDERING)
        if omega == 1.0:
            fv, gv = f_new, g_new
        else:
            fv = fv + omega * (f_new - fv)
            gv = gv + omega * (g_new - gv)
        rf, rg = fvops.implicit_residual(fv, gv, prev_f, prev_g, grid, params,
                                         tau, eps, rho, reg, upwind)
        res = max(np.abs(rf).max(), np.abs(rg).max())
    return fv, gv, iters, float(res), res <= opts.tol


def _cut_derivative(z, rho, reg):
    if not reg:
        return (z > 0.0).astype(float)
    out = np.zeros_like(z)
    out[(z > 0.0) & (z <= rho - 1.0)] = 1.0
    out[(z > rho - 1.0) & (z < rho)] = -(rho - 1.0)
    return out


def _jacobian(fv, gv, grid, params, tau, eps, rho, reg, upwind):
    """Analytic Jacobian of the implicit residual at ``(fv, gv)`` as a CSC
    matrix over the stacked unknowns (f block, then g block); mobility and
    damping derivatives included, the upwind selection and the
    positive-part/cap kinks frozen at the iterate."""
    a, b, c, d = params.as_tuple()
    P = grid.num_points
    dx = grid.dx
    eps_eff = eps if reg else 0.0
    diag = np.arange(2 * P)
    rows, cols, vals = [diag], [diag], [np.ones(2 * P)]
    for axis in range(grid.ndim):
        t = fvops.face_terms(fv, gv, grid, params, eps, rho, reg, upwind, axis)
        L, R = t["L"], t["R"]
        lam, mf, mg = t["lam"], t["mf"], t["mg"]
        dpf, dpg = t["dpf"], t["dpg"]
        if upwind:
            up_f, up_g = t["up_f"], t["up_g"]
            dmf = _cut_derivative(fv[up_f], rho, reg)
            dmg = _cut_derivative(gv[up_g], rho, reg)
            dmf_L, dmf_R = dmf * (up_f == L), dmf * (up_f == R)
            dmg_L, dmg_R = dmg * (up_g == L), dmg * (up_g == R)
        else:
            dmf_L = 0.5 * _cut_derivative(fv[L], rho, reg)
            dmf_R = 0.5 * _cut_derivative(fv[R], rho, reg)
            dmg_L = 0.5 * _cut_derivative(gv[L], rho, reg)
            dmg_R = 0.5 * _cut_derivative(gv[R], rho, reg)
        if reg:
            s = 0.5 * (np.maximum(fv[L], 0.0) + np.maximum(fv[R], 0.0)
                       + np.maximum(gv[L], 0.0) + np.maximum(gv[R], 0.0))
            expo = np.exp(eps * s)
            dlam_ds = -2.0 * eps * expo / (1.0 + expo) ** 2
            dl_fL = dlam_ds * 0.5 * (fv[L] > 0.0)
            dl_fR = dlam_ds * 0.5 * (fv[R] > 0.0)
            dl_gL = dlam_ds * 0.5 * (gv[L] > 0.0)
            dl_gR = dlam_ds * 0.5 * (gv[R] > 0.0)
        else:
            dl_fL = dl_fR = dl_gL = dl_gR = np.zeros_like(lam)
        # d flux_f / d {f_L, f_R, g_L, g_R}
        dff_fL = -eps_eff / dx + lam * dmf_L * dpf - lam * mf * a / dx + dl_fL * mf * dpf
        dff_fR = eps_eff / dx + lam * dmf_R * dpf + lam * mf * a / dx + dl_fR * mf * dpf
        dff_gL = -lam * mf * b / dx + dl_gL * mf * dpf
        dff_gR = lam * mf * b / dx + dl_gR * mf * dpf
        # d flux_g / d {f_L, f_R, g_L, g_R}
        dfg_fL = -lam * mg * c / dx + dl_fL * mg * dpg
        dfg_fR = lam * mg * c / dx + dl_fR * mg * dpg
        dfg_gL = -eps_eff / dx + lam * dmg_L * dpg - lam * mg * d / dx + dl_gL * mg * dpg
        dfg_gR = eps_eff / dx + lam * dmg_R * dpg + lam * mg * d / dx + dl_gR * mg * dpg
        s_tau = tau / dx
        # rows: residual index (f block 0..P-1, g block P..2P-1)
        for row_base, terms in (
            (0, ((dff_fL, 0, L), (dff_fR, 0, R), (dff_gL, P, L), (dff_gR, P, R))),
            (P, ((dfg_fL, 0, L), (dfg_fR, 0, R), (dfg_gL, P, L), (dfg_gR, P, R))),
        ):
            for dflux, col_base, col_idx in terms:
                # residual at L sees +flux/dx, at R sees -flux/dx
                rows.extend((row_base + L, row_base + R))
                cols.extend((col_base + col_idx, col_base + col_idx))
                vals.extend((-s_tau * dflux, s_tau * dflux))
    return scipy.sparse.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(2 * P, 2 * P)).tocsc()


def _newton_sparse(prev, tau, params, opts, eps, rho, reg):
    """Semi-smooth chord Newton with Armijo backtracking.

    The Jacobian is factored once and the factorization kept for the rest
    of the step.  Each iteration first tries the full update with the kept
    factorization and accepts it if it contracts the true residual by
    ``CHORD_CONTRACTION``; otherwise the Jacobian is refactored at the
    current iterate and the fresh Newton direction is backtracked on the
    true residual.  Only a failed search on a fresh Jacobian or an
    exhausted ``max_iters`` raises :class:`NonConvergence`.
    """
    grid = prev.grid
    P = grid.num_points
    upwind = opts.mobility_face == "upwind"
    prev_f = prev.f.ravel()
    prev_g = prev.g.ravel()
    fv = prev_f.copy()
    gv = prev_g.copy()

    def norm(fvv, gvv):
        rf, rg = fvops.implicit_residual(fvv, gvv, prev_f, prev_g, grid, params,
                                         tau, eps, rho, reg, upwind)
        return max(np.abs(rf).max(), np.abs(rg).max()), rf, rg

    phi, rf, rg = norm(fv, gv)
    iters = 0
    lu = None
    while phi > opts.tol and iters < opts.max_iters:
        iters += 1
        if lu is not None:
            delta = lu.solve(-np.concatenate([rf, rg]))
            f_try, g_try = fv + delta[:P], gv + delta[P:]
            phi_try, rf_try, rg_try = norm(f_try, g_try)
            if phi_try <= CHORD_CONTRACTION * phi:
                fv, gv, phi, rf, rg = f_try, g_try, phi_try, rf_try, rg_try
                continue
            lu = None   # release the stale factors before building new ones
        lu = scipy.sparse.linalg.splu(
            _jacobian(fv, gv, grid, params, tau, eps, rho, reg, upwind),
            permc_spec=SUPERLU_ORDERING)
        delta = lu.solve(-np.concatenate([rf, rg]))
        df, dg = delta[:P], delta[P:]
        t_step = 1.0
        accepted = False
        for _ in range(30):
            phi_try, rf_try, rg_try = norm(fv + t_step * df, gv + t_step * dg)
            if phi_try < (1.0 - 1e-4 * t_step) * phi:
                fv = fv + t_step * df
                gv = gv + t_step * dg
                phi, rf, rg = phi_try, rf_try, rg_try
                accepted = True
                break
            t_step *= 0.5
        if not accepted:
            raise NonConvergence(iters, float(phi))
    if phi > opts.tol:
        raise NonConvergence(iters, float(phi))
    shape = grid.shape
    return State(grid, fv.reshape(shape), gv.reshape(shape)), iters, float(phi)


def _finalize_step(new, prev, params, opts, iters, res, rho):
    clamped = (0.0, 0.0)
    if opts.clamp_negative:
        neg_f = np.minimum(new.f, 0.0)
        neg_g = np.minimum(new.g, 0.0)
        clamped = (-new.grid.integrate(neg_f), -new.grid.integrate(neg_g))
        new = State(new.grid, np.maximum(new.f, 0.0), np.maximum(new.g, 0.0))
    else:
        m = new.min_value()
        if m < -NONNEG_TOL:
            raise InvariantViolation(
                "nonnegativity", None,
                f"min component {m:.3e} < -{NONNEG_TOL:.0e}")
    if rho is not None:
        top = new.max_value()
        if top > rho + CAP_TOL:
            raise InvariantViolation(
                "boundedness cap", None,
                f"max component {top:.6e} exceeds rho={rho} beyond {CAP_TOL:.0e}")
    report = _report_for(new, params, opts, iterations=iters, residual=res,
                         clamped_mass=clamped)
    return new, report


def _report_for(state, params, opts, iterations, residual, clamped_mass=(0.0, 0.0)):
    entropies = diagnostics.entropy_trace(state, params, opts.n_max)
    return StepReport(
        iterations=iterations,
        residual=residual,
        masses=state.masses(),
        entropies=entropies,
        dissipation=diagnostics.dissipation(state, params),
        linf=diagnostics.linf_sum(state),
        clamped_mass=clamped_mass,
    )


def _check_step_invariants(prev_report, report, measure, opts, regularized,
                           e1_initial, linf_cap, dissipation_cum):
    mass_tol = MASS_SLACK_FACTOR * opts.tol * measure
    for name, m_new, m_old, clamped in (
            ("f", report.masses[0], prev_report.masses[0], report.clamped_mass[0]),
            ("g", report.masses[1], prev_report.masses[1], report.clamped_mass[1])):
        drift = abs(m_new - m_old) - clamped
        if drift > mass_tol:
            raise InvariantViolation(
                "mass conservation", None,
                f"component {name} drifted by {m_new - m_old:.3e} in one step "
                f"(tolerance {mass_tol:.3e})")
    if regularized:
        return
    for n in range(1, opts.n_max + 1):
        e_new = report.entropies[n - 1]
        e_old = prev_report.entropies[n - 1]
        if e_new > e_old * (1.0 + ENTROPY_REL_SLACK) + 1e-300:
            raise InvariantViolation(
                f"entropy monotonicity E_{n}", None,
                f"E_{n} rose from {e_old:.15e} to {e_new:.15e}")
    if report.linf > linf_cap * (1.0 + LINF_REL_SLACK):
        raise InvariantViolation(
            "sup-norm bound", None,
            f"||f+g||_inf = {report.linf:.15e} exceeds {linf_cap:.15e}")
    e1 = report.entropies[0]
    if e1 + dissipation_cum > e1_initial * (1.0 + DISSIPATION_REL_SLACK) + 1e-300:
        raise InvariantViolation(
            "dissipation inequality", None,
            f"E_1 + cumulative dissipation = {e1 + dissipation_cum:.15e} "
            f"exceeds initial E_1 = {e1_initial:.15e}")
