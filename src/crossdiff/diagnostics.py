"""Per-state and per-run structural diagnostics.

Entropy traces, the discrete dissipation functional, sup-norm quantities
and steady-state flux residuals are read-only functions of a state.  The
run monitor is the one definition of the inequalities a run is checked
against (mass conservation, entropy monotonicity, cumulative dissipation,
sup-norm bound): it measures, enforces and reports each of them.  The
reports carry the run's running values; the monitor keeps only the run's
constants and the last report that passed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import fvops
from .entropy import _log_deviation, build_coefficients, phi_bounds
from .errors import InvalidInput, InvariantViolation
from .grid import State
from .params import Params, theta_constants

#: tiny negative values (round-off from the solver) are clipped to zero when
#: evaluating entropies; anything below this is a genuine sign violation
NEGATIVE_CLIP = 1e-9

#: slacks of the monitored inequalities: mass drift per step in units of
#: tol * |Omega|, the others relative (see RunMonitor)
MASS_SLACK_FACTOR = 10.0
ENTROPY_REL_SLACK = 1e-9
LINF_REL_SLACK = 1e-8
DISSIPATION_REL_SLACK = 1e-8


#: params -> (m, gather) once the coefficients of params overflowed at degree
#: m: every n_max >= m shares that gather, so it is built once
_OVERFLOWED: dict = {}


@lru_cache(maxsize=256)
def _moment_gather(params: Params, n_max: int):
    """(top, flat, weights, starts): top is the last degree <= n_max whose
    coefficients are finite; flat indexes the anti-diagonals j + k = n,
    n = 2..top, of the flattened (top+1)^2 power-moment table, weights
    holds their coefficients and starts the first entry of each degree."""
    known = _OVERFLOWED.get(params)
    if known and n_max >= known[0]:
        return known[1]
    coeffs = []
    for n in range(2, n_max + 1):
        try:
            coeffs.append(build_coefficients(params, n).coeffs)
        except ValueError:      # the coefficients overflow
            break
    top = len(coeffs) + 1
    flat = [j * (top + 1) + n - j for n in range(2, top + 1) for j in range(n + 1)]
    starts = np.cumsum([0] + [n + 1 for n in range(2, top)])
    gather = top, np.array(flat, dtype=np.intp), np.concatenate([[]] + coeffs), starts
    if top < n_max:
        _OVERFLOWED[params] = top + 1, gather
    return gather


def entropy_trace(state: State, params: Params, n_max: int = 6) -> np.ndarray:
    """Entropy values [E_1, ..., E_n_max] of a nonnegative state; inf from
    the first degree whose coefficients overflow double precision.

    Both components are evaluated at once on the clipped stacked state: E_1
    as :func:`crossdiff.entropy.eval_phi1`, E_2..E_n_max as weighted sums of
    one table of power moments M[j, k] = sum over cells of f^j g^k, read
    along the anti-diagonals j + k = n only (higher moments may overflow)."""
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    if (m := state.min_value()) < -NEGATIVE_CLIP:
        raise ValueError(f"entropy trace requires a nonnegative state, min={m}")
    p = np.maximum(state.u.reshape(2, -1), 0.0)
    a, b, _, d = params.as_tuple()
    vol = state.grid.cell_volume
    out = np.full(n_max, np.inf)
    top, flat, weights, starts = _moment_gather(params, n_max)
    with np.errstate(over="ignore", invalid="ignore"):
        log_f, log_g = _log_deviation(p)
        out[0] = vol * (log_f + (b * b) / (a * d) * log_g).sum()
        if top >= 2:
            powers = p[:, None] ** np.arange(top + 1)[:, None]
            moments = (powers[0] @ powers[1].T).ravel()
            out[1:top] = vol * np.add.reduceat(moments[flat] * weights, starts)
    return out


def linf_sum(state: State) -> float:
    """Max over cells of f + g."""
    return float((state.f + state.g).max())


def linf_bound_constant(params: Params) -> float:
    """Growth constant (d/b) * max(a,b) / min(c,d) of the sup-norm bound."""
    a, b, c, d = params.as_tuple()
    return (d / b) * max(a, b) / min(c, d)


def dissipation(state: State, params: Params) -> float:
    """Discrete dissipation (1/a) * sum_faces [ |grad(a f + theta1 g)|^2
    + theta2 |grad g|^2 ] * cell volume, from the face gradients of
    :func:`fvops.face_gradient`."""
    a, (theta1, theta2) = params.a, theta_constants(params)
    total = 0.0
    for axis in range(state.grid.ndim):
        grad = fvops.face_gradient(state.u, state.grid.dx, axis)
        gp = a * grad[0] + theta1 * grad[1]
        total += float((gp * gp + theta2 * grad[1] * grad[1]).sum())
    return state.grid.cell_volume * total / a


def steady_residual(state: State, params: Params) -> float:
    """Max-norm over faces of the two (upwind) component fluxes; zero exactly
    at constant states, used as a stopping diagnostic for long runs."""
    coef, dx = params.as_tuple(), state.grid.dx
    return max(float(np.abs(fvops.face_terms(state.u, coef, dx, None, True, axis)[-1]).max())
               for axis in range(state.grid.ndim))


def entropy_sandwich(state: State, params: Params, n: int):
    """(lower, E_n, upper) where lower/upper integrate the pointwise bounds
    of :func:`entropy.phi_bounds` (degree ``n >= 2``) at the positive parts
    of the state."""
    lower, upper = phi_bounds(params, n, np.maximum(state.u, 0.0))
    en = entropy_trace(state, params, n)[n - 1]
    return state.grid.integrate(lower), en, state.grid.integrate(upper)


@dataclass(frozen=True)
class RunVerdicts:
    """Measured slacks (relative, worst over the run so far) of the reported
    inequalities; each passes at or below its tolerance, and a NaN slack
    (a non-finite measurement) fails."""

    entropy_slack: dict[int, float]
    dissipation_slack: float
    linf_slack: float

    def checks(self) -> list[tuple[str, float, float]]:
        """(inequality, measured slack, tolerance) in summary order."""
        return ([(f"entropy monotonicity E_{n}", s, ENTROPY_REL_SLACK)
                 for n, s in sorted(self.entropy_slack.items())]
                + [("dissipation inequality", self.dissipation_slack, DISSIPATION_REL_SLACK),
                   ("sup-norm bound", self.linf_slack, LINF_REL_SLACK)])

    @property
    def all_ok(self) -> bool:    # every check of checks() passes, read without names
        return (all(slack <= ENTROPY_REL_SLACK for slack in self.entropy_slack.values())
                and self.dissipation_slack <= DISSIPATION_REL_SLACK
                and self.linf_slack <= LINF_REL_SLACK)

    def lines(self) -> list[str]:
        return [f"{name}: measured slack {slack:.3e} (tolerance {tol:.0e}) -> "
                f"{'PASS' if slack <= tol else 'FAIL'}"
                for name, slack, tol in self.checks()] + [
            f"overall: {'PASS' if self.all_ok else 'FAIL'}"]


@dataclass
class StepReport:
    """What a run records of one state, as :func:`step_report` builds it."""
    iterations: int                     # Newton updates, chord ones included
    residual: float
    masses: tuple[float, float]
    entropies: np.ndarray = field(repr=False)
    dissipation: float
    linf: float
    tau: float                          # the step's; the run's for the initial state
    clamped_mass: tuple[float, float] = (0.0, 0.0)
    factorizations: int = 0             # Jacobian LU factorizations (_factor calls)
    # set by the run monitor on the reports of a run
    dissipation_cum: float = 0.0
    verdicts: RunVerdicts | None = None


def step_report(state, params, tau, n_max, iterations=0, residual=0.0,
                clamped_mass=(0.0, 0.0), factorizations=0, state_name="new state"):
    """The report of ``state``, reached by a step of ``tau``;
    :class:`InvalidInput` unless its E_1..E_n_max are finite.  No E_n
    beyond the first overflowing coefficients is formed."""
    top = _moment_gather(params, n_max)[0]
    entropies = entropy_trace(state, params, min(n_max, top + 1))
    if not np.isfinite(entropies).all():
        n = int(np.argmin(np.isfinite(entropies))) + 1
        raise InvalidInput(f"E_1 of the {state_name} is not finite: its values are out of "
                           "double-precision range for every n_max" if n == 1 else
                           f"n_max={n_max} is too large: E_{n} of the {state_name} is "
                           f"not finite in double precision; choose n_max < {n}")
    return StepReport(iterations, residual, state.masses(), entropies,
                      dissipation(state, params), linf_sum(state), tau,
                      clamped_mass, factorizations)


class RunMonitor:
    """The inequalities of one run: measured per step, enforced, and kept.

    Built from the report of the initial state, it takes the report of each
    step in order.  Per step it measures the mass drift of each
    component (|change| minus the mass removed by clamping, at most
    ``MASS_SLACK_FACTOR * tol * |Omega|``) and the relative slacks

    * (E_n - E_n,prev) / max(E_n,prev, 1e-300) for each degree n;
    * (E_1 + cumulative dissipation - E_1(0)) / max(E_1(0), 1e-300);
    * (||f+g||_inf - cap) / cap, cap = linf_bound_constant * ||f0+g0||_inf.

    Each report gets the cumulative dissipation and the worst slacks so far
    (``dissipation_cum``, ``verdicts``), folded from the last accepted report,
    the only one kept.  With ``opts.check_invariants`` the first breach, a
    non-finite slack included, raises :class:`InvariantViolation` and the
    report is not accepted; regularized runs enforce the mass drift only.
    """

    def __init__(self, report0: StepReport, params: Params, measure: float, opts):
        self.mass_tol = MASS_SLACK_FACTOR * opts.tol * measure
        self.enforce = opts.check_invariants
        self.regularized = opts.regularization is not None
        self.e1_initial = report0.entropies[0]
        self.cap = linf_bound_constant(params) * report0.linf
        report0.dissipation_cum = 0.0
        report0.verdicts = RunVerdicts(dict.fromkeys(range(1, len(report0.entropies) + 1), 0.0),
                                       0.0, self._linf_slack(report0))
        self.prev = report0

    def _linf_slack(self, report) -> float:
        return (report.linf - self.cap) / max(self.cap, 1e-300)

    def observe(self, report: StepReport) -> None:
        prev, worst = self.prev, self.prev.verdicts
        report.dissipation_cum = prev.dissipation_cum + report.tau * report.dissipation
        # np.maximum keeps a NaN, so a non-finite measurement stays failed
        entropy = np.maximum(
            list(worst.entropy_slack.values()),
            (report.entropies - prev.entropies) / np.maximum(prev.entropies, 1e-300))
        report.verdicts = RunVerdicts(
            dict(enumerate(entropy.tolist(), start=1)),
            _maximum(worst.dissipation_slack,
                     (report.entropies[0] + report.dissipation_cum - self.e1_initial)
                     / max(self.e1_initial, 1e-300)),
            _maximum(worst.linf_slack, self._linf_slack(report)))
        if self.enforce:
            for name, new, old, clamped in zip("fg", report.masses, prev.masses,
                                               report.clamped_mass):
                if not abs(new - old) - clamped <= self.mass_tol:
                    raise InvariantViolation(
                        "mass conservation",
                        f"component {name} drifted by {new - old:.3e} in one step "
                        f"(tolerance {self.mass_tol:.3e})")
            # every check passed at the accepted steps, so the running worst
            # fails only where this step breached; the first breach is named
            if not (self.regularized or report.verdicts.all_ok):
                name, slack, tol = next(c for c in report.verdicts.checks() if not c[1] <= c[2])
                raise InvariantViolation(
                    name, f"measured slack {slack:.3e} exceeds the tolerance {tol:.0e}")
        self.prev = report


def _maximum(x, y):
    """``np.maximum(x, y)`` of two floats, bit for bit, without a ufunc call."""
    return x if x > y or x != x else y
