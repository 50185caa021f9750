"""Per-state and per-run structural diagnostics.

Entropy traces, the discrete dissipation functional, sup-norm quantities
and steady-state flux residuals are read-only functions of a state.  The
run monitor is the one definition of the inequalities a run is checked
against (mass conservation, entropy monotonicity, cumulative dissipation,
sup-norm bound): it measures, enforces and reports each of them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import fvops, kernels
from .entropy import build_coefficients, eval_phi1, phi_bounds
from .errors import InvariantViolation
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


@lru_cache(maxsize=256)
def _moment_gather(params: Params, n_max: int):
    """(top, flat, weights, starts): top is the last degree <= n_max whose
    coefficients are finite; flat indexes the anti-diagonals j + k = n,
    n = 2..top, of the flattened (top+1)^2 power-moment table, weights
    holds their coefficients and starts the first entry of each degree."""
    coeffs = []
    for n in range(2, n_max + 1):
        try:
            coeffs.append(build_coefficients(params, n).coeffs)
        except ValueError:      # the coefficients overflow
            break
    top = len(coeffs) + 1
    flat = [j * (top + 1) + n - j for n in range(2, top + 1) for j in range(n + 1)]
    starts = np.cumsum([0] + [n + 1 for n in range(2, top)])
    return top, np.array(flat, dtype=np.intp), np.concatenate([[]] + coeffs), starts


def entropy_trace(state: State, params: Params, n_max: int = 6) -> np.ndarray:
    """Entropy values [E_1, ..., E_n_max] of a nonnegative state; inf from
    the first degree whose coefficients overflow double precision.

    E_2..E_n_max are weighted sums of one table of power moments
    (:func:`crossdiff.kernels.power_moments`) read along the
    anti-diagonals j + k = n only: the moments of higher total degree may
    overflow, and never reach a finite E_n."""
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    m = state.min_value()
    if m < -NEGATIVE_CLIP:
        raise ValueError(f"entropy trace requires a nonnegative state, min={m}")
    f = np.maximum(state.f.ravel(), 0.0)
    g = np.maximum(state.g.ravel(), 0.0)
    vol = state.grid.cell_volume
    out = np.full(n_max, np.inf)
    out[0] = vol * eval_phi1(params, (f, g)).sum() if f.size else 0.0
    top, flat, weights, starts = _moment_gather(params, n_max)
    if top >= 2:
        moments = kernels.power_moments(f, g, top).ravel()
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
    + theta2 |grad g|^2 ] * cell volume, using the scheme's face gradients."""
    a = params.a
    th = theta_constants(params)
    grid = state.grid
    u = np.stack((a * state.f + th.theta1 * state.g, state.g))
    total = 0.0
    for axis in range(grid.ndim):
        gp, gg = np.diff(u, axis=axis + 1) / grid.dx
        total += float(np.sum(gp * gp + th.theta2 * gg * gg))
    return grid.cell_volume * total / a


def steady_residual(state: State, params: Params) -> float:
    """Max-norm over faces of the two component fluxes; zero exactly at
    constant states, used as a stopping diagnostic for long runs."""
    u = np.stack((state.f, state.g))
    fluxes = (fvops.face_terms(u, params.as_tuple(), state.grid.dx, None, True, axis)[4]
              for axis in range(state.grid.ndim))
    return max(float(np.abs(flux).max()) for flux in fluxes)


def entropy_sandwich(state: State, params: Params, n: int):
    """(lower, E_n, upper) where lower/upper integrate the pointwise bounds
    of :func:`entropy.phi_bounds` (degree ``n >= 2``) at the positive parts
    of the state."""
    lower, upper = phi_bounds(params, n, (np.maximum(state.f, 0.0),
                                          np.maximum(state.g, 0.0)))
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
    def all_ok(self) -> bool:
        return all(slack <= tol for _, slack, tol in self.checks())

    def lines(self) -> list[str]:
        return [f"{name}: measured slack {slack:.3e} (tolerance {tol:.0e}) -> "
                f"{'PASS' if slack <= tol else 'FAIL'}"
                for name, slack, tol in self.checks()] + [
            f"overall: {'PASS' if self.all_ok else 'FAIL'}"]


class RunMonitor:
    """The inequalities of one run: measured per step, enforced, and kept.

    Built from the report of the initial state, it takes the report of each
    accepted step in order.  Per step it measures the mass drift of each
    component (|change| minus the mass removed by clamping, at most
    ``MASS_SLACK_FACTOR * tol * |Omega|``) and the relative slacks

    * (E_n - E_n,prev) / max(E_n,prev, 1e-300) for each degree n;
    * (E_1 + cumulative dissipation - E_1(0)) / max(E_1(0), 1e-300);
    * (||f+g||_inf - cap) / cap, cap = linf_bound_constant * ||f0+g0||_inf.

    Each report gets the cumulative dissipation and the worst slacks so far
    (``dissipation_cum``, ``verdicts``).  With ``opts.check_invariants`` the
    first breach, a non-finite slack included, raises
    :class:`InvariantViolation`; regularized runs enforce the mass drift only.
    """

    def __init__(self, report0, params: Params, tau: float, measure: float, opts):
        self.tau = tau
        self.mass_tol = MASS_SLACK_FACTOR * opts.tol * measure
        self.enforce = opts.check_invariants
        self.regularized = opts.regularization is not None
        self.e1_initial = report0.entropies[0]
        self.cap = linf_bound_constant(params) * report0.linf
        self.prev = report0
        self.dissipation_cum = 0.0
        self.entropy_worst = np.zeros(report0.entropies.shape)
        self.dissipation_worst = 0.0
        self.linf_worst = self._linf_slack(report0)
        report0.verdicts = self.verdicts()

    def _linf_slack(self, report) -> float:
        return (report.linf - self.cap) / max(self.cap, 1e-300)

    def verdicts(self) -> RunVerdicts:
        return RunVerdicts(dict(enumerate(self.entropy_worst.tolist(), start=1)),
                           self.dissipation_worst, self.linf_worst)

    def observe(self, report) -> None:
        prev, self.prev = self.prev, report
        self.dissipation_cum += self.tau * report.dissipation
        # np.maximum keeps a NaN, so a non-finite measurement stays failed
        self.entropy_worst = np.maximum(
            self.entropy_worst,
            (report.entropies - prev.entropies) / np.maximum(prev.entropies, 1e-300))
        self.dissipation_worst = np.maximum(
            self.dissipation_worst,
            (report.entropies[0] + self.dissipation_cum - self.e1_initial)
            / max(self.e1_initial, 1e-300))
        self.linf_worst = np.maximum(self.linf_worst, self._linf_slack(report))
        report.dissipation_cum = self.dissipation_cum
        report.verdicts = self.verdicts()
        if not self.enforce:
            return
        for name, new, old, clamped in zip("fg", report.masses, prev.masses,
                                           report.clamped_mass):
            if not abs(new - old) - clamped <= self.mass_tol:
                raise InvariantViolation(
                    "mass conservation", None,
                    f"component {name} drifted by {new - old:.3e} in one step "
                    f"(tolerance {self.mass_tol:.3e})")
        # every check passed at the earlier steps, so the running worst
        # fails only where this step breached
        for name, slack, tol in [] if self.regularized else report.verdicts.checks():
            if not slack <= tol:
                raise InvariantViolation(
                    name, None, f"measured slack {slack:.3e} exceeds the tolerance {tol:.0e}")
