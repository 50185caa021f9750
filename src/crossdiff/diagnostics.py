"""Per-state and per-run structural diagnostics.

Everything here is read-only: entropy traces, the discrete dissipation
functional, sup-norm quantities, steady-state flux residuals, and the
assembly of end-of-run verdicts for the three monitored inequalities
(entropy monotonicity, cumulative dissipation, sup-norm bound).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import math

import numpy as np

from . import fvops, kernels
from .entropy import build_coefficients, eval_phi1
from .grid import State
from .params import Params, theta_constants

#: tiny negative values (round-off from the solver) are clipped to zero when
#: evaluating entropies; anything below this is a genuine sign violation
NEGATIVE_CLIP = 1e-9

ENTROPY_REL_SLACK = 1e-9
LINF_REL_SLACK = 1e-8
DISSIPATION_REL_SLACK = 1e-8


@lru_cache(maxsize=256)
def _poly(params: Params, n: int):
    return build_coefficients(params, n)


def entropy_trace(state: State, params: Params, n_max: int = 6) -> np.ndarray:
    """Entropy values [E_1, ..., E_n_max] of a nonnegative state."""
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    m = state.min_value()
    if m < -NEGATIVE_CLIP:
        raise ValueError(f"entropy trace requires a nonnegative state, min={m}")
    f = np.maximum(state.f.ravel(), 0.0)
    g = np.maximum(state.g.ravel(), 0.0)
    vol = state.grid.cell_volume
    out = np.empty(n_max)
    out[0] = vol * eval_phi1(params, (f, g)).sum() if f.size else 0.0
    for n in range(2, n_max + 1):
        out[n - 1] = vol * kernels.phi_cells(_poly(params, n).coeffs, f, g).sum()
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
        gp, gg = fvops.face_terms(u, params.as_tuple(), grid.dx, 0.0, math.inf,
                                  False, True, axis)[0]
        total += float(np.sum(gp * gp + th.theta2 * gg * gg))
    return grid.cell_volume * total / a


def steady_residual(state: State, params: Params) -> float:
    """Max-norm over faces of the two component fluxes; zero exactly at
    constant states, used as a stopping diagnostic for long runs."""
    u = np.stack((state.f, state.g))
    fluxes = (fvops.face_terms(u, params.as_tuple(), state.grid.dx, 0.0,
                               math.inf, False, True, axis)[4]
              for axis in range(state.grid.ndim))
    return max(float(np.abs(flux).max()) for flux in fluxes)


def lp_norm(grid, values, p: int) -> float:
    """Discrete L_p norm (integral form) of a cell field."""
    return float(grid.integrate(np.abs(np.asarray(values, float)) ** p) ** (1.0 / p))


def entropy_sandwich(state: State, params: Params, n: int):
    """(lower, E_n, upper) where lower/upper integrate the pointwise bounds
    (c f + d g)^n / d^n and (a f + b g)^n / b^n."""
    a, b, c, d = params.as_tuple()
    f = np.maximum(state.f, 0.0)
    g = np.maximum(state.g, 0.0)
    lower = state.grid.integrate((c * f + d * g) ** n / d**n)
    upper = state.grid.integrate((a * f + b * g) ** n / b**n)
    en = entropy_trace(state, params, n)[n - 1]
    return lower, en, upper


def ln_chain_values(prev: State, new: State, params: Params, n: int):
    """(lhs, rhs) of the norm chain ||c f + d g||_n <= (d/b) ||a F + b G||_n
    linking consecutive states of a run."""
    a, b, c, d = params.as_tuple()
    lhs = lp_norm(new.grid, c * new.f + d * new.g, n)
    rhs = (d / b) * lp_norm(prev.grid, a * prev.f + b * prev.g, n)
    return lhs, rhs


@dataclass
class RunVerdicts:
    """Measured slacks (relative, worst over the run) for the monitored
    inequalities, plus the pass/fail verdict at the standard thresholds."""

    entropy_slack: dict[int, float]
    dissipation_slack: float
    linf_slack: float

    @property
    def entropy_ok(self) -> bool:
        return all(s <= ENTROPY_REL_SLACK for s in self.entropy_slack.values())

    @property
    def dissipation_ok(self) -> bool:
        return self.dissipation_slack <= DISSIPATION_REL_SLACK

    @property
    def linf_ok(self) -> bool:
        return self.linf_slack <= LINF_REL_SLACK

    @property
    def all_ok(self) -> bool:
        return self.entropy_ok and self.dissipation_ok and self.linf_ok

    def lines(self) -> list[str]:
        out = []
        for n in sorted(self.entropy_slack):
            s = self.entropy_slack[n]
            out.append(
                f"entropy monotonicity E_{n}: measured slack {s:.3e} "
                f"(tolerance {ENTROPY_REL_SLACK:.0e}) -> "
                f"{'PASS' if s <= ENTROPY_REL_SLACK else 'FAIL'}")
        out.append(
            f"dissipation inequality: measured slack {self.dissipation_slack:.3e} "
            f"(tolerance {DISSIPATION_REL_SLACK:.0e}) -> "
            f"{'PASS' if self.dissipation_ok else 'FAIL'}")
        out.append(
            f"sup-norm bound: measured slack {self.linf_slack:.3e} "
            f"(tolerance {LINF_REL_SLACK:.0e}) -> "
            f"{'PASS' if self.linf_ok else 'FAIL'}")
        out.append(f"overall: {'PASS' if self.all_ok else 'FAIL'}")
        return out


def summarize_run(trajectory, params: Params, tau: float) -> RunVerdicts:
    """Worst-case relative slacks over a trajectory of (time, state, report)."""
    reports = [rep for (_, _, rep) in trajectory]
    n_max = reports[0].entropies.shape[0]
    e0 = reports[0].entropies
    entropy_slack = {}
    for n in range(1, n_max + 1):
        scale = max(e0[n - 1], 1e-300)
        worst = 0.0
        for prev, cur in zip(reports, reports[1:]):
            worst = max(worst, (cur.entropies[n - 1] - prev.entropies[n - 1]) / scale)
        entropy_slack[n] = worst
    e1_scale = max(e0[0], 1e-300)
    cum = 0.0
    diss_worst = 0.0
    for cur in reports[1:]:
        cum += tau * cur.dissipation
        diss_worst = max(diss_worst, (cur.entropies[0] + cum - e0[0]) / e1_scale)
    cap = linf_bound_constant(params) * reports[0].linf
    linf_worst = max((rep.linf - cap) / cap for rep in reports)
    return RunVerdicts(entropy_slack, diss_worst, linf_worst)
