"""Per-layer tracing of an in-process ``crossdiff`` CLI run.

The tracer replaces public module attributes with timing wrappers for the
duration of one ``cli.main(argv)`` call and restores them afterwards, so the
package itself carries no instrumentation.  Each call records a span (name,
start, end, parent) in memory; self time is a span's duration minus the
durations of its direct children.  A target that a later version of the
package no longer has is reported as absent and its metrics read 0.

The split inside ``kernels.picard_1d`` is invisible from here, because the
kernel calls its solve and residual helpers directly; the microbenchmark in
``micro_metrics`` times the kernels on their own instead.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from collections import Counter, defaultdict

import numpy as np

#: (span name, module whose attribute the caller looks up, attribute).
#: ``cli`` imports ``run`` by name and ``diagnostics`` imports ``eval_phi1``
#: by name, so those are wrapped where they are looked up.
TARGETS = (
    ("scheme.run", "crossdiff.cli", "run"),
    ("scheme.step", "crossdiff.scheme", "step"),
    ("kernels.picard_1d", "crossdiff.kernels", "picard_1d"),
    ("kernels.phi_cells", "crossdiff.kernels", "phi_cells"),
    ("fvops.face_terms", "crossdiff.fvops", "face_terms"),
    ("fvops.implicit_residual", "crossdiff.fvops", "implicit_residual"),
    ("linsolve.spsolve", "scipy.sparse.linalg", "spsolve"),
    ("diagnostics.entropy_trace", "crossdiff.diagnostics", "entropy_trace"),
    ("diagnostics.dissipation", "crossdiff.diagnostics", "dissipation"),
    ("diagnostics.linf_sum", "crossdiff.diagnostics", "linf_sum"),
    ("entropy.eval_phi1", "crossdiff.diagnostics", "eval_phi1"),
    ("diagnostics.summarize_run", "crossdiff.diagnostics", "summarize_run"),
    ("diagnostics.steady_residual", "crossdiff.diagnostics", "steady_residual"),
    ("cli.write_outputs", "crossdiff.cli", "write_outputs"),
)
ROOT_SPAN = "cli.main"


def _count_picard(counts, args, result):
    counts["kernels.picard_1d.iters"] += int(result[2])


def _count_spsolve(counts, args, result):
    counts["linsolve.spsolve.unknowns"] += args[0].shape[0]
    counts["linsolve.spsolve.nnz"] += args[0].nnz


COUNTERS = {"kernels.picard_1d": _count_picard, "linsolve.spsolve": _count_spsolve}

#: per-layer metrics: (name, unit, better)
PER_LAYER = (
    ("scheme.step.calls", "count", "lower"),
    ("scheme.step.self_s", "s", "lower"),
    ("scheme.run.self_s", "s", "lower"),
    ("scheme.iters_per_step.mean", "iter/step", "lower"),
    ("scheme.iters_per_step.max", "iter/step", "lower"),
    ("scheme.picard.attempts_per_step", "call/step", "lower"),
    ("scheme.newton.residual_evals_per_iter", "call/iter", "lower"),
    ("kernels.picard_1d.self_s", "s", "lower"),
    ("kernels.picard_1d.us_per_iter", "us", "lower"),
    ("kernels.picard_1d.cell_iters_per_s", "1/s", "higher"),
    ("kernels.phi_cells.self_s", "s", "lower"),
    ("kernels.phi_cells.calls", "count", "lower"),
    ("fvops.face_terms.self_s", "s", "lower"),
    ("fvops.face_terms.calls", "count", "lower"),
    ("fvops.implicit_residual.self_s", "s", "lower"),
    ("fvops.implicit_residual.calls", "count", "lower"),
    ("linsolve.spsolve.self_s", "s", "lower"),
    ("linsolve.spsolve.calls", "count", "lower"),
    ("linsolve.spsolve.unknowns", "count", "lower"),
    ("linsolve.spsolve.nnz", "count", "lower"),
    ("diagnostics.entropy_trace.s", "s", "lower"),
    ("diagnostics.dissipation.s", "s", "lower"),
    ("diagnostics.linf_sum.s", "s", "lower"),
    ("diagnostics.report_s", "s", "lower"),
    ("entropy.eval_phi1.s", "s", "lower"),
    ("diagnostics.summarize_run.s", "s", "lower"),
    ("diagnostics.steady_residual.s", "s", "lower"),
    ("cli.write_outputs.s", "s", "lower"),
    ("cli.output_bytes", "B", "lower"),
    ("kernels.micro_cells", "count", "higher"),
    ("kernels.thomas.us_per_call", "us", "lower"),
    ("kernels.phi_cells.us_per_call", "us", "lower"),
    ("kernels.residual_1d.us_per_call", "us", "lower"),
    ("kernels.picard_1d.us_per_call", "us", "lower"),
    ("trace.overhead_frac", "frac", "lower"),
    ("trace.uncovered_frac", "frac", "lower"),
)


class Tracer:
    """In-memory span recorder for one single-threaded run."""

    def __init__(self):
        self.spans: list[list] = []       # [name, start, end, parent index]
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def wrap(self, name, fn, count=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            self.spans.append([name, 0.0, 0.0, self._stack[-1] if self._stack else -1])
            self._stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[index][1:3] = start, end
            if count is not None:
                count(self.counts, args, result)
            return result
        return traced

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        for (name, start, end, _), child in zip(self.spans, covered):
            entry = out[name]
            entry["calls"] += 1
            entry["s"] += end - start
            entry["self_s"] += end - start - child
        return out


@contextlib.contextmanager
def installed(tracer: Tracer, targets=TARGETS):
    """Wrap every target that exists; yields the names of absent ones."""
    patched, absent = [], []
    try:
        for name, module_name, attr in targets:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                absent.append(name)
                continue
            original = getattr(module, attr, None)
            if original is None:
                absent.append(name)
                continue
            setattr(module, attr, tracer.wrap(name, original, COUNTERS.get(name)))
            patched.append((module, attr, original))
        yield absent
    finally:
        for module, attr, original in reversed(patched):
            setattr(module, attr, original)


def layer_metrics(tracer: Tracer, iterations: np.ndarray, steps: int, cells: int,
                  output_bytes: int) -> dict[str, float]:
    """Per-layer metrics of one traced run; ``iterations`` is the
    diagnostics.csv column without the initial row."""
    tot = tracer.totals()

    def get(name, key):
        return float(tot[name][key]) if name in tot else 0.0

    def ratio(num, den):
        return num / den if den else 0.0

    picard_iters = tracer.counts["kernels.picard_1d.iters"]
    picard_self = get("kernels.picard_1d", "self_s")
    spsolves = get("linsolve.spsolve", "calls")
    m = {
        "scheme.step.calls": get("scheme.step", "calls"),
        "scheme.step.self_s": get("scheme.step", "self_s"),
        "scheme.run.self_s": get("scheme.run", "self_s"),
        "scheme.iters_per_step.mean": float(np.mean(iterations)),
        "scheme.iters_per_step.max": float(np.max(iterations)),
        "scheme.picard.attempts_per_step": ratio(get("kernels.picard_1d", "calls"), steps),
        "scheme.newton.residual_evals_per_iter": ratio(
            get("fvops.implicit_residual", "calls"), float(np.sum(iterations))),
        "kernels.picard_1d.self_s": picard_self,
        "kernels.picard_1d.us_per_iter": ratio(1e6 * picard_self, picard_iters),
        "kernels.picard_1d.cell_iters_per_s": ratio(cells * picard_iters, picard_self),
        "linsolve.spsolve.unknowns": ratio(tracer.counts["linsolve.spsolve.unknowns"], spsolves),
        "linsolve.spsolve.nnz": ratio(tracer.counts["linsolve.spsolve.nnz"], spsolves),
        "cli.output_bytes": float(output_bytes),
        "trace.uncovered_frac": ratio(get(ROOT_SPAN, "self_s"), get(ROOT_SPAN, "s")),
    }
    for name in ("kernels.phi_cells", "fvops.face_terms", "fvops.implicit_residual",
                 "linsolve.spsolve"):
        m[f"{name}.self_s"] = get(name, "self_s")
        m[f"{name}.calls"] = get(name, "calls")
    for name in ("diagnostics.entropy_trace", "diagnostics.dissipation",
                 "diagnostics.linf_sum", "entropy.eval_phi1",
                 "diagnostics.summarize_run", "diagnostics.steady_residual",
                 "cli.write_outputs"):
        m[f"{name}.s"] = get(name, "s")
    m["diagnostics.report_s"] = (m["diagnostics.entropy_trace.s"]
                                 + m["diagnostics.dissipation.s"]
                                 + m["diagnostics.linf_sum.s"])
    return m


def _median_call_us(fn, budget_s: float, min_calls: int = 5) -> float:
    fn()  # warm-up
    samples = []
    stop = time.perf_counter() + budget_s
    while len(samples) < min_calls or time.perf_counter() < stop:
        t0 = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - t0)
    return 1e6 * float(np.median(samples))


def micro_metrics(params, cells: int, budget_s: float = 0.3,
                  tau: float = 1e-3, tol: float = 1e-9) -> tuple[dict[str, float], list[str]]:
    """Microseconds per call of the active lane's 1D kernels at ``cells``
    cells on a smooth positive profile (``picard_1d`` is one implicit step
    from it); returns (metrics, kernels that are absent or failed)."""
    from crossdiff import entropy, kernels

    a, b, c, d = params.as_tuple()
    rng = np.random.default_rng(0)
    x = (np.arange(cells) + 0.5) / cells
    dx = 1.0 / cells
    f = 1.0 + 0.5 * np.cos(np.pi * x)
    g = 1.0 - 0.3 * np.cos(2.0 * np.pi * x)
    lower = -rng.uniform(0.1, 1.0, cells)
    upper = -rng.uniform(0.1, 1.0, cells)
    lower[0] = upper[-1] = 0.0
    diag = 1.0 + np.abs(lower) + np.abs(upper)
    rhs = rng.standard_normal(cells)
    coeffs = entropy.build_coefficients(params, 6).coeffs
    calls = {
        "thomas": lambda k: k(lower, diag, upper, rhs),
        "phi_cells": lambda k: k(coeffs, f, g),
        "residual_1d": lambda k: k(f, g, f, g, a, b, c, d, tau, dx,
                                   0.0, np.inf, False, True),
        "picard_1d": lambda k: k(f, g, a, b, c, d, tau, dx, 0.0, np.inf, False,
                                 True, tol, 200, 1.0),
    }
    metrics = {"kernels.micro_cells": float(cells)}
    absent = []
    for name, call in calls.items():
        kernel = getattr(kernels, name, None)
        value = 0.0
        if kernel is None:
            absent.append(f"kernels.{name}")
        else:
            try:
                value = _median_call_us(lambda: call(kernel), budget_s)
            except Exception as err:    # e.g. a signature changed in a later version
                absent.append(f"kernels.{name} ({type(err).__name__})")
        metrics[f"kernels.{name}.us_per_call"] = value
    return metrics, absent
