"""Command-line front end.

Subcommands:

* ``run``    -- single simulation; writes ``diagnostics.csv``, state
  snapshots named by step index, and ``summary.txt`` with the inequality
  verdicts.
* ``sweep``  -- Cartesian product over comma-separated values of the numeric
  options, one worker process per run, per-run output directories.
* ``verify`` -- the randomized algebraic property suites (no PDE solve).
* ``limits`` -- regularization refinement study: one exact implicit step
  against the regularized step over lists of eps and rho.

Configuration comes from an optional flat ``key = value`` text file
(``--config``) overridden by command-line flags.  All floating-point CSV
output is written with 17 significant digits so values round-trip exactly.
"""

from __future__ import annotations

import argparse
import itertools
import sys
from concurrent import futures
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from . import diagnostics, verify
from .errors import InvalidInput, InvariantViolation, NonConvergence, SchemeError
from .grid import Grid1D, Grid2D, State
from .params import Params, muskat_params
from .scheme import SolverOptions, initial_report, run, step, step_regularized

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_CONFIG = 2
EXIT_NONCONVERGENCE = 3
EXIT_INVARIANT = 4
EXIT_IO = 5


class ConfigError(Exception):
    pass


# error class -> (stderr label, exit code); the first matching entry wins
_EXIT_CODES = (
    (ConfigError, "config", EXIT_CONFIG),
    (InvalidInput, "input", EXIT_CONFIG),
    (NonConvergence, "nonconvergence", EXIT_NONCONVERGENCE),
    (InvariantViolation, "invariant", EXIT_INVARIANT),
    (SchemeError, "scheme", EXIT_FAILURE),
    (OSError, "io", EXIT_IO),
)
_REPORTED = tuple(cls for cls, _, _ in _EXIT_CODES)


def _report_error(err: Exception, where: str = "") -> int:
    """Print ``err`` to stderr under its category and return the exit code
    that ``run`` and every ``sweep`` member use for it."""
    for cls, label, code in _EXIT_CODES:
        if isinstance(err, cls):
            print(f"error [{label}]{where}: {err}", file=sys.stderr)
            return code


def _fmt(x: float) -> str:
    # 17 significant digits: exact decimal round-trip for binary64
    return format(float(x), ".16e")


@dataclass
class RunConfig:
    a: float | None = None
    b: float | None = None
    c: float | None = None
    d: float | None = None
    muskat_R: float | None = None
    muskat_mu: float | None = None
    cells: int = 64
    length: float = 1.0
    dimension: int = 1
    tau: float = 1e-3
    t_final: float = 1.0
    method: str = "newton"     # kept for existing configs; the only solver
    tol: float = 1e-10
    max_iters: int = 200
    mobility_face: str = "upwind"
    eps: float | None = None
    rho: float | None = None
    clamp_negative: bool = False
    check_invariants: bool = True
    n_max: int = 6
    ic: str = "cosine-bump"
    ic_file: str = ""
    ic_f0: float = 1.0
    ic_g0: float = 1.0
    ic_amp: float = 0.5
    ic_amp_g: float = 0.0
    ic_k: int = 1
    ic_kg: int = 1
    ic_split: float = 0.5
    ic_f_left: float = 1.5
    ic_f_right: float = 0.5
    ic_g_left: float = 0.5
    ic_g_right: float = 1.5
    seed: int = 0
    out: str = "out"
    snapshot_every: int = 0
    tau_retries: int = 0

    def build_params(self) -> Params:
        explicit = [v is not None for v in (self.a, self.b, self.c, self.d)]
        muskat = self.muskat_R is not None or self.muskat_mu is not None
        try:
            if muskat:
                if any(explicit):
                    raise ConfigError(
                        "specify either a/b/c/d or the muskat preset, not both")
                if self.muskat_R is None:
                    raise ConfigError("muskat preset needs muskat_R")
                return muskat_params(self.muskat_R,
                                     1.0 if self.muskat_mu is None else self.muskat_mu)
            if any(explicit):
                if not all(explicit):
                    raise ConfigError("provide all four of a, b, c, d")
                return Params(self.a, self.b, self.c, self.d)
            return Params(2.0, 1.0, 1.0, 1.0)
        except ValueError as err:
            raise ConfigError(str(err)) from err

    def build_grid(self):
        try:
            if self.dimension == 1:
                return Grid1D(self.cells, self.length)
            if self.dimension == 2:
                return Grid2D(self.cells, self.length)
        except ValueError as err:
            raise ConfigError(str(err)) from err
        raise ConfigError(f"dimension must be 1 or 2, got {self.dimension}")

    def build_initial(self, grid) -> State:
        if grid.ndim == 1:
            x = grid.centers()
        else:
            x = grid.centers()[0]
        L = self.length
        if self.ic == "constant":
            f = np.full(grid.shape, self.ic_f0)
            g = np.full(grid.shape, self.ic_g0)
        elif self.ic == "cosine-bump":
            f = self.ic_f0 + self.ic_amp * np.cos(self.ic_k * np.pi * x / L)
            g = self.ic_g0 + self.ic_amp_g * np.cos(self.ic_kg * np.pi * x / L)
        elif self.ic == "step":
            split = self.ic_split * L
            f = np.where(x < split, self.ic_f_left, self.ic_f_right)
            g = np.where(x < split, self.ic_g_left, self.ic_g_right)
        elif self.ic == "random-smooth":
            rng = np.random.default_rng(self.seed)
            f = np.full(grid.shape, self.ic_f0, dtype=float)
            g = np.full(grid.shape, self.ic_g0, dtype=float)
            for k in range(1, 5):
                f = f + self.ic_amp * rng.standard_normal() * np.cos(k * np.pi * x / L) / k
                g = g + self.ic_amp_g * rng.standard_normal() * np.cos(k * np.pi * x / L) / k
        elif self.ic == "from-file":
            if not self.ic_file:
                raise ConfigError("ic=from-file needs ic_file=PATH")
            table = np.genfromtxt(self.ic_file, delimiter=",", names=True)
            if table.dtype.names is None or not {"f", "g"} <= set(table.dtype.names):
                raise ConfigError(f"{self.ic_file}: need a CSV header with f and g columns")
            fcol = np.atleast_1d(table["f"]).astype(float)
            gcol = np.atleast_1d(table["g"]).astype(float)
            if fcol.size != grid.num_points:
                raise ConfigError(
                    f"{self.ic_file}: {fcol.size} rows but the grid has "
                    f"{grid.num_points} cells")
            f = fcol.reshape(grid.shape)
            g = gcol.reshape(grid.shape)
        else:
            raise ConfigError(f"unknown initial condition {self.ic!r}")
        f = np.maximum(np.broadcast_to(np.asarray(f, float), grid.shape), 0.0)
        g = np.maximum(np.broadcast_to(np.asarray(g, float), grid.shape), 0.0)
        return State(grid, f.copy(), g.copy())

    def solver_options(self) -> SolverOptions:
        if (self.eps is None) != (self.rho is None):
            raise ConfigError("regularization needs both eps and rho")
        reg = (self.eps, self.rho) if self.eps is not None else None
        try:
            return SolverOptions(
                max_iters=self.max_iters,
                tol=self.tol,
                mobility_face=self.mobility_face,
                regularization=reg,
                clamp_negative=self.clamp_negative,
                n_max=self.n_max,
                check_invariants=self.check_invariants,
            )
        except ValueError as err:
            raise ConfigError(str(err)) from err


_FIELD_TYPES = {f.name: f.type for f in fields(RunConfig)}
_INT_KEYS = {"cells", "dimension", "max_iters", "n_max", "ic_k", "ic_kg",
             "seed", "snapshot_every", "tau_retries"}
_BOOL_KEYS = {"clamp_negative", "check_invariants"}
_STR_KEYS = {"method", "mobility_face", "ic", "ic_file", "out"}
_FLOAT_KEYS = set(_FIELD_TYPES) - _INT_KEYS - _BOOL_KEYS - _STR_KEYS


def _convert(key: str, raw: str):
    if key not in _FIELD_TYPES:
        raise ConfigError(f"unknown configuration key {key!r}")
    raw = raw.strip()
    try:
        if key in _BOOL_KEYS:
            low = raw.lower()
            if low in ("1", "true", "yes", "on"):
                return True
            if low in ("0", "false", "no", "off"):
                return False
            raise ValueError(f"not a boolean: {raw!r}")
        if key in _INT_KEYS:
            return int(raw)
        if key in _STR_KEYS:
            if key == "method" and raw != "newton":
                removed = " (the Picard solver was removed)" if raw == "picard" else ""
                raise ValueError(f"{raw!r}{removed}; newton is the only solver")
            return raw
        return float(raw)
    except ValueError as err:
        raise ConfigError(f"bad value for {key}: {err}") from err


def parse_config_file(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as err:
        raise ConfigError(f"cannot read config file {path}: {err}") from err
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected key = value")
        key, raw = stripped.split("=", 1)
        values[key.strip()] = raw.strip()
    return values


def build_config(file_values: dict[str, str], cli_values: dict[str, str]) -> RunConfig:
    cfg = RunConfig()
    merged = dict(file_values)
    merged.update(cli_values)
    for key, raw in merged.items():
        setattr(cfg, key, _convert(key, raw))
    return cfg


# ---------------------------------------------------------------------------
# outputs
# ---------------------------------------------------------------------------

def _csv_header(n_max: int) -> str:
    return ",".join(["time", "mass_f", "mass_g"]
                    + [f"E{n}" for n in range(1, n_max + 1)]
                    + ["dissipation_cum", "linf_sum", "factorizations", "iterations",
                       "residual"]) + "\n"


def _csv_row(entry, n_max: int) -> str:
    t, _, rep = entry
    return ",".join([_fmt(t), _fmt(rep.masses[0]), _fmt(rep.masses[1])]
                    + [_fmt(e) for e in rep.entropies[:n_max]]
                    + [_fmt(rep.dissipation_cum), _fmt(rep.linf), str(rep.factorizations),
                       str(rep.iterations), _fmt(rep.residual)]) + "\n"


def _snapshot_due(index: int, every: int) -> bool:
    return index % every == 0 if every > 0 else index == 0


def write_outputs(out_dir: Path, config: RunConfig, params: Params, tau: float,
                  steps: int, entry, status: str) -> diagnostics.RunVerdicts:
    """Write the snapshot of the last entry of a run (unless it was due
    already) and ``summary.txt``; returns the inequality verdicts that the
    summary reports, those on the last entry's report."""
    _, final_state, report = entry
    if not _snapshot_due(steps, config.snapshot_every):
        _write_state(out_dir / f"state_{steps:06d}.csv", final_state)
    text = [
        f"status: {status}",
        f"params: a={_fmt(params.a)} b={_fmt(params.b)} c={_fmt(params.c)} d={_fmt(params.d)}",
        f"grid: dimension={config.dimension} cells={config.cells} length={_fmt(config.length)}",
        f"tau: {_fmt(tau)}",
        f"steps: {steps}",
        f"final steady-state flux residual: {_fmt(diagnostics.steady_residual(final_state, params))}",
    ]
    if status != "COMPLETED":
        text.append("note: verdicts below cover the retained steps only; "
                    "the failing step is not part of the trajectory")
    text.extend(report.verdicts.lines())
    (out_dir / "summary.txt").write_text("\n".join(text) + "\n", encoding="utf-8")
    return report.verdicts


def _write_state(path: Path, state: State) -> None:
    grid = state.grid
    # one row per cell: index, centre coordinates, f, g (each as _fmt writes it)
    columns = np.vstack((np.reshape(grid.centers(), (grid.ndim, -1)),
                         state.f.ravel(), state.g.ravel()))
    row = "{}" + ",{:.16e}" * len(columns) + "\n"
    with path.open("w", encoding="utf-8") as fh:
        fh.write(",".join(("index", *"xy"[:grid.ndim], "f", "g")) + "\n")
        fh.writelines(row.format(i, *values)
                      for i, values in enumerate(zip(*columns.tolist())))


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def execute_run(config: RunConfig) -> int:
    """Run one simulation, streaming each ``diagnostics.csv`` row and due
    snapshot as its step finishes; a failed run keeps what was written and
    adds the last state's snapshot and a ``FAILED`` summary."""
    params = config.build_params()
    grid = config.build_grid()
    initial = config.build_initial(grid)
    opts = config.solver_options()
    out_dir = Path(config.out)
    tau = config.tau
    retries = config.tau_retries
    while True:
        entries = run(initial, tau, config.t_final, params, opts)
        out_dir.mkdir(parents=True, exist_ok=True)
        snapshots = []
        try:
            # line buffered: each row reaches the file when its step is done
            with (out_dir / "diagnostics.csv").open("w", encoding="utf-8",
                                                    buffering=1) as csv:
                csv.write(_csv_header(config.n_max))
                for steps, entry in enumerate(entries):
                    csv.write(_csv_row(entry, config.n_max))
                    if _snapshot_due(steps, config.snapshot_every):
                        snapshots.append(out_dir / f"state_{steps:06d}.csv")
                        _write_state(snapshots[-1], entry[1])
        except SchemeError as err:
            if isinstance(err, NonConvergence) and retries > 0:
                retries -= 1
                tau *= 0.5
                print(f"retrying with halved time step tau={tau:g} ({err})",
                      file=sys.stderr)
                for path in snapshots:      # the restart rewrites the rest
                    path.unlink()
                continue
            write_outputs(out_dir, config, params, tau, steps, entry, f"FAILED: {err}")
            raise
        break
    verdicts = write_outputs(out_dir, config, params, tau, steps, entry, "COMPLETED")
    print(f"completed {steps} steps -> {out_dir}/diagnostics.csv "
          f"(verdict: {'PASS' if verdicts.all_ok else 'FAIL'})")
    return EXIT_OK


def cmd_run(args) -> int:
    config = _config_from_args(args)
    return execute_run(config)


def _config_values(args) -> dict[str, str]:
    """Entries of the ``--config`` file, overridden by the flags given."""
    values = parse_config_file(args.config) if args.config else {}
    values.update((k, v) for k, v in vars(args).items()
                  if k in _FIELD_TYPES and v is not None)
    return values


def _config_from_args(args) -> RunConfig:
    return build_config(_config_values(args), {})


def cmd_sweep(args) -> int:
    if args.workers is not None and args.workers < 1:
        raise ConfigError(f"--workers must be at least 1, got {args.workers}")
    merged = _config_values(args)
    base = {k: v for k, v in merged.items() if "," not in v}
    swept = {k: [p.strip() for p in v.split(",")] for k, v in merged.items()
             if "," in v}
    if not swept:
        raise ConfigError("sweep needs at least one comma-separated value list")
    for key in swept:
        if key in _STR_KEYS:
            raise ConfigError(f"cannot sweep over {key}")
    out_root = Path(base.get("out", "out"))
    keys = sorted(swept)
    combos = list(itertools.product(*(swept[k] for k in keys)))
    jobs = []
    for i, combo in enumerate(combos):
        values = dict(base)
        values.update(dict(zip(keys, combo)))
        run_dir = out_root / f"run_{i:03d}"
        values["out"] = str(run_dir)
        jobs.append(values)
    manifest = [",".join(["directory"] + keys)]
    for i, combo in enumerate(combos):
        manifest.append(",".join([f"run_{i:03d}"] + list(combo)))
    out_root.mkdir(parents=True, exist_ok=True)
    (out_root / "sweep_manifest.csv").write_text("\n".join(manifest) + "\n",
                                                 encoding="utf-8")
    worst = EXIT_OK
    with futures.ProcessPoolExecutor(max_workers=args.workers) as pool:
        for code in pool.map(_sweep_worker, jobs):
            worst = max(worst, code)
    print(f"sweep finished: {len(jobs)} runs -> {out_root} "
          f"({'all ok' if worst == EXIT_OK else 'with failures'})")
    return worst


def _sweep_worker(values: dict[str, str]) -> int:
    try:
        return execute_run(build_config({}, values))
    except _REPORTED as err:
        return _report_error(err, f" in {values.get('out', '?')}")


def cmd_verify(args) -> int:
    results = verify.run_property_suite(n_max=args.n_max, samples=args.samples,
                                        seed=args.seed)
    for result in results:
        print(result.line())
    if all(r.ok for r in results):
        print("all property suites passed")
        return EXIT_OK
    print("property suite FAILED", file=sys.stderr)
    return EXIT_FAILURE


def cmd_limits(args) -> int:
    config = _config_from_args(args)
    params = config.build_params()
    grid = config.build_grid()
    initial = config.build_initial(grid)
    opts = config.solver_options()
    if opts.regularization is not None:
        raise ConfigError("limits drives regularization itself; "
                          "pass --eps-list/--rho-list instead of --eps/--rho")
    eps_list = _float_list("--eps-list", args.eps_list)
    rho_list = _float_list("--rho-list", args.rho_list)
    e_before = initial_report(initial, params, opts).entropies
    exact, _ = step(initial, config.tau, params, opts)
    header = (["eps", "rho", "max_diff"]
              + [f"dE{n}" for n in range(1, config.n_max + 1)])
    rows = [",".join(header)]
    print(f"{'eps':>10} {'rho':>10} {'max-norm diff':>15} {'max entropy increment':>22}")
    for rho in rho_list:
        for eps in eps_list:
            approx, _ = step_regularized(initial, config.tau, params, eps, rho, opts)
            diff = max(np.abs(approx.f - exact.f).max(),
                       np.abs(approx.g - exact.g).max())
            e_after = diagnostics.entropy_trace(approx, params, config.n_max)
            increments = e_after - e_before
            rows.append(",".join([_fmt(eps), _fmt(rho), _fmt(diff)]
                                 + [_fmt(v) for v in increments]))
            print(f"{eps:>10.3g} {rho:>10.3g} {diff:>15.6e} "
                  f"{increments.max():>22.6e}")
    out_dir = Path(config.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "limits.csv").write_text("\n".join(rows) + "\n", encoding="utf-8")
    print(f"wrote {out_dir}/limits.csv")
    return EXIT_OK


def _float_list(flag: str, text: str) -> list[float]:
    values = []
    for entry in text.split(","):
        try:
            values.append(float(entry))
        except ValueError:
            raise ConfigError(f"{flag}: {entry.strip()!r} is not a number") from None
    return values


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="flat key = value configuration file")
    for key in sorted(_FIELD_TYPES):
        flag = "--" + key.replace("_", "-")
        if key == "muskat_R":
            flag = "--muskat-R"
        parser.add_argument(flag, dest=key, metavar="V", default=None)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crossdiff",
        description="implicit finite-volume solver for the degenerate "
                    "cross-diffusion system, with structure verification")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a single simulation")
    _add_config_flags(p_run)
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", help="Cartesian sweep over comma-separated values")
    _add_config_flags(p_sweep)
    p_sweep.add_argument("--workers", type=int, default=None,
                         help="worker processes (default: executor default)")
    p_sweep.set_defaults(func=cmd_sweep)

    p_verify = sub.add_parser("verify", help="randomized algebraic property suites")
    p_verify.add_argument("--n-max", type=int, default=10)
    p_verify.add_argument("--samples", type=int, default=1000)
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.set_defaults(func=cmd_verify)

    p_limits = sub.add_parser("limits", help="regularized-vs-exact refinement study")
    _add_config_flags(p_limits)
    p_limits.add_argument("--eps-list", default="1e-2,1e-3,1e-4")
    p_limits.add_argument("--rho-list", default="1e3")
    p_limits.set_defaults(func=cmd_limits)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _REPORTED as err:
        return _report_error(err)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
