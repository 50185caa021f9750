"""Command-line front end.

Subcommands:

* ``run``    -- single simulation; writes ``diagnostics.csv``, state
  snapshots named by step index, and ``summary.txt`` with the inequality
  verdicts.
* ``sweep``  -- Cartesian product over comma-separated values of the numeric
  options, at most one worker process per run, per-run output directories.
* ``verify`` -- the randomized algebraic property suites (no PDE solve).
* ``limits`` -- regularization refinement study: the first step of a run
  against the first step of the regularized run over lists of eps and rho.

Configuration comes from an optional flat ``key = value`` text file
(``--config``) overridden by command-line flags.  All floating-point CSV
output is written with 17 significant digits so values round-trip exactly.
"""

from __future__ import annotations

import argparse
import itertools
import os
import sys
from concurrent import futures
from dataclasses import dataclass, fields, replace
from functools import lru_cache
from pathlib import Path

import numpy as np

from . import diagnostics
from .errors import InvalidInput, InvariantViolation, NonConvergence, SchemeError
from .grid import Grid1D, Grid2D, State
from .params import Params, muskat_params
from .scheme import SolverOptions, run

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
    # solver_options copies each of these into the SolverOptions field of its name
    tol: float = SolverOptions.tol
    max_iters: int = SolverOptions.max_iters
    mobility_face: str = SolverOptions.mobility_face
    clamp_negative: bool = SolverOptions.clamp_negative
    check_invariants: bool = SolverOptions.check_invariants
    n_max: int = SolverOptions.n_max
    eps: float | None = None
    rho: float | None = None
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
        if muskat:
            if any(explicit):
                raise ConfigError("specify either a/b/c/d or the muskat preset, not both")
            if self.muskat_R is None:
                raise ConfigError("muskat preset needs muskat_R")
            return muskat_params(self.muskat_R,
                                 1.0 if self.muskat_mu is None else self.muskat_mu)
        if any(explicit):
            if not all(explicit):
                raise ConfigError("provide all four of a, b, c, d")
            return Params(self.a, self.b, self.c, self.d)
        return Params(2.0, 1.0, 1.0, 1.0)

    def build_grid(self):
        if self.dimension not in (1, 2):
            raise ConfigError(f"dimension must be 1 or 2, got {self.dimension}")
        return (Grid1D, Grid2D)[self.dimension - 1](self.cells, self.length)

    def build_initial(self, grid) -> State:
        x = grid.centers() if grid.ndim == 1 else grid.centers()[0]
        L = self.length
        if self.ic == "constant":
            f = np.full(grid.shape, self.ic_f0)
            g = np.full(grid.shape, self.ic_g0)
        elif self.ic == "cosine-bump":
            f = self.ic_f0 + self.ic_amp * np.cos(self.ic_k * np.pi * x / L)
            g = self.ic_g0 + self.ic_amp_g * np.cos(self.ic_kg * np.pi * x / L)
        elif self.ic == "step":
            if np.isnan(self.ic_split):     # x < nan would put every cell right
                raise ConfigError(f"ic_split must be a number, got {self.ic_split}")
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
            try:
                table = np.genfromtxt(self.ic_file, delimiter=",", names=True)
            except (OSError, ValueError) as err:    # unreadable, or ragged rows
                raise ConfigError(f"cannot read ic_file {self.ic_file}: {err}") from err
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
        u = np.maximum((f, g), 0.0)         # every preset is clipped at 0
        finite = np.isfinite(u.reshape(2, -1)).all(axis=0)
        if not finite.all():
            source = (f"{self.ic_file}: row {finite.argmin() + 1}" if self.ic == "from-file"
                      else f"ic={self.ic}")
            raise ConfigError(f"{source} gives non-finite initial values")
        return State(grid, *u)

    def solver_options(self) -> SolverOptions:
        if (self.eps is None) != (self.rho is None):
            raise ConfigError("regularization needs both eps and rho")
        reg = (self.eps, self.rho) if self.eps is not None else None
        copied = {f.name: getattr(self, f.name) for f in fields(SolverOptions)
                  if f.name != "regularization"}
        return SolverOptions(regularization=reg, **copied)

    def problem(self) -> tuple[Params, State, SolverOptions]:
        """The parameters, initial state and solver options of a run; what
        ``Params``, the grid or ``SolverOptions`` rejects is a ConfigError."""
        try:
            params, grid, opts = self.build_params(), self.build_grid(), self.solver_options()
        except ValueError as err:
            raise ConfigError(str(err)) from err
        return params, self.build_initial(grid), opts


#: config key -> "bool", "int", "float" or "str", from RunConfig's annotations
_FIELD_TYPES = {f.name: f.type.split(" |")[0] for f in fields(RunConfig)}


def _convert(key: str, raw: str):
    kind = _FIELD_TYPES.get(key)
    if kind is None:
        raise ConfigError(f"unknown configuration key {key!r}")
    raw = raw.strip()
    try:
        if kind == "bool":
            low = raw.lower()
            if low in ("1", "true", "yes", "on"):
                return True
            if low in ("0", "false", "no", "off"):
                return False
            raise ValueError(f"not a boolean: {raw!r}")
        if key == "method" and raw != "newton":
            removed = " (the Picard solver was removed)" if raw == "picard" else ""
            raise ValueError(f"{raw!r}{removed}; newton is the only solver")
        value = {"int": int, "float": float, "str": str}[kind](raw)
        if key in ("snapshot_every", "tau_retries", "seed") and value < 0:
            raise ValueError(f"must be >= 0, got {value}")
        return value
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
    for key, raw in {**file_values, **cli_values}.items():
        setattr(cfg, key, _convert(key, raw))
    return cfg


# ---------------------------------------------------------------------------
# outputs
# ---------------------------------------------------------------------------

@lru_cache(maxsize=8)
def _csv_layout(n_max: int) -> tuple[str, str]:
    """(header, row template) of ``diagnostics.csv``: each column once, with
    its format, each float in _fmt's text."""
    e = "{:.16e}"
    columns = {"time": e, "mass_f": e, "mass_g": e, **{f"E{n}": e for n in range(1, n_max + 1)},
               "dissipation_cum": e, "linf_sum": e, "factorizations": "{}", "iterations": "{}",
               "residual": e}
    return ",".join(columns) + "\n", ",".join(columns.values()) + "\n"


def _csv_row(entry) -> str:
    t, _, rep = entry
    return _csv_layout(len(rep.entropies))[1].format(
        t, *rep.masses, *rep.entropies.tolist(), rep.dissipation_cum, rep.linf,
        rep.factorizations, rep.iterations, rep.residual)


def _snapshot_due(index: int, every: int) -> bool:
    return index % every == 0 if every > 0 else index == 0


def write_outputs(out_dir: Path, config: RunConfig, params: Params, steps: int,
                  entry, status: str) -> None:
    """Write the snapshot of the last entry of a run (unless it was due
    already) and ``summary.txt``, whose time step and inequality verdicts
    are those of the last entry's report."""
    _, final_state, report = entry
    if not _snapshot_due(steps, config.snapshot_every):
        _write_state(out_dir / f"state_{steps:06d}.csv", final_state)
    text = [
        f"status: {status}",
        f"params: a={_fmt(params.a)} b={_fmt(params.b)} c={_fmt(params.c)} d={_fmt(params.d)}",
        f"grid: dimension={config.dimension} cells={config.cells} length={_fmt(config.length)}",
        f"tau: {_fmt(report.tau)}",
        f"steps: {steps}",
        f"final steady-state flux residual: {_fmt(diagnostics.steady_residual(final_state, params))}",
    ]
    if status != "COMPLETED":
        text.append("note: verdicts below cover the retained steps only; "
                    "the failing step is not part of the trajectory")
    text.extend(report.verdicts.lines())
    (out_dir / "summary.txt").write_text("\n".join(text) + "\n", encoding="utf-8")


def _write_state(path: Path, state: State) -> None:
    grid = state.grid
    # one row per cell: index, centre coordinates, f, g (each as _fmt writes it)
    columns = np.vstack((np.reshape(grid.centers(), (grid.ndim, -1)),
                         state.u.reshape(2, -1)))
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
    params, initial, opts = config.problem()
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
                csv.write(_csv_layout(config.n_max)[0])
                for steps, entry in enumerate(entries):
                    csv.write(_csv_row(entry))
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
            write_outputs(out_dir, config, params, steps, entry, f"FAILED: {err}")
            raise
        break
    write_outputs(out_dir, config, params, steps, entry, "COMPLETED")
    print(f"completed {steps} steps -> {out_dir}/diagnostics.csv "
          f"(verdict: {'PASS' if entry[2].verdicts.all_ok else 'FAIL'})")
    return EXIT_OK


def _config_values(args) -> dict[str, str]:
    """Entries of the ``--config`` file, overridden by the flags given."""
    values = parse_config_file(args.config) if args.config else {}
    values.update((k, v) for k, v in vars(args).items()
                  if k in _FIELD_TYPES and v is not None)
    return values


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
        if _FIELD_TYPES.get(key) == "str":
            raise ConfigError(f"cannot sweep over {key}")
    out_root = Path(base.get("out", "out"))
    keys = sorted(swept)
    jobs, manifest = [], [",".join(["directory", *keys])]
    for i, combo in enumerate(itertools.product(*(swept[k] for k in keys))):
        name = f"run_{i:03d}"
        jobs.append({**base, **dict(zip(keys, combo)), "out": str(out_root / name)})
        manifest.append(",".join([name, *combo]))
    out_root.mkdir(parents=True, exist_ok=True)
    (out_root / "sweep_manifest.csv").write_text("\n".join(manifest) + "\n",
                                                 encoding="utf-8")
    worst = EXIT_OK
    # the pool starts all its workers at the first submit
    workers = min(args.workers or os.cpu_count() or 1, len(jobs))
    with futures.ProcessPoolExecutor(max_workers=workers) as pool:
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
    from . import verify    # only this command loads the property suites
    if args.samples < 1:
        raise ConfigError(f"--samples must be at least 1, got {args.samples}")
    if args.seed < 0:
        raise ConfigError(f"--seed must be >= 0, got {args.seed}")
    if args.n_max < 2:
        raise ConfigError(f"--n-max must be at least 2, the lowest degree checked, "
                          f"got {args.n_max}")
    if args.n_max > verify.MAX_DEGREE:
        raise ConfigError(f"--n-max must be at most {verify.MAX_DEGREE}, beyond which "
                          f"the coefficients can overflow double precision, got {args.n_max}")
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
    config = build_config(_config_values(args), {})
    if config.eps is not None or config.rho is not None:
        raise ConfigError("limits drives regularization itself; "
                          "pass --eps-list/--rho-list instead of --eps/--rho")
    eps_list = _float_list("--eps-list", args.eps_list)
    rho_list = _float_list("--rho-list", args.rho_list)
    # every entry is checked before the first solve and the first line printed
    problems = [(eps, rho, replace(config, eps=eps, rho=rho).problem())
                for rho in rho_list for eps in eps_list]
    _, (_, exact, _) = _first_step(config.tau, config.problem())
    header = (["eps", "rho", "max_diff"]
              + [f"dE{n}" for n in range(1, config.n_max + 1)])
    rows = [",".join(header)]
    print(f"{'eps':>10} {'rho':>10} {'max-norm diff':>15} {'max entropy increment':>22}")
    for eps, rho, problem in problems:
        (_, _, before), (_, approx, report) = _first_step(config.tau, problem)
        diff = np.abs(approx.u - exact.u).max()
        increments = report.entropies - before.entropies
        rows.append(",".join([_fmt(eps), _fmt(rho), _fmt(diff)]
                             + [_fmt(v) for v in increments]))
        print(f"{eps:>10.3g} {rho:>10.3g} {diff:>15.6e} {increments.max():>22.6e}")
    out_dir = Path(config.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "limits.csv").write_text("\n".join(rows) + "\n", encoding="utf-8")
    print(f"wrote {out_dir}/limits.csv")
    return EXIT_OK


def _first_step(tau: float, problem):
    """The initial entry and the first step, of length ``tau``, of the run of
    ``problem``, a :meth:`RunConfig.problem`."""
    params, initial, opts = problem
    return run(initial, tau, tau, params, opts)


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
        parser.add_argument("--" + key.replace("_", "-"), dest=key, metavar="V",
                            default=None)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crossdiff",
        description="implicit finite-volume solver for the degenerate "
                    "cross-diffusion system, with structure verification")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a single simulation")
    _add_config_flags(p_run)
    p_run.set_defaults(func=lambda args: execute_run(build_config(_config_values(args), {})))

    p_sweep = sub.add_parser("sweep", help="Cartesian sweep over comma-separated values")
    _add_config_flags(p_sweep)
    p_sweep.add_argument("--workers", type=int, default=None,
                         help="worker processes, at most one per run (default: CPU count)")
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
