#!/usr/bin/env python3
"""crossdiff benchmark: time to a verified solution, end to end and per layer.

    python3 perfbench/run.py --workload readme-1d --seed 0 --seconds 45 --trace 0

Run from the root of a source checkout; the package is taken from ``src/``.

``--trace 0`` spawns fresh ``python -m crossdiff run`` processes one at a
time for ``--seconds`` seconds, each preceded by a set-up probe process, and
reports medians of

* ``total_s``     -- spawn-to-exit wall time of one run that exited 0 and
  passed the output check (``check.py``),
* ``setup_s``     -- spawn-to-exit wall time of ``setup_probe.py``: import
  and config building, everything before the first step,
* ``ms_per_step`` -- (total_s - median setup_s) / steps,
* ``peak_rss_mb`` -- ``ru_maxrss`` of the run process, from ``os.wait4``.

The times are scaled to a reference host speed measured around each run by
``calibrate.py``; the raw medians go to the results file.

``--trace 1`` calls ``crossdiff.cli.main`` in this process, alternating an
untraced and a traced call, and reports the per-layer metrics of
``tracing.py`` plus a microbenchmark of the 1D kernels at the workload's
cell count.

Children run one at a time with single-threaded BLAS/OpenMP.  The last line
of standard output is one JSON object (correct, attempted, failed, metrics);
a fuller record (environment, samples, problems, ``claim: null``) goes to
``.perfbench_out/results/``.
"""

from __future__ import annotations

import os

THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
if __name__ == "__main__":
    os.environ.update(THREAD_ENV)   # before numpy loads its BLAS

import argparse
import contextlib
import json
import math
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import check
import tracing
from calibrate import CAL_REF_S
from workloads import WORKLOADS, Workload, cli_argv, config_values, ic_masses, write_ic

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_out"
REFERENCE = HERE / "reference.json"
CHILD_TIMEOUT_S = 60.0     # several times the slowest child; keeps a run under 180 s
MIN_PROBE_SAMPLES = 5

END_TO_END = (
    ("total_s", "s"),
    ("setup_s", "s"),
    ("ms_per_step", "ms"),
    ("peak_rss_mb", "MB"),
)


@dataclass
class Inputs:
    """Everything one measurement needs about the generated input."""
    workload: Workload
    ic_index: int
    work: Path
    ic_path: Path | None = None
    ic: tuple | None = None
    reference: dict | None = None
    problems: list = field(default_factory=list)

    def values(self, out_dir: Path) -> dict:
        return config_values(self.workload, out_dir, self.ic_path)

    def check(self, code: int, out_dir: Path) -> list[str]:
        return self.problems + check.problems(self.workload, code, out_dir,
                                              self.reference, self.ic)


def prepare(workload: Workload, seed: int, work: Path,
            reference_file: Path | None = REFERENCE) -> Inputs:
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    inputs = Inputs(workload, workload.ic_index(seed), work)
    if workload.make_ic is not None:
        inputs.ic_path = work / "ic.csv"
        inputs.ic = write_ic(workload, inputs.ic_index, inputs.ic_path)
    if reference_file is None:
        return inputs
    try:
        recorded = json.loads(reference_file.read_text(encoding="utf-8"))
        inputs.reference = recorded["workloads"][workload.name][str(inputs.ic_index)]
    except (OSError, ValueError, KeyError):
        return inputs
    if inputs.ic is not None and not all(
            math.isclose(m, r, rel_tol=1e-12)
            for m, r in zip(ic_masses(inputs.ic), inputs.reference["ic_masses"])):
        inputs.problems.append("generated IC differs from the one the reference was recorded for")
    inputs.reference = inputs.reference["final"]
    return inputs


def child_env() -> dict:
    env = dict(os.environ)
    env.update(THREAD_ENV)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def spawn(argv: list[str], log: Path, timeout: float = CHILD_TIMEOUT_S) -> tuple[int, float, float]:
    """Run one child to completion: (exit code, wall s, peak RSS MiB).  A
    child that outlives ``timeout`` is killed and reported as exit -9."""
    with log.open("wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=out,
                                stderr=subprocess.STDOUT)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def probe(inputs: Inputs, kind: str) -> tuple[bool, float]:
    """Time one set-up probe (``kind == "setup"``) or host-speed probe."""
    if kind == "setup":
        argv = [sys.executable, str(HERE / "setup_probe.py"),
                json.dumps(inputs.values(inputs.work / "probe"))]
    else:
        argv = [sys.executable, str(HERE / "calibrate.py"), kind]
    code, wall, _ = spawn(argv, inputs.work / f"{kind}.log")
    return code == 0, wall


def measure_end_to_end(inputs: Inputs, seconds: float) -> dict:
    kind = inputs.workload.calibration
    probe(inputs, "setup")   # warm-up: bytecode cache and page cache, as users have
    cals, setups, runs, problems = [], [], [], []

    def sample(kind):
        ok, wall = probe(inputs, kind)
        if not ok:
            problems.append(f"{kind} probe failed")
        return wall

    # Each iteration is bracketed by two host-speed probes; its samples are
    # scaled to the reference host speed by the mean of the two, which takes
    # out most of the shared host's speed drift (see calibrate.py).
    cals.append(sample(kind))
    deadline = time.perf_counter() + seconds
    while not runs or time.perf_counter() < deadline or len(setups) < MIN_PROBE_SAMPLES:
        setup = sample("setup")
        child = None
        if not runs or time.perf_counter() < deadline:
            out = inputs.work / f"run{len(runs)}"
            argv = [sys.executable, "-m", "crossdiff"] + cli_argv(inputs.values(out))
            code, wall, rss = spawn(argv, inputs.work / f"run{len(runs)}.log")
            found = inputs.check(code, out)
            child = {"total_s": wall, "peak_rss_mb": rss, "ok": not found}
            problems += [f"run {len(runs)}: {p}" for p in found]
            if not found:
                shutil.rmtree(out, ignore_errors=True)
        cals.append(sample(kind))
        host = CAL_REF_S[kind] / (0.5 * (cals[-2] + cals[-1]))
        setups.append({"raw_s": setup, "s": setup * host})
        if child is not None:
            child["host_scale"] = host
            runs.append(child)

    good = [r for r in runs if r["ok"]] or runs
    setup_raw = statistics.median(s["raw_s"] for s in setups)
    setup = statistics.median(s["s"] for s in setups)
    steps = inputs.workload.steps
    metrics = {
        "total_s": statistics.median(r["total_s"] * r["host_scale"] for r in good),
        "setup_s": setup,
        "ms_per_step": statistics.median(
            1e3 * (r["total_s"] * r["host_scale"] - setup) / steps for r in good),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in good),
    }
    raw = {
        "total_s": statistics.median(r["total_s"] for r in good),
        "setup_s": setup_raw,
        "ms_per_step": statistics.median(
            1e3 * (r["total_s"] - setup_raw) / steps for r in good),
    }
    return {
        "metrics": metrics,
        "units": dict(END_TO_END),
        "attempted": len(runs),
        "failed": sum(not r["ok"] for r in runs),
        "correct": not problems,
        "problems": problems,
        "raw_times": raw,
        "samples": {"runs": runs, "setup": setups, f"{kind}_probe_s": cals},
        "sample_counts": {"runs": len(good), "setup": len(setups), kind: len(cals)},
    }


def call_main(argv: list[str], log: Path, tracer: tracing.Tracer | None = None,
              targets=tracing.TARGETS) -> tuple[int, float, list[str]]:
    """``cli.main(argv)`` in this process, traced when a tracer is given:
    (exit code, wall s, absent trace targets)."""
    from crossdiff import cli

    absent: list[str] = []
    with log.open("w", encoding="utf-8") as out, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        with contextlib.ExitStack() as stack:
            main = cli.main
            if tracer is not None:
                absent = stack.enter_context(tracing.installed(tracer, targets))
                main = tracer.wrap(tracing.ROOT_SPAN, main)
            start = time.perf_counter()
            try:
                code = main(argv)
            except SystemExit as err:      # argparse rejects the arguments
                code = err.code if isinstance(err.code, int) else 2
            except Exception:              # a crash counts as a failed run
                traceback.print_exc()
                code = -1
            wall = time.perf_counter() - start
    return code, wall, absent


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def measure_layers(inputs: Inputs, seconds: float, targets=tracing.TARGETS) -> dict:
    from crossdiff import cli

    workload = inputs.workload
    params = cli.build_config({}, dict(workload.values)).build_params()
    micro, absent = tracing.micro_metrics(params, workload.cells)
    untraced, traced, layers, problems = [], [], [], []
    attempted = failed = 0
    deadline = time.perf_counter() + seconds
    while not traced or time.perf_counter() < deadline:
        for tracer in (None, tracing.Tracer()):
            k = attempted
            out = inputs.work / f"run{k}"
            code, wall, missing = call_main(cli_argv(inputs.values(out)),
                                            inputs.work / f"run{k}.log", tracer, targets)
            attempted += 1
            found = inputs.check(code, out)
            if found:
                failed += 1
                problems += [f"run {k}: {p}" for p in found]
                continue
            if tracer is None:
                untraced.append(wall)
                shutil.rmtree(out, ignore_errors=True)
                continue
            traced.append(wall)
            absent = sorted(set(absent) | set(missing))
            iterations = check.read_diagnostics(out / "diagnostics.csv")["iterations"][1:]
            layers.append(tracing.layer_metrics(tracer, iterations, workload.steps,
                                                workload.cells, _dir_bytes(out)))
            shutil.rmtree(out, ignore_errors=True)
        if failed and not traced:
            break
    metrics = dict(micro)
    for name in (layers[0] if layers else {}):
        metrics[name] = statistics.median(layer[name] for layer in layers)
    metrics["trace.overhead_frac"] = (
        statistics.median(traced) / statistics.median(untraced) - 1.0
        if traced and untraced else 0.0)
    for name, _, _ in tracing.PER_LAYER:
        metrics.setdefault(name, 0.0)
    return {
        "metrics": metrics,
        "units": {name: unit for name, unit, _ in tracing.PER_LAYER},
        "attempted": attempted,
        "failed": failed,
        "correct": not problems,
        "problems": problems,
        "absent": absent,
        "samples": {"untraced_s": untraced, "traced_s": traced},
        "sample_counts": {"traced": len(traced), "untraced": len(untraced)},
    }


def _cpu_model() -> str | None:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _git_sha() -> str | None:
    """HEAD of the checkout, read from ``.git`` without running git; None
    when the checkout is not a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    import numpy
    import scipy
    from crossdiff import kernels

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_sha": _git_sha(),
        "active_lane": getattr(kernels, "ACTIVE_LANE", None),
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        "platform": platform.platform(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "crossdiff" / "__init__.py").is_file():
        print(f"error: no crossdiff sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]
    inputs = prepare(workload, args.seed, WORK / workload.name)
    measure = measure_layers if args.trace else measure_end_to_end
    res = measure(inputs, args.seconds)

    record = {
        "benchmark": "crossdiff",
        "workload": workload.name,
        "seed": args.seed,
        "ic_index": inputs.ic_index if workload.make_ic else None,
        "trace": args.trace,
        "seconds": args.seconds,
        "claim": None,
        "env": environment(),
        **res,
    }
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8")

    for problem in res["problems"]:
        print(f"problem: {problem}")
    for name in sorted(res.get("absent", ())):
        print(f"absent trace target: {name}")
    print(f"{workload.name} samples: {res['sample_counts']}")
    for name, value in res["metrics"].items():
        print(f"{workload.name} {name}: {value:.6g} {res['units'][name]}")
    print(json.dumps({
        "correct": res["correct"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": value, "unit": res["units"][name]}
                    for name, value in res["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
