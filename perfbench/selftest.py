"""Self-tests of the benchmark harness on tiny inputs.

    python3 -m pytest perfbench/selftest.py -q

Not collected by the repository's test suite (the file name does not match
``test_*.py``); each test spawns a few short ``crossdiff`` processes.
"""

import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

import check
import run
import tracing
from workloads import MUSKAT, Workload, cli_argv, ic_masses

sys.path.insert(0, str(run.SRC))
BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _tiny_ic(index):
    x = (np.arange(16) + 0.5) / 16
    return 1.0 + 0.2 * np.cos((1 + index) * np.pi * x), np.ones(16)


TINY = Workload("tiny-1d", {**MUSKAT, "cells": "16", "tau": "1e-3",
                            "t_final": "0.005", "tol": "1e-12"},
                make_ic=_tiny_ic, family=2)


@pytest.fixture(scope="module")
def tiny_reference(tmp_path_factory):
    """Reference values of TINY, recorded the way make_reference.py does."""
    work = tmp_path_factory.mktemp("ref")
    inputs = run.prepare(TINY, 1, work, reference_file=None)
    out = work / "out"
    code, _, _ = run.spawn([sys.executable, "-m", "crossdiff"]
                           + cli_argv(inputs.values(out)), work / "run.log")
    assert code == 0
    path = work / "reference.json"
    path.write_text(json.dumps({"workloads": {TINY.name: {"1": {
        "ic_masses": ic_masses(inputs.ic),
        "final": check.final_values(check.read_diagnostics(out / "diagnostics.csv")),
    }}}}), encoding="utf-8")
    return path


def test_benchmark_json_matches_the_harness():
    assert [m["name"] for m in BENCHMARK["end_to_end"]] == [n for n, _ in run.END_TO_END]
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == dict(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]] \
        == list(tracing.PER_LAYER)
    assert {w["name"] for w in BENCHMARK["workloads"]} <= set(run.WORKLOADS)
    assert all(0 < m["bound"] <= 0.25 for m in BENCHMARK["end_to_end"])
    setup = next(m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in BENCHMARK["end_to_end"])


def test_smoke_run_emits_every_declared_metric(tmp_path, tiny_reference):
    inputs = run.prepare(TINY, 1, tmp_path / "e2e", tiny_reference)
    res = run.measure_end_to_end(inputs, 0.1)
    assert res["correct"], res["problems"]
    assert res["attempted"] >= 1 and res["failed"] == 0
    assert {n: res["units"][n] for n in res["metrics"]} == \
        {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    # ms_per_step is total minus set-up; on five tiny steps that is noise
    assert all(res["metrics"][n] > 0 for n in ("total_s", "setup_s", "peak_rss_mb"))

    inputs = run.prepare(TINY, 1, tmp_path / "layers", tiny_reference)
    res = run.measure_layers(inputs, 0.1)
    assert res["correct"], res["problems"]
    assert res["absent"] == []
    assert {n: res["units"][n] for n in res["metrics"]} == \
        {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    m = res["metrics"]
    assert m["scheme.step.calls"] == TINY.steps
    assert m["scheme.picard.attempts_per_step"] >= 1
    assert m["linsolve.spsolve.calls"] == 0          # 1D Picard bypasses the sparse solve
    assert 0 < m["trace.uncovered_frac"] < 1


def test_wrong_output_is_caught(tmp_path, tiny_reference):
    recorded = json.loads(tiny_reference.read_text(encoding="utf-8"))
    recorded["workloads"][TINY.name]["1"]["final"]["E3"] *= 1.0 + 1e-4
    bad = tmp_path / "reference.json"
    bad.write_text(json.dumps(recorded), encoding="utf-8")
    res = run.measure_end_to_end(run.prepare(TINY, 1, tmp_path / "w", bad), 0.1)
    assert not res["correct"] and res["failed"] == res["attempted"]
    assert any("E3" in p for p in res["problems"])


def test_deleted_trace_target_is_reported_absent(tmp_path, tiny_reference):
    targets = tracing.TARGETS + (
        ("kernels.removed", "crossdiff.kernels", "no_such_kernel"),
        ("removed.module", "crossdiff.no_such_module", "anything"),
    )
    from crossdiff import cli, kernels
    originals = (kernels.picard_1d, cli.run)
    inputs = run.prepare(TINY, 1, tmp_path, tiny_reference)
    res = run.measure_layers(inputs, 0.1, targets)
    assert res["correct"], res["problems"]
    assert res["absent"] == ["kernels.removed", "removed.module"]
    assert not hasattr(kernels, "no_such_kernel")
    assert (kernels.picard_1d, cli.run) == originals       # wrappers removed


@pytest.mark.parametrize("measure", [run.measure_end_to_end, run.measure_layers])
def test_nonzero_exit_counts_as_failed(tmp_path, tiny_reference, measure):
    broken = Workload(TINY.name, {**TINY.values, "tau": "-1e-3"},
                      make_ic=TINY.make_ic, family=TINY.family)
    res = measure(run.prepare(broken, 1, tmp_path, tiny_reference), 0.1)
    assert res["attempted"] >= 1 and res["failed"] == res["attempted"]
    assert not res["correct"]
    assert any("exit code 2" in p for p in res["problems"])


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "readme-1d",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
