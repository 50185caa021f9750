#!/usr/bin/env python3
"""Record the reference final masses and E_1..E_6 of every benchmark input.

    python3 perfbench/make_reference.py [workload ...]

Runs ``crossdiff run`` once per workload input (each member of a seeded IC
family) exactly as the benchmark does, and rewrites ``reference.json``.
Only inputs that pass every other output check are recorded.  Rerun only
when a workload's inputs change on purpose; the values pin the solution the
benchmark accepts.
"""

from __future__ import annotations

import json
import os
import sys

if __name__ == "__main__":
    from run import THREAD_ENV
    os.environ.update(THREAD_ENV)

import check
from run import REFERENCE, WORK, prepare, spawn
from workloads import WORKLOADS, cli_argv, ic_masses


def record(name: str) -> dict:
    workload = WORKLOADS[name]
    entries = {}
    for index in range(workload.family):
        inputs = prepare(workload, index, WORK / "reference" / name, reference_file=None)
        out = inputs.work / "out"
        code, wall, _ = spawn([sys.executable, "-m", "crossdiff"]
                              + cli_argv(inputs.values(out)), inputs.work / "run.log")
        found = [p for p in inputs.check(code, out) if p != check.NO_REFERENCE]
        if found:
            raise SystemExit(f"{name} input {index}: {found}")
        diag = check.read_diagnostics(out / "diagnostics.csv")
        entries[str(index)] = {
            "ic_masses": ic_masses(inputs.ic) if inputs.ic is not None else None,
            "final": check.final_values(diag),
        }
        print(f"{name} input {index}: {wall:.2f} s", flush=True)
    return entries


def main(names: list[str]) -> int:
    try:
        recorded = json.loads(REFERENCE.read_text(encoding="utf-8"))
    except OSError:
        recorded = {"workloads": {}}
    recorded["tolerance"] = {"rtol": check.REF_RTOL, "atol": check.REF_ATOL}
    for name in names or sorted(WORKLOADS):
        recorded["workloads"][name] = record(name)
    REFERENCE.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n",
                         encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
