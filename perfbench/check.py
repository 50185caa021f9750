"""Correctness check of one ``crossdiff run`` output directory.

A run is correct when it exited 0, ``summary.txt`` says ``overall: PASS``,
``diagnostics.csv`` has steps + 1 rows ending at ``t_final``, the mass drift
of every step stays within the scheme's own slack (10 * tol * |Omega|),
E_1..E_6 never rise beyond the 1e-9 relative slack, the initial masses equal
those of the generated IC, and the final masses and E_1..E_6 match the
values recorded in ``reference.json`` within ``REF_RTOL``/``REF_ATOL``.

``problems`` returns a list of messages; it never raises on bad output.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

import numpy as np

MASS_SLACK_FACTOR = 10.0
ENTROPY_REL_SLACK = 1e-9
#: reference tolerance: wide enough for any solver converging to the stated
#: tol (Picard and Newton agree to ~5e-9 relative on readme-1d), far below
#: what a wrong step produces
REF_RTOL = 1e-6
REF_ATOL = 1e-9
N_MAX = 6
NO_REFERENCE = "no reference values for this input"
FINAL_KEYS = ["mass_f", "mass_g"] + [f"E{n}" for n in range(1, N_MAX + 1)]


def read_diagnostics(path: Path) -> dict[str, np.ndarray]:
    with path.open(newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    cols = np.array(body, dtype=float).reshape(len(body), len(header))
    return {name: cols[:, j] for j, name in enumerate(header)}


def final_values(diag: dict[str, np.ndarray]) -> dict[str, float]:
    return {key: float(diag[key][-1]) for key in FINAL_KEYS}


def problems(workload, exit_code: int, out_dir: Path, reference: dict | None,
             ic: tuple[np.ndarray, np.ndarray] | None) -> list[str]:
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    try:
        summary = (out_dir / "summary.txt").read_text(encoding="utf-8")
        diag = read_diagnostics(out_dir / "diagnostics.csv")
    except (OSError, ValueError, IndexError) as err:
        return [f"unreadable output: {err}"]
    found = []
    if "overall: PASS" not in summary.splitlines():
        found.append("summary.txt verdict is not PASS")
    missing = [k for k in FINAL_KEYS + ["time", "iterations"] if k not in diag]
    if missing:
        return found + [f"diagnostics.csv lacks columns {missing}"]
    steps = workload.steps
    if diag["time"].size != steps + 1:
        return found + [f"diagnostics.csv has {diag['time'].size} rows, "
                        f"expected {steps + 1}"]
    t_final = float(workload.values["t_final"])
    if not math.isclose(diag["time"][-1], t_final, rel_tol=1e-9):
        found.append(f"final time {diag['time'][-1]!r} != t_final {t_final!r}")

    dim = int(workload.values.get("dimension", "1"))
    measure = float(workload.values.get("length", "1")) ** dim
    mass_tol = MASS_SLACK_FACTOR * float(workload.values["tol"]) * measure
    for key in ("mass_f", "mass_g"):
        drift = np.abs(np.diff(diag[key])).max()
        if drift > mass_tol:
            found.append(f"{key} drifts {drift:.3e} in one step (slack {mass_tol:.3e})")
    for n in range(1, N_MAX + 1):
        e = diag[f"E{n}"]
        if np.any(e[1:] > e[:-1] * (1.0 + ENTROPY_REL_SLACK) + 1e-300):
            found.append(f"E{n} rises along the run")

    if ic is not None:
        cell_volume = measure / ic[0].size
        for key, field in (("mass_f", ic[0]), ("mass_g", ic[1])):
            expected = cell_volume * float(np.sum(field))
            if not math.isclose(diag[key][0], expected, rel_tol=1e-12, abs_tol=1e-15):
                found.append(f"initial {key} {diag[key][0]!r} != IC mass {expected!r}")

    if reference is None:
        found.append(NO_REFERENCE)
    else:
        got = final_values(diag)
        for key in FINAL_KEYS:
            ref = reference[key]
            if not abs(got[key] - ref) <= REF_RTOL * abs(ref) + REF_ATOL:
                found.append(f"final {key} {got[key]!r} differs from reference {ref!r}")
    return found
