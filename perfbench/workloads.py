"""Workload definitions of the crossdiff benchmark.

Each workload is one ``crossdiff run`` configuration.  Seeded workloads draw
their initial condition from a fixed family of ``family`` members
(``seed % family``), so that every member has recorded reference values in
``reference.json`` and the work per run stays nearly the same across seeds.
The program only ever receives the generated CSV through ``--ic from-file``.

Why these three (see README.md in this directory for the layer map):

* ``readme-1d`` -- the README example, verbatim, on the default solver:
  small grid, per-call overhead, 1D Picard kernel; bypasses fvops and the
  sparse solve.
* ``square-2d`` -- 64x64 Newton on degenerate data (zero patch in f):
  solve-bound, exercises the positive-part kinks and Armijo backtracking.
* ``fine-1d``   -- 4096 cells with Newton: sparse solve, Jacobian assembly
  and the per-step entropy report dominate; bypasses the Picard kernel.
  The IC is positive because a zero front at this size makes both solvers
  fail to converge (a known defect, left visible rather than tuned away).
  Runnable by name but not declared in BENCHMARK.json: its raw run-to-run
  spread was 0.16-0.19 of the median on a shared 2-CPU host, and a third
  workload does not fit the run budget (see README.md).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

MUSKAT = {"muskat_R": "1", "muskat_mu": "1"}


def _fine_ic(index: int) -> tuple[np.ndarray, np.ndarray]:
    """Positive smooth 1D profile: a fixed base plus small seeded modes 3..6."""
    n = 4096
    rng = np.random.default_rng(index)
    x = (np.arange(n) + 0.5) / n
    f = 1.0 + 0.4 * np.cos(np.pi * x)
    g = 1.0 - 0.3 * np.cos(2.0 * np.pi * x)
    for k in range(3, 7):
        f += 0.05 * rng.uniform(-1.0, 1.0) * np.cos(k * np.pi * x)
        g += 0.05 * rng.uniform(-1.0, 1.0) * np.cos(k * np.pi * x)
    return f, g


def _square_ic(index: int) -> tuple[np.ndarray, np.ndarray]:
    """2D data varying in x and y; f is a compactly supported cap, so it is
    exactly zero on a patch around the corners (degenerate mobility)."""
    n = 64
    rng = np.random.default_rng(index)
    c = (np.arange(n) + 0.5) / n
    X, Y = np.meshgrid(c, c, indexing="ij")
    cx, cy = 0.5 + rng.uniform(-0.05, 0.05, 2)
    radius = rng.uniform(0.33, 0.37)
    f = 1.5 * np.maximum(0.0, 1.0 - ((X - cx) ** 2 + (Y - cy) ** 2) / radius**2)
    g = (1.0 + 0.3 * np.cos(np.pi * X) * np.cos(np.pi * Y)
         + 0.05 * rng.uniform(-1.0, 1.0) * np.cos(2.0 * np.pi * X))
    return f.ravel(), g.ravel()


@dataclass(frozen=True)
class Workload:
    name: str
    #: configuration keys of ``crossdiff run`` (as in a config file), minus
    #: the IC file and the output directory, which the harness supplies
    values: dict
    #: seeded IC generator, or None when the workload uses a built-in preset
    make_ic: Callable[[int], tuple[np.ndarray, np.ndarray]] | None = None
    family: int = 1
    #: host-speed probe of ``calibrate.py`` whose work resembles this
    #: workload's dominant cost
    calibration: str = "sparse"

    @property
    def steps(self) -> int:
        return int(round(float(self.values["t_final"]) / float(self.values["tau"])))

    @property
    def cells(self) -> int:
        """Number of cells; also the size of the kernel microbenchmark."""
        return int(self.values["cells"]) ** int(self.values.get("dimension", "1"))

    def ic_index(self, seed: int) -> int:
        return seed % self.family


def write_ic(workload: Workload, index: int, path: Path) -> tuple[np.ndarray, np.ndarray] | None:
    """Write the seeded IC as a ``from-file`` CSV; returns (f, g), or None
    for a workload without a seeded IC."""
    if workload.make_ic is None:
        return None
    f, g = workload.make_ic(index)
    rows = "\n".join(f"{fi!r},{gi!r}" for fi, gi in zip(f.tolist(), g.tolist()))
    path.write_text("f,g\n" + rows + "\n", encoding="utf-8")
    return f, g


def ic_masses(ic: tuple[np.ndarray, np.ndarray]) -> list[float]:
    """Cell sums of f and g: identifies a generated IC to the last few ulps."""
    return [float(np.sum(ic[0])), float(np.sum(ic[1]))]


def config_values(workload: Workload, out_dir: Path, ic_path: Path | None) -> dict:
    values = dict(workload.values)
    if ic_path is not None:
        values.update(ic="from-file", ic_file=str(ic_path))
    values["out"] = str(out_dir)
    return values


def cli_argv(values: dict) -> list[str]:
    """``crossdiff run`` arguments for a configuration dict."""
    argv = ["run"]
    for key, raw in values.items():
        flag = "--muskat-R" if key == "muskat_R" else "--" + key.replace("_", "-")
        argv += [flag, raw]
    return argv


WORKLOADS = {w.name: w for w in (
    # README example, verbatim, on the default solver
    Workload("readme-1d", {**MUSKAT, "cells": "64", "tau": "1e-3",
                           "t_final": "1", "tol": "1e-12"}, calibration="python"),
    Workload("fine-1d", {**MUSKAT, "cells": "4096", "method": "newton",
                         "tau": "1e-3", "t_final": "0.2", "tol": "1e-9"},
             make_ic=_fine_ic, family=16),
    Workload("square-2d", {**MUSKAT, "dimension": "2", "cells": "64",
                           "method": "newton", "tau": "1e-3",
                           "t_final": "0.03", "tol": "1e-10"},
             make_ic=_square_ic, family=16),
)}
