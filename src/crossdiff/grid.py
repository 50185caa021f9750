"""Uniform cell-centered meshes with zero-flux (Neumann) closure.

1D is the primary geometry; 2D is the tensor-product extension on a square
domain with the same cell count per axis.  One class, :class:`Grid`, holds
the geometry of both; :class:`Grid1D` and :class:`Grid2D` only fix its
dimension.  Fields are plain numpy arrays of the grid's ``shape``; the x
coordinate runs along the last axis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import ClassVar

import numpy as np


@dataclass(frozen=True)
class Grid:
    """``num_cells`` cells per axis on the cube of side ``length``, in the
    dimension ``ndim`` that :class:`Grid1D` and :class:`Grid2D` set."""

    num_cells: int
    length: float
    ndim: ClassVar[int]

    def __post_init__(self):
        if self.num_cells < 2:
            raise ValueError(f"need at least 2 cells per axis, got {self.num_cells}")
        if not self.length > 0.0:
            raise ValueError(f"domain length must be positive, got {self.length}")

    # computed once per grid: the states of a run share it, and each step reads it
    @cached_property
    def dx(self) -> float:
        return self.length / self.num_cells

    @cached_property
    def shape(self) -> tuple[int, ...]:
        return (self.num_cells,) * self.ndim

    @cached_property
    def num_points(self) -> int:
        return self.num_cells**self.ndim

    @cached_property
    def cell_volume(self) -> float:
        return math.prod((self.dx,) * self.ndim)

    @cached_property
    def measure(self) -> float:
        """Total domain measure |Omega|."""
        return math.prod((self.length,) * self.ndim)

    def centers(self):
        """Cell-center coordinates: an array in 1D, and in 2D the (x, y)
        arrays of the grid's shape."""
        c = (np.arange(self.num_cells) + 0.5) * self.dx
        if self.ndim == 1:
            return c
        x, y = np.meshgrid(c, c, indexing="xy")
        return x, y

    def integrate(self, values: np.ndarray) -> float:
        """Midpoint quadrature, exact for cellwise-constant integrands."""
        values = self._check_field(values)
        return float(self.cell_volume * values.sum())

    def _check_field(self, values) -> np.ndarray:
        values = np.asarray(values, dtype=float)
        if values.shape != self.shape:
            raise ValueError(f"field shape {values.shape} != grid shape {self.shape}")
        return values


class Grid1D(Grid):
    ndim = 1


class Grid2D(Grid):
    ndim = 2


@dataclass
class State:
    """Paired cell fields (f, g) on a shared grid.

    The solver keeps both components nonnegative; diagnostics that require
    nonnegativity check it themselves, so a state may transiently carry
    sign-indefinite data (e.g. manufactured fields in gradient checks).
    """

    grid: Grid
    f: np.ndarray = field(repr=False)
    g: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.f = self.grid._check_field(self.f)
        self.g = self.grid._check_field(self.g)

    @classmethod
    def constant(cls, grid, f0: float, g0: float) -> "State":
        return cls(grid, np.full(grid.shape, float(f0)), np.full(grid.shape, float(g0)))

    def copy(self) -> "State":
        return State(self.grid, self.f.copy(), self.g.copy())

    def min_value(self) -> float:
        return float(min(self.f.min(), self.g.min()))

    def max_value(self) -> float:
        return float(max(self.f.max(), self.g.max()))

    def masses(self) -> tuple[float, float]:
        return self.grid.integrate(self.f), self.grid.integrate(self.g)
