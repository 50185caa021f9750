"""Uniform cell-centered meshes with zero-flux (Neumann) closure.

1D is the primary geometry; 2D is the tensor-product extension on a square
domain with the same cell count per axis.  One class, :class:`Grid`, holds
the geometry of both; :class:`Grid1D` and :class:`Grid2D` only fix its
dimension.  Fields are plain numpy arrays of the grid's ``shape``; the x
coordinate runs along the last axis.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
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
        if not isinstance(self.num_cells, numbers.Integral):
            raise ValueError(f"num_cells must be an integer, got {self.num_cells}")
        if self.num_cells < 2:
            raise ValueError(f"need at least 2 cells per axis, got {self.num_cells}")
        if not 0.0 < self.length < math.inf:
            raise ValueError(f"domain length must be positive and finite, got {self.length}")

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


class State:
    """Paired cell fields (f, g) on a shared grid, held as one stacked array
    ``u`` of shape ``(2, *grid.shape)``; ``f`` and ``g`` are views of its rows.

    Nothing writes into a state's array in place, so states may share it.
    The solver keeps both components nonnegative; diagnostics that require
    nonnegativity check it themselves, so a state may transiently carry
    sign-indefinite data (e.g. manufactured fields in gradient checks)."""

    __slots__ = ("grid", "u")
    f = property(lambda self: self.u[0])
    g = property(lambda self: self.u[1])

    def __init__(self, grid: Grid, f, g):
        self.grid, self.u = grid, np.stack((grid._check_field(f), grid._check_field(g)))

    @classmethod
    def _wrap(cls, grid: Grid, u: np.ndarray) -> "State":
        """The state whose stacked array is ``u`` itself, not a copy."""
        state = cls.__new__(cls)
        state.grid, state.u = grid, u
        return state

    def __repr__(self):
        return f"State(grid={self.grid!r})"

    @classmethod
    def constant(cls, grid, f0: float, g0: float) -> "State":
        return cls(grid, np.full(grid.shape, float(f0)), np.full(grid.shape, float(g0)))

    def copy(self) -> "State":
        return State._wrap(self.grid, self.u.copy())

    def min_value(self) -> float:
        return float(self.u.min())

    def max_value(self) -> float:
        return float(self.u.max())

    def masses(self) -> tuple[float, float]:
        return tuple((self.grid.cell_volume * self.u.reshape(2, -1).sum(axis=1)).tolist())
