"""Uniform Cartesian grids on truncated boxes and centered difference operators.

A grid covers [-L, L]^d (d = 1 or 2) with spacing h and node coordinates
x_i = -L + i*h per axis.  Fields hold one value per node in row-major order.
The centered gradient and Laplacian are defined at interior nodes only;
boundary nodes carry Dirichlet data and are never differenced.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

__all__ = [
    "Grid",
    "GridField",
    "build_grid",
    "discrete_gradient",
    "discrete_laplacian",
    "interior_gradient",
    "interior_laplacian",
]

# absolute tolerance on 2L/h being an integer
DIVISIBILITY_TOL = 1e-9


@dataclass(frozen=True)
class Grid:
    """Uniform mesh on [-half_width, half_width]^dim.

    Attributes
    ----------
    dim : spatial dimension, 1 or 2
    half_width : box half-width L > 0
    h : mesh spacing, must divide 2L
    nodes_per_axis : 2L/h + 1 nodes per axis, derived from the other three

    Non-finite or non-positive inputs, and a cell count 2L/h too large to be
    finite, raise ValueError naming the value.
    """

    dim: int
    half_width: float
    h: float
    nodes_per_axis: int = field(init=False)

    def __post_init__(self) -> None:
        if self.dim not in (1, 2):
            raise ValueError(f"dim must be 1 or 2, got {self.dim}")
        for name in ("half_width", "h"):
            value = getattr(self, name)
            if not (value > 0 and math.isfinite(value)):
                raise ValueError(f"{name} must be positive and finite, got {value}")
        cells = 2.0 * self.half_width / self.h
        if not math.isfinite(cells):
            raise ValueError(
                f"half_width={self.half_width} and h={self.h} give a non-finite cell count {cells}"
            )
        if abs(cells - round(cells)) > DIVISIBILITY_TOL:
            raise ValueError(
                f"h={self.h} does not divide the box width {2 * self.half_width}"
            )
        object.__setattr__(self, "nodes_per_axis", int(round(cells)) + 1)
        if self.nodes_per_axis < 3:
            raise ValueError("grid needs at least one interior node per axis")
        # the reconstructed width must match to one ulp
        width = self.h * (self.nodes_per_axis - 1)
        if abs(width - 2.0 * self.half_width) > math.ulp(2.0 * self.half_width):
            raise ValueError("h * (nodes_per_axis - 1) does not reproduce the box width")

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.nodes_per_axis,) * self.dim

    @property
    def interior_shape(self) -> tuple[int, ...]:
        return (self.nodes_per_axis - 2,) * self.dim

    @property
    def n_nodes(self) -> int:
        return self.nodes_per_axis**self.dim

    @property
    def n_interior(self) -> int:
        return (self.nodes_per_axis - 2) ** self.dim

    def axis_coords(self) -> np.ndarray:
        """Node coordinates along one axis, x_i = -L + i*h."""
        return -self.half_width + np.arange(self.nodes_per_axis) * self.h

    def node_coordinates(self) -> np.ndarray:
        """Coordinates of every node, shape grid.shape + (dim,), row-major."""
        axes = [self.axis_coords()] * self.dim
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack(mesh, axis=-1)

    def interior_coordinates(self) -> np.ndarray:
        inner = (slice(1, -1),) * self.dim
        return self.node_coordinates()[inner]

    def coordinate(self, node: Sequence[int]) -> np.ndarray:
        node = _as_node(node, self.dim)
        for k in node:
            if not 0 <= k < self.nodes_per_axis:
                raise IndexError(f"node {node} outside grid of shape {self.shape}")
        return np.array([-self.half_width + k * self.h for k in node])

    def is_interior(self, node: Sequence[int]) -> bool:
        node = _as_node(node, self.dim)
        return all(1 <= k <= self.nodes_per_axis - 2 for k in node)

    def boundary_mask(self) -> np.ndarray:
        """Boolean array over all nodes, True exactly on the boundary."""
        mask = np.ones(self.shape, dtype=bool)
        mask[(slice(1, -1),) * self.dim] = False
        return mask


def build_grid(half_width: float, h: float, dim: int) -> Grid:
    """Construct a grid, validating that h divides the box width exactly."""
    return Grid(dim=int(dim), half_width=float(half_width), h=float(h))


def _as_node(node, dim: int) -> tuple[int, ...]:
    if np.isscalar(node):
        node = (node,)
    node = tuple(int(k) for k in node)
    if len(node) != dim:
        raise ValueError(f"node index {node} has wrong length for dim={dim}")
    return node


class GridField:
    """Scalar values attached to every node of a grid.

    Values are stored row-major over the axes and must be finite everywhere;
    construction rejects NaN and Inf.  Treat instances as immutable: operators
    return new fields instead of mutating their inputs.
    """

    __slots__ = ("grid", "values")

    def __init__(self, grid: Grid, values: np.ndarray):
        values = np.ascontiguousarray(values, dtype=float)
        if values.shape != grid.shape:
            raise ValueError(
                f"values shape {values.shape} does not match grid shape {grid.shape}"
            )
        if not np.all(np.isfinite(values)):
            raise ValueError("field values must be finite at every node")
        self.grid = grid
        self.values = values

    @classmethod
    def zeros(cls, grid: Grid) -> "GridField":
        return cls(grid, np.zeros(grid.shape))

    @classmethod
    def full(cls, grid: Grid, value: float) -> "GridField":
        return cls(grid, np.full(grid.shape, float(value)))

    def copy(self) -> "GridField":
        return GridField(self.grid, self.values.copy())

    def interior(self) -> np.ndarray:
        """View of the interior values (do not mutate)."""
        return self.values[(slice(1, -1),) * self.grid.dim]


def discrete_gradient(field: GridField, node: Sequence[int]) -> np.ndarray:
    """Centered difference gradient at one interior node.

    Component k is (u(x + h e_k) - u(x - h e_k)) / (2h).  Raises on boundary
    or out-of-range nodes.
    """
    grid = field.grid
    idx = _as_node(node, grid.dim)
    if not grid.is_interior(idx):
        raise ValueError(f"gradient requested at non-interior node {idx}")
    out = np.empty(grid.dim)
    for k in range(grid.dim):
        up = list(idx)
        dn = list(idx)
        up[k] += 1
        dn[k] -= 1
        out[k] = (field.values[tuple(up)] - field.values[tuple(dn)]) / (2.0 * grid.h)
    return out


def discrete_laplacian(field: GridField, node: Sequence[int]) -> float:
    """Five-point (three-point in 1D) Laplacian at one interior node."""
    grid = field.grid
    idx = _as_node(node, grid.dim)
    if not grid.is_interior(idx):
        raise ValueError(f"laplacian requested at non-interior node {idx}")
    total = 0.0
    center = field.values[idx]
    for k in range(grid.dim):
        up = list(idx)
        dn = list(idx)
        up[k] += 1
        dn[k] -= 1
        total += (field.values[tuple(up)] - 2.0 * center + field.values[tuple(dn)]) / grid.h**2
    return float(total)


def _shifted(values: np.ndarray, axis: int, offset: int, dim: int) -> np.ndarray:
    """Interior-shaped window of `values` shifted by `offset` along `axis`."""
    sl = []
    for k in range(dim):
        if k == axis:
            # stop index is >= 1 for any valid grid (>= 3 nodes per axis)
            sl.append(slice(1 + offset, values.shape[k] - 1 + offset))
        else:
            sl.append(slice(1, -1))
    return values[tuple(sl)]


def interior_gradient(field: GridField) -> np.ndarray:
    """Centered gradient at all interior nodes, shape interior_shape + (dim,)."""
    grid = field.grid
    v = field.values
    comps = []
    for k in range(grid.dim):
        comps.append((_shifted(v, k, +1, grid.dim) - _shifted(v, k, -1, grid.dim)) / (2.0 * grid.h))
    return np.stack(comps, axis=-1)


def interior_laplacian(field: GridField) -> np.ndarray:
    """Discrete Laplacian at all interior nodes, shape interior_shape."""
    grid = field.grid
    v = field.values
    center = v[(slice(1, -1),) * grid.dim]
    out = np.zeros(grid.interior_shape)
    for k in range(grid.dim):
        out += (_shifted(v, k, +1, grid.dim) - 2.0 * center + _shifted(v, k, -1, grid.dim)) / grid.h**2
    return out
