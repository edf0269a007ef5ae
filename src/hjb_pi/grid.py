"""Uniform Cartesian grids on truncated boxes and centered difference operators.

A grid covers [-L, L]^d (d = 1 or 2) with spacing h and node coordinates
x_i = -L + i*h per axis.  Fields hold one value per node in row-major order.
The centered gradient and Laplacian are computed at all interior nodes at
once; boundary nodes carry Dirichlet data and are never differenced.

Record is the base of the package's value types: plain classes, because
generating the methods of 13 dataclasses took about 12 ms of each import.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "Grid",
    "GridField",
    "Record",
    "build_grid",
    "interior_gradient",
    "interior_laplacian",
]

# absolute tolerance on 2L/h being an integer
DIVISIBILITY_TOL = 1e-9


class Record:
    """Base of the package's value types.  A subclass names its fields in
    _fields, and its __init__ passes their values in that order to
    Record.__init__, or sets them itself where a run builds one per outer
    iteration; after that, assignment and deletion raise AttributeError.
    Instances of one class compare equal, and hash alike, when their fields
    do; a subclass compared by identity sets __eq__ and __hash__ to object's."""

    _fields: tuple[str, ...] = ()

    def __init__(self, *values) -> None:
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"


class Grid(Record):
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

    _fields = ("dim", "half_width", "h", "nodes_per_axis")

    def __init__(self, dim: int, half_width: float, h: float) -> None:
        super().__init__(dim, half_width, h)
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

    def boundary_mask(self) -> np.ndarray:
        """Boolean array over all nodes, True exactly on the boundary."""
        mask = np.ones(self.shape, dtype=bool)
        mask[(slice(1, -1),) * self.dim] = False
        return mask


def build_grid(half_width: float, h: float, dim: int) -> Grid:
    """Construct a grid, validating that h divides the box width exactly."""
    return Grid(dim=int(dim), half_width=float(half_width), h=float(h))


class GridField:
    """Scalar values attached to every node of a grid.

    Values are stored row-major over the axes and must be finite everywhere;
    construction rejects NaN and Inf, and keeps the largest magnitude it
    checks as max_abs, the max-norm of the field.  `values` is a read-only
    view of the array given (or of its float copy), so writing through the
    field raises ValueError; operators return new fields.
    """

    __slots__ = ("grid", "values", "max_abs")

    def __init__(self, grid: Grid, values: np.ndarray):
        values = np.ascontiguousarray(values, dtype=float)
        if values.shape != grid.shape:
            raise ValueError(
                f"values shape {values.shape} does not match grid shape {grid.shape}"
            )
        # one reduction: the largest magnitude is nan or inf exactly when
        # some value is
        max_abs = float(np.maximum.reduce(np.abs(values), None))
        if not math.isfinite(max_abs):
            raise ValueError("field values must be finite at every node")
        self.grid = grid
        self.values = values = values.view()
        values.setflags(write=False)
        self.max_abs = max_abs

    @classmethod
    def zeros(cls, grid: Grid) -> "GridField":
        return cls(grid, np.zeros(grid.shape))

    @classmethod
    def full(cls, grid: Grid, value: float) -> "GridField":
        return cls(grid, np.full(grid.shape, float(value)))

    def interior(self) -> np.ndarray:
        """Read-only view of the interior values."""
        return self.values[(slice(1, -1),) * self.grid.dim]


# Per dimension and (axis, offset), the index of the interior window shifted
# by offset (+1 or -1) along axis, which does not depend on the grid's size.
_WINDOWS = {dim: {(axis, offset): tuple(slice(1 + offset, offset - 1 or None) if k == axis
                                        else slice(1, -1) for k in range(dim))
                  for axis in range(dim) for offset in (1, -1)} for dim in (1, 2)}


def _shifted(values: np.ndarray, axis: int, offset: int, dim: int) -> np.ndarray:
    """Interior-shaped window of `values` shifted by `offset` along `axis`."""
    return values[_WINDOWS[dim][axis, offset]]


def interior_gradient(field: GridField, out: np.ndarray | None = None) -> np.ndarray:
    """Centered gradient at all interior nodes, shape interior_shape + (dim,),
    written into `out` when given, else into a new array."""
    grid, v = field.grid, field.values
    if out is None:
        out = np.empty(grid.interior_shape + (grid.dim,))
    windows = _WINDOWS[grid.dim]
    for k in range(grid.dim):
        comp = out[..., k]
        np.subtract(v[windows[k, 1]], v[windows[k, -1]], comp)
        comp /= 2.0 * grid.h
    return out


def interior_laplacian(field: GridField) -> np.ndarray:
    """Discrete Laplacian at all interior nodes, shape interior_shape."""
    grid = field.grid
    v = field.values
    center = v[(slice(1, -1),) * grid.dim]
    out = np.zeros(grid.interior_shape)
    for k in range(grid.dim):
        out += (_shifted(v, k, +1, grid.dim) - 2.0 * center + _shifted(v, k, -1, grid.dim)) / grid.h**2
    return out
