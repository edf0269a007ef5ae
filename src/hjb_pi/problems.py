"""Controlled dynamics, running costs, greedy policies, and benchmark problems.

All problems share the affine-in-control structure

    f(x, a) = b(x) + a,        c(x, a) = state_cost(x) + |a|^2 / 2,

with controls in the box [-a_max, a_max]^dim.  Because the control cost is
quadratic and separable, the Hamiltonian minimizer is the componentwise clip
of -p onto the box, which every routine here exploits.

Two built-in benchmarks:

* a 1D linear-quadratic problem (zero drift, state cost x^2/2) with the
  closed-form value V(x) = P x^2 / 2, P the positive root of P^2 + lam*P = 1;
* a 2D problem whose state cost is manufactured on the grid so that a fixed
  nonlinear reference surface solves the semi-discrete equation exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .grid import Grid, GridField, interior_gradient, interior_laplacian

__all__ = [
    "ControlProblem",
    "PolicyField",
    "dynamics",
    "running_cost",
    "greedy_policy",
    "lq_value_coefficient",
    "lq_reference_value",
    "lq_reference_policy",
    "lq1d_problem",
    "manufactured_drift",
    "manufactured_value",
    "manufactured_source",
    "grid_drift",
    "policy_cost_and_drift",
    "make_grid_lookup",
]


@dataclass(frozen=True, eq=False)
class ControlProblem:
    """Discounted exit-free control problem on a truncated box.

    drift_base and state_cost are vectorized callables taking coordinates of
    shape (..., dim); drift_base returns (..., dim), state_cost returns (...).
    """

    lam: float
    drift_base: Callable[[np.ndarray], np.ndarray]
    state_cost: Callable[[np.ndarray], np.ndarray]
    a_max: float
    dim: int

    def __post_init__(self) -> None:
        if not (self.lam > 0 and math.isfinite(self.lam)):
            raise ValueError(f"discount rate must be positive, got {self.lam}")
        if not (self.a_max > 0 and math.isfinite(self.a_max)):
            raise ValueError(f"control box half-width must be positive, got {self.a_max}")
        if self.dim not in (1, 2):
            raise ValueError(f"dim must be 1 or 2, got {self.dim}")


@dataclass(frozen=True, eq=False)
class PolicyField:
    """One control vector per interior node, shape interior_shape + (dim,)."""

    grid: Grid
    controls: np.ndarray
    a_max: float

    def __post_init__(self) -> None:
        controls = np.ascontiguousarray(self.controls, dtype=float)
        object.__setattr__(self, "controls", controls)
        expected = self.grid.interior_shape + (self.grid.dim,)
        if controls.shape != expected:
            raise ValueError(f"controls shape {controls.shape}, expected {expected}")
        if not np.all(np.isfinite(controls)):
            raise ValueError("policy controls must be finite")
        if np.max(np.abs(controls)) > self.a_max * (1.0 + 1e-12):
            raise ValueError("policy controls leave the control box")

    @classmethod
    def zeros(cls, grid: Grid, a_max: float) -> "PolicyField":
        return cls(grid, np.zeros(grid.interior_shape + (grid.dim,)), a_max)


def dynamics(problem: ControlProblem, x: np.ndarray, a: np.ndarray) -> np.ndarray:
    """f(x, a) = b(x) + a, vectorized over leading axes."""
    x = np.asarray(x, dtype=float)
    a = np.asarray(a, dtype=float)
    return problem.drift_base(x) + a


def running_cost(problem: ControlProblem, x: np.ndarray, a: np.ndarray) -> np.ndarray:
    """c(x, a) = state_cost(x) + |a|^2 / 2."""
    x = np.asarray(x, dtype=float)
    a = np.asarray(a, dtype=float)
    return problem.state_cost(x) + 0.5 * np.sum(a * a, axis=-1)


def greedy_policy(problem: ControlProblem, x: np.ndarray | None, p: np.ndarray) -> np.ndarray:
    """Exact minimizer of c(x, a) + f(x, a) . p over the control box.

    The objective is state_cost(x) + |a|^2/2 + (b(x) + a) . p, separable and
    strictly convex in each control component, so the minimizer is
    clip(-p, -a_max, a_max) regardless of x; x is never read, and callers
    without coordinates at hand pass None.
    """
    p = np.asarray(p, dtype=float)
    return np.clip(-p, -problem.a_max, problem.a_max)


# ---------------------------------------------------------------------------
# 1D linear-quadratic benchmark


def lq_value_coefficient(lam: float) -> float:
    """Positive root of P^2 + lam*P - 1 = 0.

    With dynamics xdot = a and cost (x^2 + a^2)/2, substituting V = P x^2 / 2
    into lam*V - x^2/2 + (V')^2/2 = 0 forces exactly this quadratic; the
    other sign choice, (lam + sqrt(lam^2 + 4))/2, does not solve it.  The
    value-iteration oracle in hjb_pi.oracles confirms the root numerically.
    """
    if not (lam > 0 and math.isfinite(lam)):
        raise ValueError(f"discount rate must be positive, got {lam}")
    return (-lam + math.sqrt(lam * lam + 4.0)) / 2.0


def lq_reference_value(lam: float, x):
    """Closed-form value V(x) = P x^2 / 2 of the 1D LQ benchmark."""
    x = np.asarray(x, dtype=float)
    return 0.5 * lq_value_coefficient(lam) * x * x


def lq_reference_policy(lam: float, x, a_max: float | None = None):
    """Optimal feedback a*(x) = -P x, clipped to the box when a_max is given."""
    x = np.asarray(x, dtype=float)
    a = -lq_value_coefficient(lam) * x
    if a_max is not None:
        a = np.clip(a, -a_max, a_max)
    return a


def lq1d_problem(lam: float = 1.0, a_max: float = 6.0) -> ControlProblem:
    """1D benchmark: zero drift, state cost x^2/2, closed-form reference."""

    def drift(x: np.ndarray) -> np.ndarray:
        return np.zeros_like(np.asarray(x, dtype=float))

    def state(x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return 0.5 * x[..., 0] ** 2

    return ControlProblem(lam=lam, drift_base=drift, state_cost=state, a_max=a_max, dim=1)


# ---------------------------------------------------------------------------
# 2D manufactured benchmark


def manufactured_drift(x, y):
    """Fixed nonlinear drift of the 2D benchmark, returns shape (..., 2)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    b1 = (
        0.28 * np.sin(x)
        + 0.14 * np.tanh(0.80 * y)
        + 0.06 * np.cos(1.20 * x - 0.40 * y)
    )
    b2 = (
        -0.24 * np.sin(y)
        + 0.12 * np.tanh(0.70 * x)
        - 0.05 * np.sin(0.90 * x + 0.80 * y)
    )
    return np.stack(np.broadcast_arrays(b1, b2), axis=-1)


def manufactured_value(x, y):
    """Reference surface of the 2D benchmark: smooth, asymmetric, non-radial."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    return (
        0.08 * (x**2 + 1.40 * y**2)
        + 0.11 * np.sin(1.30 * x + 0.20) * np.cos(0.70 * y - 0.10)
        + 0.055 * np.tanh(0.90 * x * y)
        + 0.045 * np.sin(0.60 * x * y + 0.35 * x - 0.25 * y)
        + 0.035 * np.cos(1.70 * x - 0.40 * y)
        + 0.025 * np.arctan(0.80 * x - 1.10 * y)
        + 0.020 * np.sin(2.20 * x) * np.sin(1.40 * y)
    )


def manufactured_source(
    grid: Grid,
    viscosity: float,
    lam: float = 1.0,
    value_fn: Callable = manufactured_value,
    drift_fn: Callable = manufactured_drift,
) -> GridField:
    """State-cost grid function that makes the reference surface discrete-exact.

    At interior nodes,

        q_h = lam*V - b . grad_h V + |grad_h V|^2 / 2 - viscosity*h*lap_h V,

    where grad_h and lap_h are the centered operators of this grid, so the
    cancellation against the scheme is exact by construction.  Boundary nodes
    get 0; they are never read as running cost.  Note q_h depends on both h
    and the viscosity coefficient.
    """
    if grid.dim != 2:
        raise ValueError("manufactured source is defined for 2D grids")
    coords = grid.node_coordinates()
    ref = GridField(grid, value_fn(coords[..., 0], coords[..., 1]))
    inner = coords[1:-1, 1:-1]
    b = drift_fn(inner[..., 0], inner[..., 1])
    g = interior_gradient(ref)
    lap = interior_laplacian(ref)
    q = (
        lam * ref.interior()
        - np.sum(b * g, axis=-1)
        + 0.5 * np.sum(g * g, axis=-1)
        - viscosity * grid.h * lap
    )
    values = np.zeros(grid.shape)
    values[1:-1, 1:-1] = q
    return GridField(grid, values)


def make_grid_lookup(source: GridField) -> Callable[[np.ndarray], np.ndarray]:
    """Wrap a grid function as a coordinate callable (nodes only).

    The returned callable maps coordinates of shape (..., dim) to stored node
    values and raises for coordinates that are not grid nodes.
    """
    grid = source.grid
    values = source.values

    def lookup(x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        idx = np.rint((x + grid.half_width) / grid.h).astype(int)
        if np.any(idx < 0) or np.any(idx >= grid.nodes_per_axis):
            raise ValueError("coordinate outside the grid")
        rebuilt = -grid.half_width + idx * grid.h
        if np.max(np.abs(rebuilt - x)) > 1e-9:
            raise ValueError("coordinate is not a grid node")
        return values[tuple(np.moveaxis(idx, -1, 0))]

    return lookup


# ---------------------------------------------------------------------------
# grid evaluation helpers


def grid_drift(problem: ControlProblem, grid: Grid) -> np.ndarray:
    """drift_base sampled at all nodes, shape grid.shape + (dim,)."""
    return np.asarray(problem.drift_base(grid.node_coordinates()), dtype=float)


def policy_cost_and_drift(
    state_cost: np.ndarray, drift_base: np.ndarray, policy: PolicyField
) -> tuple[np.ndarray, np.ndarray]:
    """(c_alpha, f_alpha) at interior nodes for a fixed policy, given the
    state cost and drift already sampled there (see scheme.GridProblem)."""
    a = policy.controls
    return state_cost + 0.5 * np.sum(a * a, axis=-1), drift_base + a
