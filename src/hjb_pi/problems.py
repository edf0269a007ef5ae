"""Control problems, the greedy control, and the benchmark ingredients.

All problems share the affine-in-control structure

    f(x, a) = b(x) + a,        c(x, a) = state_cost(x) + |a|^2 / 2,

with controls in the box [-a_max, a_max]^dim.  policy_cost_and_drift is the
one routine that forms (c, f) from the sampled state cost and drift.
Because the control cost is quadratic and separable, the Hamiltonian
minimizer is the componentwise clip of -p onto the box (greedy_policy).

Ingredients of the two built-in benchmarks:

* a 1D linear-quadratic problem (zero drift, state cost x^2/2) with the
  closed-form value V(x) = P x^2 / 2, P the positive root of P^2 + lam*P = 1;
* the drift and reference surface of a 2D problem whose state cost
  benchmarks manufactures with the scheme operator itself, so that the
  reference solves the discrete equation exactly.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .grid import Grid, GridField, Record

__all__ = [
    "ControlProblem",
    "PolicyField",
    "greedy_policy",
    "lq_value_coefficient",
    "lq_reference_value",
    "lq1d_problem",
    "manufactured_drift",
    "manufactured_value",
    "policy_cost_and_drift",
    "make_grid_lookup",
]


class ControlProblem(Record):
    """Discounted exit-free control problem on a truncated box.

    drift_base and state_cost are vectorized callables taking coordinates of
    shape (..., dim); drift_base returns (..., dim), state_cost returns (...).
    """

    _fields = ("lam", "drift_base", "state_cost", "a_max", "dim")
    __eq__, __hash__ = object.__eq__, object.__hash__

    def __init__(self, lam: float, drift_base: Callable[[np.ndarray], np.ndarray],
                 state_cost: Callable[[np.ndarray], np.ndarray], a_max: float, dim: int) -> None:
        super().__init__(lam, drift_base, state_cost, a_max, dim)
        if not (self.lam > 0 and math.isfinite(self.lam)):
            raise ValueError(f"discount rate must be positive, got {self.lam}")
        if not (self.a_max > 0 and math.isfinite(self.a_max)):
            raise ValueError(f"control box half-width must be positive, got {self.a_max}")
        if self.dim not in (1, 2):
            raise ValueError(f"dim must be 1 or 2, got {self.dim}")


class PolicyField(Record):
    """One control vector per interior node, shape interior_shape + (dim,)."""

    _fields = ("grid", "controls", "a_max")
    __eq__, __hash__ = object.__eq__, object.__hash__

    def __init__(self, grid: Grid, controls: np.ndarray, a_max: float) -> None:
        controls = np.ascontiguousarray(controls, dtype=float)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "controls", controls)
        object.__setattr__(self, "a_max", a_max)
        expected = self.grid.interior_shape + (self.grid.dim,)
        if controls.shape != expected:
            raise ValueError(f"controls shape {controls.shape}, expected {expected}")
        # one reduction: the largest magnitude is nan or inf exactly when
        # some control is
        peak = float(np.maximum.reduce(np.abs(controls), None))
        if not math.isfinite(peak):
            raise ValueError("policy controls must be finite")
        if peak > self.a_max * (1.0 + 1e-12):
            raise ValueError("policy controls leave the control box")

    @classmethod
    def zeros(cls, grid: Grid, a_max: float) -> "PolicyField":
        return cls(grid, np.zeros(grid.interior_shape + (grid.dim,)), a_max)


def greedy_policy(
    problem: ControlProblem, p: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """Exact minimizer of c(x, a) + f(x, a) . p over the control box.

    The objective is state_cost(x) + |a|^2/2 + (b(x) + a) . p, separable and
    strictly convex in each control component, so the minimizer is
    clip(-p, -a_max, a_max) whatever x is.  It is written into `out` when
    given, which may be p itself, else into a new array.
    """
    neg = np.negative(np.asarray(p, dtype=float), out)
    return neg.clip(-problem.a_max, problem.a_max, neg)


# ---------------------------------------------------------------------------
# 1D linear-quadratic benchmark


def lq_value_coefficient(lam: float) -> float:
    """Positive root of P^2 + lam*P - 1 = 0.

    With dynamics xdot = a and cost (x^2 + a^2)/2, substituting V = P x^2 / 2
    into lam*V - x^2/2 + (V')^2/2 = 0 forces exactly this quadratic; the
    other sign choice, (lam + sqrt(lam^2 + 4))/2, does not solve it.  The
    value-iteration oracle in hjb_pi.oracles confirms the root numerically.

    The root is evaluated as 2 / (lam + sqrt(lam^2 + 4)), which adds two
    positive terms: the textbook (-lam + sqrt(lam^2 + 4)) / 2 cancels for
    large lam (7.45e-9 instead of 1e-8 at lam = 1e8, and 0 from about
    1e9).  hypot forms the square root without squaring lam, which would
    overflow past about 1.3e154.
    """
    if not (lam > 0 and math.isfinite(lam)):
        raise ValueError(f"discount rate must be positive, got {lam}")
    return 2.0 / (lam + math.hypot(lam, 2.0))


def lq_reference_value(lam: float, x):
    """Closed-form value V(x) = P x^2 / 2 of the 1D LQ benchmark."""
    x = np.asarray(x, dtype=float)
    return 0.5 * lq_value_coefficient(lam) * x * x


def lq1d_problem(lam: float, a_max: float) -> ControlProblem:
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
        if np.logical_or.reduce((idx < 0) | (idx >= grid.nodes_per_axis), None):
            raise ValueError("coordinate outside the grid")
        rebuilt = -grid.half_width + idx * grid.h
        if np.maximum.reduce(np.abs(rebuilt - x), None) > 1e-9:
            raise ValueError("coordinate is not a grid node")
        return values[tuple(np.moveaxis(idx, -1, 0))]

    return lookup


def policy_cost_and_drift(
    state_cost: np.ndarray,
    drift_base: np.ndarray,
    a: np.ndarray,
    out: tuple[np.ndarray, np.ndarray] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """(c(x, a), f(x, a)) from the state cost and drift sampled at the
    points x (see scheme.GridProblem) and controls a of shape (..., dim),
    whose leading axes broadcast against the samples'.  They are written
    into `out`, a (c, f) pair of arrays of the broadcast shapes, else into
    new arrays."""
    c, f = (None, None) if out is None else out
    # Adding the axes' squares in order gives np.sum(a * a, axis=-1) bit for
    # bit, without numpy's slow reduction over a last axis of length dim.
    squares = np.multiply(a[..., 0], a[..., 0], c)
    for k in range(1, a.shape[-1]):
        squares += a[..., k] * a[..., k]
    squares *= 0.5
    return np.add(state_cost, squares, c), np.add(drift_base, a, f)
