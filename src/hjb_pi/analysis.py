"""Error metrics, rate fitting, error-budget helpers, plateau detection.

The iteration error of greedy policy iteration decays like beta^n with
beta = (2*d*N/h) / (lam + 2*d*N/h) <= exp(-lam*h / (2*d*N) * n), while the
discretization error scales like sqrt(h) in the worst case (order 1 for
smooth solutions).  Balancing the two terms gives the iteration budget
n ~ (d*N) / (lam*h) * log(1/h) used by mesh sweeps.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .grid import Grid, GridField, Record

__all__ = [
    "RateFit",
    "ErrorDecomposition",
    "difference_norms",
    "extend_block_norms",
    "error_metrics",
    "fit_geometric_rate",
    "fit_power_rate",
    "total_error_bound",
    "optimal_iteration_count",
    "detect_plateau",
]

# fit points below this multiple of machine epsilon are rounding noise
NOISE_FLOOR = 100.0 * np.finfo(float).eps


class RateFit(Record):
    """Least-squares line through transformed data points.

    slope/intercept describe log(y) against n (geometric fits) or log(y)
    against log(h) (power fits); r_squared is clamped to [0, 1];
    points_used counts the points that survived the noise floor.
    """

    _fields = ("slope", "intercept", "r_squared", "points_used")

    def __init__(self, slope: float, intercept: float, r_squared: float, points_used: int) -> None:
        super().__init__(slope, intercept, r_squared, points_used)


class ErrorDecomposition(Record):
    """Two-term error budget: geometric iteration term plus mesh term."""

    _fields = ("iteration_term", "discretization_term")

    def __init__(self, iteration_term: float, discretization_term: float) -> None:
        super().__init__(iteration_term, discretization_term)

    @property
    def total(self) -> float:
        return self.iteration_term + self.discretization_term


def error_metrics(field: GridField, reference: GridField) -> tuple[float, float]:
    """(max-norm, mesh-weighted L2) distance between two fields.

    Both norms run over all nodes, boundary included; the L2 norm carries
    the cell weight h^dim so it is mesh-consistent across refinements.
    """
    if field.grid is not reference.grid and field.grid != reference.grid:
        raise ValueError("fields live on different grids")
    return difference_norms(field.values - reference.values, field.grid)


def difference_norms(diff: np.ndarray, grid: Grid) -> tuple[float, float]:
    """The norms of error_metrics for a difference already formed on `grid`."""
    linf = float(np.maximum.reduce(np.abs(diff), None))
    l2 = math.sqrt(grid.h ** grid.dim * float(np.add.reduce(diff * diff, None)))
    return linf, l2


def extend_block_norms(norms: tuple[list[float], ...], block: list[np.ndarray], grid: Grid,
                       reference: GridField | None) -> list[np.ndarray]:
    """Extend `norms`, howard.PIReport's lists (linf_error_to_reference,
    l2_error_to_reference, residual_l2, monotonicity_violation), by the
    iterates in `block`, one row-wise reduction per norm, and return the last
    iterate for the next block.  A block's first iterate is such a carried
    one, which only serves as V_{n-1}, unless `norms` are empty.  Each norm
    has the bits of error_metrics or difference_norms; NaN without reference.
    """
    stack, carried, weight = np.array(block), bool(norms[2]), grid.h ** grid.dim
    rows = stack[1:] if carried else stack
    step = stack[1:] - stack[:-1]
    errors = ([math.nan] * len(rows),) * 2
    if reference is not None:
        diff = rows - reference.values
        errors = (np.maximum.reduce(np.abs(diff), 1).tolist(),
                  np.sqrt(weight * np.add.reduce(diff * diff, 1)).tolist())
    first = [] if carried else [math.nan]
    steps = (first + np.sqrt(weight * np.add.reduce(step * step, 1)).tolist(),
             first + np.maximum.reduce(step, 1).tolist())
    for target, values in zip(norms, errors + steps):
        target += values
    return block[-1:]


def _line_fit(xs: np.ndarray, ys: np.ndarray) -> tuple[float, float, float]:
    slope, intercept = np.polyfit(xs, ys, 1)
    pred = slope * xs + intercept
    ss_res = float(np.sum((ys - pred) ** 2))
    ss_tot = float(np.sum((ys - np.mean(ys)) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return float(slope), float(intercept), min(1.0, max(0.0, r2))


def fit_geometric_rate(residuals: Sequence[float]) -> RateFit:
    """Fit log(residual) against the iteration index.

    exp(slope) estimates the per-iteration contraction factor.  Entries at
    or below 100x machine epsilon are excluded as rounding noise; at least
    three positive entries must survive.
    """
    res = np.asarray(residuals, dtype=float)
    mask = np.isfinite(res) & (res > NOISE_FLOOR)
    idx = np.nonzero(mask)[0]
    if idx.size < 3:
        raise ValueError(
            f"need at least 3 residuals above the noise floor, got {idx.size}"
        )
    slope, intercept, r2 = _line_fit(idx.astype(float), np.log(res[idx]))
    return RateFit(slope=slope, intercept=intercept, r_squared=r2, points_used=int(idx.size))


def fit_power_rate(h_values: Sequence[float], errors: Sequence[float]) -> RateFit:
    """Fit log(error) against log(h); the slope is the convergence order."""
    h = np.asarray(h_values, dtype=float)
    e = np.asarray(errors, dtype=float)
    if h.shape != e.shape or h.size < 2:
        raise ValueError("need matching h and error sequences of length >= 2")
    if np.any(h <= 0) or np.any(np.diff(h) >= 0):
        raise ValueError("h values must be positive and strictly decreasing")
    if np.any(~np.isfinite(e)) or np.any(e <= 0):
        raise ValueError("errors must be positive and finite")
    slope, intercept, r2 = _line_fit(np.log(h), np.log(e))
    return RateFit(slope=slope, intercept=intercept, r_squared=r2, points_used=int(h.size))


def total_error_bound(
    c_iter: float,
    c_mesh: float,
    n: int,
    h: float,
    lam: float,
    dim: int,
    viscosity: float,
) -> ErrorDecomposition:
    """Exponential-form error budget after n iterations at spacing h.

    iteration_term = c_iter * exp(-lam*n*h / (2*dim*viscosity)), the
    geometric envelope in disguise; discretization_term = c_mesh * sqrt(h).
    """
    if n < 0:
        raise ValueError("iteration count must be nonnegative")
    for name, v in (("h", h), ("lam", lam), ("viscosity", viscosity)):
        if not (v > 0 and math.isfinite(v)):
            raise ValueError(f"{name} must be positive, got {v}")
    if dim not in (1, 2):
        raise ValueError(f"dim must be 1 or 2, got {dim}")
    it = c_iter * math.exp(-lam * n * h / (2.0 * dim * viscosity))
    mesh = c_mesh * math.sqrt(h)
    return ErrorDecomposition(iteration_term=it, discretization_term=mesh)


def optimal_iteration_count(h: float, lam: float, dim: int, viscosity: float) -> int:
    """Iterations needed so the geometric term matches the sqrt(h) term.

    ceil(dim * viscosity / (lam * h) * log(1/h)); requires h < 1, where the
    balance is meaningful.
    """
    if not 0.0 < h < 1.0:
        raise ValueError(f"h must lie in (0, 1), got {h}")
    for name, v in (("lam", lam), ("viscosity", viscosity)):
        if not (v > 0 and math.isfinite(v)):
            raise ValueError(f"{name} must be positive, got {v}")
    if dim not in (1, 2):
        raise ValueError(f"dim must be 1 or 2, got {dim}")
    return math.ceil(dim * viscosity / (lam * h) * math.log(1.0 / h))


def detect_plateau(errors: Sequence[float], window: int, rel_band: float) -> int | None:
    """Smallest index from which the error tail is flat.

    Returns the first index i such that the tail errors[i:] has at least
    `window` entries and max/min over the tail is at most 1 + rel_band,
    or None when no such index exists.  Errors must be positive.
    """
    if window < 2:
        raise ValueError("window must be at least 2")
    if rel_band <= 0:
        raise ValueError("rel_band must be positive")
    e = np.asarray(errors, dtype=float)
    if e.size == 0:
        return None
    if np.any(~np.isfinite(e)) or np.any(e <= 0):
        raise ValueError("errors must be positive and finite")
    # suffix extrema in one backward pass
    suf_max = np.maximum.accumulate(e[::-1])[::-1]
    suf_min = np.minimum.accumulate(e[::-1])[::-1]
    limit = e.size - window
    for i in range(limit + 1):
        if suf_max[i] <= (1.0 + rel_band) * suf_min[i]:
            return i
    return None
