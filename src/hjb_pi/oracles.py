"""Independent reference computations used to verify the main pipeline.

What each oracle shares with the pipeline:

* lq_value_iteration solves lq1d by semi-Lagrangian dynamic programming on
  its own grid, with lq1d's defaults written out below; it shares no code
  with the package.  fit_quadratic_coefficient and scan_extremum are plain
  numpy as well.
* bellman_residual_scan and resolvent_scan find the extremum over the
  controls by a derivative-free staged scan, in place of the closed-form
  greedy control and of scheme.stencil_coefficients.  They read the
  problem's state cost, drift base and control bound, and SchemeParams'
  lam, viscosity and (resolvent only) center weight.  They take the
  centered differences from grid: interior_gradient and interior_laplacian
  for the residual, the shifted neighbour values for the resolvent.

Agreement between these and the closed-form paths is what the verification
suite checks.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .grid import GridField, _shifted, interior_gradient, interior_laplacian
from .problems import ControlProblem
from .scheme import SchemeParams

__all__ = [
    "lq_value_iteration",
    "fit_quadratic_coefficient",
    "scan_extremum",
    "bellman_residual_scan",
    "resolvent_scan",
]

# lq1d at its defaults (discount, box half-width, control bound), written out
# so that the oracle shares no code with the pipeline's benchmark table
_LQ_LAM, _LQ_HALF_WIDTH, _LQ_A_MAX = 1.0, 3.0, 6.0
_FIT_HALF_WIDTH = 1.5  # fit_quadratic_coefficient's window
_SCAN_POINTS, _SCAN_STAGES = 1000, 4  # per staged control scan
# lq_value_iteration: sweeps with the controls held fixed between full scans
_EVALUATION_SWEEPS = 50


def lq_value_iteration(
    h: float = 0.005,
    dt: float = 0.02,
    n_controls: int = 601,
    tol: float = 2e-11,
    max_steps: int = 20000,
) -> tuple[np.ndarray, np.ndarray]:
    """Discounted value iteration for lq1d at its defaults, independent scheme.

    Semi-Lagrangian update with trapezoidal cost quadrature over one step:

        V(x) <- min_a [ dt/2 * (c(x, a) + e^{-lam dt} c(x + dt a, a))
                        + e^{-lam dt} V(x + dt a) ],

    linear interpolation in space, states clamped to the box.  Returns
    (x_nodes, V) on its own fine grid.

    Modified policy iteration (Puterman & Shin, Management Science 1978):
    each full scan applies the update above over every control at once,
    then the minimizing controls are held fixed for _EVALUATION_SWEEPS
    sweeps of the update with those controls alone.  The oracle returns
    the result of the first full scan that changes V by at most tol, so
    its distance to the fixed point is below tol / (1 - e^{-lam dt}), as
    for plain value iteration.  max_steps counts full scans; RuntimeError
    if none of them reaches tol.
    """
    x = np.linspace(-_LQ_HALF_WIDTH, _LQ_HALF_WIDTH, int(round(2 * _LQ_HALF_WIDTH / h)) + 1)
    a = np.linspace(-_LQ_A_MAX, _LQ_A_MAX, n_controls)[:, None]
    gamma = math.exp(-_LQ_LAM * dt)
    v = np.zeros_like(x)
    nodes = np.arange(x.size)

    # (control, node) arrays: arrival points and stage costs
    arrivals = np.clip(x + dt * a, -_LQ_HALF_WIDTH, _LQ_HALF_WIDTH)
    cost_here = 0.5 * x * x + 0.5 * a * a
    cost_there = 0.5 * arrivals * arrivals + 0.5 * a * a
    stages = 0.5 * dt * (cost_here + gamma * cost_there)

    for _ in range(max_steps):
        cand = stages + gamma * np.interp(arrivals, x, v)
        pick = cand.argmin(axis=0)
        best = cand[pick, nodes]
        delta = float(np.abs(best - v).max())
        v = best
        if delta <= tol:
            return x, v
        arrival, stage = arrivals[pick, nodes], stages[pick, nodes]
        for _ in range(_EVALUATION_SWEEPS):
            v = stage + gamma * np.interp(arrival, x, v)
    raise RuntimeError(f"value iteration did not reach {tol} in {max_steps} full scans")


def fit_quadratic_coefficient(x: np.ndarray, v: np.ndarray) -> float:
    """Coefficient P in V ~ P x^2 / 2, least squares over |x| <= 1.5.

    The fit window stays away from the box edge where state clamping
    distorts the oracle's values.
    """
    mask = np.abs(x) <= _FIT_HALF_WIDTH
    coeffs = np.polyfit(x[mask], v[mask], 2)
    return 2.0 * float(coeffs[0])


def scan_extremum(
    objective: Callable[[np.ndarray], np.ndarray],
    a_max: float,
    dim: int,
    n_points: int,
    mode: str = "min",
    stages: int = 3,
    centers: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Derivative-free staged scan of the control box.

    objective maps controls of shape (batch, n_candidates, dim) to values
    (batch, n_candidates).  Each stage scans n_points candidates per axis
    around the incumbent (the whole box at stage one) and shrinks the scan
    window to one spacing, so the extremum is located to box_width *
    (2/n_points)^stages without using any derivative information.  Returns
    (best values, best controls) with batch size taken from `centers`
    (default: a single batch entry at the origin).
    """
    if centers is None:
        centers = np.zeros((1, dim))
    centers = np.array(centers, dtype=float)
    batch = centers.shape[0]
    pick = np.argmin if mode == "min" else np.argmax
    per_axis = max(2, int(round(n_points ** (1.0 / dim))))
    offsets = np.linspace(-1.0, 1.0, per_axis)
    if dim == 1:
        pattern = offsets[:, None]
    else:
        ox, oy = np.meshgrid(offsets, offsets, indexing="ij")
        pattern = np.stack([ox.ravel(), oy.ravel()], axis=-1)
    half = a_max
    best_vals = None
    best_ctrl = centers
    for _ in range(stages):
        cand = best_ctrl[:, None, :] + half * pattern[None, :, :]
        np.clip(cand, -a_max, a_max, out=cand)
        vals = objective(cand)
        sel = pick(vals, axis=1)
        best_vals = vals[np.arange(batch), sel]
        best_ctrl = cand[np.arange(batch), sel]
        half *= 2.0 / (per_axis - 1)
    return best_vals, best_ctrl


def _interior_data(problem: ControlProblem, params: SchemeParams, field: GridField):
    grid = field.grid
    coords = grid.interior_coordinates().reshape(-1, grid.dim)
    u = field.interior().reshape(-1)
    g = interior_gradient(field).reshape(-1, grid.dim)
    lap = interior_laplacian(field).reshape(-1)
    b = np.asarray(problem.drift_base(coords), dtype=float)
    state = np.asarray(problem.state_cost(coords), dtype=float)
    return coords, u, g, lap, b, state


def bellman_residual_scan(
    problem: ControlProblem,
    params: SchemeParams,
    field: GridField,
) -> np.ndarray:
    """sup_a L_a u at interior nodes by staged control scan (flat array):
    1000 candidates per stage, 4 stages.

    Oracle twin of scheme.bellman_residual that never uses the closed-form
    maximizer.
    """
    _, u, g, lap, b, state = _interior_data(problem, params, field)
    nu_h = params.viscosity * field.grid.h

    def objective(a: np.ndarray) -> np.ndarray:
        c = state[:, None] + 0.5 * np.sum(a * a, axis=-1)
        f = b[:, None, :] + a
        adv = np.sum(f * g[:, None, :], axis=-1)
        return params.lam * u[:, None] - c - adv - nu_h * lap[:, None]

    vals, _ = scan_extremum(
        objective,
        problem.a_max,
        field.grid.dim,
        _SCAN_POINTS,
        mode="max",
        stages=_SCAN_STAGES,
        centers=np.zeros((u.size, field.grid.dim)),
    )
    return vals


def resolvent_scan(
    problem: ControlProblem,
    params: SchemeParams,
    field: GridField,
) -> np.ndarray:
    """inf_a T_a u at interior nodes by staged control scan (flat array),
    with the same 1000 candidates per stage and 4 stages."""
    grid = field.grid
    _, _, _, _, b, state = _interior_data(problem, params, field)
    ratio = params.viscosity / grid.h
    ups, dns = [], []
    for k in range(grid.dim):
        ups.append(_shifted(field.values, k, +1, grid.dim).reshape(-1))
        dns.append(_shifted(field.values, k, -1, grid.dim).reshape(-1))

    def objective(a: np.ndarray) -> np.ndarray:
        c = state[:, None] + 0.5 * np.sum(a * a, axis=-1)
        f = b[:, None, :] + a
        num = c
        for k in range(grid.dim):
            num = num + (ratio + f[..., k] / (2.0 * grid.h)) * ups[k][:, None]
            num = num + (ratio - f[..., k] / (2.0 * grid.h)) * dns[k][:, None]
        return num / params.center_weight

    vals, _ = scan_extremum(
        objective,
        problem.a_max,
        grid.dim,
        _SCAN_POINTS,
        mode="min",
        stages=_SCAN_STAGES,
        centers=np.zeros((state.size, grid.dim)),
    )
    return vals
