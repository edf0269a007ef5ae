"""Benchmark wiring: problem, grid, scheme parameters, reference, boundary.

Bundles everything a run needs for the two built-in benchmarks.  Each
builder sets its viscosity N so every stencil is monotone: max(1, a_max/2)
in 1D, whose drift is the control, 1.05 * (max|b| + a_max) / 2 in 2D.  The 2D
benchmark's state cost is F_h of the zero-cost problem at the reference
surface, computed by scheme.bellman_residual, so the reference solves the
discrete equation exactly, to rounding, at any control box.
BENCHMARK_DEFAULTS is the one table of their default settings: the problem
and mesh that build_benchmark falls back to, and the run settings
(iteration budget, relaxation, initial policy) that the command line uses.
Dirichlet data always comes from the reference solution, so the only errors
in play are iteration and discretization errors.
"""

from __future__ import annotations

import numpy as np

from .grid import Grid, GridField, Record, build_grid
from .problems import (
    ControlProblem,
    lq1d_problem,
    lq_reference_value,
    lq_value_coefficient,
    make_grid_lookup,
    manufactured_drift,
    manufactured_value,
)
from .scheme import SchemeParams, bellman_residual

__all__ = ["BenchmarkSetup", "build_benchmark", "BENCHMARK_DEFAULTS", "BENCHMARK_NAMES"]

BENCHMARK_DEFAULTS = {
    "lq1d": {
        "lam": 1.0, "half_width": 3.0, "h": 0.03, "a_max": 6.0,
        "iterations": 50, "theta": 1.0, "initial_policy": "zero",
    },
    "manufactured2d": {
        "lam": 1.0, "half_width": 2.0, "h": 0.05, "a_max": 2.0,
        "iterations": 60, "theta": 0.18, "initial_policy": "adversarial2d",
    },
}
BENCHMARK_NAMES = tuple(BENCHMARK_DEFAULTS)


class BenchmarkSetup(Record):
    """Everything needed to run one benchmark at one resolution."""

    _fields = ("problem", "grid", "params", "reference", "boundary")

    def __init__(self, problem: ControlProblem, grid: Grid, params: SchemeParams,
                 reference: GridField, boundary: GridField) -> None:
        super().__init__(problem, grid, params, reference, boundary)


def build_benchmark(
    name: str,
    lam: float | None = None,
    half_width: float | None = None,
    h: float | None = None,
    a_max: float | None = None,
) -> BenchmarkSetup:
    """Construct a benchmark setup; None arguments take BENCHMARK_DEFAULTS."""
    if name not in BENCHMARK_DEFAULTS:
        raise ValueError(f"unknown benchmark {name!r}; expected one of {BENCHMARK_NAMES}")
    given = {"lam": lam, "half_width": half_width, "h": h, "a_max": a_max}
    settings = {k: BENCHMARK_DEFAULTS[name][k] if v is None else v for k, v in given.items()}
    build = _build_lq1d if name == "lq1d" else _build_manufactured2d
    return build(**settings)


def _build_lq1d(lam: float, half_width: float, h: float, a_max: float) -> BenchmarkSetup:
    grid = build_grid(half_width, h, dim=1)
    problem = lq1d_problem(lam=lam, a_max=a_max)
    # V = P x^2 / 2 is the value only while the optimal control -P x stays
    # inside the box on the whole domain
    bound = lq_value_coefficient(lam) * half_width
    if a_max < bound:
        raise ValueError(f"a_max {a_max} is below P(lam) * half_width = {bound} at lam {lam}: "
                         "the control box binds the closed-form value P x^2 / 2")
    params = SchemeParams(viscosity=max(1.0, 0.5 * a_max), h=grid.h, dim=1, lam=lam)
    coords = grid.node_coordinates()
    reference = GridField(grid, lq_reference_value(lam, coords[..., 0]))
    return BenchmarkSetup(
        problem=problem,
        grid=grid,
        params=params,
        reference=reference,
        boundary=reference,
    )


def _build_manufactured2d(lam: float, half_width: float, h: float, a_max: float) -> BenchmarkSetup:
    grid = build_grid(half_width, h, dim=2)
    skeleton = ControlProblem(
        lam=lam,
        drift_base=_drift_on_coords,
        state_cost=lambda x: np.zeros(np.asarray(x).shape[:-1]),
        a_max=a_max,
        dim=2,
    )
    coords = grid.node_coordinates()
    bmax = float(np.max(np.abs(_drift_on_coords(coords))))
    params = SchemeParams(viscosity=1.05 * 0.5 * (bmax + a_max), h=grid.h, dim=2, lam=lam)
    reference = GridField(grid, manufactured_value(coords[..., 0], coords[..., 1]))
    # F_h[reference] of the zero-cost problem, taken as the state cost,
    # cancels F_h[reference] whether or not the greedy clip binds
    cost = bellman_residual(skeleton, params, reference)
    problem = ControlProblem(lam=lam, drift_base=_drift_on_coords,
                             state_cost=make_grid_lookup(cost), a_max=a_max, dim=2)
    return BenchmarkSetup(
        problem=problem,
        grid=grid,
        params=params,
        reference=reference,
        boundary=reference,
    )


def _drift_on_coords(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    return manufactured_drift(x[..., 0], x[..., 1])
