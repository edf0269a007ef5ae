"""Howard policy iteration: evaluation, improvement, and the outer driver.

Each outer iteration solves the frozen-policy linear equation L_alpha V = 0
exactly (Thomas in 1D) or to an inner tolerance (SOR in 2D, warm started
from the previous value field), then improves the policy from the centered
gradient of the new value.  With relaxation theta < 1 the new policy is the
convex mix (1 - theta) * previous + theta * greedy, clipped to the control
box; theta = 1 is classical greedy improvement, for which iterates decrease
pointwise and converge geometrically with factor
beta = (2*d*N/h) / (lam + 2*d*N/h).

With theta < 1 the run is inexact Howard: evaluations 0 and 1 stop at
solver_tol, and evaluation n >= 2 at
max(solver_tol, INEXACT_TOL_FACTOR * max|V_{n-1} - V_{n-2}|), an inner
accuracy proportional to outer progress, which keeps the outer convergence
(Bokanowski, Maroso & Zidani, SIAM J. Numer. Anal. 2009).  The early
solves, whose values the next improvement moves far anyway, take fewer
sweeps; solver_tol is the floor of the schedule, so the last evaluations of
a converging run are as tight as those of an exact run.  With theta = 1
every evaluation stops at solver_tol: greedy improvement's pointwise
decrease rests on exact evaluation, and the same schedule there let 2D
greedy iterates rise by about 1e-3.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .analysis import error_metrics
from .grid import Grid, GridField, interior_gradient
from .linsolve import (
    SolveStats,
    SolverError,
    assemble_evaluation_system,
    solve_sor,
    solve_tridiagonal,
)
from .problems import ControlProblem, PolicyField, greedy_policy, manufactured_value
from .scheme import GridProblem, SchemeParams

__all__ = [
    "PIConfig",
    "PIReport",
    "initial_policy",
    "policy_evaluate",
    "policy_improve",
    "run_policy_iteration",
]

INITIAL_POLICY_SPECS = ("zero", "adversarial2d")

# Inner tolerance per unit of the previous outer step when theta < 1.
INEXACT_TOL_FACTOR = 0.01


@dataclass(frozen=True)
class PIConfig:
    """Outer-loop configuration.

    outer_tolerance of None disables early stopping: exactly
    max_outer_iterations evaluations are performed.  snapshot_iterations
    lists 0-based iteration indices whose value fields should be retained
    in the report (the final field is always available).

    solver_tol is the SOR update tolerance of every evaluation when
    relaxation_theta = 1, and the floor of the inexact schedule when
    relaxation_theta < 1 (see the module docstring): greedy runs stay exact
    because their monotone decrease needs exact evaluation.  omega and
    solver_tol are unused by 1D runs, which solve directly, but must still
    be meaningful.
    """

    max_outer_iterations: int
    relaxation_theta: float = 1.0
    initial_policy_spec: str = "zero"
    outer_tolerance: float | None = None
    omega: float = 1.7
    solver_tol: float = 1e-10
    solver_max_iter: int = 5000
    snapshot_iterations: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.max_outer_iterations < 1:
            raise ValueError("max_outer_iterations must be at least 1")
        if not 0.0 < self.relaxation_theta <= 1.0:
            raise ValueError(f"relaxation_theta must lie in (0, 1], got {self.relaxation_theta}")
        if self.initial_policy_spec not in INITIAL_POLICY_SPECS:
            raise ValueError(
                f"unknown initial policy {self.initial_policy_spec!r}; "
                f"expected one of {INITIAL_POLICY_SPECS}"
            )
        if self.outer_tolerance is not None and not self.outer_tolerance > 0:
            raise ValueError("outer_tolerance must be positive when given")
        if not (math.isfinite(self.solver_tol) and self.solver_tol > 0):
            raise ValueError(f"solver_tol must be finite and positive, got {self.solver_tol}")
        if not 0.0 < self.omega < 2.0:
            raise ValueError(f"omega must lie in (0, 2), got {self.omega}")
        if not self.solver_max_iter >= 1:
            raise ValueError(f"solver_max_iter must be at least 1, got {self.solver_max_iter}")


@dataclass
class PIReport:
    """Per-iteration trajectories plus the final iterate.

    Entry n describes the value field V_n obtained by evaluating the n-th
    policy (n = 0 evaluates the initial policy).  residual_l2 and
    monotonicity_violation compare V_n with V_{n-1} and are NaN at n = 0:
    residual_l2 is the mesh-weighted step norm
    sqrt(h^d * sum (V_n - V_{n-1})^2), not a Bellman residual, and
    monotonicity_violation is max (V_n - V_{n-1}).  inner_tolerance[n] is
    the update tolerance evaluation n was asked to reach (a 1D direct solve
    is exact whatever it says); solve_stats[n] has its sweep count.
    Errors against the reference are NaN when no reference was supplied.
    """

    linf_error_to_reference: list[float] = field(default_factory=list)
    l2_error_to_reference: list[float] = field(default_factory=list)
    residual_l2: list[float] = field(default_factory=list)
    monotonicity_violation: list[float] = field(default_factory=list)
    linf_norm: list[float] = field(default_factory=list)
    inner_tolerance: list[float] = field(default_factory=list)
    solve_stats: list[SolveStats] = field(default_factory=list)
    value_snapshots: dict[int, np.ndarray] = field(default_factory=dict)
    final_value: GridField | None = None
    final_policy: PolicyField | None = None
    stop_reason: str = ""

    @property
    def iterations_run(self) -> int:
        return len(self.linf_error_to_reference)


def initial_policy(spec: str, grid: Grid, problem: ControlProblem) -> PolicyField:
    """Build the named initial policy.

    zero           all controls 0;
    adversarial2d  componentwise clip of the opposite of the 2D benchmark's
                   discrete reference policy plus a fixed smooth
                   perturbation, a deliberately bad warm start.
    """
    if spec == "zero":
        return PolicyField.zeros(grid, problem.a_max)
    if spec == "adversarial2d":
        if grid.dim != 2:
            raise ValueError("adversarial2d requires a 2D grid")
        coords = grid.node_coordinates()
        ref = GridField(grid, manufactured_value(coords[..., 0], coords[..., 1]))
        a_star = -interior_gradient(ref)
        inner = coords[1:-1, 1:-1]
        x, y = inner[..., 0], inner[..., 1]
        perturb = np.stack(
            [0.3 * np.sin(2.0 * x + 1.0) * np.cos(y), 0.3 * np.cos(x) * np.sin(2.0 * y - 0.5)],
            axis=-1,
        )
        controls = np.clip(-a_star + perturb, -problem.a_max, problem.a_max)
        return PolicyField(grid, controls, problem.a_max)
    raise ValueError(f"unknown initial policy spec {spec!r}")


def policy_evaluate(
    gp: GridProblem,
    policy: PolicyField,
    boundary: GridField,
    omega: float = PIConfig.omega,
    solver_tol: float = PIConfig.solver_tol,
    solver_max_iter: int = PIConfig.solver_max_iter,
    initial: GridField | None = None,
) -> tuple[GridField, SolveStats]:
    """Solve L_alpha V = 0 with Dirichlet data from `boundary`.

    1D systems are eliminated directly; 2D systems run SOR warm started
    from `initial` when given.  Raises SolverError if SOR does not reach
    its update tolerance within the sweep budget.
    """
    system = assemble_evaluation_system(gp, policy, boundary)
    values = boundary.values.copy()
    if gp.grid.dim == 1:
        values[1:-1] = solve_tridiagonal(system)
        stats = SolveStats(iterations=1, final_update_norm=0.0, converged=True)
    else:
        guess = initial.interior() if initial is not None else None
        sol, stats = solve_sor(
            system, omega=omega, tol=solver_tol, max_iter=solver_max_iter, initial=guess
        )
        if not stats.converged:
            raise SolverError(
                f"SOR stalled at update norm {stats.final_update_norm:.3e} "
                f"after {stats.iterations} sweeps (tolerance {solver_tol:.3e})"
            )
        values[1:-1, 1:-1] = sol
    return GridField(gp.grid, values), stats


def policy_improve(
    problem: ControlProblem,
    value: GridField,
    prev_policy: PolicyField,
    theta: float = 1.0,
) -> PolicyField:
    """Greedy improvement from the centered gradient, relaxed by theta."""
    if not 0.0 < theta <= 1.0:
        raise ValueError(f"theta must lie in (0, 1], got {theta}")
    greedy = greedy_policy(problem, None, interior_gradient(value))
    mixed = (1.0 - theta) * prev_policy.controls + theta * greedy
    mixed = np.clip(mixed, -problem.a_max, problem.a_max)
    return PolicyField(value.grid, mixed, problem.a_max)


def run_policy_iteration(
    problem: ControlProblem,
    grid: Grid,
    params: SchemeParams,
    config: PIConfig,
    boundary: GridField,
    reference: GridField | None = None,
) -> PIReport:
    """Outer policy-iteration loop.

    boundary supplies the Dirichlet data on its boundary ring; its interior
    is ignored.  When a reference field is given, per-iteration max-norm and
    mesh-weighted L2 errors against it are recorded.  Solver failure aborts
    with SolverError; otherwise the report's stop_reason states whether the
    budget or the outer tolerance ended the run.  The problem is sampled
    onto the grid once per call (see GridProblem).
    """
    gp = GridProblem(problem, grid, params)
    if boundary.grid != grid:
        raise ValueError("boundary field lives on a different grid")
    if reference is not None and reference.grid != grid:
        raise ValueError("reference field lives on a different grid")
    # keep only the boundary ring as data; the interior is the warm start (zero)
    boundary_field = GridField(grid, np.where(grid.boundary_mask(), boundary.values, 0.0))
    policy = initial_policy(config.initial_policy_spec, grid, problem)
    report = PIReport()
    prev: GridField | None = None
    warm = boundary_field
    value = boundary_field
    stop_reason = None
    inner_tol = config.solver_tol

    for n in range(config.max_outer_iterations):
        value, stats = policy_evaluate(
            gp,
            policy,
            boundary_field,
            omega=config.omega,
            solver_tol=inner_tol,
            solver_max_iter=config.solver_max_iter,
            initial=warm,
        )
        report.inner_tolerance.append(inner_tol)
        report.solve_stats.append(stats)
        report.linf_norm.append(float(np.max(np.abs(value.values))))
        linf, l2 = (math.nan, math.nan) if reference is None else error_metrics(value, reference)
        report.linf_error_to_reference.append(linf)
        report.l2_error_to_reference.append(l2)
        if prev is None:
            report.residual_l2.append(math.nan)
            report.monotonicity_violation.append(math.nan)
            update = math.inf
        else:
            update, step_l2 = error_metrics(value, prev)
            report.residual_l2.append(step_l2)
            report.monotonicity_violation.append(float(np.max(value.values - prev.values)))
        if n in config.snapshot_iterations:
            report.value_snapshots[n] = value.values.copy()
        if config.outer_tolerance is not None and update <= config.outer_tolerance:
            stop_reason = (
                f"outer tolerance {config.outer_tolerance:g} reached at iteration {n}"
            )
            break
        if n + 1 < config.max_outer_iterations:
            policy = policy_improve(problem, value, policy, config.relaxation_theta)
        if config.relaxation_theta < 1.0 and prev is not None:
            inner_tol = max(config.solver_tol, INEXACT_TOL_FACTOR * update)
        prev = value
        warm = value

    report.stop_reason = stop_reason or (
        f"completed the budget of {config.max_outer_iterations} iterations"
    )
    report.final_value = value
    # the pair (final_value, final_policy) is consistent: evaluating
    # final_policy produced final_value
    report.final_policy = policy
    return report
