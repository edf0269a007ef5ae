"""Monotone policy iteration for stationary discounted HJB equations.

The package discretizes lam*V + sup_a{-c(x,a) - f(x,a).grad V} = 0 on a
uniform grid with centered differences plus an artificial viscosity term
N*h*Lap_h chosen large enough that the per-policy stencil is monotone,
then solves the discrete equation by Howard policy iteration: a direct
tridiagonal solve (1D: odd-even reduction, then Thomas) or red-black SOR
(2D) for policy evaluation, alternating with a closed-form greedy policy
update, optionally relaxed.

Layer map, bottom to top: grid -> analysis, problems -> scheme ->
linsolve -> howard -> benchmarks -> cli.  grid also holds Record, the
base of the value types, which are plain classes rather than dataclasses
so that importing the package generates no code.  analysis (error norms
and fits) needs only grid, so howard records its norms with it.  problems
writes the control model once: policy_cost_and_drift forms (c, f) and
greedy_policy the clip of -grad_h u.  scheme owns
GridProblem, the problem sampled once onto a grid; write_stencil, the one
stencil routine, which assembly calls with its bound operands and
stencil_coefficients (for the resolvent and certification) with any drift;
and bellman_residual, the one operator routine: L_alpha u for a
policy, and F_h[u] = L_{a*(u)} u at the greedy control without one.
SchemeParams carries the derived center weight and contraction factor
beta, and refuses a discount lost in the rounding of the center weight.
linsolve has one interior system type for both dimensions,
EvaluationSystem: a center, one plus and one minus weight per axis, and a
right-hand side with the Dirichlet ring folded in, and one handle of an
evaluation problem, EvaluationWorkspace: it binds the GridProblem, the
boundary data and the solver layout once, and assembles every system in
them, which howard.policy_evaluate then solves.  benchmarks owns
BENCHMARK_DEFAULTS, the one table of benchmark defaults; its builders set
each benchmark's viscosity N and build the 2D cost with bellman_residual.
oracles holds independent reimplementations used only to cross-check the
main path.
"""

from .analysis import (
    ErrorDecomposition,
    RateFit,
    detect_plateau,
    error_metrics,
    fit_geometric_rate,
    fit_power_rate,
    optimal_iteration_count,
    total_error_bound,
)
from .benchmarks import BENCHMARK_DEFAULTS, BENCHMARK_NAMES, BenchmarkSetup, build_benchmark
from .grid import Grid, GridField, build_grid
from .howard import (
    PIConfig,
    PIReport,
    initial_policy,
    policy_evaluate,
    policy_improve,
    run_policy_iteration,
)
from .linsolve import (
    EvaluationSystem,
    EvaluationWorkspace,
    SolverError,
    SolveStats,
    assemble_evaluation_system,
    solve_dense_oracle,
    solve_sor,
    solve_tridiagonal,
)
from .problems import (
    ControlProblem,
    PolicyField,
    greedy_policy,
    lq1d_problem,
    lq_reference_policy,
    lq_reference_value,
    lq_value_coefficient,
    manufactured_drift,
    manufactured_value,
)
from .scheme import (
    GridProblem,
    MonotonicityError,
    SchemeParams,
    StencilCertificate,
    bellman_residual,
    certify_monotone_stencil,
    resolvent_map,
)

__version__ = "0.1.0"

__all__ = [
    "BENCHMARK_DEFAULTS",
    "BENCHMARK_NAMES",
    "BenchmarkSetup",
    "ControlProblem",
    "ErrorDecomposition",
    "EvaluationSystem",
    "EvaluationWorkspace",
    "Grid",
    "GridField",
    "GridProblem",
    "MonotonicityError",
    "PIConfig",
    "PIReport",
    "PolicyField",
    "RateFit",
    "SchemeParams",
    "SolveStats",
    "SolverError",
    "StencilCertificate",
    "assemble_evaluation_system",
    "bellman_residual",
    "build_benchmark",
    "build_grid",
    "certify_monotone_stencil",
    "detect_plateau",
    "error_metrics",
    "fit_geometric_rate",
    "fit_power_rate",
    "greedy_policy",
    "initial_policy",
    "lq1d_problem",
    "lq_reference_policy",
    "lq_reference_value",
    "lq_value_coefficient",
    "manufactured_drift",
    "manufactured_value",
    "optimal_iteration_count",
    "policy_evaluate",
    "policy_improve",
    "resolvent_map",
    "run_policy_iteration",
    "solve_dense_oracle",
    "solve_sor",
    "solve_tridiagonal",
    "total_error_bound",
    "__version__",
]
