"""Howard policy iteration: evaluation, improvement, and the outer driver.

Each outer iteration solves the frozen-policy linear equation L_alpha V = 0
exactly (odd-even reduction, then Thomas, in 1D) or to an inner tolerance
(SOR in 2D, warm started from the previous value field or from a
prediction, see below), then improves the policy from the centered
gradient of the new value.  With relaxation theta < 1 the new policy is
the convex mix (1 - theta) * previous + theta * greedy, clipped to the
control box; theta = 1 is classical greedy improvement, for which iterates
decrease pointwise and converge geometrically with factor
beta = (2*d*N/h) / (lam + 2*d*N/h).  A run builds one
linsolve.EvaluationWorkspace, the handle of its GridProblem, boundary data
and solver layout, which every assembly and solve overwrites, and hands it
to every evaluation through policy_evaluate; when theta < 1 it also builds
one array that improvement overwrites with the greedy controls.  These
hold buffers, not results, so reusing them changes no bit of any solve:
every value field and policy a run hands on is its own array.

A 1D run forms its trajectory norms once per block of NORM_BLOCK iterates,
reducing their stack row by row and carrying a block's last iterate into
the next (analysis.extend_block_norms): per iterate, on 601 nodes, those
numpy calls were mostly overhead.  Only max|V_n - V_{n-1}| is formed per
iteration, for an outer tolerance.  2D norms stay per iteration, bound by
arithmetic at 1681 to 6561 nodes: with the iterates flattened to rows,
blocks of 1 made relaxed2d's solve_s 7.8% slower (8 of 8 pairs), and
blocks of 16 raised greedy2d's peak RSS by 8.5%.

With theta < 1 a 2D run is inexact Howard from its first evaluation: SOR
evaluation n stops at max(solver_tol, INEXACT_TOL_FACTOR * s_n), an inner
accuracy proportional to outer progress, which keeps the outer convergence
(Bokanowski, Maroso & Zidani, SIAM J. Numer. Anal. 2009).  From n = 2 on,
s_n = max|V_{n-1} - V_{n-2}| is the last outer step.  Before that, the
run's start field S (the Dirichlet data with a zero interior) stands in
for the missing iterates: s_0 = theta * max|S| and
s_1 = theta * max|V_0 - S|.  These are sizes of whole fields, of which a
relaxed outer step moves about a theta share; without the factor,
evaluation 1 at h = 0.025 stopped after 1 sweep and the final certified
error rose 3-8%.  The early solves, whose values the next improvement
moves far anyway, take fewer sweeps: on manufactured2d at h = 0.1,
lam = 1 (run2d settings) evaluations 0 and 1 take 30 and 16 sweeps, where
solving them to solver_tol took 76 and 64.  solver_tol is the floor of
the schedule, so the last evaluations of a converging run are as tight as
those of an exact run.  With theta = 1 every evaluation stops at
solver_tol: greedy improvement's pointwise decrease rests on exact
evaluation, and the same schedule there let 2D greedy iterates rise by
about 1e-3.

An inexact evaluation (inner tolerance above solver_tol) with two outer
steps behind it, so from evaluation 3 on, also starts from a predicted
value.  The relaxed outer steps step_n = max|V_n - V_{n-1}| shrink by a
nearly constant factor (about 1 - theta), so when the last two decreased,
0 < step_n < step_{n-1}, SOR starts from V_n + r (V_n - V_{n-1}) with
r = step_n / step_{n-1} instead of from V_n.  On manufactured2d at
h = 0.1, lam = 1 (run2d settings) this cuts the run from 661 to 316
sweeps at the same certified error.  Every other
evaluation starts from V_n, for two measured reasons.  At the floor the
solves stop on the update norm, and a better start leaves more residual
behind: extrapolating there too raised the certified error at h = 0.1 up
to 1.8x (1.15e-9 against 6.4e-10 at lam = 1.18) and to 1.88e-9 at
lam = 0.81, next to the 2e-9 accuracy gate.  Greedy steps are not
geometric: extrapolating theta = 1 runs (manufactured2d, h = 0.05, 12
iterations) raised the sweeps at lam = 1 from 481 to 545 and the certified
error at lam = 0.8 from 8.1e-10 to 2.9e-9.  A 1D direct solve is exact
and ignores its warm start, so 1D runs form neither the schedule's
tolerances nor a prediction.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

from .analysis import difference_norms, error_metrics, extend_block_norms
from .grid import Grid, GridField, Record, interior_gradient
from .linsolve import (
    EvaluationWorkspace,
    SolveStats,
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

# Every direct 1D solve returns this one frozen record: one pass, exact.
_DIRECT_SOLVE = SolveStats(1, 0.0)

# Iterates per block of a 1D run's trajectory norms (see the module docstring).
NORM_BLOCK = 16


class PIConfig(Record):
    """Outer-loop configuration.

    outer_tolerance of None disables early stopping: exactly
    max_outer_iterations evaluations are performed.  snapshot_iterations
    is a tuple of 0-based iteration indices whose value fields should be
    retained in the report (the final field is always available); an index
    at or beyond the budget keeps nothing.

    solver_tol is the SOR update tolerance of every evaluation when
    relaxation_theta = 1.  When relaxation_theta < 1 it is the floor of the
    inexact schedule, which sets every SOR evaluation's tolerance from the
    first one on (see the module docstring): greedy runs stay exact because
    their monotone decrease needs exact evaluation.  With
    relaxation_theta < 1 the evaluations above the floor, from evaluation 3
    on, start SOR from a value predicted from the last two outer steps; the
    other evaluations and greedy ones start from the previous value field,
    or the first from the boundary data with a zero interior (see the
    module docstring).  1D runs solve directly and use none of the three SOR
    settings omega, solver_tol and solver_max_iter, but all three are checked.
    """

    _fields = ("max_outer_iterations", "relaxation_theta", "initial_policy_spec",
               "outer_tolerance", "omega", "solver_tol", "solver_max_iter", "snapshot_iterations")
    # the SOR defaults, also read from the class by the command line and the checks
    omega = 1.7
    solver_tol = 1e-10
    solver_max_iter = 5000

    def __init__(self, max_outer_iterations: int, relaxation_theta: float = 1.0,
                 initial_policy_spec: str = "zero", outer_tolerance: float | None = None,
                 omega: float = omega, solver_tol: float = solver_tol,
                 solver_max_iter: int = solver_max_iter,
                 snapshot_iterations: tuple[int, ...] = ()) -> None:
        super().__init__(max_outer_iterations, relaxation_theta, initial_policy_spec,
                         outer_tolerance, omega, solver_tol, solver_max_iter, snapshot_iterations)
        for name in ("max_outer_iterations", "solver_max_iter"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.max_outer_iterations < 1:
            raise ValueError("max_outer_iterations must be at least 1")
        if not 0.0 < self.relaxation_theta <= 1.0:
            raise ValueError(f"relaxation_theta must lie in (0, 1], got {self.relaxation_theta}")
        if self.initial_policy_spec not in INITIAL_POLICY_SPECS:
            raise ValueError(
                f"unknown initial policy {self.initial_policy_spec!r}; "
                f"expected one of {INITIAL_POLICY_SPECS}"
            )
        tol = self.outer_tolerance
        if tol is not None and not (math.isfinite(tol) and tol > 0):
            raise ValueError(f"outer_tolerance must be finite and positive when given, got {tol}")
        if not (math.isfinite(self.solver_tol) and self.solver_tol > 0):
            raise ValueError(f"solver_tol must be finite and positive, got {self.solver_tol}")
        if not 0.0 < self.omega < 2.0:
            raise ValueError(f"omega must lie in (0, 2), got {self.omega}")
        if not self.solver_max_iter >= 1:
            raise ValueError(f"solver_max_iter must be at least 1, got {self.solver_max_iter}")
        snaps = self.snapshot_iterations
        if not isinstance(snaps, tuple) or any(
                isinstance(n, bool) or not isinstance(n, numbers.Integral) or n < 0 for n in snaps):
            raise ValueError(f"snapshot_iterations must be a tuple of integers >= 0, got {snaps!r}")


class PIReport:
    """Per-iteration trajectories plus the final iterate.

    Entry n describes the value field V_n obtained by evaluating the n-th
    policy (n = 0 evaluates the initial policy).  residual_l2 and
    monotonicity_violation compare V_n with V_{n-1} and are NaN at n = 0:
    residual_l2 is the mesh-weighted step norm
    sqrt(h^d * sum (V_n - V_{n-1})^2), not a Bellman residual, and
    monotonicity_violation is max (V_n - V_{n-1}).  solve_stats[n] is
    evaluation n's record: its sweep count and, as tol, the update
    tolerance it was asked to reach (0.0 for a 1D direct solve, which is
    exact).  value_snapshots[n] is V_n's read-only array itself, for each
    n in config.snapshot_iterations that the run reached.  Errors against
    the reference are NaN when no reference was supplied.
    The lists are complete when run_policy_iteration returns; a 1D run fills
    the four norm lists a block at a time (see the module docstring).
    """

    def __init__(self) -> None:
        self.linf_error_to_reference: list[float] = []
        self.l2_error_to_reference: list[float] = []
        self.residual_l2: list[float] = []
        self.monotonicity_violation: list[float] = []
        self.linf_norm: list[float] = []
        self.solve_stats: list[SolveStats] = []
        self.value_snapshots: dict[int, np.ndarray] = {}
        self.final_value: GridField | None = None
        self.final_policy: PolicyField | None = None
        self.stop_reason = ""

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
        # the separable factors are formed once per axis, not per node
        axis = grid.axis_coords()
        ref = GridField(grid, manufactured_value(axis[:, None], axis[None, :]))
        a_star = -interior_gradient(ref)
        x, y = axis[1:-1, None], axis[None, 1:-1]
        perturb = np.stack(
            [0.3 * np.sin(2.0 * x + 1.0) * np.cos(y), 0.3 * np.cos(x) * np.sin(2.0 * y - 0.5)],
            axis=-1,
        )
        controls = (-a_star + perturb).clip(-problem.a_max, problem.a_max)
        return PolicyField(grid, controls, problem.a_max)
    raise ValueError(f"unknown initial policy spec {spec!r}")


def policy_evaluate(
    workspace: EvaluationWorkspace,
    policy: PolicyField,
    omega: float = PIConfig.omega,
    solver_tol: float = PIConfig.solver_tol,
    solver_max_iter: int = PIConfig.solver_max_iter,
    initial: GridField | None = None,
) -> tuple[GridField, SolveStats]:
    """Solve L_alpha V = 0 for `policy` on the workspace's grid problem,
    with its Dirichlet data: the system is assembled in the workspace (see
    assemble_evaluation_system) and solved in its layout, a 1D one directly
    where it lies (see solve_tridiagonal), a 2D one by SOR warm started from
    `initial` when given (see solve_sor).  The solution goes straight into
    the returned field, which is new.  A 2D solve's SolveStats records
    solver_tol as its tolerance, a 1D solve's 0.0 (it is exact).  Raises
    SolverError (from solve_sor) if SOR does not reach solver_tol within
    the sweep budget.
    """
    system = assemble_evaluation_system(workspace, policy)
    grid, layout = workspace.gp.grid, workspace.layout
    values = workspace.boundary.values.copy()
    if grid.dim == 1:
        solve_tridiagonal(system, layout=layout, out=values[1:-1])
        stats = _DIRECT_SOLVE
    else:
        guess = initial.interior() if initial is not None else None
        _, stats = solve_sor(system, omega=omega, tol=solver_tol, max_iter=solver_max_iter,
                             initial=guess, layout=layout, out=values[1:-1, 1:-1])
    return GridField(grid, values), stats


def policy_improve(
    problem: ControlProblem,
    value: GridField,
    prev_policy: PolicyField,
    theta: float = 1.0,
    out: np.ndarray | None = None,
) -> PolicyField:
    """Greedy improvement from the centered gradient, relaxed by theta.

    The gradient is negated and clipped in place into the greedy controls.
    At theta = 1 they are returned as they are: the convex mix would
    reproduce them, already in the box, bit for bit.  With theta < 1 they
    go into `out`, an array of the controls' shape that the next call
    overwrites, when given, else into a new array; the mix is new either
    way, so the returned policy shares no array with `out` or prev_policy.
    """
    if not 0.0 < theta <= 1.0:
        raise ValueError(f"theta must lie in (0, 1], got {theta}")
    greedy = interior_gradient(value, None if theta == 1.0 else out)
    greedy_policy(problem, greedy, out=greedy)
    if theta == 1.0:
        return PolicyField(value.grid, greedy, problem.a_max)
    mixed = np.multiply(prev_policy.controls, 1.0 - theta)
    greedy *= theta
    mixed += greedy
    return PolicyField(value.grid, mixed.clip(-problem.a_max, problem.a_max, mixed), problem.a_max)


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
    onto the grid once per call (see GridProblem); the module docstring
    describes the run's workspace, buffers and 1D norm blocks.
    """
    gp = GridProblem(problem, grid, params)
    if boundary.grid != grid:
        raise ValueError("boundary field lives on a different grid")
    if reference is not None and reference.grid != grid:
        raise ValueError("reference field lives on a different grid")
    # keep only the boundary ring as data; the interior is the warm start (zero)
    boundary_field = GridField(grid, np.where(grid.boundary_mask(), boundary.values, 0.0))
    policy = initial_policy(config.initial_policy_spec, grid, problem)
    # the buffers of assembly, solve and relaxed improvement, rewritten every
    # iteration; greedy improvement writes its controls into the new policy
    workspace = EvaluationWorkspace(gp, boundary_field)
    greedy = np.empty(grid.interior_shape + (grid.dim,)) if config.relaxation_theta < 1.0 else None
    report = PIReport()
    prev: GridField | None = None
    warm = boundary_field
    value = boundary_field
    stop_reason = None
    # the inexact schedule and its predicted starts act on SOR runs only
    inexact = config.relaxation_theta < 1.0 and grid.dim > 1
    inner_tol = config.solver_tol
    if inexact:
        inner_tol = max(inner_tol, INEXACT_TOL_FACTOR
                        * (config.relaxation_theta * boundary_field.max_abs))
    prev_update = math.inf
    # 1D: the iterates whose norms wait for their block, after a carried one
    blocked, block = grid.dim == 1, []
    norms = (report.linf_error_to_reference, report.l2_error_to_reference,
             report.residual_l2, report.monotonicity_violation)

    for n in range(config.max_outer_iterations):
        value, stats = policy_evaluate(workspace, policy, omega=config.omega, solver_tol=inner_tol,
                                       solver_max_iter=config.solver_max_iter, initial=warm)
        report.solve_stats.append(stats)
        report.linf_norm.append(value.max_abs)
        if blocked:
            block.append(value.values)
            if len(block) >= NORM_BLOCK:
                block = extend_block_norms(norms, block, grid, reference)
            # the step's max-norm, formed only for the outer tolerance
            update = (math.inf if config.outer_tolerance is None or prev is None
                      else float(np.maximum.reduce(np.abs(value.values - prev.values), None)))
        else:
            linf, l2 = (math.nan, math.nan) if reference is None else error_metrics(value, reference)
            report.linf_error_to_reference.append(linf)
            report.l2_error_to_reference.append(l2)
            if prev is None:
                report.residual_l2.append(math.nan)
                report.monotonicity_violation.append(math.nan)
                update = math.inf
            else:
                # V_n - V_{n-1}, formed once for the step norms, the
                # monotonicity check and the predicted warm start
                step = value.values - prev.values
                update, step_l2 = difference_norms(step, grid)
                report.residual_l2.append(step_l2)
                report.monotonicity_violation.append(float(np.maximum.reduce(step, None)))
        if n in config.snapshot_iterations:
            report.value_snapshots[n] = value.values
        if config.outer_tolerance is not None and update <= config.outer_tolerance:
            stop_reason = (
                f"outer tolerance {config.outer_tolerance:g} reached at iteration {n}"
            )
            break
        if n + 1 < config.max_outer_iterations:
            policy = policy_improve(problem, value, policy, config.relaxation_theta, out=greedy)
        warm = value
        if inexact:
            # the next tolerance and warm start, see the module docstring
            size = update if prev is not None else config.relaxation_theta * float(
                np.maximum.reduce(np.abs(value.values - boundary_field.values), None))
            inner_tol = max(config.solver_tol, INEXACT_TOL_FACTOR * size)
            if inner_tol > config.solver_tol and 0.0 < update < prev_update < math.inf:
                warm = GridField(grid, value.values + update / prev_update * step)
        prev = value
        prev_update = update

    if blocked:
        extend_block_norms(norms, block, grid, reference)
    report.stop_reason = stop_reason or (
        f"completed the budget of {config.max_outer_iterations} iterations"
    )
    report.final_value = value
    # the pair (final_value, final_policy) is consistent: evaluating
    # final_policy produced final_value
    report.final_policy = policy
    return report
