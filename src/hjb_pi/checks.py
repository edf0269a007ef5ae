"""The property suite behind the `check` CLI subcommand and the tests.

Each property re-verifies one structural guarantee of the pipeline against
an independent route (closed form, dense scan, dense LU, or the
value-iteration oracle).  A property shared with the tests is a measurement
function: it takes its inputs (setup, numpy Generator, trial count, field
amplitude or system size) and returns the measured quantity, never a
verdict.  CHECKS binds each property to fixed inputs and a threshold; the
tests call the same functions with their own inputs and thresholds.
run_checks runs every entry of CHECKS, the value-iteration oracle
included: all sixteen take about a second, so there is nothing to skip.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .benchmarks import BenchmarkSetup, build_benchmark
from .grid import GridField, build_grid, interior_gradient, interior_laplacian
from .howard import PIConfig, policy_evaluate, run_policy_iteration
from .linsolve import (
    EvaluationSystem,
    EvaluationWorkspace,
    solve_dense_oracle,
    solve_sor,
    solve_tridiagonal,
)
from .oracles import (
    bellman_residual_scan,
    fit_quadratic_coefficient,
    lq_value_iteration,
    resolvent_scan,
    scan_extremum,
)
from .problems import (
    ControlProblem,
    PolicyField,
    greedy_policy,
    lq_value_coefficient,
    lq_reference_value,
    policy_cost_and_drift,
)
from .scheme import (
    GridProblem,
    bellman_residual,
    certify_monotone_stencil,
    resolvent_map,
)

__all__ = [
    "CHECKS",
    "run_checks",
    "random_dominant_tridiagonal",
    "random_structured_system",
    "fixed_point_gap",
    "contraction_excess",
    "thomas_dense_gap",
    "sor_dense_gap",
    "greedy_scan_gaps",
    "hamiltonian_scan_gap",
    "maximum_principle_range",
    "greedy_run_extremes",
]

_SEED = 74521


def _random_field(grid, rng, scale=1.0) -> GridField:
    return GridField(grid, rng.uniform(-scale, scale, size=grid.shape))


# ---------------------------------------------------------------------------
# random systems


def random_dominant_tridiagonal(rng: np.random.Generator, n: int) -> EvaluationSystem:
    """Size-n 1D system, diagonally dominant by a margin drawn from [0.5, 2]
    for each row.

    Draws the minus and plus weights, the margins and rhs, in that order.
    """
    minus = rng.uniform(-1, 1, n)
    plus = rng.uniform(-1, 1, n)
    minus[0] = 0.0
    plus[-1] = 0.0
    center = np.abs(minus) + np.abs(plus) + rng.uniform(0.5, 2.0, n)
    rhs = rng.uniform(-1, 1, n)
    return EvaluationSystem(center=center, plus=(plus,), minus=(minus,), rhs=rhs)


def random_structured_system(rng: np.random.Generator, m0: int, m1: int) -> EvaluationSystem:
    """Five-point system with the scheme's sign structure and dominance.

    Draws N/h, lam, the drift and rhs, in that order.
    """
    ratio = rng.uniform(5.0, 30.0)
    lam = rng.uniform(0.5, 2.0)
    drift = rng.uniform(-0.9, 0.9, size=(2, m0, m1)) * 2.0 * ratio
    return EvaluationSystem(
        center=np.full((m0, m1), lam + 4.0 * ratio),
        plus=(-(ratio + drift[0] / 4.0), -(ratio + drift[1] / 4.0)),
        minus=(-(ratio - drift[0] / 4.0), -(ratio - drift[1] / 4.0)),
        rhs=rng.uniform(-1, 1, size=(m0, m1)),
    )


# ---------------------------------------------------------------------------
# measurements shared by the CLI and the tests


def fixed_point_gap(
    setup: BenchmarkSetup, rng: np.random.Generator, trials: int, amplitude: float
) -> float:
    """Largest |F_h[u] - (lam + 2dN/h)(u - T u)| / (1 + ||u||_inf) over
    random fields u with entries in [-amplitude, amplitude]."""
    worst = 0.0
    for _ in range(trials):
        u = _random_field(setup.grid, rng, amplitude)
        lhs = bellman_residual(setup.problem, setup.params, u).values
        tu = resolvent_map(setup.problem, setup.params, u).values
        rhs = setup.params.center_weight * (u.values - tu)
        scale = 1.0 + float(np.max(np.abs(u.values)))
        worst = max(worst, float(np.max(np.abs(lhs - rhs))) / scale)
    return worst


def contraction_excess(
    setup: BenchmarkSetup, rng: np.random.Generator, trials: int, amplitude: float
) -> float:
    """Largest ||T u - T w||_inf - beta ||u - w||_inf over random pairs of
    fields with entries in [-amplitude, amplitude]; at most 0 up to rounding
    when T is a beta-contraction."""
    p = setup.params
    beta = p.contraction_factor
    worst = -np.inf
    for _ in range(trials):
        u = _random_field(setup.grid, rng, amplitude)
        w = _random_field(setup.grid, rng, amplitude)
        tu = resolvent_map(setup.problem, p, u).interior()
        tw = resolvent_map(setup.problem, p, w).interior()
        gap = float(np.max(np.abs(tu - tw))) - beta * float(np.max(np.abs(u.values - w.values)))
        worst = max(worst, gap)
    return worst


def thomas_dense_gap(
    rng: np.random.Generator, trials: int, min_size: int, max_size: int
) -> float:
    """Largest |solve_tridiagonal - dense LU| over random dominant
    tridiagonal systems with sizes drawn from [min_size, max_size]."""
    worst = 0.0
    for _ in range(trials):
        system = random_dominant_tridiagonal(rng, int(rng.integers(min_size, max_size + 1)))
        x = solve_tridiagonal(system)
        y = solve_dense_oracle(system)
        worst = max(worst, float(np.max(np.abs(x - y))))
    return worst


def sor_dense_gap(
    rng: np.random.Generator, trials: int, shape: tuple[int, int], tol: float, max_iter: int
) -> float:
    """Largest |SOR (at PIConfig.omega) - dense LU| over random five-point
    systems.

    Raises SolverError (from solve_sor) if SOR misses tol within max_iter
    sweeps.
    """
    worst = 0.0
    for _ in range(trials):
        system = random_structured_system(rng, *shape)
        x, _ = solve_sor(system, omega=PIConfig.omega, tol=tol, max_iter=max_iter)
        y = solve_dense_oracle(system)
        worst = max(worst, float(np.max(np.abs(x - y))))
    return worst


def _scan_objective(problem: ControlProblem, x: np.ndarray, p: np.ndarray):
    """c(x, a) + f(x, a) . p over a batch of controls a."""
    state_cost, drift_base = problem.state_cost(x), problem.drift_base(x)

    def objective(cand):
        c, f = policy_cost_and_drift(state_cost, drift_base, cand)
        return c + np.sum(f * p, axis=-1)

    return objective


def greedy_scan_gaps(
    problem: ControlProblem, rng: np.random.Generator, trials: int, stages: int
) -> np.ndarray:
    """Per random (x, p) of a 1D problem, x in [-3, 3] and p in [-8, 8]: the
    objective c + f.p at the greedy control minus its minimum found by a
    staged scan of 10^4 points per stage.  Signed, because a short scan
    sits above the true minimum."""
    gaps = np.empty(trials)
    for k in range(trials):
        x = rng.uniform(-3, 3, size=(1,))
        p = rng.uniform(-8, 8, size=(1,))
        objective = _scan_objective(problem, x, p)
        best = objective(greedy_policy(problem, p))
        scanned, _ = scan_extremum(objective, problem.a_max, 1, 10000, mode="min", stages=stages)
        gaps[k] = best - scanned[0]
    return gaps


def hamiltonian_scan_gap(setup: BenchmarkSetup, rng: np.random.Generator, samples: int) -> float:
    """Largest |H(x, p) + min_a (c + f.p)| over `samples` distinct interior
    nodes x of a 2D setup with p in [-3, 3]^2, H(x, p) = -(c + f.p) at the
    greedy control and the minimum from a 4-stage scan of 1024 points."""
    problem = setup.problem
    coords = setup.grid.interior_coordinates().reshape(-1, 2)
    xs = coords[rng.choice(coords.shape[0], size=samples, replace=False)]
    ps = rng.uniform(-3, 3, size=(samples, 2))
    worst = 0.0
    for x, p in zip(xs, ps):
        objective = _scan_objective(problem, x, p)
        hval = -float(objective(greedy_policy(problem, p)))
        scanned, _ = scan_extremum(objective, problem.a_max, 2, 1024, mode="min", stages=4)
        worst = max(worst, abs(hval + float(scanned[0])))
    return worst


def maximum_principle_range(
    setup: BenchmarkSetup, rng: np.random.Generator, trials: int
) -> tuple[float, float]:
    """(min, max |.|) over the solutions of a 1D setup's evaluation systems
    for random policies with controls uniform in the box."""
    gp = GridProblem(setup.problem, setup.grid, setup.params)
    workspace = EvaluationWorkspace(gp, setup.boundary)
    a_max = setup.problem.a_max
    lo, hi = math.inf, 0.0
    for _ in range(trials):
        controls = rng.uniform(-a_max, a_max, size=setup.grid.interior_shape + (1,))
        policy = PolicyField(setup.grid, controls, a_max)
        x = policy_evaluate(workspace, policy)[0].interior()
        lo = min(lo, float(np.min(x)))
        hi = max(hi, float(np.max(np.abs(x))))
    return lo, hi


def greedy_run_extremes(setup: BenchmarkSetup, iterations: int) -> tuple[float, float]:
    """(largest pointwise increase max(V_n - V_{n-1}), largest ||V_n||_inf)
    over a greedy (theta = 1) policy iteration run of `iterations` steps."""
    config = PIConfig(max_outer_iterations=iterations, relaxation_theta=1.0)
    report = run_policy_iteration(
        setup.problem, setup.grid, setup.params, config,
        boundary=setup.boundary, reference=setup.reference,
    )
    return max(report.monotonicity_violation[1:]), max(report.linf_norm)


# ---------------------------------------------------------------------------
# the CLI's checks: fixed inputs and a threshold per property


def check_grid_operator_exactness() -> tuple[bool, str]:
    """Centered operators are exact on quadratics and cubics."""
    grid = build_grid(3.0, 0.1, dim=1)
    xs = grid.axis_coords()
    x = xs[1:-1]
    g = interior_gradient(GridField(grid, 0.25 * xs**2 - 1.3 * xs + 0.7))[:, 0]
    lap = interior_laplacian(GridField(grid, xs**3))
    worst = max(
        float(np.max(np.abs(g - (0.5 * x - 1.3)))),
        float(np.max(np.abs(lap - 6.0 * x) / np.maximum(1.0, np.abs(6.0 * x)))),
    )
    return worst <= 1e-11, f"max pointwise deviation {worst:.2e}"


def check_greedy_argmin() -> tuple[bool, str]:
    """Closed-form greedy control attains the dense-scan minimum."""
    # One scan stage sits above the true minimum (by up to 1.8e-7 on these
    # draws), so only a closed form above the scan counts against it.
    problem = build_benchmark("lq1d").problem
    gaps = greedy_scan_gaps(problem, np.random.default_rng(_SEED), 50, stages=1)
    worst = max(0.0, float(np.max(gaps)))
    return worst <= 1e-9, f"closed form minus scan minimum at most {worst:.2e}"


def check_hamiltonian_scan() -> tuple[bool, str]:
    """The closed-form Hamiltonian equals the negated staged-scan minimum of c + f.p."""
    setup = build_benchmark("manufactured2d", h=0.25)
    worst = hamiltonian_scan_gap(setup, np.random.default_rng(_SEED + 1), 20)
    return worst <= 1e-9, f"max |closed form + scan min| = {worst:.2e}"


def check_lq_hjb_identity() -> tuple[bool, str]:
    """The closed-form 1D value satisfies lam V - x^2/2 + (V')^2/2 = 0."""
    worst = 0.0
    for lam in (0.5, 1.0, 2.0):
        p = lq_value_coefficient(lam)
        x = np.linspace(-3, 3, 100)
        res = lam * lq_reference_value(lam, x) - 0.5 * x * x + 0.5 * (p * x) ** 2
        worst = max(worst, float(np.max(np.abs(res))))
    return worst <= 1e-12, f"max residual {worst:.2e}"


def check_lq_root_oracle() -> tuple[bool, str]:
    """Value iteration recovers the adopted quadratic coefficient."""
    x, v = lq_value_iteration()
    fitted = fit_quadratic_coefficient(x, v)
    adopted = lq_value_coefficient(1.0)
    rejected = (1.0 + math.sqrt(5.0)) / 2.0
    ok = abs(fitted - adopted) <= 0.01 * adopted and abs(fitted - rejected) > 0.10 * rejected
    return ok, f"fitted {fitted:.6f}, adopted {adopted:.6f}, rejected {rejected:.6f}"


def check_monotone_stencils() -> tuple[bool, str]:
    """Sampled stencil certification for both benchmarks."""
    worst_coeff = -np.inf
    worst_dev = 0.0
    for name, h in (("lq1d", 0.03), ("manufactured2d", 0.05)):
        setup = build_benchmark(name, h=h)
        cert = certify_monotone_stencil(setup.problem, setup.grid, setup.params, n_controls=2000)
        worst_coeff = max(worst_coeff, cert.max_neighbor_coefficient)
        worst_dev = max(worst_dev, cert.max_row_sum_deviation)
    ok = worst_coeff <= 0.0 and worst_dev <= 1e-12
    return ok, f"max neighbor weight {worst_coeff:.2e}, row-sum deviation {worst_dev:.2e}"


def check_manufactured_exactness() -> tuple[bool, str]:
    """The 2D reference surface zeroes the Bellman residual on its grid."""
    setup = build_benchmark("manufactured2d")
    res = bellman_residual(setup.problem, setup.params, setup.reference)
    worst = float(np.max(np.abs(res.values)))
    return worst <= 1e-11, f"max |F_h[reference]| = {worst:.2e}"


def check_fixed_point_identity() -> tuple[bool, str]:
    """F_h[u] equals (lam + 2dN/h)(u - T u) on random fields."""
    setup = build_benchmark("lq1d", h=0.1)
    worst = fixed_point_gap(setup, np.random.default_rng(_SEED + 2), 10, 1.0)
    return worst <= 1e-12, f"max scaled identity gap {worst:.2e}"


def check_resolvent_contraction() -> tuple[bool, str]:
    """T is a beta-contraction in the max norm on random pairs."""
    setup = build_benchmark("lq1d", h=0.1)
    worst = contraction_excess(setup, np.random.default_rng(_SEED + 3), 10, 1.0)
    return worst <= 1e-12, f"max contraction excess {worst:.2e}"


def check_policy_improvement_identity() -> tuple[bool, str]:
    """Control-free T u matches the staged-scan minimum over controls."""
    rng = np.random.default_rng(_SEED + 4)
    setup = build_benchmark("lq1d", h=0.2)
    worst = 0.0
    for _ in range(5):
        u = _random_field(setup.grid, rng)
        tu = resolvent_map(setup.problem, setup.params, u).interior()
        scan = resolvent_scan(setup.problem, setup.params, u)
        worst = max(worst, float(np.max(np.abs(tu.reshape(-1) - scan))))
    return worst <= 1e-9, f"max |closed form - scan| = {worst:.2e}"


def check_bellman_scan_agreement() -> tuple[bool, str]:
    """Closed-form F_h matches the staged-scan supremum over controls."""
    rng = np.random.default_rng(_SEED + 5)
    setup = build_benchmark("lq1d", h=0.1)
    worst = 0.0
    for _ in range(5):
        u = _random_field(setup.grid, rng)
        closed = bellman_residual(setup.problem, setup.params, u).interior().reshape(-1)
        scan = bellman_residual_scan(setup.problem, setup.params, u)
        worst = max(worst, float(np.max(np.abs(closed - scan))))
    return worst <= 1e-8, f"max |closed form - scan| = {worst:.2e}"


def check_barrier_ordering() -> tuple[bool, str]:
    """Constant fields +-||c||/lam produce signed Bellman residuals."""
    setup = build_benchmark("lq1d", h=0.1)
    coords = setup.grid.node_coordinates()
    cost_sup = float(np.max(setup.problem.state_cost(coords))) + 0.5 * setup.problem.a_max**2
    m = cost_sup / setup.params.lam
    upper = bellman_residual(setup.problem, setup.params, GridField.full(setup.grid, m))
    lower = bellman_residual(setup.problem, setup.params, GridField.full(setup.grid, -m))
    lo = float(np.min(upper.interior()))
    hi = float(np.max(lower.interior()))
    ok = lo >= -1e-12 and hi <= 1e-12
    return ok, f"min residual at +M {lo:.2e}, max residual at -M {hi:.2e}"


def check_thomas_vs_dense() -> tuple[bool, str]:
    """The tridiagonal solver agrees with dense LU on random dominant
    systems, with sizes on both sides of its reduction threshold."""
    worst = thomas_dense_gap(np.random.default_rng(_SEED + 6), 20, 2, 700)
    return worst <= 1e-10, f"max |thomas - dense| = {worst:.2e}"


def check_sor_vs_dense() -> tuple[bool, str]:
    """SOR agrees with dense LU on scheme-shaped 2D systems."""
    worst = sor_dense_gap(np.random.default_rng(_SEED + 7), 5, (9, 9), tol=1e-12, max_iter=20000)
    return worst <= 1e-8, f"max |sor - dense| = {worst:.2e}"


def check_maximum_principle() -> tuple[bool, str]:
    """Nonnegative cost and boundary data give a nonnegative solution."""
    setup = build_benchmark("lq1d", h=0.1)
    lo, _ = maximum_principle_range(setup, np.random.default_rng(_SEED + 8), 1)
    return lo >= -1e-12, f"solution minimum {lo:.2e}"


def check_greedy_monotone_decrease() -> tuple[bool, str]:
    """Greedy iterates decrease pointwise on a coarse 1D run."""
    worst, _ = greedy_run_extremes(build_benchmark("lq1d", h=0.2), 25)
    return worst <= 1e-9, f"max pointwise increase {worst:.2e}"


CHECKS: list[tuple[str, Callable[[], tuple[bool, str]]]] = [
    ("grid-operator-exactness", check_grid_operator_exactness),
    ("greedy-argmin-scan", check_greedy_argmin),
    ("hamiltonian-scan", check_hamiltonian_scan),
    ("lq-hjb-identity", check_lq_hjb_identity),
    ("lq-root-oracle", check_lq_root_oracle),
    ("monotone-stencils", check_monotone_stencils),
    ("manufactured-exactness", check_manufactured_exactness),
    ("fixed-point-identity", check_fixed_point_identity),
    ("resolvent-contraction", check_resolvent_contraction),
    ("policy-improvement-identity", check_policy_improvement_identity),
    ("bellman-scan-agreement", check_bellman_scan_agreement),
    ("barrier-ordering", check_barrier_ordering),
    ("thomas-vs-dense", check_thomas_vs_dense),
    ("sor-vs-dense", check_sor_vs_dense),
    ("maximum-principle", check_maximum_principle),
    ("greedy-monotone-decrease", check_greedy_monotone_decrease),
]


def run_checks() -> int:
    """Run every property in CHECKS, print one PASS/FAIL line per check,
    return the number of failures."""
    failures = 0
    for name, fn in CHECKS:
        try:
            ok, detail = fn()
        except Exception as exc:  # a crash is a failure, not an abort
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        failures += 0 if ok else 1
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    return failures
