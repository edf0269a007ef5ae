import math
import os
import sys

import numpy as np
import pytest

from hjb_pi import (
    BENCHMARK_DEFAULTS,
    ControlProblem,
    EvaluationSystem,
    EvaluationWorkspace,
    GridField,
    GridProblem,
    PIConfig,
    PolicyField,
    SchemeParams,
    SolverError,
    assemble_evaluation_system,
    bellman_residual,
    build_benchmark,
    build_grid,
    certify_monotone_stencil,
    error_metrics,
    initial_policy,
    lq_value_coefficient,
    policy_evaluate,
    policy_improve,
    resolvent_map,
    run_policy_iteration,
    solve_sor,
    solve_tridiagonal,
)
from hjb_pi import howard, linsolve
from hjb_pi.analysis import difference_norms
from hjb_pi.checks import greedy_run_extremes
from hjb_pi.grid import interior_gradient
from hjb_pi.problems import lq1d_problem

from conftest import make_rng, pointwise_red_black_sor


def test_initial_policy_zero(lq_coarse):
    policy = initial_policy("zero", lq_coarse.grid, lq_coarse.problem)
    assert np.all(policy.controls == 0.0)


def test_initial_policy_adversarial_formula(man_coarse):
    """The generated controls equal clip(-a*_h + 0.3 * perturbation)."""
    policy = initial_policy("adversarial2d", man_coarse.grid, man_coarse.problem)
    a_star = -interior_gradient(man_coarse.reference)
    inner = man_coarse.grid.interior_coordinates()
    x, y = inner[..., 0], inner[..., 1]
    perturb = 0.3 * np.stack(
        [np.sin(2 * x + 1) * np.cos(y), np.cos(x) * np.sin(2 * y - 0.5)], axis=-1
    )
    a_max = man_coarse.problem.a_max
    expect = np.clip(-a_star + perturb, -a_max, a_max)
    # rewritten independently, so agreement is up to association rounding
    assert np.allclose(policy.controls, expect, rtol=0.0, atol=1e-13)
    assert np.max(np.abs(policy.controls)) <= a_max


def test_initial_policy_unknown_spec(lq_coarse):
    with pytest.raises(ValueError):
        initial_policy("random", lq_coarse.grid, lq_coarse.problem)


def test_policy_evaluate_zero_problem():
    problem = ControlProblem(
        lam=1.0, drift_base=lambda x: np.zeros_like(x),
        state_cost=lambda x: np.zeros(x.shape[:-1]), a_max=1.0, dim=1,
    )
    grid = build_grid(1.0, 0.25, dim=1)
    params = SchemeParams(viscosity=1.0, h=0.25, dim=1, lam=1.0)
    policy = PolicyField.zeros(grid, 1.0)
    value, stats = policy_evaluate(
        EvaluationWorkspace(GridProblem(problem, grid, params), GridField.zeros(grid)), policy
    )
    assert np.max(np.abs(value.values)) == 0.0
    # a direct solve: one pass, and exact, so its tolerance is 0
    assert (stats.iterations, stats.tol) == (1, 0.0)


def test_policy_evaluate_frozen_optimal_policy(lq_paper):
    """Evaluating a* = -Px with exact boundary lands within O(h) of V."""
    setup = lq_paper
    # a* = -P x stays inside the box: |P x| <= 1.86 < a_max = 6
    controls = -lq_value_coefficient(1.0) * setup.grid.interior_coordinates()
    policy = PolicyField(setup.grid, controls, setup.problem.a_max)
    gp = GridProblem(setup.problem, setup.grid, setup.params)
    value, _ = policy_evaluate(EvaluationWorkspace(gp, setup.boundary), policy)
    gap = np.max(np.abs(value.values - setup.reference.values))
    assert gap <= 0.1

    residual = bellman_residual(setup.problem, setup.params, value, policy)
    assert np.max(np.abs(residual.values)) <= 1e-9  # direct-solve certificate


def test_policy_evaluate_sor_residual_certificate(man_paper):
    """SOR stops on the update norm, after the sweeps of the pointwise
    red-black reference and with its bits; the operator residual is bounded
    by the center weight times that update, not by 10x the tolerance."""
    setup = man_paper
    policy = initial_policy("adversarial2d", setup.grid, setup.problem)
    gp = GridProblem(setup.problem, setup.grid, setup.params)
    value, stats = policy_evaluate(EvaluationWorkspace(gp, setup.boundary), policy)
    system = assemble_evaluation_system(EvaluationWorkspace(gp, setup.boundary), policy)
    expect, sweeps, update = pointwise_red_black_sor(
        system, PIConfig.omega, PIConfig.solver_tol, PIConfig.solver_max_iter)
    assert value.interior().tobytes() == expect.tobytes()
    assert (stats.iterations, stats.tol) == (sweeps, PIConfig.solver_tol)
    assert update <= PIConfig.solver_tol
    residual = bellman_residual(setup.problem, setup.params, value, policy)
    bound = setup.params.center_weight * 1e-10
    assert np.max(np.abs(residual.values)) <= bound


def test_standalone_1d_evaluation_solves_in_its_workspace_layout(monkeypatch, lq_paper):
    """An evaluation outside a run, of 199 unknowns, builds one
    ReductionLayout, its workspace's, and solves the system where it lies,
    in that layout's rows, with the bits of a solve that copies the system
    into a new layout."""
    setup, built, solved = lq_paper, [], []

    class CountedLayout(linsolve.ReductionLayout):
        def __init__(self, n):
            built.append(n)
            super().__init__(n)

    solve = howard.solve_tridiagonal

    def recording_solve(system, layout=None, out=None):
        solved.append((system, layout))
        return solve(system, layout, out)

    monkeypatch.setattr(linsolve, "ReductionLayout", CountedLayout)
    monkeypatch.setattr(howard, "solve_tridiagonal", recording_solve)
    a_max = setup.problem.a_max
    controls = make_rng(131).uniform(-a_max, a_max, setup.grid.interior_shape + (1,))
    policy = PolicyField(setup.grid, controls, a_max)
    workspace = EvaluationWorkspace(GridProblem(setup.problem, setup.grid, setup.params),
                                    setup.boundary)
    value, _ = policy_evaluate(workspace, policy)
    monkeypatch.undo()
    assert built == [199]
    [(system, layout)] = solved
    assert system is workspace.system is layout.system and layout is workspace.layout
    copied = EvaluationSystem(system.center.copy(), (system.plus[0].copy(),),
                              (system.minus[0].copy(),), system.rhs.copy())
    assert value.interior().tobytes() == solve_tridiagonal(copied).tobytes()


def test_policy_improve_mixing():
    grid = build_grid(1.0, 0.25, dim=1)
    problem = ControlProblem(
        lam=1.0, drift_base=lambda x: np.zeros_like(x),
        state_cost=lambda x: np.zeros(x.shape[:-1]), a_max=2.0, dim=1,
    )
    # linear field: grad_h is the slope everywhere, so the greedy target
    # is the constant clip(-s)
    s = 0.8
    field = GridField(grid, s * grid.axis_coords())
    prev = PolicyField(grid, np.full(grid.interior_shape + (1,), 0.5), 2.0)

    greedy = policy_improve(problem, field, prev, theta=1.0)
    assert np.max(np.abs(greedy.controls + s)) < 1e-14

    mixed = policy_improve(problem, field, prev, theta=0.18)
    expect = 0.82 * 0.5 + 0.18 * (-s)
    assert np.max(np.abs(mixed.controls - expect)) < 1e-14

    const_field = GridField.full(grid, 3.3)
    flat = policy_improve(problem, const_field, prev, theta=1.0)
    assert np.all(flat.controls == 0.0)


def test_policy_improve_matches_reference_slope_at_fixed_point(lq_paper):
    setup = lq_paper
    report = run_policy_iteration(
        setup.problem, setup.grid, setup.params,
        PIConfig(max_outer_iterations=100, outer_tolerance=1e-12),
        boundary=setup.boundary, reference=setup.reference,
    )
    improved = policy_improve(setup.problem, report.final_value, report.final_policy, theta=1.0)
    coords = setup.grid.interior_coordinates()
    expect = -lq_value_coefficient(1.0) * coords
    gap = np.abs(improved.controls - expect)
    # the truncation boundary distorts the discrete slope in a layer near
    # x = +-3; away from it the greedy control tracks the continuum slope
    core = (np.abs(coords) <= 2.0)
    assert np.max(gap[core]) <= 0.05
    assert np.max(gap) <= 1.0


def test_run_trivial_problem_converges_immediately():
    problem = ControlProblem(
        lam=1.0, drift_base=lambda x: np.zeros_like(x),
        state_cost=lambda x: np.zeros(x.shape[:-1]), a_max=1.0, dim=1,
    )
    grid = build_grid(1.0, 0.25, dim=1)
    params = SchemeParams(viscosity=1.0, h=0.25, dim=1, lam=1.0)
    report = run_policy_iteration(
        problem, grid, params,
        PIConfig(max_outer_iterations=5, outer_tolerance=1e-12),
        boundary=GridField.zeros(grid),
    )
    assert report.iterations_run <= 2
    assert np.max(np.abs(report.final_value.values)) == 0.0
    assert "tolerance" in report.stop_reason


def test_greedy_monotone_decrease_and_uniform_bound(lq_coarse):
    setup = lq_coarse
    increase, norm = greedy_run_extremes(setup, 25)
    assert increase <= 10 * 1e-10
    coords = setup.grid.node_coordinates()
    cost_sup = float(np.max(setup.problem.state_cost(coords))) + 0.5 * 36.0
    bound = max(cost_sup / setup.problem.lam, float(np.max(np.abs(setup.boundary.values))))
    assert norm <= bound + 1e-9


def test_geometric_envelope_with_solver_slack(lq_coarse):
    setup = lq_coarse
    fixed = run_policy_iteration(
        setup.problem, setup.grid, setup.params,
        PIConfig(max_outer_iterations=200, outer_tolerance=1e-12),
        boundary=setup.boundary,
    )
    envelope = run_policy_iteration(
        setup.problem, setup.grid, setup.params,
        PIConfig(max_outer_iterations=25),
        boundary=setup.boundary, reference=fixed.final_value,
    )
    beta = setup.params.contraction_factor
    errors = envelope.linf_error_to_reference
    for n, err in enumerate(errors):
        assert err <= beta**n * errors[0] + 10 * 1e-10


def test_policy_convergence_bound(lq_coarse):
    """|a_{n+1} - a^h| <= (d/h) |V_n - V^h| with the 1-Lipschitz clip map."""
    setup = lq_coarse
    fixed = run_policy_iteration(
        setup.problem, setup.grid, setup.params,
        PIConfig(max_outer_iterations=200, outer_tolerance=1e-12),
        boundary=setup.boundary,
    )
    v_h = fixed.final_value
    a_h = policy_improve(setup.problem, v_h, fixed.final_policy, theta=1.0)
    policy = initial_policy("zero", setup.grid, setup.problem)
    slack = setup.grid.dim / setup.grid.h
    gp = GridProblem(setup.problem, setup.grid, setup.params)
    for _ in range(10):
        value, _ = policy_evaluate(EvaluationWorkspace(gp, setup.boundary), policy)
        improved = policy_improve(setup.problem, value, policy, theta=1.0)
        value_gap = np.max(np.abs(value.values - v_h.values))
        policy_gap = np.max(np.abs(improved.controls - a_h.controls))
        assert policy_gap <= slack * value_gap + 1e-12
        policy = improved


def test_fixed_point_certificate(lq_coarse):
    setup = lq_coarse
    report = run_policy_iteration(
        setup.problem, setup.grid, setup.params,
        PIConfig(max_outer_iterations=200, outer_tolerance=1e-12),
        boundary=setup.boundary,
    )
    residual = bellman_residual(setup.problem, setup.params, report.final_value)
    bound = setup.params.center_weight * 1e-12 + 10 * 1e-10
    assert np.max(np.abs(residual.values)) <= bound


def test_problem_is_sampled_once_per_run():
    """The run calls state_cost and drift_base as often for 8 iterations as
    for 3: the problem is sampled onto the grid once, not per iteration."""

    def counting_problem(dim, calls):
        def state_cost(x):
            calls["state_cost"] += 1
            return 0.5 * np.sum(x * x, axis=-1)

        def drift_base(x):
            calls["drift_base"] += 1
            return 0.2 * np.sin(x)

        return ControlProblem(lam=1.0, drift_base=drift_base, state_cost=state_cost,
                              a_max=1.0, dim=dim)

    for dim in (1, 2):
        grid = build_grid(1.0, 0.25, dim=dim)
        params = SchemeParams(viscosity=1.0, h=0.25, dim=dim, lam=1.0)
        counts = []
        for iterations in (3, 8):
            calls = {"state_cost": 0, "drift_base": 0}
            report = run_policy_iteration(
                counting_problem(dim, calls), grid, params,
                PIConfig(max_outer_iterations=iterations), boundary=GridField.zeros(grid),
            )
            assert report.iterations_run == iterations
            counts.append(calls)
        assert counts[0] == counts[1], (dim, counts)
        assert min(counts[0].values()) >= 1


def test_scheme_rejects_a_problem_with_another_lam(lq_coarse):
    """The scheme's rate is params.lam; a problem with another rate is an
    error, not silently solved at params.lam."""
    setup = lq_coarse
    other = lq1d_problem(lam=2.0, a_max=setup.problem.a_max)
    policy = initial_policy("zero", setup.grid, other)
    calls = [
        lambda: bellman_residual(other, setup.params, setup.reference),
        lambda: run_policy_iteration(other, setup.grid, setup.params,
                                     PIConfig(max_outer_iterations=2), boundary=setup.boundary),
        lambda: resolvent_map(other, setup.params, setup.reference),
        lambda: bellman_residual(other, setup.params, setup.reference, policy),
        lambda: certify_monotone_stencil(other, setup.grid, setup.params, n_controls=10),
        lambda: GridProblem(other, setup.grid, setup.params),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="lam"):
            call()


def test_report_bookkeeping(lq_coarse):
    setup = lq_coarse
    report = run_policy_iteration(
        setup.problem, setup.grid, setup.params,
        PIConfig(max_outer_iterations=4, snapshot_iterations=(0, 2)),
        boundary=setup.boundary,
    )
    assert report.iterations_run == 4
    assert math.isnan(report.residual_l2[0]) and math.isnan(report.monotonicity_violation[0])
    assert all(math.isnan(e) for e in report.linf_error_to_reference)  # no reference
    assert set(report.value_snapshots) == {0, 2}
    assert "budget" in report.stop_reason
    # the final value is the evaluation of the final policy
    gp = GridProblem(setup.problem, setup.grid, setup.params)
    value, _ = policy_evaluate(EvaluationWorkspace(gp, setup.boundary), report.final_policy)
    assert np.max(np.abs(value.values - report.final_value.values)) == 0.0


def test_relaxed_mode_records_without_asserting(man_coarse):
    setup = man_coarse
    report = run_policy_iteration(
        setup.problem, setup.grid, setup.params,
        PIConfig(max_outer_iterations=6, relaxation_theta=0.18,
                 initial_policy_spec="adversarial2d"),
        boundary=setup.boundary, reference=setup.reference,
    )
    assert len(report.monotonicity_violation) == 6
    assert all(np.isfinite(report.monotonicity_violation[1:]))
    assert report.linf_error_to_reference[-1] < report.linf_error_to_reference[0]


def _manufactured_run(setup, theta, iterations, snapshots=()):
    return run_policy_iteration(
        setup.problem, setup.grid, setup.params,
        PIConfig(max_outer_iterations=iterations, relaxation_theta=theta,
                 initial_policy_spec="adversarial2d", snapshot_iterations=snapshots),
        boundary=setup.boundary, reference=setup.reference,
    )


def _max_abs(a):
    return float(np.maximum.reduce(np.abs(a), None))


def test_relaxed_run_ties_inner_tolerance_to_outer_step():
    """theta < 1: with S the boundary data and a zero interior, evaluation 0
    runs to max(solver_tol, 0.01 * theta * max|S|), evaluation 1 to
    max(solver_tol, 0.01 * theta * max|V_0 - S|), evaluation n >= 2 to
    max(solver_tol, 0.01 * max|V_{n-1} - V_{n-2}|), and a converging run
    ends back at solver_tol."""
    setup = build_benchmark("manufactured2d", h=0.1)
    report = _manufactured_run(setup, 0.18, 60, snapshots=tuple(range(60)))
    floor = PIConfig.solver_tol
    tols = [s.tol for s in report.solve_stats]
    v = report.value_snapshots
    start = np.where(setup.grid.boundary_mask(), setup.boundary.values, 0.0)
    assert len(tols) == 60
    assert tols[0] == max(floor, 0.01 * (0.18 * _max_abs(start)))
    assert tols[1] == max(floor, 0.01 * (0.18 * _max_abs(v[0] - start)))
    assert min(tols[:2]) > 1e3 * floor  # the schedule starts at evaluation 0
    for n in range(2, 60):
        step = _max_abs(v[n - 1] - v[n - 2])
        assert tols[n] == max(floor, 0.01 * step), n
    assert max(tols) > 1e3 * floor  # the schedule is active early on
    assert tols[-5:] == [floor] * 5


def test_relaxed_run_saves_the_first_evaluations_sweeps_at_the_same_accuracy():
    """run2d settings at h = 0.1, lam = 1: inexact from evaluation 0, the
    first two evaluations take at most 35 and 20 sweeps (76 and 64 when both
    ran to solver_tol), the run at most 340 (410), and the final certified
    error stays within 0.1% of the 1.10475e-9 of those exact first solves."""
    setup = build_benchmark("manufactured2d", lam=1.0, h=0.1)
    report = _manufactured_run(setup, 0.18, 60)
    sweeps = [s.iterations for s in report.solve_stats]
    assert sweeps[0] <= 35 and sweeps[1] <= 20, sweeps[:2]
    assert sum(sweeps) <= 340
    residual = bellman_residual(setup.problem, setup.params, report.final_value)
    assert _max_abs(residual.values) <= 1.1058e-9


def test_greedy_run_keeps_exact_inner_tolerance():
    """theta = 1 evaluates every policy to solver_tol: the pointwise decrease
    of greedy iterates needs exact evaluation."""
    setup = build_benchmark("manufactured2d", h=0.1)
    report = _manufactured_run(setup, 1.0, 12)
    assert [s.tol for s in report.solve_stats] == [PIConfig.solver_tol] * 12


def test_relaxed_run_keeps_certified_accuracy():
    """At both ends of lam in [0.8, 1.25], h = 0.1 (lam = 0.8 has the largest
    certified error over that range), the inexact run with predicted warm
    starts still ends with certified error ||F_h[V]||/lam <= 2e-9, and the
    bound holds against the discrete-exact reference."""
    for lam in (0.8, 1.25):
        setup = build_benchmark("manufactured2d", lam=lam, h=0.1)
        report = _manufactured_run(setup, 0.18, 60)
        residual = bellman_residual(setup.problem, setup.params, report.final_value)
        certified = float(np.max(np.abs(residual.values))) / lam
        assert certified <= 2e-9, lam
        assert report.linf_error_to_reference[-1] <= certified, lam


@pytest.mark.parametrize(
    "name, theta, iterations",
    [("manufactured2d", 0.18, 60), ("manufactured2d", 1.0, 12), ("lq1d", 0.5, 20)],
)
def test_certified_bound_covers_the_true_error_at_every_iterate(name, theta, iterations):
    """||F_h[V_n]||/lam >= ||V_n - V^h|| at every iterate, with no slack.
    V^h is the discrete-exact reference of manufactured2d (h = 0.1), and
    for lq1d (h = 0.03) the final value of a greedy run of 50 iterations."""
    setup = build_benchmark(name, h=0.1 if name == "manufactured2d" else 0.03)
    grid, params = setup.grid, setup.params

    def run(config):
        return run_policy_iteration(setup.problem, grid, params, config, boundary=setup.boundary)

    def certified(values):
        residual = bellman_residual(setup.problem, params, GridField(grid, values))
        return float(np.max(np.abs(residual.values))) / params.lam

    exact = setup.reference.values
    if name == "lq1d":
        exact = run(PIConfig(max_outer_iterations=50)).final_value.values
        assert certified(exact) <= 1e-11
    spec = BENCHMARK_DEFAULTS[name]["initial_policy"]
    report = run(PIConfig(max_outer_iterations=iterations, relaxation_theta=theta,
                          initial_policy_spec=spec, snapshot_iterations=tuple(range(iterations))))
    assert len(report.value_snapshots) == iterations
    for n, values in report.value_snapshots.items():
        assert float(np.max(np.abs(values - exact))) <= certified(values), n


@pytest.mark.parametrize("theta, iterations", [(0.18, 60), (1.0, 12)])
def test_step_norms_match_the_snapshots(theta, iterations):
    """residual_l2[n] and monotonicity_violation[n] are the error_metrics
    L2 norm and the max of V_n - V_{n-1}, recomputed from the snapshots bit
    for bit."""
    setup = build_benchmark("manufactured2d", h=0.1)
    report = _manufactured_run(setup, theta, iterations, snapshots=tuple(range(iterations)))
    v = {n: GridField(setup.grid, values) for n, values in report.value_snapshots.items()}
    assert math.isnan(report.residual_l2[0]) and math.isnan(report.monotonicity_violation[0])
    for n in range(1, iterations):
        assert report.residual_l2[n] == error_metrics(v[n], v[n - 1])[1], n
        assert report.monotonicity_violation[n] == float(np.max(v[n].values - v[n - 1].values)), n


def _float_bits(values) -> list[str]:
    return [float(x).hex() for x in values]


def _lq1d_run(setup, iterations, theta=1.0, tolerance=None, reference=None, snapshots=()):
    config = PIConfig(max_outer_iterations=iterations, relaxation_theta=theta,
                      outer_tolerance=tolerance, snapshot_iterations=snapshots)
    return run_policy_iteration(setup.problem, setup.grid, setup.params, config,
                                boundary=setup.boundary, reference=reference)


NORM_LISTS = ("linf_error_to_reference", "l2_error_to_reference", "residual_l2",
              "monotonicity_violation")


@pytest.mark.parametrize("with_reference", [True, False])
@pytest.mark.parametrize("tolerance", [None, 1e-12])
@pytest.mark.parametrize("theta", [1.0, 0.5])
@pytest.mark.parametrize(
    "iterations",
    [1, howard.NORM_BLOCK - 1, howard.NORM_BLOCK, howard.NORM_BLOCK + 1, 50],
)
def test_1d_block_norms_match_the_per_iterate_helpers(iterations, theta, tolerance,
                                                      with_reference):
    """A 1D run forms its trajectory norms once per block of iterates; each
    of the four lists equals, bit for bit, error_metrics and
    difference_norms applied to every iterate's snapshot, across block
    boundaries, at an outer-tolerance stop and without a reference.  The
    run stops at the first step whose max-norm is at most the tolerance."""
    setup = build_benchmark("lq1d", h=0.2)
    report = _lq1d_run(setup, iterations, theta, tolerance,
                       setup.reference if with_reference else None,
                       snapshots=tuple(range(iterations)))
    runs = report.iterations_run
    assert runs == len(report.value_snapshots) == len(report.linf_norm)
    values = [report.value_snapshots[n] for n in range(runs)]
    assert values[-1].tobytes() == report.final_value.values.tobytes()
    steps = [v - u for u, v in zip(values, values[1:])]
    errors = [error_metrics(GridField(setup.grid, v), setup.reference) if with_reference
              else (math.nan, math.nan) for v in values]
    step_norms = [difference_norms(step, setup.grid) for step in steps]
    expected = (
        [linf for linf, _ in errors],
        [l2 for _, l2 in errors],
        [math.nan] + [l2 for _, l2 in step_norms],
        [math.nan] + [float(np.maximum.reduce(step, None)) for step in steps],
    )
    for name, want in zip(NORM_LISTS, expected):
        assert _float_bits(getattr(report, name)) == _float_bits(want), name
    stops = [linf <= tolerance for linf, _ in step_norms] if tolerance is not None else []
    if True in stops:
        assert stops.index(True) == runs - 2
        assert report.stop_reason.endswith(f"reached at iteration {runs - 1}")
    else:
        assert runs == iterations
        assert report.stop_reason.startswith("completed the budget")


def test_1d_run_memory_does_not_grow_with_the_budget():
    """A 1D run keeps a bounded block of iterates for its norms, not a
    buffer sized by its budget: with a budget of 10**9 iterations and an
    outer tolerance, lq1d stops with the same report as with a budget of
    200."""
    setup = build_benchmark("lq1d", h=0.2)
    huge = _lq1d_run(setup, 10**9, tolerance=1e-12, reference=setup.reference)
    small = _lq1d_run(setup, 200, tolerance=1e-12, reference=setup.reference)
    assert small.stop_reason.startswith("outer tolerance")
    assert huge.stop_reason == small.stop_reason
    for name in NORM_LISTS + ("linf_norm",):
        assert _float_bits(getattr(huge, name)) == _float_bits(getattr(small, name)), name
    assert huge.solve_stats == small.solve_stats
    assert huge.final_value.values.tobytes() == small.final_value.values.tobytes()
    assert huge.final_policy.controls.tobytes() == small.final_policy.controls.tobytes()


def _recorded_run(monkeypatch, theta, iterations):
    """A manufactured2d run at h = 0.1 that keeps every value field and the
    warm start handed to each evaluation."""
    evaluate = howard.policy_evaluate
    starts = []

    def recording(*args, initial=None, **kwargs):
        starts.append(initial.values.copy())
        return evaluate(*args, initial=initial, **kwargs)

    monkeypatch.setattr(howard, "policy_evaluate", recording)
    setup = build_benchmark("manufactured2d", h=0.1)
    report = _manufactured_run(setup, theta, iterations, snapshots=tuple(range(iterations)))
    assert len(starts) == iterations
    return report, starts


def _expected_ratios(report):
    """Evaluation n >= 3 with an inner tolerance above the floor starts from
    a prediction with r = step_{n-1} / step_{n-2} when 0 < step_{n-1} <
    step_{n-2}, where step_k = max|V_k - V_{k-1}|; every other evaluation
    has r = 0."""
    v = report.value_snapshots
    step = [math.nan] + [float(np.max(np.abs(v[k] - v[k - 1]))) for k in range(1, len(v))]
    expected = []
    for n, tol in enumerate(s.tol for s in report.solve_stats):
        predicted = n >= 3 and tol > PIConfig.solver_tol and 0.0 < step[n - 1] < step[n - 2]
        expected.append(step[n - 1] / step[n - 2] if predicted else 0.0)
    return expected


def test_relaxed_run_predicts_warm_starts(monkeypatch):
    """theta < 1: an inexact evaluation starts from V_n + r (V_n - V_{n-1})
    with r the ratio of the last two outer steps, bit for bit; evaluations
    at the solver_tol floor start from V_n."""
    report, starts = _recorded_run(monkeypatch, 0.18, 60)
    ratios = _expected_ratios(report)
    floor = PIConfig.solver_tol
    assert all(r == 0.0 for r, s in zip(ratios, report.solve_stats) if s.tol == floor)
    assert sum(r > 0.0 for r in ratios) >= 10  # the prediction is active
    assert all(0.0 <= r < 1.0 for r in ratios)
    v = report.value_snapshots
    assert starts[0].tobytes() == np.where(
        report.final_value.grid.boundary_mask(), v[0], 0.0).tobytes()
    for n in range(1, 60):
        r = ratios[n]
        expect = v[n - 1] + r * (v[n - 1] - v[n - 2]) if r > 0.0 else v[n - 1]
        assert starts[n].tobytes() == expect.tobytes(), n


def test_greedy_run_keeps_plain_warm_starts(monkeypatch):
    """theta = 1: every evaluation starts from the previous value field;
    greedy steps are not geometric, so no prediction is made."""
    report, starts = _recorded_run(monkeypatch, 1.0, 12)
    assert _expected_ratios(report) == [0.0] * 12
    v = report.value_snapshots
    for n in range(1, 12):
        assert starts[n].tobytes() == v[n - 1].tobytes(), n


def test_predicted_warm_starts_cut_sweeps():
    """The relaxed run2d settings at h = 0.1, lam = 1 take at most 0.6x the
    661 sweeps they take with plain warm starts (316 with the prediction)."""
    setup = build_benchmark("manufactured2d", h=0.1)
    report = _manufactured_run(setup, 0.18, 60)
    assert sum(s.iterations for s in report.solve_stats) <= 396


def test_solver_failure_aborts_run(man_coarse):
    setup = man_coarse
    with pytest.raises(SolverError, match=r"after 1 sweeps \(tolerance 1\.000e-14\)"):
        run_policy_iteration(
            setup.problem, setup.grid, setup.params,
            PIConfig(max_outer_iterations=3, solver_max_iter=1, solver_tol=1e-14),
            boundary=setup.boundary,
        )


def test_pi_config_validation():
    with pytest.raises(ValueError):
        PIConfig(max_outer_iterations=0)
    with pytest.raises(ValueError):
        PIConfig(max_outer_iterations=5, relaxation_theta=0.0)
    with pytest.raises(ValueError):
        PIConfig(max_outer_iterations=5, relaxation_theta=1.2)
    rejected = [
        ("solver_tol", math.nan), ("solver_tol", math.inf), ("solver_tol", 0.0),
        ("solver_tol", -1e-10), ("omega", 0.0), ("omega", 2.0), ("omega", -0.5),
        ("omega", math.nan), ("solver_max_iter", 0), ("solver_max_iter", -3),
        ("solver_max_iter", 2.5), ("solver_max_iter", True), ("max_outer_iterations", 2.5),
        ("max_outer_iterations", True), ("max_outer_iterations", "5"),
        ("outer_tolerance", math.inf), ("outer_tolerance", math.nan), ("outer_tolerance", 0.0),
    ]
    for name, value in rejected:
        with pytest.raises(ValueError, match=name):
            PIConfig(**{"max_outer_iterations": 5, name: value})
    PIConfig(max_outer_iterations=5, solver_tol=1e-300, omega=1.999, solver_max_iter=1)
    PIConfig(max_outer_iterations=np.int64(5), solver_max_iter=np.int64(1))


def test_pi_config_refuses_snapshot_indices_that_never_match(lq_coarse):
    # an int, a negative index, a float and a string never equal an
    # iteration index; the int would otherwise fail only inside the run
    for snapshots in (3, (-1,), (1.5,), ("a",)):
        with pytest.raises(ValueError, match="snapshot_iterations"):
            PIConfig(max_outer_iterations=4, snapshot_iterations=snapshots)
    # indices at or beyond the budget stay allowed: greedy2d's benchmark
    # settings ask for 15 and 30 in a 12-iteration run
    setup = lq_coarse
    report = run_policy_iteration(
        setup.problem, setup.grid, setup.params,
        PIConfig(max_outer_iterations=12, snapshot_iterations=(0, 5, 15, 30)),
        boundary=setup.boundary,
    )
    assert report.iterations_run == 12 and sorted(report.value_snapshots) == [0, 5]


def _allocating_run(setup, theta, iterations, spec):
    """run_policy_iteration rebuilt from the allocating calls: every
    iteration assembles a new system, solves it without a solver layout and
    improves into new arrays.  Returns the evaluated policies, the value
    fields and the sweep counts."""
    grid, problem = setup.grid, setup.problem
    gp = GridProblem(problem, grid, setup.params)
    boundary = GridField(grid, np.where(grid.boundary_mask(), setup.boundary.values, 0.0))
    policy = initial_policy(spec, grid, problem)
    policies, values, sweeps = [], [], []
    warm, prev, prev_update, tol = boundary, None, math.inf, PIConfig.solver_tol
    if theta < 1.0:
        tol = max(tol, howard.INEXACT_TOL_FACTOR * (theta * float(np.abs(boundary.values).max())))
    for n in range(iterations):
        system = assemble_evaluation_system(EvaluationWorkspace(gp, boundary), policy)
        v = boundary.values.copy()
        if grid.dim == 1:
            solve_tridiagonal(system, out=v[1:-1])
            sweeps.append(1)
        else:
            _, stats = solve_sor(system, omega=PIConfig.omega, tol=tol,
                                 max_iter=PIConfig.solver_max_iter, initial=warm.interior(),
                                 out=v[1:-1, 1:-1])
            sweeps.append(stats.iterations)
        value = GridField(grid, v)
        policies.append(policy.controls)
        values.append(value.values)
        update = math.inf if prev is None else float(np.abs(value.values - prev.values).max())
        if n + 1 < iterations:
            policy = policy_improve(problem, value, policy, theta)
        if theta < 1.0:
            size = update if prev is not None else theta * float(
                np.abs(value.values - boundary.values).max())
            tol = max(PIConfig.solver_tol, howard.INEXACT_TOL_FACTOR * size)
        warm = value
        if grid.dim > 1 and tol > PIConfig.solver_tol and 0.0 < update < prev_update < math.inf:
            warm = GridField(grid, value.values + update / prev_update * (value.values - prev.values))
        prev, prev_update = value, update
    return policies, values, sweeps


def _recording_run(monkeypatch, setup, theta, iterations, spec, snapshots=()):
    """A run of run_policy_iteration that records, at each call, the policy
    handed to policy_evaluate with a copy of its controls, and the previous
    policy handed to policy_improve with a copy of its controls."""
    evaluate, improve = howard.policy_evaluate, howard.policy_improve
    evaluated, improved = [], []

    def recording_evaluate(workspace, policy, *args, **kwargs):
        evaluated.append((policy, policy.controls.copy()))
        return evaluate(workspace, policy, *args, **kwargs)

    def recording_improve(problem, value, prev_policy, *args, **kwargs):
        improved.append((prev_policy, prev_policy.controls.copy()))
        return improve(problem, value, prev_policy, *args, **kwargs)

    monkeypatch.setattr(howard, "policy_evaluate", recording_evaluate)
    monkeypatch.setattr(howard, "policy_improve", recording_improve)
    report = run_policy_iteration(
        setup.problem, setup.grid, setup.params,
        PIConfig(max_outer_iterations=iterations, relaxation_theta=theta,
                 initial_policy_spec=spec, snapshot_iterations=snapshots),
        boundary=setup.boundary,
    )
    monkeypatch.undo()
    return report, evaluated, improved


WORKSPACE_RUNS = [
    ("lq1d", {}, 1.0, 20, "zero"),
    ("lq1d", {}, 0.5, 20, "zero"),
    ("manufactured2d", {"h": 0.1}, 0.18, 60, "adversarial2d"),
    ("manufactured2d", {"h": 0.1}, 1.0, 12, "adversarial2d"),
    ("lq1d", {"h": 0.3}, 1.0, 20, "zero"),  # 19 unknowns: no reduction level
    ("lq1d", {"half_width": 3.005, "h": 0.01}, 0.5, 20, "zero"),  # 600: four levels, even
]


@pytest.mark.parametrize("name, kwargs, theta, iterations, spec", WORKSPACE_RUNS)
def test_workspace_run_matches_the_allocating_calls(monkeypatch, name, kwargs, theta,
                                                    iterations, spec):
    """A run writes assembly and improvement into per-run buffers and solves
    in one solver layout; rebuilt from the allocating calls, it gives the
    same policies, value fields and sweep counts, bit for bit.  Both sides
    run in this process, so the comparison does not depend on the CPU."""
    setup = build_benchmark(name, **kwargs)
    report, evaluated, _ = _recording_run(monkeypatch, setup, theta, iterations, spec,
                                          snapshots=tuple(range(iterations)))
    policies, values, sweeps = _allocating_run(setup, theta, iterations, spec)
    assert report.iterations_run == iterations
    assert [s.iterations for s in report.solve_stats] == sweeps
    for n in range(iterations):
        assert evaluated[n][1].tobytes() == policies[n].tobytes(), n
        assert report.value_snapshots[n].tobytes() == values[n].tobytes(), n
    assert report.final_policy.controls.tobytes() == policies[-1].tobytes()
    assert report.final_value.values.tobytes() == values[-1].tobytes()


@pytest.mark.parametrize("theta", [1.0, 0.5])
def test_buffer_reuse_keeps_what_the_report_holds(monkeypatch, theta):
    """No per-run buffer is part of a result: a snapshot equals the final
    value of a run that ends there and cannot be written through,
    evaluating the final policy gives back the final value, and every
    policy keeps the controls it was evaluated with, so a relaxed mix
    starts from the policy that was evaluated."""
    setup = build_benchmark("lq1d")
    report, evaluated, improved = _recording_run(monkeypatch, setup, theta, 12, "zero",
                                                 snapshots=(5,))
    short = run_policy_iteration(
        setup.problem, setup.grid, setup.params,
        PIConfig(max_outer_iterations=6, relaxation_theta=theta), boundary=setup.boundary,
    )
    assert report.value_snapshots[5].tobytes() == short.final_value.values.tobytes()
    with pytest.raises(ValueError, match="read-only"):
        report.value_snapshots[5][0] = 1.0
    gp = GridProblem(setup.problem, setup.grid, setup.params)
    value, _ = policy_evaluate(EvaluationWorkspace(gp, setup.boundary), report.final_policy)
    assert value.values.tobytes() == report.final_value.values.tobytes()
    assert len(evaluated) == 12 and len(improved) == 11
    for n, (policy, controls) in enumerate(evaluated):
        assert policy.controls.tobytes() == controls.tobytes(), n
    # improvement n mixes from the policy of evaluation n, unchanged since
    for n, (prev_policy, controls) in enumerate(improved):
        assert prev_policy is evaluated[n][0], n
        assert controls.tobytes() == evaluated[n][1].tobytes(), n
    assert report.final_policy is evaluated[-1][0]


@pytest.mark.parametrize("name, kwargs, theta", [
    ("lq1d", {"h": 0.01}, 1.0),
    ("manufactured2d", {"h": 0.1}, 0.18),
])
def test_run_reaches_numpy_kernels_without_python_wrappers(name, kwargs, theta):
    """While run_policy_iteration is on the stack, no numpy function from
    fromnumeric.py runs, nor one from _methods.py other than _clip (which
    ndarray.clip calls) and its helpers, nor the copyto dispatcher of
    multiarray.py from outside numpy: every reduction and clip of a run
    calls its ufunc directly, and every copy is a slice assignment.  Files
    are matched by name, which numpy 1.x and 2.x share.  In multiarray.py
    only copyto is, because the run's setup calls the np.where dispatcher
    there, and numpy's own np.full and np.ones call copyto."""
    setup = build_benchmark(name, **kwargs)
    config = PIConfig(max_outer_iterations=5, relaxation_theta=theta,
                      initial_policy_spec=BENCHMARK_DEFAULTS[name]["initial_policy"])
    run_code, wrappers = howard.run_policy_iteration.__code__, []
    numpy_dir = os.path.dirname(np.__file__)

    def profile(frame, event, arg):
        base = os.path.basename(frame.f_code.co_filename)
        copy = ((base, frame.f_code.co_name) == ("multiarray.py", "copyto")
                and not frame.f_back.f_code.co_filename.startswith(numpy_dir + os.sep))
        if event != "call" or not (base in ("fromnumeric.py", "_methods.py") or copy):
            return
        caller = frame
        while caller is not None and caller.f_code is not run_code:
            if (caller.f_code.co_name == "_clip"
                    and os.path.basename(caller.f_code.co_filename) == "_methods.py"):
                return
            caller = caller.f_back
        if caller is not None:
            wrappers.append(f"{base}:{frame.f_code.co_name}")

    sys.setprofile(profile)
    try:
        report = run_policy_iteration(setup.problem, setup.grid, setup.params, config,
                                      boundary=setup.boundary, reference=setup.reference)
    finally:
        sys.setprofile(None)
    assert report.iterations_run == 5
    assert wrappers == []
