import math

import numpy as np
import pytest

from hjb_pi import (
    ControlProblem,
    GridField,
    GridProblem,
    PIConfig,
    PolicyField,
    SchemeParams,
    SolverError,
    bellman_residual,
    build_benchmark,
    build_grid,
    certify_monotone_stencil,
    initial_policy,
    lq_reference_policy,
    policy_evaluate,
    policy_improve,
    resolvent_map,
    run_policy_iteration,
)
from hjb_pi.checks import greedy_run_extremes
from hjb_pi.grid import interior_gradient
from hjb_pi.problems import lq1d_problem


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
        GridProblem(problem, grid, params), policy, GridField.zeros(grid)
    )
    assert np.max(np.abs(value.values)) == 0.0
    assert stats.converged


def test_policy_evaluate_frozen_optimal_policy(lq_paper):
    """Evaluating a* = -Px with exact boundary lands within O(h) of V."""
    setup = lq_paper
    controls = lq_reference_policy(
        1.0, setup.grid.interior_coordinates(), a_max=setup.problem.a_max
    )
    policy = PolicyField(setup.grid, controls, setup.problem.a_max)
    gp = GridProblem(setup.problem, setup.grid, setup.params)
    value, _ = policy_evaluate(gp, policy, setup.boundary)
    gap = np.max(np.abs(value.values - setup.reference.values))
    assert gap <= 0.1

    residual = bellman_residual(setup.problem, setup.params, value, policy)
    assert np.max(np.abs(residual.values)) <= 1e-9  # direct-solve certificate


def test_policy_evaluate_sor_residual_certificate(man_paper):
    """SOR stops on the update norm; the operator residual is bounded by the
    center weight times that update, not by 10x the tolerance."""
    setup = man_paper
    policy = initial_policy("adversarial2d", setup.grid, setup.problem)
    gp = GridProblem(setup.problem, setup.grid, setup.params)
    value, stats = policy_evaluate(gp, policy, setup.boundary)
    assert stats.converged
    residual = bellman_residual(setup.problem, setup.params, value, policy)
    bound = setup.params.center_weight * 1e-10
    assert np.max(np.abs(residual.values)) <= bound


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
    expect = lq_reference_policy(1.0, coords, a_max=6.0)
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
        value, _ = policy_evaluate(gp, policy, setup.boundary)
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
    other = lq1d_problem(lam=2.0)
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
    value, _ = policy_evaluate(gp, report.final_policy, setup.boundary)
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


def test_relaxed_run_ties_inner_tolerance_to_outer_step():
    """theta < 1: evaluations 0 and 1 run to solver_tol, evaluation n >= 2 to
    max(solver_tol, 0.01 * max|V_{n-1} - V_{n-2}|), and a converging run
    ends back at solver_tol."""
    setup = build_benchmark("manufactured2d", h=0.1)
    report = _manufactured_run(setup, 0.18, 60, snapshots=tuple(range(60)))
    floor = PIConfig.solver_tol
    tols = report.inner_tolerance
    assert len(tols) == 60 and tols[0] == floor and tols[1] == floor
    v = report.value_snapshots
    for n in range(2, 60):
        step = float(np.max(np.abs(v[n - 1] - v[n - 2])))
        assert tols[n] == max(floor, 0.01 * step), n
    assert max(tols) > 1e3 * floor  # the schedule is active early on
    assert tols[-5:] == [floor] * 5


def test_greedy_run_keeps_exact_inner_tolerance():
    """theta = 1 evaluates every policy to solver_tol: the pointwise decrease
    of greedy iterates needs exact evaluation."""
    setup = build_benchmark("manufactured2d", h=0.1)
    report = _manufactured_run(setup, 1.0, 12)
    assert report.inner_tolerance == [PIConfig.solver_tol] * 12


def test_relaxed_run_keeps_certified_accuracy():
    """At lam = 0.8, h = 0.1, the rate with the largest certified error over
    lam in [0.8, 1.25], the inexact run still ends with certified error
    ||F_h[V]||/lam <= 2e-9, and the bound holds against the discrete-exact
    reference."""
    setup = build_benchmark("manufactured2d", lam=0.8, h=0.1)
    report = _manufactured_run(setup, 0.18, 60)
    residual = bellman_residual(setup.problem, setup.params, report.final_value)
    certified = float(np.max(np.abs(residual.values))) / 0.8
    assert certified <= 2e-9
    assert report.linf_error_to_reference[-1] <= certified


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
    ]
    for name, value in rejected:
        with pytest.raises(ValueError, match=name):
            PIConfig(max_outer_iterations=5, **{name: value})
    PIConfig(max_outer_iterations=5, solver_tol=1e-300, omega=1.999, solver_max_iter=1)
