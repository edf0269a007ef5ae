import math

import numpy as np
import pytest

from hjb_pi import (
    ControlProblem,
    GridField,
    PolicyField,
    SchemeParams,
    bellman_residual,
    build_grid,
    greedy_policy,
    lq1d_problem,
    lq_reference_policy,
    lq_reference_value,
    lq_value_coefficient,
    manufactured_drift,
    manufactured_source,
    manufactured_value,
)
from hjb_pi.checks import greedy_scan_gaps, hamiltonian_scan_gap
from hjb_pi.problems import dynamics, make_grid_lookup, running_cost

from conftest import make_rng


def test_dynamics_examples(man_paper):
    lq = lq1d_problem()
    assert dynamics(lq, np.array([0.7]), np.array([-0.3])) == pytest.approx([-0.3])
    p2 = man_paper.problem
    origin = np.zeros(2)
    assert dynamics(p2, origin, np.zeros(2)) == pytest.approx([0.06, 0.0], abs=1e-15)
    assert dynamics(p2, origin, np.array([1.0, -1.0])) == pytest.approx([1.06, -1.0])


def test_running_cost_examples(man_paper):
    lq = lq1d_problem()
    assert running_cost(lq, np.array([0.0]), np.array([0.0])) == 0.0
    assert running_cost(lq, np.array([1.0]), np.array([2.0])) == pytest.approx(2.5)
    # zero control on the 2D benchmark returns the stored source values
    node = man_paper.grid.coordinate((3, 7))
    q = man_paper.problem.state_cost(node)
    assert running_cost(man_paper.problem, node, np.zeros(2)) == pytest.approx(float(q))


def test_greedy_policy_examples():
    problem = ControlProblem(
        lam=1.0, drift_base=lambda x: np.zeros_like(x),
        state_cost=lambda x: np.zeros(x.shape[:-1]), a_max=2.0, dim=1,
    )
    assert greedy_policy(problem, np.zeros(1), np.zeros(1)) == pytest.approx([0.0])
    assert greedy_policy(problem, np.zeros(1), np.array([0.5])) == pytest.approx([-0.5])
    assert greedy_policy(problem, np.zeros(1), np.array([3.0])) == pytest.approx([-2.0])


def test_hamiltonian_examples():
    """H(x, p) read from F_h[u] = lam*u + H(x, grad_h u) - N*h*lap_h u on
    linear fields u = p*x, where grad_h u = p and lap_h u = 0."""
    problem = ControlProblem(
        lam=1.0, drift_base=lambda x: np.zeros_like(x),
        state_cost=lambda x: 0.5 * np.sum(x * x, axis=-1), a_max=2.0, dim=1,
    )
    grid = build_grid(2.0, 0.5, dim=1)  # nodes -2, -1.5, ..., 2
    params = SchemeParams(viscosity=1.0, h=0.5, dim=1, lam=1.0)
    xs = grid.axis_coords()

    def hamiltonian(node, p):
        u = GridField(grid, p * xs)
        return bellman_residual(problem, params, u).values[node] - p * xs[node]

    assert hamiltonian(4, 1.0) == pytest.approx(0.5)  # x = 0, p = 1
    assert hamiltonian(6, 0.0) == pytest.approx(-0.5)  # x = 1, p = 0
    # p=3 clips the optimizer to -2: H = -(0 + 2) - (-2)*3 = 4
    assert hamiltonian(4, 3.0) == pytest.approx(4.0)


def test_lq_coefficient_and_reference():
    p = lq_value_coefficient(1.0)
    assert p == pytest.approx(0.6180339887498949, abs=1e-15)
    assert p * p + p - 1.0 == pytest.approx(0.0, abs=1e-15)
    assert lq_value_coefficient(2.0) ** 2 + 2.0 * lq_value_coefficient(2.0) - 1.0 == pytest.approx(0.0, abs=1e-14)
    assert lq_reference_value(1.0, 0.0) == 0.0
    assert lq_reference_value(1.0, 1.0) == pytest.approx(0.3090170, abs=1e-7)
    with pytest.raises(ValueError):
        lq_value_coefficient(-1.0)


def test_lq_reference_policy():
    assert lq_reference_policy(1.0, 0.0) == 0.0
    assert lq_reference_policy(1.0, 1.0) == pytest.approx(-0.618034, abs=1e-6)
    # bound inactive at x=3 with a_max=6
    assert lq_reference_policy(1.0, 3.0, a_max=6.0) == pytest.approx(-1.854102, abs=1e-6)
    assert lq_reference_policy(1.0, 3.0, a_max=1.0) == -1.0


def test_manufactured_drift():
    b = manufactured_drift(0.0, 0.0)
    assert b == pytest.approx([0.06, 0.0], abs=1e-15)
    ys = np.linspace(-2, 2, 41)
    b_on_axis = manufactured_drift(np.zeros_like(ys), ys)
    expect = -0.24 * np.sin(ys) - 0.05 * np.sin(0.8 * ys)
    assert np.max(np.abs(b_on_axis[..., 1] - expect)) < 1e-15
    xs, ys = np.meshgrid(np.linspace(-2, 2, 81), np.linspace(-2, 2, 81), indexing="ij")
    b = manufactured_drift(xs, ys)
    assert np.max(np.abs(b[..., 0])) <= 0.48
    assert np.max(np.abs(b[..., 1])) <= 0.41


def test_manufactured_value():
    # at the origin five of the seven terms vanish
    expect = 0.11 * math.sin(0.2) * math.cos(-0.1) + 0.035
    assert manufactured_value(0.0, 0.0) == pytest.approx(expect, abs=1e-15)
    assert manufactured_value(1.0, 0.0) != pytest.approx(manufactured_value(-1.0, 0.0))
    xs, ys = np.meshgrid(np.linspace(-2, 2, 81), np.linspace(-2, 2, 81), indexing="ij")
    assert np.all(np.isfinite(manufactured_value(xs, ys)))


def test_manufactured_source_constant_value():
    """Discrete operators annihilate constants, so q_h = lam * kappa."""
    grid = build_grid(2.0, 0.5, dim=2)
    kappa = 1.7
    src = manufactured_source(
        grid, viscosity=1.3, lam=2.0,
        value_fn=lambda x, y: np.full(np.broadcast(x, y).shape, kappa),
    )
    assert np.max(np.abs(src.interior() - 2.0 * kappa)) < 1e-14


def test_manufactured_source_depends_on_h():
    coarse = manufactured_source(build_grid(2.0, 0.1, dim=2), viscosity=1.3)
    fine = manufactured_source(build_grid(2.0, 0.05, dim=2), viscosity=1.3)
    # node (0, 0) sits at index (20, 20) coarse and (40, 40) fine
    assert coarse.values[20, 20] != fine.values[40, 40]


def test_manufactured_source_rejects_1d():
    with pytest.raises(ValueError):
        manufactured_source(build_grid(2.0, 0.5, dim=1), viscosity=1.0)


def test_grid_lookup_rejects_off_node_points():
    src = manufactured_source(build_grid(2.0, 0.5, dim=2), viscosity=1.0)
    lookup = make_grid_lookup(src)
    assert lookup(np.array([0.5, -1.5])) == src.values[5, 1]
    with pytest.raises(ValueError):
        lookup(np.array([0.26, 0.0]))


def test_policy_field_box_invariant(lq_coarse):
    grid = lq_coarse.grid
    good = np.full(grid.interior_shape + (1,), 5.9)
    PolicyField(grid, good, a_max=6.0)
    bad = good.copy()
    bad[3] = 6.5
    with pytest.raises(ValueError):
        PolicyField(grid, bad, a_max=6.0)


def test_greedy_is_exact_argmin_against_scan():
    """100 random (x, p): the scan minimum matches the closed form to 1e-9."""
    gaps = greedy_scan_gaps(lq1d_problem(), make_rng(202), 100, stages=3)
    assert np.max(np.abs(gaps)) < 1e-9


def test_hamiltonian_matches_negated_scan(man_coarse):
    assert hamiltonian_scan_gap(man_coarse, make_rng(203), 25) < 1e-9


def test_greedy_policy_is_one_lipschitz_in_p():
    rng = make_rng(204)
    problem = lq1d_problem()
    x = np.zeros(1)
    for _ in range(200):
        p1 = rng.uniform(-10, 10, size=(1,))
        p2 = rng.uniform(-10, 10, size=(1,))
        a1 = greedy_policy(problem, x, p1)
        a2 = greedy_policy(problem, x, p2)
        assert np.max(np.abs(a1 - a2)) <= np.max(np.abs(p1 - p2)) + 1e-15


def test_control_problem_validation():
    with pytest.raises(ValueError):
        ControlProblem(lam=0.0, drift_base=lambda x: x, state_cost=lambda x: 0.0,
                       a_max=1.0, dim=1)
    with pytest.raises(ValueError):
        ControlProblem(lam=1.0, drift_base=lambda x: x, state_cost=lambda x: 0.0,
                       a_max=-1.0, dim=1)
