import math
from fractions import Fraction

import numpy as np
import pytest

from hjb_pi import (
    ControlProblem,
    GridField,
    PolicyField,
    SchemeParams,
    bellman_residual,
    build_benchmark,
    build_grid,
    greedy_policy,
    lq_reference_policy,
    lq_reference_value,
    lq_value_coefficient,
    manufactured_drift,
    manufactured_value,
)
from hjb_pi.checks import greedy_scan_gaps, hamiltonian_scan_gap
from hjb_pi.grid import interior_gradient, interior_laplacian
from hjb_pi.problems import make_grid_lookup, policy_cost_and_drift

from conftest import make_rng


def cost_and_drift(problem, x, a):
    """(c(x, a), f(x, a)) at one point x, sampled as GridProblem samples."""
    return policy_cost_and_drift(problem.state_cost(x), problem.drift_base(x), a)


def test_dynamics_examples(lq_paper, man_paper):
    lq = lq_paper.problem
    assert cost_and_drift(lq, np.array([0.7]), np.array([-0.3]))[1] == pytest.approx([-0.3])
    p2 = man_paper.problem
    origin = np.zeros(2)
    assert cost_and_drift(p2, origin, np.zeros(2))[1] == pytest.approx([0.06, 0.0], abs=1e-15)
    _, f = cost_and_drift(p2, origin, np.array([1.0, -1.0]))
    assert f == pytest.approx([1.06, -1.0])
    # a batch of controls against one sampled point
    _, f = cost_and_drift(p2, origin, np.array([[0.0, 0.0], [1.0, -1.0]]))
    assert f == pytest.approx(np.array([[0.06, 0.0], [1.06, -1.0]]))


def test_running_cost_examples(lq_paper, man_paper):
    lq = lq_paper.problem
    assert cost_and_drift(lq, np.array([0.0]), np.array([0.0]))[0] == 0.0
    assert cost_and_drift(lq, np.array([1.0]), np.array([2.0]))[0] == pytest.approx(2.5)
    # zero control on the 2D benchmark returns the stored cost values
    node = man_paper.grid.node_coordinates()[3, 7]
    q = man_paper.problem.state_cost(node)
    assert cost_and_drift(man_paper.problem, node, np.zeros(2))[0] == pytest.approx(float(q))
    c, _ = cost_and_drift(man_paper.problem, node, np.array([[0.0, 0.0], [0.6, -0.8]]))
    assert c == pytest.approx([float(q), float(q) + 0.5])


def test_greedy_policy_examples():
    problem = ControlProblem(
        lam=1.0, drift_base=lambda x: np.zeros_like(x),
        state_cost=lambda x: np.zeros(x.shape[:-1]), a_max=2.0, dim=1,
    )
    assert greedy_policy(problem, np.zeros(1)) == pytest.approx([0.0])
    assert greedy_policy(problem, np.array([0.5])) == pytest.approx([-0.5])
    assert greedy_policy(problem, np.array([3.0])) == pytest.approx([-2.0])


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


def test_lq_coefficient_solves_its_quadratic_at_extreme_rates():
    """P^2 + lam*P - 1, in exact arithmetic at the returned P, is a few
    rounding units of P at most, from lam = 1e-300 to 1e300."""
    eps = np.finfo(float).eps
    for lam in (1e-300, 0.25, 1.0, 4.0, 1e8, 1e160, 1e300):
        p = lq_value_coefficient(lam)
        assert 0.0 < p <= 1.0, lam
        exact = Fraction(p) ** 2 + Fraction(lam) * Fraction(p) - 1
        # d/dP (P^2 + lam*P) * P = P^2 + 1 at the root: one ulp of P moves
        # the residual by about eps * (1 + P^2)
        assert abs(exact) <= 4 * eps * (1 + Fraction(p) ** 2), lam


def test_policy_field_rejects_non_finite_controls(lq_coarse):
    grid = lq_coarse.grid
    for value in (np.nan, np.inf, -np.inf):
        controls = np.zeros(grid.interior_shape + (1,))
        controls[2] = value
        with pytest.raises(ValueError, match="must be finite"):
            PolicyField(grid, controls, a_max=6.0)


def test_policy_field_box_edge(lq_coarse, man_coarse):
    for grid in (lq_coarse.grid, man_coarse.grid):
        shape = grid.interior_shape + (grid.dim,)
        PolicyField(grid, np.full(shape, 6.0), a_max=6.0)
        PolicyField(grid, np.full(shape, -6.0), a_max=6.0)
        for value in (6.0 * (1 + 2e-12), -6.0 * (1 + 2e-12)):
            controls = np.zeros(shape)
            controls.flat[-1] = value
            with pytest.raises(ValueError, match="leave the control box"):
                PolicyField(grid, controls, a_max=6.0)


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


def test_manufactured_cost_matches_closed_form_while_clip_is_inactive():
    """Where the clip is inactive, F_h of the zero-cost problem at V is
    lam*V - b . grad_h V + |grad_h V|^2 / 2 - N*h*lap_h V, the closed form
    of the manufactured cost."""
    setup = build_benchmark("manufactured2d", h=0.1)
    grid, params, ref = setup.grid, setup.params, setup.reference
    assert np.max(np.abs(interior_gradient(ref))) < setup.problem.a_max
    inner = grid.interior_coordinates()
    g = interior_gradient(ref)
    closed = (
        params.lam * ref.interior()
        - np.sum(manufactured_drift(inner[..., 0], inner[..., 1]) * g, axis=-1)
        + 0.5 * np.sum(g * g, axis=-1)
        - params.viscosity * grid.h * interior_laplacian(ref)
    )
    cost = setup.problem.state_cost(inner)
    assert np.max(np.abs(cost - closed)) <= 1e-14 * params.center_weight


def test_manufactured_source_depends_on_h():
    coarse = build_benchmark("manufactured2d", h=0.1).problem
    fine = build_benchmark("manufactured2d", h=0.05).problem
    origin = np.zeros(2)
    assert coarse.state_cost(origin) != fine.state_cost(origin)


def test_grid_lookup_rejects_off_node_points():
    grid = build_grid(2.0, 0.5, dim=2)
    coords = grid.node_coordinates()
    source = GridField(grid, coords[..., 0] + 10.0 * coords[..., 1])
    lookup = make_grid_lookup(source)
    assert lookup(np.array([0.5, -1.5])) == source.values[5, 1] == -14.5
    with pytest.raises(ValueError):
        lookup(np.array([0.26, 0.0]))
    with pytest.raises(ValueError):
        lookup(np.array([2.5, 0.0]))


def test_policy_field_box_invariant(lq_coarse):
    grid = lq_coarse.grid
    good = np.full(grid.interior_shape + (1,), 5.9)
    PolicyField(grid, good, a_max=6.0)
    bad = good.copy()
    bad[3] = 6.5
    with pytest.raises(ValueError):
        PolicyField(grid, bad, a_max=6.0)


def test_greedy_is_exact_argmin_against_scan(lq_paper):
    """100 random (x, p): the scan minimum matches the closed form to 1e-9."""
    gaps = greedy_scan_gaps(lq_paper.problem, make_rng(202), 100, stages=3)
    assert np.max(np.abs(gaps)) < 1e-9


def test_hamiltonian_matches_negated_scan(man_coarse):
    assert hamiltonian_scan_gap(man_coarse, make_rng(203), 25) < 1e-9


def test_greedy_policy_is_one_lipschitz_in_p(lq_paper):
    rng = make_rng(204)
    problem = lq_paper.problem
    for _ in range(200):
        p1 = rng.uniform(-10, 10, size=(1,))
        p2 = rng.uniform(-10, 10, size=(1,))
        a1 = greedy_policy(problem, p1)
        a2 = greedy_policy(problem, p2)
        assert np.max(np.abs(a1 - a2)) <= np.max(np.abs(p1 - p2)) + 1e-15


def test_control_problem_validation():
    with pytest.raises(ValueError):
        ControlProblem(lam=0.0, drift_base=lambda x: x, state_cost=lambda x: 0.0,
                       a_max=1.0, dim=1)
    with pytest.raises(ValueError):
        ControlProblem(lam=1.0, drift_base=lambda x: x, state_cost=lambda x: 0.0,
                       a_max=-1.0, dim=1)
