import numpy as np
import pytest

from hjb_pi import (
    ControlProblem,
    GridField,
    MonotonicityError,
    PolicyField,
    SchemeParams,
    bellman_residual,
    build_grid,
    certify_monotone_stencil,
    resolvent_map,
    viscosity_coefficient,
)
from hjb_pi.checks import contraction_excess, fixed_point_gap
from hjb_pi.problems import greedy_policy
from hjb_pi.grid import interior_gradient
from hjb_pi.scheme import stencil_coefficients

from conftest import make_rng


def zero_cost_problem(a_max=1.0, dim=1):
    return ControlProblem(
        lam=1.0, drift_base=lambda x: np.zeros_like(x),
        state_cost=lambda x: np.zeros(x.shape[:-1]), a_max=a_max, dim=dim,
    )


def test_viscosity_coefficient_rules(lq_paper, man_paper):
    assert lq_paper.params.viscosity == 3.0  # max(1, a_max/2) with a_max = 6
    n2 = man_paper.params.viscosity
    assert n2 == pytest.approx(1.05 * 0.5 * (0.48 + 2.0), abs=0.05)
    assert n2 <= 1.302
    grid = build_grid(1.0, 0.5, dim=1)
    assert viscosity_coefficient(zero_cost_problem(), grid, "theory") == 1.0
    with pytest.raises(ValueError):
        viscosity_coefficient(zero_cost_problem(), grid, "bench3d")


def test_stencil_coefficients_examples():
    params = SchemeParams(viscosity=1.0, h=0.1, dim=1, lam=1.0)
    coeffs = stencil_coefficients(params, np.array([0.5]))
    assert coeffs.center == pytest.approx(21.0)
    assert coeffs.plus[0] == pytest.approx(-12.5)
    assert coeffs.minus[0] == pytest.approx(-7.5)

    sym = stencil_coefficients(params, np.zeros(1))
    assert sym.plus[0] == sym.minus[0] == pytest.approx(-10.0)

    # N = |f|/2 sits exactly on the monotonicity boundary
    edge = SchemeParams(viscosity=0.25, h=0.1, dim=1, lam=1.0)
    coeffs = stencil_coefficients(edge, np.array([0.5]))
    assert coeffs.minus[0] == pytest.approx(0.0, abs=1e-15)

    bad = SchemeParams(viscosity=0.2, h=0.1, dim=1, lam=1.0)
    with pytest.raises(MonotonicityError):
        stencil_coefficients(bad, np.array([1.0]))


def test_stencil_row_sum_identity():
    rng = make_rng(301)
    for _ in range(50):
        lam = rng.uniform(0.2, 3.0)
        h = rng.uniform(0.01, 0.5)
        dim = int(rng.integers(1, 3))
        f = rng.uniform(-1, 1, dim)
        n = max(1.0, np.max(np.abs(f)) / 2) * rng.uniform(1.0, 3.0)
        params = SchemeParams(viscosity=n, h=h, dim=dim, lam=lam)
        coeffs = stencil_coefficients(params, f)
        row = coeffs.center + np.sum(coeffs.plus) + np.sum(coeffs.minus)
        assert abs(row - lam) <= 1e-12 * coeffs.center
        assert np.all(coeffs.plus <= 0) and np.all(coeffs.minus <= 0)
        assert coeffs.center > 0


def test_apply_policy_operator_on_constants():
    """L_alpha, bellman_residual with a policy, maps a constant m to lam*m."""
    problem = zero_cost_problem()
    grid = build_grid(1.0, 0.25, dim=1)
    params = SchemeParams(viscosity=1.0, h=0.25, dim=1, lam=1.0)
    policy = PolicyField.zeros(grid, 1.0)
    m = 2.75
    out = bellman_residual(problem, params, GridField.full(grid, m), policy)
    assert np.max(np.abs(out.interior() - 1.0 * m)) < 1e-12
    assert np.all(out.values[[0, -1]] == 0.0)


def test_apply_policy_operator_barrier_sign():
    """U = ||c||_inf / lam is a supersolution for every frozen policy."""
    rng = make_rng(302)
    for _ in range(10):
        lam = rng.uniform(0.5, 2.0)
        grid = build_grid(1.0, 0.25, dim=1)
        problem = ControlProblem(
            lam=lam, drift_base=lambda x: np.zeros_like(x),
            state_cost=lambda x: 0.5 * np.sum(x * x, axis=-1),
            a_max=2.0, dim=1,
        )
        params = SchemeParams(viscosity=1.0, h=0.25, dim=1, lam=lam)
        controls = rng.uniform(-2, 2, grid.interior_shape + (1,))
        policy = PolicyField(grid, controls, 2.0)
        cost_sup = 0.5 + 0.5 * 4.0
        barrier = GridField.full(grid, cost_sup / lam)
        out = bellman_residual(problem, params, barrier, policy)
        assert np.min(out.interior()) >= -1e-12


def test_bellman_residual_constant_field():
    problem = zero_cost_problem(a_max=2.0)
    grid = build_grid(1.0, 0.25, dim=1)
    params = SchemeParams(viscosity=1.0, h=0.25, dim=1, lam=1.0)
    k = -1.4
    res = bellman_residual(problem, params, GridField.full(grid, k))
    assert np.max(np.abs(res.interior() - 1.0 * k)) < 1e-14


def test_bellman_residual_manufactured(man_coarse):
    res = bellman_residual(man_coarse.problem, man_coarse.params, man_coarse.reference)
    assert np.max(np.abs(res.values)) < 1e-11


def test_resolvent_constant_contraction_value():
    problem = zero_cost_problem(a_max=2.0)
    grid = build_grid(1.0, 0.25, dim=1)
    params = SchemeParams(viscosity=1.0, h=0.25, dim=1, lam=1.0)
    k = 3.3
    out = resolvent_map(problem, params, GridField.full(grid, k))
    beta = params.contraction_factor
    assert np.max(np.abs(out.interior() - beta * k)) < 1e-12


def test_fixed_point_identity_random_fields(lq_mid):
    assert fixed_point_gap(lq_mid, make_rng(303), 10, 4.0) <= 1e-12


def test_resolvent_monotone(lq_mid):
    rng = make_rng(304)
    u = GridField(lq_mid.grid, rng.uniform(-2, 2, lq_mid.grid.shape))
    w = GridField(lq_mid.grid, u.values + rng.uniform(0, 1, lq_mid.grid.shape))
    tu = resolvent_map(lq_mid.problem, lq_mid.params, u)
    tw = resolvent_map(lq_mid.problem, lq_mid.params, w)
    assert np.all(tu.values <= tw.values + 1e-14)


def test_resolvent_contraction_pairs(lq_mid):
    assert contraction_excess(lq_mid, make_rng(305), 10, 3.0) <= 1e-12


def test_resolvent_policy_improvement_identity(lq_mid):
    """Control-free T equals T applied with the greedy policy of grad_h U."""
    rng = make_rng(306)
    u = GridField(lq_mid.grid, rng.uniform(-3, 3, lq_mid.grid.shape))
    g = interior_gradient(u)
    controls = greedy_policy(lq_mid.problem, lq_mid.grid.interior_coordinates(), g)
    policy = PolicyField(lq_mid.grid, controls, lq_mid.problem.a_max)
    free = resolvent_map(lq_mid.problem, lq_mid.params, u)
    pinned = resolvent_map(lq_mid.problem, lq_mid.params, u, policy=policy)
    assert np.max(np.abs(free.values - pinned.values)) <= 1e-12


def test_contraction_factor_values():
    def beta(viscosity, h, lam=1.0):
        return SchemeParams(viscosity=viscosity, h=h, dim=1, lam=lam).contraction_factor

    assert beta(1.0, 0.03) == pytest.approx(0.985222, abs=1e-6)
    # lam equal to 2dN/h gives exactly one half
    assert beta(0.05, 0.1) == pytest.approx(0.5, abs=1e-15)
    hs = [0.4, 0.2, 0.1, 0.05]
    betas = [beta(1.0, h) for h in hs]
    assert all(b2 > b1 for b1, b2 in zip(betas, betas[1:]))
    assert all(0 < b < 1 for b in betas)
    with pytest.raises(ValueError):
        beta(1.0, 0.1, lam=0.0)


@pytest.mark.parametrize("fixture", ["lq_mid", "man_coarse"])
def test_bellman_residual_is_the_supremum_over_policies(fixture, request):
    """F_h[u] >= L_alpha u at every node for in-box policies alpha, and the
    greedy policy of grad_h u passed explicitly reproduces F_h[u] bit for bit."""
    setup = request.getfixturevalue(fixture)
    grid, a_max = setup.grid, setup.problem.a_max
    rng = make_rng(307)
    for _ in range(5):
        u = GridField(grid, rng.uniform(-2, 2, grid.shape))
        sup = bellman_residual(setup.problem, setup.params, u).values
        for _ in range(4):
            controls = rng.uniform(-a_max, a_max, grid.interior_shape + (grid.dim,))
            policy = PolicyField(grid, controls, a_max)
            frozen = bellman_residual(setup.problem, setup.params, u, policy).values
            assert np.all(sup >= frozen - 1e-12)
        greedy = greedy_policy(setup.problem, None, interior_gradient(u))
        pinned = bellman_residual(
            setup.problem, setup.params, u, PolicyField(grid, greedy, a_max)
        ).values
        assert np.array_equal(pinned, sup)


def test_certification_passes_on_benchmarks(lq_coarse, man_coarse):
    for setup in (lq_coarse, man_coarse):
        cert = certify_monotone_stencil(
            setup.problem, setup.grid, setup.params, n_controls=500
        )
        assert cert.max_neighbor_coefficient <= 0.0
        assert cert.max_row_sum_deviation <= 1e-12 * setup.params.center_weight
        assert cert.nodes_checked == setup.grid.n_interior
        assert cert.controls_checked >= 500


def test_certification_flags_undersized_viscosity(lq_coarse):
    params = SchemeParams(viscosity=0.5, h=lq_coarse.params.h, dim=1, lam=1.0)
    with pytest.raises(MonotonicityError):
        certify_monotone_stencil(lq_coarse.problem, lq_coarse.grid, params, n_controls=100)


def test_scheme_params_validation():
    with pytest.raises(ValueError):
        SchemeParams(viscosity=-1.0, h=0.1, dim=1, lam=1.0)
    with pytest.raises(ValueError):
        SchemeParams(viscosity=1.0, h=0.1, dim=4, lam=1.0)
