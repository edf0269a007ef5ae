import numpy as np
import pytest

from hjb_pi import (
    ControlProblem,
    GridField,
    GridProblem,
    MonotonicityError,
    PIConfig,
    PolicyField,
    SchemeParams,
    bellman_residual,
    build_benchmark,
    build_grid,
    certify_monotone_stencil,
    lq_value_coefficient,
    resolvent_map,
    run_policy_iteration,
)
from hjb_pi import howard
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


def test_benchmark_viscosity_rules():
    """Each builder sets its own N: max(1, a_max/2) for lq1d, whose drift is
    the control alone, and 1.05 * (max|b| over the nodes + a_max) / 2 for
    manufactured2d, pinned as a literal so any change to N shows."""
    for a_max in (1.9, 6.0, 20.0):
        assert build_benchmark("lq1d", a_max=a_max).params.viscosity == max(1.0, a_max / 2)
    for h in (0.1, 0.05):
        assert build_benchmark("manufactured2d", h=h).params.viscosity == 1.2826740100994345


def test_lq1d_refuses_a_control_box_that_binds_its_closed_form():
    """V = P x^2 / 2 is lq1d's value only while the optimal control -P x
    stays in the box on the whole domain: a_max >= P(lam) * half_width."""
    with pytest.raises(ValueError, match="a_max 1.0 is below P"):
        build_benchmark("lq1d", a_max=1.0)
    bound = lq_value_coefficient(1.0) * 3.0
    assert build_benchmark("lq1d", a_max=bound).problem.a_max == bound


def test_stencil_coefficients_examples():
    params = SchemeParams(viscosity=1.0, h=0.1, dim=1, lam=1.0)
    assert params.center_weight == pytest.approx(21.0)
    plus, minus = stencil_coefficients(params, np.array([0.5]))
    assert plus[0] == pytest.approx(-12.5)
    assert minus[0] == pytest.approx(-7.5)

    plus, minus = stencil_coefficients(params, np.zeros(1))
    assert plus[0] == minus[0] == pytest.approx(-10.0)

    # N = |f|/2 sits exactly on the monotonicity boundary
    edge = SchemeParams(viscosity=0.25, h=0.1, dim=1, lam=1.0)
    _, minus = stencil_coefficients(edge, np.array([0.5]))
    assert minus[0] == pytest.approx(0.0, abs=1e-15)

    bad = SchemeParams(viscosity=0.2, h=0.1, dim=1, lam=1.0)
    with pytest.raises(MonotonicityError):
        stencil_coefficients(bad, np.array([1.0]))


def test_stencil_sign_check_refuses_a_nan_drift():
    params = SchemeParams(viscosity=1.0, h=0.1, dim=1, lam=1.0)
    with pytest.raises(MonotonicityError, match=r"^drift is not finite: max \|f\| = nan$"):
        stencil_coefficients(params, np.array([[0.5], [np.nan], [0.1]]))


def test_grid_problem_refuses_non_finite_samples_before_any_solve(monkeypatch):
    """A NaN drift or an infinite cost at one node raises when the
    GridProblem is built, naming which, and a run stops there, before its
    first solve."""
    grid = build_grid(1.0, 0.25, dim=1)
    params = SchemeParams(viscosity=1.0, h=0.25, dim=1, lam=1.0)

    def spike(value):
        """value at the node x = 0.5, 0 elsewhere, of the coordinates' shape"""
        return lambda x: np.where(np.abs(x - 0.5) < 1e-9, value, 0.0)

    def zero_cost(x):
        return np.zeros(x.shape[:-1])

    def inf_cost(x):
        return spike(np.inf)(x)[..., 0]

    for name, drift, cost in (("drift_base", spike(np.nan), zero_cost),
                              ("state_cost", np.zeros_like, inf_cost)):
        problem = ControlProblem(lam=1.0, drift_base=drift, state_cost=cost, a_max=1.0, dim=1)
        with pytest.raises(ValueError, match=f"^{name} must be finite at every interior node$"):
            GridProblem(problem, grid, params)
        monkeypatch.setattr(howard, "solve_tridiagonal", None)  # any solve would raise TypeError
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            run_policy_iteration(problem, grid, params, PIConfig(max_outer_iterations=3),
                                 boundary=GridField.full(grid, 0.0))
        monkeypatch.undo()


def test_stencil_coefficients_per_axis_layout():
    """One fresh array per axis and direction, of the nodes' shape, each the
    same bits as the weights formed on the stacked drift; assembly folds the
    boundary into them in place, so none may share memory with another,
    with f, or with an earlier call's."""
    rng = make_rng(302)
    params = SchemeParams(viscosity=1.3, h=0.1, dim=2, lam=1.0)
    f = rng.uniform(-2, 2, size=(5, 4, 2))
    plus, minus = stencil_coefficients(params, f)
    half = f / (2.0 * params.h)
    ratio = params.viscosity / params.h
    assert len(plus) == len(minus) == 2
    for k in range(2):
        assert plus[k].shape == minus[k].shape == (5, 4)
        assert plus[k].tobytes() == (-ratio - half[..., k]).tobytes()
        assert minus[k].tobytes() == (-ratio + half[..., k]).tobytes()
    again = stencil_coefficients(params, f)
    arrays = list(plus + minus) + [f] + list(again[0] + again[1])
    for i, a in enumerate(arrays):
        for b in arrays[i + 1:]:
            assert not np.shares_memory(a, b)


def per_weight_sign_check(params, f):
    """The largest neighbor weight, one maximum per axis and direction, and
    the message a sign check built from it gives."""
    ratio = params.viscosity / params.h
    halves = [f[..., k] / (2.0 * params.h) for k in range(params.dim)]
    worst = max(float(np.max(w)) for half in halves for w in (-ratio - half, -ratio + half))
    message = (
        f"positive neighbor weight {worst:.3e}: viscosity {params.viscosity} "
        f"does not dominate |f|/2 = {float(np.max(np.abs(f))) / 2.0:.6g}"
    )
    return worst, message


def test_stencil_sign_check_matches_per_weight_maximum():
    """The sign check's one reduction, -ratio + max|f| / (2h), is the
    largest weight bit for bit: random drifts of mixed signs and scales in
    1D and 2D, with the viscosity below, at and just around the edge of
    monotonicity and of the slack.  The check refuses exactly the stencils
    with a weight above its slack, 1e-12 / 2 * N/h, with the message the
    per-weight maximum gives."""
    rng = make_rng(303)
    refused = 0
    for trial in range(400):
        dim = 1 + trial % 2
        nodes = (int(rng.integers(1, 9)),) * dim
        f = rng.uniform(-1, 1, size=nodes + (dim,)) * 10.0 ** rng.uniform(-3, 3)
        scale = rng.choice([0.5, 1.0 - 1e-12, 1.0 - 5e-13, 1.0, 1.0 + 1e-12, 2.0])
        h = rng.uniform(0.01, 0.5)
        params = SchemeParams(viscosity=float(np.max(np.abs(f))) / 2.0 * scale, h=h, dim=dim,
                              lam=1.0)
        worst, message = per_weight_sign_check(params, f)
        ratio = params.viscosity / h
        assert worst.hex() == (-ratio + float(np.max(np.abs(f))) / (2.0 * h)).hex()
        if worst > 0.5 * 1e-12 * ratio:
            refused += 1
            with pytest.raises(MonotonicityError) as error:
                stencil_coefficients(params, f)
            assert str(error.value) == message
        else:
            stencil_coefficients(params, f)
    assert 0 < refused < 400


def test_stencil_row_sum_identity():
    rng = make_rng(301)
    for _ in range(50):
        lam = rng.uniform(0.2, 3.0)
        h = rng.uniform(0.01, 0.5)
        dim = int(rng.integers(1, 3))
        f = rng.uniform(-1, 1, dim)
        n = max(1.0, np.max(np.abs(f)) / 2) * rng.uniform(1.0, 3.0)
        params = SchemeParams(viscosity=n, h=h, dim=dim, lam=lam)
        plus, minus = stencil_coefficients(params, f)
        assert len(plus) == len(minus) == dim
        row = params.center_weight + np.sum(plus) + np.sum(minus)
        assert abs(row - lam) <= 1e-12 * params.center_weight
        assert np.all(np.array(plus) <= 0) and np.all(np.array(minus) <= 0)
        assert params.center_weight > 0


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


def test_manufactured_reference_is_exact_with_a_binding_clip():
    """The manufactured cost is F_h of the zero-cost problem at the
    reference, so F_h[reference] = 0 also where the greedy clip binds."""
    setup = build_benchmark("manufactured2d", h=0.1, a_max=0.3)
    assert np.max(np.abs(interior_gradient(setup.reference))) > 0.3
    res = bellman_residual(setup.problem, setup.params, setup.reference)
    assert np.max(np.abs(res.values)) <= 1e-11


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
        greedy = greedy_policy(setup.problem, interior_gradient(u))
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
        assert cert.nodes_checked == np.prod(setup.grid.interior_shape)
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


def test_scheme_params_refuse_unresolvable_discount():
    """lam must exceed 1e-12 times the center weight lam + 2*dim*N/h, the
    rounding slack of the dominance margin that the stencil's sign check
    guarantees."""
    # center weight 1 + 2e11: the slack is 0.2
    assert SchemeParams(viscosity=1e11, h=1.0, dim=1, lam=1.0).center_weight > 2e11
    for viscosity, h, dim, lam in ((1e11, 1.0, 1, 0.1),  # below the slack
                                   (5e299, 0.03, 1, 1.0),  # run1d --a-max 1e300
                                   (5e307, 0.05, 2, 1.0)):  # infinite center weight
        with pytest.raises(ValueError, match="lost in the rounding") as refused:
            SchemeParams(viscosity=viscosity, h=h, dim=dim, lam=lam)
        for named in (f"lam={lam}", f"N={viscosity}", f"h={h}"):
            assert named in str(refused.value)
