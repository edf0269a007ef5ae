import math

import numpy as np
import pytest

from hjb_pi import (
    GridField,
    PIConfig,
    build_grid,
    detect_plateau,
    error_metrics,
    fit_geometric_rate,
    fit_power_rate,
    optimal_iteration_count,
    run_policy_iteration,
    total_error_bound,
)

from conftest import make_rng


def test_error_metrics_closed_forms():
    grid = build_grid(1.0, 0.25, dim=1)  # 9 nodes
    ref = GridField.zeros(grid)
    assert error_metrics(ref, ref) == (0.0, 0.0)

    kappa = -0.7
    offset = GridField.full(grid, kappa)
    linf, l2 = error_metrics(offset, ref)
    assert linf == pytest.approx(abs(kappa))
    assert l2 == pytest.approx(abs(kappa) * math.sqrt(0.25 * 9))

    spike_vals = np.zeros(9)
    spike_vals[4] = 2.0
    linf, l2 = error_metrics(GridField(grid, spike_vals), ref)
    assert linf == 2.0
    assert l2 == pytest.approx(2.0 * math.sqrt(0.25))


def test_error_metrics_symmetry_and_norm_inequality():
    rng = make_rng(601)
    grid = build_grid(1.0, 0.2, dim=2)
    u = GridField(grid, rng.uniform(-3, 3, grid.shape))
    w = GridField(grid, rng.uniform(-3, 3, grid.shape))
    assert error_metrics(u, w) == error_metrics(w, u)
    linf, l2 = error_metrics(u, w)
    assert l2 <= linf * math.sqrt(0.2**2 * grid.n_nodes) + 1e-12

    other = build_grid(1.0, 0.5, dim=2)
    with pytest.raises(ValueError):
        error_metrics(u, GridField.zeros(other))


def test_fit_geometric_rate_synthetic():
    fit = fit_geometric_rate([0.9**n for n in range(40)])
    assert math.exp(fit.slope) == pytest.approx(0.9, abs=1e-10)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
    fit = fit_geometric_rate([3.0 * 0.5**n for n in range(30)])
    assert math.exp(fit.slope) == pytest.approx(0.5, abs=1e-10)
    with pytest.raises(ValueError):
        fit_geometric_rate([1.0, 0.5])


def test_fit_geometric_rate_excludes_noise_floor():
    clean = [0.5**n for n in range(20)]
    noisy = clean + [1e-17, 3e-17, 2e-17]
    fit = fit_geometric_rate(noisy)
    assert fit.points_used == 20
    assert math.exp(fit.slope) == pytest.approx(0.5, abs=1e-10)


def test_measured_pi_factor_below_contraction_bound(lq_coarse):
    """The observed per-iteration decay never exceeds beta_h."""
    setup = lq_coarse
    report = run_policy_iteration(
        setup.problem, setup.grid, setup.params,
        PIConfig(max_outer_iterations=12),
        boundary=setup.boundary, reference=setup.reference,
    )
    usable = [r for r in report.residual_l2[1:] if np.isfinite(r)]
    fit = fit_geometric_rate(usable)
    beta = setup.params.contraction_factor
    assert math.exp(fit.slope) <= beta + 0.01


def test_fit_power_rate_synthetic():
    hs = [0.4, 0.2, 0.1, 0.05]
    fit = fit_power_rate(hs, [2.0 * h**0.5 for h in hs])
    assert fit.slope == pytest.approx(0.5, abs=1e-10)
    fit = fit_power_rate(hs, [0.3 * h for h in hs])
    assert fit.slope == pytest.approx(1.0, abs=1e-10)
    assert fit.points_used == 4
    with pytest.raises(ValueError):
        fit_power_rate(hs, [1.0, -1.0, 1.0, 1.0])
    with pytest.raises(ValueError):
        fit_power_rate([0.1, 0.2, 0.4], [1, 1, 1])  # not decreasing
    with pytest.raises(ValueError):
        fit_power_rate([0.4], [1.0])  # too few


def test_total_error_bound():
    dec = total_error_bound(2.0, 0.5, n=0, h=0.09, lam=1.0, dim=1, viscosity=1.0)
    assert dec.total == pytest.approx(2.0 + 0.5 * 0.3)
    far = total_error_bound(2.0, 0.5, n=100000, h=0.09, lam=1.0, dim=1, viscosity=1.0)
    assert far.total == pytest.approx(0.5 * 0.3, abs=1e-12)
    dec = total_error_bound(1.0, 1.0, n=10, h=0.1, lam=1.0, dim=1, viscosity=1.0)
    assert dec.iteration_term == pytest.approx(math.exp(-0.5), abs=1e-15)
    # monotone decreasing in n, increasing in the constants
    b1 = total_error_bound(1.0, 1.0, n=5, h=0.1, lam=1.0, dim=1, viscosity=1.0).total
    b2 = total_error_bound(1.0, 1.0, n=6, h=0.1, lam=1.0, dim=1, viscosity=1.0).total
    assert b2 < b1
    assert total_error_bound(2.0, 1.0, n=5, h=0.1, lam=1.0, dim=1, viscosity=1.0).total > b1


def test_optimal_iteration_count():
    assert optimal_iteration_count(0.1, 1.0, 1, 1.0) == 24
    assert optimal_iteration_count(0.5, 1.0, 1, 1.0) == 2
    # the pre-ceiling target is linear in N, so doubling N at most
    # doubles the count and loses at most one to rounding
    c1 = optimal_iteration_count(0.1, 1.0, 1, 1.0)
    c2 = optimal_iteration_count(0.1, 1.0, 1, 2.0)
    assert 2 * c1 - 1 <= c2 <= 2 * c1
    with pytest.raises(ValueError):
        optimal_iteration_count(1.0, 1.0, 1, 1.0)


def test_detect_plateau():
    flat_tail = [1.0, 0.5, 0.25, 0.1, 0.1, 0.1, 0.1]
    assert detect_plateau(flat_tail, window=4, rel_band=0.01) == 3
    geometric = [0.9**n for n in range(60)]
    assert detect_plateau(geometric, window=10, rel_band=0.01) is None
    floored = [max(0.9**n, 0.01) for n in range(80)]
    found = detect_plateau(floored, window=10, rel_band=0.01)
    crossover = math.log(0.01) / math.log(0.9)
    assert found is not None and abs(found - crossover) <= 2
    with pytest.raises(ValueError):
        detect_plateau(flat_tail, window=1, rel_band=0.01)
    with pytest.raises(ValueError):
        detect_plateau([1.0, 0.0, 1.0], window=2, rel_band=0.01)
