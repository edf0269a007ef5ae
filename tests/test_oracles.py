"""The reference computations must be right before they can referee anything."""

import math

import numpy as np
import pytest

from hjb_pi import GridField
from hjb_pi.oracles import (
    _LQ_A_MAX,
    _LQ_HALF_WIDTH,
    _LQ_LAM,
    bellman_residual_scan,
    fit_quadratic_coefficient,
    lq_value_iteration,
    resolvent_scan,
    scan_extremum,
)


def test_scan_extremum_1d_bowl():
    vals, ctrl = scan_extremum(
        lambda a: (a[..., 0] - 0.3) ** 2, a_max=2.0, dim=1,
        n_points=101, stages=5,
    )
    assert vals[0] == pytest.approx(0.0, abs=1e-12)
    assert ctrl[0, 0] == pytest.approx(0.3, abs=1e-6)


def test_scan_extremum_2d_bowl():
    def objective(a):
        return (a[..., 0] - 0.4) ** 2 + (a[..., 1] + 0.7) ** 2

    vals, ctrl = scan_extremum(objective, a_max=2.0, dim=2, n_points=1024, stages=5)
    assert vals[0] == pytest.approx(0.0, abs=1e-9)
    assert ctrl[0] == pytest.approx([0.4, -0.7], abs=1e-4)


def test_scan_extremum_max_mode_and_clipping():
    vals, ctrl = scan_extremum(
        lambda a: 1.0 - (a[..., 0] - 0.3) ** 2, a_max=2.0, dim=1,
        n_points=101, stages=5, mode="max",
    )
    assert vals[0] == pytest.approx(1.0, abs=1e-12)
    # optimum outside the box lands on the box face
    vals, ctrl = scan_extremum(
        lambda a: (a[..., 0] - 5.0) ** 2, a_max=2.0, dim=1,
        n_points=101, stages=5,
    )
    assert ctrl[0, 0] == pytest.approx(2.0, abs=1e-9)
    assert vals[0] == pytest.approx(9.0, abs=1e-7)


def test_scan_extremum_batched_centers():
    targets = np.array([-1.2, 0.0, 0.8])

    def objective(a):
        return (a[..., 0] - targets[:, None]) ** 2

    vals, ctrl = scan_extremum(
        objective, a_max=2.0, dim=1, n_points=101, stages=5,
        centers=np.zeros((3, 1)),
    )
    assert ctrl[:, 0] == pytest.approx(targets, abs=1e-6)
    assert np.all(np.abs(vals) < 1e-12)


# a cheap oracle setting: h, dt, number of controls
_COARSE = dict(h=0.02, dt=0.04, n_controls=201)


def _scan_terms(x, dt, n_controls):
    """Per control of lq_value_iteration: (arrival points, stage cost)."""
    gamma = math.exp(-_LQ_LAM * dt)
    terms = []
    for a in np.linspace(-_LQ_A_MAX, _LQ_A_MAX, n_controls):
        xn = np.clip(x + dt * a, -_LQ_HALF_WIDTH, _LQ_HALF_WIDTH)
        cost_here = 0.5 * x * x + 0.5 * a * a
        cost_there = 0.5 * xn * xn + 0.5 * a * a
        terms.append((xn, 0.5 * dt * (cost_here + gamma * cost_there)))
    return gamma, terms


def _full_scan(x, v, gamma, terms):
    """One semi-Lagrangian Bellman scan of lq_value_iteration's update,
    written pointwise: one np.interp per control and a running minimum."""
    best = np.full_like(x, np.inf)
    for xn, stage in terms:
        np.minimum(best, stage + gamma * np.interp(xn, x, v), out=best)
    return best


def _plain_value_iteration(x, dt, n_controls, tol):
    """Full scans from V = 0 until one changes V by at most tol."""
    gamma, terms = _scan_terms(x, dt, n_controls)
    v = np.zeros_like(x)
    while True:
        best = _full_scan(x, v, gamma, terms)
        delta = float(np.abs(best - v).max())
        v = best
        if delta <= tol:
            return v


def test_value_iteration_reports_non_convergence():
    with pytest.raises(RuntimeError):
        lq_value_iteration(h=0.5, dt=0.1, n_controls=9, tol=1e-14, max_steps=2)


@pytest.mark.parametrize("tol", [1e-4, 1e-7])
def test_value_iteration_result_passes_a_full_scan(tol):
    """The returned field is a fixed point to tol: one more full scan moves
    it by at most tol, whatever the evaluation sweeps did before."""
    x, v = lq_value_iteration(**_COARSE, tol=tol)
    gamma, terms = _scan_terms(x, _COARSE["dt"], _COARSE["n_controls"])
    change = np.abs(_full_scan(x, v, gamma, terms) - v).max()
    assert change <= tol


def test_value_iteration_matches_plain_value_iteration():
    """Both stop within tol / (1 - e^{-lam dt}) of the same fixed point."""
    tol = 1e-7
    x, v = lq_value_iteration(**_COARSE, tol=tol)
    plain = _plain_value_iteration(x, _COARSE["dt"], _COARSE["n_controls"], tol)
    bound = tol / (1.0 - math.exp(-_LQ_LAM * _COARSE["dt"]))
    assert np.abs(v - plain).max() <= bound


def test_value_iteration_coarse_recovers_coefficient():
    """Even a cheap run lands near the closed-form quadratic coefficient."""
    x, v = lq_value_iteration(**_COARSE, tol=1e-7)
    fitted = fit_quadratic_coefficient(x, v)
    exact = 0.6180339887498949
    assert abs(fitted - exact) <= 0.05 * exact
    assert np.all(v >= -1e-12)  # nonnegative costs give nonnegative values


def test_fit_quadratic_coefficient_exact_and_windowed():
    x = np.linspace(-3, 3, 601)
    v = 0.5 * 0.37 * x * x
    assert fit_quadratic_coefficient(x, v) == pytest.approx(0.37, abs=1e-12)
    # distortion outside the fit window must not leak into the estimate
    spoiled = v + np.where(np.abs(x) > 2.0, 1.0, 0.0)
    assert fit_quadratic_coefficient(x, spoiled) == pytest.approx(0.37, abs=1e-12)


def test_bellman_scan_constant_field(lq_coarse):
    """Constant fields have zero derivatives, so sup_a L_a u = lam*K - c(x)."""
    setup = lq_coarse
    kappa = 1.25
    field = GridField.full(setup.grid, kappa)
    scan = bellman_residual_scan(setup.problem, setup.params, field)
    coords = setup.grid.interior_coordinates().reshape(-1, 1)
    expected = setup.params.lam * kappa - setup.problem.state_cost(coords).reshape(-1)
    assert scan == pytest.approx(expected, abs=1e-10)


def test_resolvent_scan_constant_field(lq_coarse):
    """For constant K the off-diagonal terms sum to (center - lam)*K."""
    setup = lq_coarse
    kappa = -0.6
    field = GridField.full(setup.grid, kappa)
    scan = resolvent_scan(setup.problem, setup.params, field)
    coords = setup.grid.interior_coordinates().reshape(-1, 1)
    center = setup.params.center_weight
    expected = (
        setup.problem.state_cost(coords).reshape(-1) + (center - setup.params.lam) * kappa
    ) / center
    assert scan == pytest.approx(expected, abs=1e-12)
