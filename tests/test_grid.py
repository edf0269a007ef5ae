import math

import numpy as np
import pytest

from hjb_pi import GridField, PIConfig, build_grid, run_policy_iteration
from hjb_pi.grid import interior_gradient, interior_laplacian

from conftest import make_rng


def test_build_grid_node_counts():
    assert build_grid(3.0, 0.03, dim=1).nodes_per_axis == 201
    assert build_grid(2.0, 0.05, dim=2).nodes_per_axis == 81
    tiny = build_grid(1.0, 1.0, dim=1)
    assert tiny.nodes_per_axis == 3
    assert tiny.n_interior == 1


def test_build_grid_rejects_bad_input():
    with pytest.raises(ValueError):
        build_grid(1.0, 0.3, dim=1)  # 2/0.3 is not an integer
    with pytest.raises(ValueError):
        build_grid(1.0, 0.1, dim=3)
    with pytest.raises(ValueError):
        build_grid(1.0, -0.1, dim=1)
    with pytest.raises(ValueError):
        build_grid(0.5, 1.0, dim=1)  # only 2 nodes, no interior


@pytest.mark.parametrize(
    "half_width, h, named",
    [
        (math.inf, 0.1, "half_width"),
        (math.nan, 0.1, "half_width"),
        (1.0, math.nan, "h"),
        (1.0, math.inf, "h"),
        (1.0, 0.0, "h"),
        (1e308, 0.1, "cell count"),  # 2L overflows
        (3.0, 1e-320, "cell count"),  # 2L/h overflows
    ],
)
def test_build_grid_refuses_non_finite_input(half_width, h, named):
    with pytest.raises(ValueError, match=named):
        build_grid(half_width, h, dim=1)


def test_node_coordinates_exact():
    grid = build_grid(3.0, 0.03, dim=1)
    xs = grid.axis_coords()
    for i in (0, 1, 100, 200):
        assert xs[i] == -3.0 + i * 0.03
    assert xs[0] == -3.0 and xs[-1] == 3.0


def test_interior_classification():
    grid = build_grid(1.0, 0.5, dim=2)  # 5x5 nodes
    mask = grid.boundary_mask()
    assert mask.sum() == 25 - 9


def test_gradient_pointwise_examples():
    """Entry i - 1 of the interior operators belongs to node i."""
    grid = build_grid(1.0, 0.5, dim=1)
    const = GridField.full(grid, 4.2)
    assert interior_gradient(const)[0] == pytest.approx([0.0], abs=0)

    xs = grid.axis_coords()
    linear = GridField(grid, xs)
    assert np.all(interior_gradient(linear)[:, 0] == 1.0)

    # u = x^2 at x = 0.5 (node 15), h = 0.1: (0.36 - 0.16) / 0.2 = 1.0
    grid2 = build_grid(1.0, 0.1, dim=1)
    quad = GridField(grid2, grid2.axis_coords() ** 2)
    assert grid2.axis_coords()[15] == pytest.approx(0.5)
    assert interior_gradient(quad)[14, 0] == pytest.approx(1.0, abs=1e-14)


def test_laplacian_pointwise_examples():
    grid = build_grid(1.0, 0.1, dim=1)
    const = GridField.full(grid, -7.0)
    assert interior_laplacian(const)[4] == 0.0

    quad = GridField(grid, grid.axis_coords() ** 2)
    for i in (1, 10, 19):
        assert interior_laplacian(quad)[i - 1] == pytest.approx(2.0, abs=1e-12)

    # u = x^3 at x = 1 (node 30), h = 0.1: (1.331 - 2 + 0.729) / 0.01 = 6.0
    grid2 = build_grid(2.0, 0.1, dim=1)
    cubic = GridField(grid2, grid2.axis_coords() ** 3)
    assert grid2.axis_coords()[30] == pytest.approx(1.0)
    assert interior_laplacian(cubic)[29] == pytest.approx(6.0, rel=1e-12)


def test_operator_linearity_random_fields():
    rng = make_rng(101)
    grid = build_grid(1.0, 0.1, dim=2)
    u = GridField(grid, rng.uniform(-5, 5, grid.shape))
    w = GridField(grid, rng.uniform(-5, 5, grid.shape))
    a, b = 2.3, -0.7
    combo = GridField(grid, a * u.values + b * w.values)
    lhs_g = interior_gradient(combo)
    rhs_g = a * interior_gradient(u) + b * interior_gradient(w)
    scale = np.max(np.abs(rhs_g)) + 1.0
    assert np.max(np.abs(lhs_g - rhs_g)) / scale < 1e-12
    lhs_l = interior_laplacian(combo)
    rhs_l = a * interior_laplacian(u) + b * interior_laplacian(w)
    scale = np.max(np.abs(rhs_l)) + 1.0
    assert np.max(np.abs(lhs_l - rhs_l)) / scale < 1e-12


def test_operator_polynomial_exactness():
    """Gradient exact through degree 2, Laplacian through degree 3."""
    grid = build_grid(2.0, 0.25, dim=1)
    xs = grid.axis_coords()
    for coeffs, deriv in [((0.0, 1.0, 0.0), lambda x: np.full_like(x, 1.0)),
                          ((1.5, -2.0, 0.5), lambda x: -2.0 + x)]:
        c0, c1, c2 = coeffs
        field = GridField(grid, c0 + c1 * xs + c2 * xs**2)
        g = interior_gradient(field)[..., 0]
        expect = deriv(xs[1:-1])
        assert np.max(np.abs(g - expect)) <= 1e-12 * (1 + np.max(np.abs(expect)))
    cubic = GridField(grid, xs**3 - 2.0 * xs**2)
    lap = interior_laplacian(cubic)
    expect = 6.0 * xs[1:-1] - 4.0
    assert np.max(np.abs(lap - expect)) <= 1e-12 * (1 + np.max(np.abs(expect)))


def test_grid_field_validation():
    grid = build_grid(1.0, 0.5, dim=1)
    bad = np.zeros(5)
    bad[2] = np.nan
    with pytest.raises(ValueError):
        GridField(grid, bad)
    with pytest.raises(ValueError):
        GridField(grid, np.zeros(4))


def test_grid_field_values_are_read_only(lq_coarse, man_coarse):
    """Writing through a field's values or interior raises, for a new field
    and for a run's final value; the array a field was built from stays
    writable."""
    fields = []
    for setup in (lq_coarse, man_coarse):
        given = np.ones(setup.grid.shape)
        fields.append(GridField(setup.grid, given))
        given[...] = 2.0
        report = run_policy_iteration(setup.problem, setup.grid, setup.params,
                                      PIConfig(max_outer_iterations=2), boundary=setup.boundary)
        fields.append(report.final_value)
    for field in fields:
        for view in (field.values, field.interior()):
            with pytest.raises(ValueError, match="read-only"):
                view[...] = 0.0
            with pytest.raises(ValueError, match="read-only"):
                view += 1.0


def test_grid_field_rejects_non_finite_values():
    for dim in (1, 2):
        grid = build_grid(1.0, 0.5, dim=dim)
        for value in (np.nan, np.inf, -np.inf):
            bad = np.zeros(grid.shape)
            bad.flat[-1] = value
            with pytest.raises(ValueError, match="must be finite at every node"):
                GridField(grid, bad)
