"""The package's value types behave as the frozen dataclasses they replace:
fields fixed after construction, value equality with a matching hash where
the type compares by value, identity equality where it compares by
identity, and no state shared between instances."""

import inspect

import numpy as np
import pytest

from hjb_pi import (
    GridProblem,
    PIConfig,
    PIReport,
    PolicyField,
    RateFit,
    SchemeParams,
    SolveStats,
    StencilCertificate,
    build_benchmark,
    build_grid,
)


def _frozen_instances(setup):
    """(instance, one of its field names) for every frozen type."""
    gp = GridProblem(setup.problem, setup.grid, setup.params)
    return [
        (setup.grid, "h"),
        (setup.problem, "lam"),
        (PolicyField.zeros(setup.grid, setup.problem.a_max), "controls"),
        (setup.params, "viscosity"),
        (gp, "params"),
        (StencilCertificate(-1.0, 0.0, 3, 4), "nodes_checked"),
        (PIConfig(max_outer_iterations=3), "omega"),
        (RateFit(-0.5, 1.0, 0.99, 7), "slope"),
        (SolveStats(3, 1e-10), "iterations"),
        (setup, "grid"),
    ]


def test_frozen_types_refuse_assignment_and_deletion(lq_coarse):
    for instance, name in _frozen_instances(lq_coarse):
        before = getattr(instance, name)
        with pytest.raises(AttributeError):
            setattr(instance, name, 1.0)
        with pytest.raises(AttributeError):
            delattr(instance, name)
        with pytest.raises(AttributeError):
            instance.not_a_field = 1.0
        assert getattr(instance, name) is before


def test_value_types_compare_and_hash_by_their_fields():
    pairs = [
        (build_grid(3.0, 0.2, 1), build_grid(3.0, 0.2, 1)),
        (SchemeParams(1.0, 0.2, 1, 1.0), SchemeParams(viscosity=1.0, h=0.2, dim=1, lam=1.0)),
        (PIConfig(5, snapshot_iterations=(0, 2)), PIConfig(max_outer_iterations=5,
                                                           snapshot_iterations=(0, 2))),
        (StencilCertificate(-1.0, 0.0, 3, 4), StencilCertificate(-1.0, 0.0, 3, 4)),
        (RateFit(-0.5, 1.0, 0.99, 7), RateFit(slope=-0.5, intercept=1.0, r_squared=0.99,
                                              points_used=7)),
        (SolveStats(3, 1e-10), SolveStats(iterations=3, tol=1e-10)),
    ]
    for a, b in pairs:
        assert a is not b and a == b and not a != b
        assert hash(a) == hash(b)
    assert build_grid(3.0, 0.2, 1) != build_grid(3.0, 0.1, 1)
    assert PIConfig(5) != PIConfig(5, omega=1.5)
    assert SolveStats(3, 1e-10) != SolveStats(4, 1e-10)
    assert SolveStats(3, 1e-10) != SolveStats(3, 1e-9)
    # equal fields of another type are not enough
    assert RateFit(-1.0, 0.0, 3, 4) != StencilCertificate(-1.0, 0.0, 3, 4)
    assert SchemeParams(1.0, 0.2, 1, 1.0) != (1.0, 0.2, 1, 1.0)


def test_benchmark_setups_compare_field_by_field(lq_coarse):
    same = type(lq_coarse)(lq_coarse.problem, lq_coarse.grid, lq_coarse.params,
                           lq_coarse.reference, lq_coarse.boundary)
    assert same == lq_coarse and hash(same) == hash(lq_coarse)
    # a second build has its own problem, which compares by identity
    assert build_benchmark("lq1d", h=0.2) != lq_coarse


def test_problem_types_compare_by_identity(lq_coarse):
    setup = lq_coarse
    twins = [
        (lambda: build_benchmark("lq1d", h=0.2).problem),
        (lambda: PolicyField.zeros(setup.grid, setup.problem.a_max)),
        (lambda: GridProblem(setup.problem, setup.grid, setup.params)),
    ]
    for build in twins:
        a, b = build(), build()
        assert a == a and a != b
        assert hash(a) == object.__hash__(a)
        assert len({a, b}) == 2


def test_grid_problem_keeps_its_samples(lq_coarse):
    gp = GridProblem(lq_coarse.problem, lq_coarse.grid, lq_coarse.params)
    assert gp.state_cost is gp.state_cost
    assert not (gp.state_cost.flags.writeable or gp.drift_base.flags.writeable)
    assert np.array_equal(gp.state_cost, 0.5 * lq_coarse.grid.interior_coordinates()[..., 0] ** 2)


def test_pi_config_defaults_are_its_class_attributes():
    config = PIConfig(max_outer_iterations=1)
    defaults = inspect.signature(PIConfig).parameters
    for name in ("omega", "solver_tol", "solver_max_iter"):
        assert getattr(config, name) == getattr(PIConfig, name) == defaults[name].default
    assert (PIConfig.omega, PIConfig.solver_tol, PIConfig.solver_max_iter) == (1.7, 1e-10, 5000)


def test_reports_share_no_list():
    a, b = PIReport(), PIReport()
    containers = [name for name, value in vars(a).items() if isinstance(value, (list, dict))]
    assert len(containers) == 7
    for name in containers:
        assert getattr(a, name) is not getattr(b, name)
    a.solve_stats.append(SolveStats(1, 0.0))
    assert b.solve_stats == [] and a.iterations_run == b.iterations_run == 0
