import hashlib
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from hjb_pi import (
    ControlProblem,
    EvaluationSystem,
    EvaluationWorkspace,
    GridField,
    GridProblem,
    MonotonicityError,
    PIConfig,
    PolicyField,
    SchemeParams,
    SolveStats,
    SolverError,
    assemble_evaluation_system,
    bellman_residual,
    build_benchmark,
    build_grid,
    error_metrics,
    initial_policy,
    policy_evaluate,
    solve_dense_oracle,
    solve_sor,
    solve_tridiagonal,
)
from hjb_pi.checks import (
    maximum_principle_range,
    random_dominant_tridiagonal,
    random_structured_system,
    thomas_dense_gap,
)
from hjb_pi import linsolve
from hjb_pi.linsolve import REDUCTION_THRESHOLD, RedBlackLayout, ReductionLayout, system_to_dense

from conftest import make_rng, pointwise_red_black_sor


def tridiagonal(minus, center, plus, rhs) -> EvaluationSystem:
    """A 1D system from lists: minus, center and plus weights per row."""
    return EvaluationSystem(
        center=np.array(center, dtype=float), plus=(np.array(plus, dtype=float),),
        minus=(np.array(minus, dtype=float),), rhs=np.array(rhs, dtype=float),
    )


def system_arrays(system) -> dict:
    """Every array of a system by name, for checks that it is unchanged."""
    arrays = {"center": system.center, "rhs": system.rhs}
    for k, (plus, minus) in enumerate(zip(system.plus, system.minus)):
        arrays[f"plus{k}"], arrays[f"minus{k}"] = plus, minus
    return arrays


def setup_workspace(setup) -> EvaluationWorkspace:
    """The evaluation workspace of a benchmark setup."""
    return EvaluationWorkspace(GridProblem(setup.problem, setup.grid, setup.params), setup.boundary)


def constant_cost_problem(kappa, dim=1, a_max=1.0):
    return ControlProblem(
        lam=1.0, drift_base=lambda x: np.zeros_like(x),
        state_cost=lambda x: np.full(x.shape[:-1], kappa), a_max=a_max, dim=dim,
    )


def test_homogeneous_system_solves_to_zero():
    problem = constant_cost_problem(0.0)
    grid = build_grid(1.0, 0.25, dim=1)
    params = SchemeParams(viscosity=1.0, h=0.25, dim=1, lam=1.0)
    policy = PolicyField.zeros(grid, 1.0)
    system = assemble_evaluation_system(
        EvaluationWorkspace(GridProblem(problem, grid, params), GridField.zeros(grid)), policy
    )
    assert np.max(np.abs(solve_tridiagonal(system))) == 0.0

    problem2 = constant_cost_problem(0.0, dim=2)
    grid2 = build_grid(1.0, 0.25, dim=2)
    params2 = SchemeParams(viscosity=1.0, h=0.25, dim=2, lam=1.0)
    policy2 = PolicyField.zeros(grid2, 1.0)
    system2 = assemble_evaluation_system(
        EvaluationWorkspace(GridProblem(problem2, grid2, params2), GridField.zeros(grid2)), policy2
    )
    omega, tol, max_iter = PIConfig.omega, PIConfig.solver_tol, PIConfig.solver_max_iter
    sol, stats = solve_sor(system2, omega=omega, tol=tol, max_iter=max_iter)
    assert np.max(np.abs(sol)) == 0.0
    expect, sweeps, update = pointwise_red_black_sor(system2, omega, tol, max_iter)
    assert sol.tobytes() == expect.tobytes() and update <= tol
    assert stats == SolveStats(1, tol) and sweeps == 1


def test_single_interior_node_closed_form():
    """One unknown: (lam + 2dN/h) U = kappa."""
    kappa = 2.4
    problem = constant_cost_problem(kappa)
    grid = build_grid(1.0, 1.0, dim=1)
    params = SchemeParams(viscosity=1.0, h=1.0, dim=1, lam=1.0)
    policy = PolicyField.zeros(grid, 1.0)
    system = assemble_evaluation_system(
        EvaluationWorkspace(GridProblem(problem, grid, params), GridField.zeros(grid)), policy
    )
    sol = solve_tridiagonal(system)
    assert sol[0] == pytest.approx(kappa / (1.0 + 2.0), abs=1e-15)


def test_lq_paper_assembly_diagonal(lq_paper):
    policy = PolicyField.zeros(lq_paper.grid, lq_paper.problem.a_max)
    gp = GridProblem(lq_paper.problem, lq_paper.grid, lq_paper.params)
    system = assemble_evaluation_system(EvaluationWorkspace(gp, lq_paper.boundary), policy)
    # center weight 1 + 2*3/0.03 = 201 exactly, every row
    assert np.all(system.center == 201.0)


def test_assembled_dominance_margin(lq_coarse, man_coarse):
    rng = make_rng(401)
    for setup in (lq_coarse, man_coarse):
        controls = rng.uniform(
            -setup.problem.a_max, setup.problem.a_max,
            setup.grid.interior_shape + (setup.grid.dim,),
        )
        policy = PolicyField(setup.grid, controls, setup.problem.a_max)
        gp = GridProblem(setup.problem, setup.grid, setup.params)
        system = assemble_evaluation_system(EvaluationWorkspace(gp, setup.boundary), policy)
        off = sum(np.abs(w) for w in system.plus + system.minus)
        lam = setup.problem.lam
        assert np.min(system.center - off) >= lam - 1e-12 * np.max(system.center)


def test_assembly_matches_policy_operator():
    """A u - rhs equals L_alpha u, bellman_residual with the policy, at the
    interior nodes: random policies, u random at every node with its ring as
    the Dirichlet data, odd and even interior widths.  Pins the fold of the
    ring, corners included, the zeroed boundary weights, and the row-major
    layout of system_to_dense."""
    rng = make_rng(417)
    for name, half_width, h in (("lq1d", 3.0, 0.2), ("lq1d", 3.0, 0.4),
                                ("manufactured2d", 2.0, 0.25), ("manufactured2d", 1.5, 0.2)):
        setup = build_benchmark(name, half_width=half_width, h=h)
        grid, a_max = setup.grid, setup.problem.a_max
        controls = rng.uniform(-a_max, a_max, grid.interior_shape + (grid.dim,))
        policy = PolicyField(grid, controls, a_max)
        u = GridField(grid, rng.uniform(-1, 1, grid.shape))
        gp = GridProblem(setup.problem, grid, setup.params)
        system = assemble_evaluation_system(EvaluationWorkspace(gp, u), policy)
        for k in range(grid.dim):
            assert not np.take(system.minus[k], 0, axis=k).any(), (name, k)
            assert not np.take(system.plus[k], -1, axis=k).any(), (name, k)
        a, b = system_to_dense(system)
        applied = a @ u.interior().reshape(-1) - b
        expected = bellman_residual(setup.problem, setup.params, u, policy).interior()
        scale = setup.params.center_weight * np.max(np.abs(u.values))
        gap = np.max(np.abs(applied - expected.reshape(-1)))
        assert gap <= 1e-14 * scale, (name, h)


def test_assembly_rejects_non_monotone_stencil():
    """Assembly runs the stencil's sign check: N must dominate |f_i|/2."""
    for dim, control in ((1, [1.0]), (2, [0.0, -1.0])):
        grid = build_grid(1.0, 0.25, dim=dim)
        policy = PolicyField(grid, np.broadcast_to(control, grid.interior_shape + (dim,)), 1.0)
        problem = constant_cost_problem(0.0, dim=dim)
        # |f| = 1, so N = 1/2 is the edge of monotonicity
        edge = SchemeParams(viscosity=0.5, h=0.25, dim=dim, lam=1.0)
        boundary = GridField.zeros(grid)
        assemble_evaluation_system(EvaluationWorkspace(GridProblem(problem, grid, edge), boundary),
                                   policy)
        low = SchemeParams(viscosity=0.45, h=0.25, dim=dim, lam=1.0)
        with pytest.raises(MonotonicityError, match="positive neighbor weight"):
            assemble_evaluation_system(
                EvaluationWorkspace(GridProblem(problem, grid, low), boundary), policy
            )


def test_assembly_refuses_a_system_whose_dominance_margin_falls_below_lam(monkeypatch):
    """Neighbor weights 0.1% too large keep their signs but take the margin
    of the rows with every neighbor inside below lam; assembly refuses that
    with the margin over both axes, in a workspace that has assembled before
    and in a new one.  A NaN weight is refused too.  The weights are scaled
    where assembly forms them, after the stencil's sign check."""
    write = linsolve.write_stencil

    def scaled_stencil(factor):
        def stencil(f, axes, *operands):
            write(f, axes, *operands)
            for _, plus, minus in axes:
                plus *= factor
                minus *= factor
        return stencil

    for name, h in (("lq1d", 0.2), ("lq1d", 0.02), ("manufactured2d", 0.25)):
        setup = build_benchmark(name, h=h)
        gp = GridProblem(setup.problem, setup.grid, setup.params)
        policy = PolicyField.zeros(setup.grid, setup.problem.a_max)
        workspace = EvaluationWorkspace(gp, setup.boundary)
        system = assemble_evaluation_system(workspace, policy)
        offsum = sum(np.abs(1.001 * w) for w in system.plus + system.minus)
        margin = setup.params.center_weight - float(np.max(offsum))
        lam = setup.params.lam
        assert margin < lam - 1e-3, name
        for factor, message in ((1.001, f"diagonal dominance margin {margin:.6g} fell below {lam}"),
                                (math.nan, f"diagonal dominance margin nan fell below {lam}")):
            with monkeypatch.context() as patch:
                patch.setattr(linsolve, "write_stencil", scaled_stencil(factor))
                for used in (workspace, EvaluationWorkspace(gp, setup.boundary)):
                    with pytest.raises(MonotonicityError) as error:
                        assemble_evaluation_system(used, policy)
                    assert str(error.value) == message, (name, h)


def test_assembly_and_error_metrics_refuse_fields_on_another_grid():
    """A field on an equal grid built separately is accepted; one on a grid
    of the same shape with another spacing and width is refused, by an
    evaluation workspace (the boundary) when it is built, by assembly and
    evaluation (the policy), in 1D and 2D, and by error_metrics."""
    for dim in (1, 2):
        grid = build_grid(1.0, 0.25, dim=dim)
        params = SchemeParams(viscosity=1.0, h=0.25, dim=dim, lam=1.0)
        gp = GridProblem(constant_cost_problem(1.0, dim=dim), grid, params)
        equal, other = build_grid(1.0, 0.25, dim=dim), build_grid(2.0, 0.5, dim=dim)
        assert equal == grid and equal is not grid and other.shape == grid.shape
        workspace = EvaluationWorkspace(gp, GridField.zeros(equal))
        assemble_evaluation_system(workspace, PolicyField.zeros(grid, 1.0))
        assemble_evaluation_system(workspace, PolicyField.zeros(equal, 1.0))
        with pytest.raises(ValueError, match="^boundary field lives on a different grid$"):
            EvaluationWorkspace(gp, GridField.zeros(other))
        for evaluate in (assemble_evaluation_system, policy_evaluate):
            with pytest.raises(ValueError, match="^policy lives on a different grid$"):
                evaluate(workspace, PolicyField.zeros(other, 1.0))
        if dim == 1:
            assert error_metrics(GridField.zeros(grid), GridField.zeros(equal)) == (0.0, 0.0)
            with pytest.raises(ValueError, match="different grid"):
                error_metrics(GridField.zeros(grid), GridField.zeros(other))


def test_thomas_examples():
    rng = make_rng(402)
    n = 6
    system = tridiagonal(np.zeros(n), np.ones(n), np.zeros(n), rng.uniform(-1, 1, n))
    assert solve_tridiagonal(system) == pytest.approx(system.rhs, abs=0)

    system = tridiagonal([0.0, -1.0], [2.0, 2.0], [-1.0, 0.0], [1.0, 1.0])
    assert solve_tridiagonal(system) == pytest.approx([1.0, 1.0], abs=1e-15)

    # one unknown; the ignored boundary weights minus[0][0] and plus[0][-1]
    # are nonzero
    system = tridiagonal([3.0], [4.0], [5.0], [2.0])
    assert np.array_equal(solve_tridiagonal(system), [0.5])


def test_thomas_matches_dense_on_random_systems():
    assert thomas_dense_gap(make_rng(403), 50, 2, 50) <= 1e-10


def test_thomas_on_assembled_lq1d_system():
    """The benchmark's 1D size (599 unknowns at h = 0.01), random policy:
    agrees with dense LU and leaves the system's arrays unchanged."""
    setup = build_benchmark("lq1d", h=0.01)
    a_max = setup.problem.a_max
    controls = make_rng(410).uniform(-a_max, a_max, setup.grid.interior_shape + (1,))
    system = assemble_evaluation_system(
        setup_workspace(setup), PolicyField(setup.grid, controls, a_max)
    )
    assert system.n == 599
    before = {name: a.copy() for name, a in system_arrays(system).items()}
    sol = solve_tridiagonal(system)
    for name, a in system_arrays(system).items():
        assert np.array_equal(a, before[name]), name
    assert np.max(np.abs(sol - solve_dense_oracle(system))) <= 1e-10


def test_reduction_matches_dense_around_the_threshold():
    """Sizes on both sides of the switch-over, both parities after each
    halving, and the benchmark's 599 and 600 unknowns."""
    t = REDUCTION_THRESHOLD
    rng = make_rng(412)
    for n in (t - 1, t, t + 1, 2 * t, 2 * t + 1, 599, 600, 2047):
        system = random_dominant_tridiagonal(rng, n)
        dense = solve_dense_oracle(system)
        gap = np.max(np.abs(solve_tridiagonal(system) - dense))
        assert gap <= 1e-12 * np.max(np.abs(dense)), n


def _exact_residual(system, x) -> float:
    """||rhs - A x||_inf in exact rational arithmetic."""
    minus, center, plus, rhs, xs = (
        [Fraction(v) for v in a.tolist()]
        for a in (system.minus[0], system.center, system.plus[0], system.rhs, x)
    )
    n = len(xs)
    worst = Fraction(0)
    for i in range(n):
        row = center[i] * xs[i]
        if i > 0:
            row += minus[i] * xs[i - 1]
        if i < n - 1:
            row += plus[i] * xs[i + 1]
        worst = max(worst, abs(rhs[i] - row))
    return float(worst)


def test_reduction_backward_error_at_benchmark_size():
    """||b - A x||_inf <= 8 eps || |A||x| + |b| ||_inf at 599 unknowns, on a
    random dominant system and on an assembled lq1d system."""
    setup = build_benchmark("lq1d", lam=0.25, h=0.01)
    a_max = setup.problem.a_max
    controls = make_rng(413).uniform(-a_max, a_max, setup.grid.interior_shape + (1,))
    assembled = assemble_evaluation_system(
        setup_workspace(setup), PolicyField(setup.grid, controls, a_max)
    )
    for system in (random_dominant_tridiagonal(make_rng(414), 599), assembled):
        assert system.n == 599
        x = solve_tridiagonal(system)
        a, b = system_to_dense(system)
        scale = float(np.max(np.abs(a) @ np.abs(x) + np.abs(b)))
        assert _exact_residual(system, x) <= 8 * np.finfo(float).eps * scale


def test_thomas_ignores_boundary_weights():
    """minus[0][0] and plus[0][-1] are ignored below the threshold (Thomas
    only) and above it with both parities; the inputs are left unchanged
    and the result shares no memory with them."""
    t = REDUCTION_THRESHOLD
    for n in (7, 2 * t + 1, 2 * t + 2):
        system = random_dominant_tridiagonal(make_rng(411), n)
        expected = solve_tridiagonal(system)
        for value in (1e300, -1e300, np.inf, -np.inf, np.nan):
            minus, plus = system.minus[0].copy(), system.plus[0].copy()
            minus[0] = plus[-1] = value
            changed = EvaluationSystem(
                center=system.center, plus=(plus,), minus=(minus,), rhs=system.rhs
            )
            before = {name: a.copy() for name, a in system_arrays(changed).items()}
            sol = solve_tridiagonal(changed)
            assert np.array_equal(sol, expected), (n, value)
            for name, a in system_arrays(changed).items():
                assert np.array_equal(a, before[name], equal_nan=True), name
                assert not np.shares_memory(sol, a), name


def test_thomas_zero_pivot_is_reported():
    # at row 0, and at row 1, where the pivot 1 - 1 * 1 vanishes
    for minus, center, plus in (([0.0, 0.0], [0.0, 1.0], [0.0, 0.0]),
                                ([0.0, 1.0], [1.0, 1.0], [1.0, 0.0])):
        system = tridiagonal(minus, center, plus, [1.0, 1.0])
        with pytest.raises(SolverError, match="zero pivot"):
            solve_tridiagonal(system)
    # above the threshold, a zero diagonal on a row the reduction eliminates
    # first is reported before any division, with no numpy warning
    n = 2 * REDUCTION_THRESHOLD + 1
    for row in (1, 7, n - 2):
        system = random_dominant_tridiagonal(make_rng(416), n)
        system.center[row] = 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SolverError, match="zero pivot"):
                solve_tridiagonal(system)


def pointwise_reduction(system):
    """Odd-even reduction, then Thomas elimination, one row at a time on
    Python floats, with the negated couplings lower[i] (row i + 1 on u_i)
    and upper[i] (row i on u_{i+1}); each row's floating-point operations
    come in the order solve_tridiagonal documents."""
    diag, rhs = system.center.tolist(), system.rhs.tolist()
    lower = [-w for w in system.minus[0].tolist()[1:]]
    upper = [-w for w in system.plus[0].tolist()[:-1]]
    margin = []
    for i, d in enumerate(diag):
        if i > 0:
            d -= lower[i - 1]
        if i < len(diag) - 1:
            d -= upper[i]
        margin.append(d)
    levels = []
    while len(diag) > REDUCTION_THRESHOLD:
        n = len(diag)
        levels.append((lower, diag, upper, rhs))
        new_rhs, new_margin, new_lower, new_upper = [], [], [], []
        for e in range(0, n, 2):
            r, s = rhs[e], margin[e]
            if e > 0:
                alpha = lower[e - 1] / diag[e - 1]
                r += alpha * rhs[e - 1]
                s += alpha * margin[e - 1]
                new_lower.append(alpha * lower[e - 2])
            if e + 1 < n:
                gamma = upper[e] / diag[e + 1]
                r += gamma * rhs[e + 1]
                s += gamma * margin[e + 1]
                if e + 2 < n:
                    new_upper.append(gamma * upper[e + 1])
            new_rhs.append(r)
            new_margin.append(s)
        rhs, margin, lower, upper = new_rhs, new_margin, new_lower, new_upper
        diag = []
        for e, s in enumerate(margin):
            if e > 0:
                s += lower[e - 1]
            if e < len(margin) - 1:
                s += upper[e]
            diag.append(s)
    # Thomas elimination, then back substitution
    w, x = [-upper[0] / diag[0] if upper else 0.0], [rhs[0] / diag[0]]
    for i in range(1, len(diag)):
        pivot = diag[i] + lower[i - 1] * w[-1]
        w.append(-upper[i] / pivot if i < len(upper) else 0.0)
        x.append((rhs[i] + lower[i - 1] * x[-1]) / pivot)
    for i in range(len(x) - 2, -1, -1):
        x[i] = x[i] - w[i] * x[i + 1]
    # each level's odd unknowns from their rows
    for lower, diag, upper, rhs in reversed(levels):
        full = [0.0] * len(diag)
        full[::2] = x
        for o in range(1, len(diag), 2):
            v = lower[o - 1] * full[o - 1] + rhs[o]
            if o + 1 < len(diag):
                v += upper[o] * full[o + 1]
            full[o] = v / diag[o]
        x = full
    return np.array(x)


def test_reduction_matches_pointwise_bit_for_bit():
    """The whole-array levels do each row's floating-point operations in
    the pointwise order: the same bits at zero, one and two levels, both
    parities after each halving, and the benchmark's 599 and 600 unknowns,
    on random dominant systems, the same with some right-hand sides -0.0,
    and assembled lq1d systems."""
    rng = make_rng(420)
    sizes = (1, 2, 3, 63, 64, 65, 127, 128, 129, 599, 600)
    for n in sizes:
        signed_zeros = random_dominant_tridiagonal(rng, n)
        signed_zeros.rhs[::3] = -0.0
        for system in (random_dominant_tridiagonal(rng, n), signed_zeros):
            assert solve_tridiagonal(system).tobytes() == pointwise_reduction(system).tobytes(), n
    for h in (0.01, 0.03):
        setup = build_benchmark("lq1d", h=h)
        a_max = setup.problem.a_max
        controls = rng.uniform(-a_max, a_max, setup.grid.interior_shape + (1,))
        system = assemble_evaluation_system(
            setup_workspace(setup), PolicyField(setup.grid, controls, a_max)
        )
        assert solve_tridiagonal(system).tobytes() == pointwise_reduction(system).tobytes(), h


def signed_zero_systems(n):
    """Four random dominant systems of n unknowns: as drawn, and with
    right-hand sides of +0.0 and -0.0 entries (a third of each, or only
    those), without and with couplings set to zeros of either sign."""
    rng = make_rng(430 + n)
    systems = []
    for zero_rhs, zero_couplings in ((False, False), (True, False), (False, True), (True, True)):
        system = random_dominant_tridiagonal(rng, n)
        if zero_rhs:
            system.rhs[...] = np.where(rng.random(n) < 0.5, 0.0, -0.0)
        else:
            system.rhs[::3], system.rhs[1::3] = -0.0, 0.0
        if zero_couplings:
            for w in system.minus + system.plus:
                zero = rng.random(n) < 0.4
                w[zero] = np.where(rng.random(n) < 0.5, 0.0, -0.0)[zero]
        systems.append(system)
    return systems


def solution_digest(solutions) -> str:
    return hashlib.sha256(b"".join(x.tobytes() for x in solutions)).hexdigest()


# SHA-256 of solve_tridiagonal's solutions of signed_zero_systems(n), as the
# implementation that negated both couplings of every level wrote them.
SOLUTION_DIGESTS = {
    1: "c74810f85eb06e0ab509fbb718349c29a6dcc0a341a426ff03b66d2470d70ddf",
    2: "12d9775bb769dcd5ba53b30741b953fccd709078be48b4c7d0f94266711b0508",
    3: "e993ac8559d6533d56c0c0f904dcd673be144cb49e6c80e3928ab0f73bcb69a9",
    63: "6f317f60db911f86597810b104909b305abcfbc4bb18ecdd1901ebeeb8242cf7",
    64: "499a83da0a10331f23b7e0d0db12d6c9feaecbfd206103cc8ca0c1e3e869f6de",
    65: "38d37bba49c19432b842ec905a4d8a9bbf57a704238b9b0cfb5e2360fe4e9c07",
    66: "26700545c4e5b5127e2912efbc1cf96b230a361a46132e08dd6330795543ac42",
    127: "82c0180a51a3c60226a89d6b87fb85744b224af0fccc4cf58c3a18182d88be43",
    128: "d85183692b79aacaa6ff83e912533f254e47528936a982a1aba370f06460fe29",
    599: "e52978bafbfed3572cab16fe5bc6a1359b8fd675a40c6852539b786eac455bad",
    600: "46febb2e848de8f3869576decf55f4dfd25041148ef9d535638c9b8fd2ff926e",
}


def test_reduction_keeps_the_bits_of_negated_couplings():
    """The first level reads the couplings with their signs, the others
    negated; the solutions keep every bit, signed zeros included, at zero,
    one and four levels, both parities, in fresh and reused layouts."""
    for n, digest in SOLUTION_DIGESTS.items():
        layout = ReductionLayout(n)
        for solve in (solve_tridiagonal, lambda system: solve_tridiagonal(system, layout)):
            assert solution_digest(map(solve, signed_zero_systems(n))) == digest, n


def test_workspace_rows_keep_the_bits_of_negated_couplings():
    """A workspace's system lies in its layout's top rows when the layout
    has a level, and is solved there with the bits of a copied system."""
    for n, digest in SOLUTION_DIGESTS.items():
        grid = build_grid((n + 1) / 2, 1.0, dim=1)
        gp = GridProblem(constant_cost_problem(0.0), grid, SchemeParams(1.0, 1.0, 1, 1.0))
        workspace = EvaluationWorkspace(gp, GridField.zeros(grid))
        own, layout = workspace.system, workspace.layout
        assert (own is layout.system) == (n > REDUCTION_THRESHOLD), n
        solutions = []
        for system in signed_zero_systems(n):
            own.center[...], own.rhs[...] = system.center, system.rhs
            own.minus[0][1:], own.plus[0][:-1] = system.minus[0][1:], system.plus[0][:-1]
            solutions.append(solve_tridiagonal(own, layout))
        assert solution_digest(solutions) == digest, n


def test_a_workspace_layout_solves_only_its_own_system():
    """Another system would overwrite the workspace's center, written once."""
    setup = build_benchmark("lq1d", h=0.01)
    gp = GridProblem(setup.problem, setup.grid, setup.params)
    workspace = EvaluationWorkspace(gp, setup.boundary)
    policy = PolicyField.zeros(setup.grid, setup.problem.a_max)
    system = assemble_evaluation_system(workspace, policy)
    assert system is workspace.layout.system
    expected = solve_tridiagonal(system)
    with pytest.raises(ValueError, match="holds its workspace's system"):
        solve_tridiagonal(random_dominant_tridiagonal(make_rng(422), system.n), workspace.layout)
    assert solve_tridiagonal(system, workspace.layout).tobytes() == expected.tobytes()


def test_reduction_layout_reuse_is_bit_identical():
    """One layout serves several systems of its size with the bits of fresh
    solves, into the caller's array, leaving the systems unchanged; a zero
    pivot raises the fresh solve's error, before any division, and leaves
    `out` as it was; a system of another size is refused."""
    rng = make_rng(421)
    n = 2 * REDUCTION_THRESHOLD + 3
    systems = [random_dominant_tridiagonal(rng, n) for _ in range(3)]
    singular = random_dominant_tridiagonal(rng, n)
    singular.center[2 * REDUCTION_THRESHOLD + 1] = 0.0  # an odd row of level 0
    layout = ReductionLayout(n)
    for system in systems + [singular] + systems[::-1]:
        out = np.full(n, np.nan)
        before = {name: a.copy() for name, a in system_arrays(system).items()}
        if system is singular:
            with pytest.raises(SolverError) as fresh_error:
                solve_tridiagonal(system)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(SolverError) as error:
                    solve_tridiagonal(system, layout=layout, out=out)
            assert str(error.value) == str(fresh_error.value)
            assert np.isnan(out).all()
            continue
        fresh = solve_tridiagonal(system)
        sol = solve_tridiagonal(system, layout=layout, out=out)
        assert sol is out
        assert sol.tobytes() == fresh.tobytes()
        for name, a in system_arrays(system).items():
            assert np.array_equal(a, before[name]), name
    for size in (n - 1, n + 1):
        with pytest.raises(ValueError, match="layout shape"):
            solve_tridiagonal(random_dominant_tridiagonal(rng, size), layout=layout)


# Edge shapes of the red-black layout: a single node, single rows and
# columns, and both parities of each side, which set its padding.
SOR_SHAPES = [(1, 1), (1, 4), (4, 1), (2, 3), (9, 8), (9, 9)]


def test_sor_matches_pointwise_red_black_bit_for_bit():
    """The vectorized kernel does each node's floating-point operations in
    the pointwise order: same solution bits and sweep count, and the
    layout's sweeps return the same update norms."""
    rng = make_rng(417)
    for shape in SOR_SHAPES:
        system = random_structured_system(rng, *shape)
        for omega, initial in ((1.7, None), (1.0, None), (1.3, rng.uniform(-1, 1, size=shape))):
            sol, stats = solve_sor(system, omega=omega, tol=1e-10, max_iter=5000, initial=initial)
            expect, sweeps, update = pointwise_red_black_sor(system, omega, 1e-10, 5000, initial)
            assert sol.tobytes() == expect.tobytes(), (shape, omega)
            assert stats == SolveStats(sweeps, 1e-10), (shape, omega)
            layout = RedBlackLayout(shape)
            layout.load(system, omega, initial)
            updates = [layout.sweep() for _ in range(sweeps)]
            assert updates[-1] == update <= 1e-10, (shape, omega)


def test_sor_layout_reuse_is_bit_identical():
    """One layout serves several systems and starts of its shape, also a
    cold start after a warm one and after a solve that raised when its
    budget cut it off, with the bits of fresh solves; the solution can go
    into a caller's array."""
    rng = make_rng(418)
    shape = (9, 8)
    systems = [random_structured_system(rng, *shape) for _ in range(3)]
    starts = [rng.uniform(-1, 1, size=shape), None, rng.uniform(-1, 1, size=shape), None]
    layout = RedBlackLayout(shape)
    runs = [(systems[0], starts[0], 5000), (systems[1], starts[1], 5000),
            (systems[2], starts[2], 3), (systems[0], starts[3], 5000),
            (systems[2], starts[0], 5000)]
    for system, initial, max_iter in runs:
        settings = dict(omega=1.7, tol=1e-10, max_iter=max_iter, initial=initial)
        out = np.full(shape, np.nan)
        if max_iter == 3:
            # cut off by its budget: the fresh solve's raise, and out untouched
            with pytest.raises(SolverError, match="after 3 sweeps") as fresh_error:
                solve_sor(system, **settings)
            with pytest.raises(SolverError) as error:
                solve_sor(system, layout=layout, out=out, **settings)
            assert str(error.value) == str(fresh_error.value)
            assert np.isnan(out).all()
            continue
        fresh, fresh_stats = solve_sor(system, **settings)
        sol, stats = solve_sor(system, layout=layout, out=out, **settings)
        assert sol is out
        assert sol.tobytes() == fresh.tobytes()
        assert stats == fresh_stats
    with pytest.raises(ValueError, match="layout shape"):
        solve_sor(random_structured_system(rng, 9, 9), omega=1.7, tol=1e-10, max_iter=5000,
                  layout=layout)


def test_sor_layout_follows_omega_across_loads():
    """One layout solves at omega 1.7, 1.0, 1.3 and 1.7 again, also right
    after a solve at another omega that raised, with the bits, sweeps and
    update norm of a fresh layout and of the pointwise sweeps."""
    rng = make_rng(420)
    shape = (9, 8)
    system = random_structured_system(rng, *shape)
    start = rng.uniform(-1, 1, size=shape)
    layout = RedBlackLayout(shape)
    runs = [(1.7, None, 5000), (1.0, start, 5000), (1.0, None, 3), (1.3, start, 5000),
            (1.3, start, 3), (1.7, start, 5000), (1.7, None, 5000)]
    for omega, initial, max_iter in runs:
        settings = dict(omega=omega, tol=1e-10, max_iter=max_iter, initial=initial)
        if max_iter == 3:
            with pytest.raises(SolverError, match="after 3 sweeps") as fresh_error:
                solve_sor(system, **settings)
            with pytest.raises(SolverError) as error:
                solve_sor(system, layout=layout, **settings)
            assert str(error.value) == str(fresh_error.value), omega
            continue
        fresh, fresh_stats = solve_sor(system, **settings)
        sol, stats = solve_sor(system, layout=layout, **settings)
        expect, sweeps, update = pointwise_red_black_sor(system, omega, 1e-10, max_iter, initial)
        assert sol.tobytes() == fresh.tobytes() == expect.tobytes(), omega
        assert stats == fresh_stats == SolveStats(sweeps, 1e-10), omega
        assert update <= 1e-10, omega


def layout_buffers(layout):
    """The buffers a layout's sweeps read and write: staging, layers,
    values, the shared update buffer, and the product term."""
    term = layout._steps[1][3]  # the first neighbour product's output
    return [layout._staging, layout._layers, layout._values, layout._delta, term]


def test_sor_layout_buffers_are_cache_line_aligned(monkeypatch):
    """Every layout buffer starts on a 64-byte boundary, and a layout with
    every buffer 8 bytes past one solves bit for bit the same."""

    def misaligned_zeros(shape):
        size = math.prod(shape)
        raw = np.zeros(size + 8)
        start = -raw.ctypes.data % 64 // 8 + 1
        return raw[start : start + size].reshape(shape)

    rng = make_rng(419)
    for shape in ((1, 1), (2, 3), (9, 8), (8, 9), (39, 39), (79, 79)):
        system = random_structured_system(rng, *shape)
        aligned = RedBlackLayout(shape)
        assert [b.ctypes.data % 64 for b in layout_buffers(aligned)] == [0] * 5, shape
        with monkeypatch.context() as patch:
            patch.setattr(linsolve, "_aligned_zeros", misaligned_zeros)
            reference = RedBlackLayout(shape)
        assert [b.ctypes.data % 64 for b in layout_buffers(reference)] == [8] * 5, shape
        settings = dict(omega=1.7, tol=1e-10, max_iter=5000)
        sol, stats = solve_sor(system, layout=aligned, **settings)
        expect, expect_stats = solve_sor(system, layout=reference, **settings)
        assert sol.tobytes() == expect.tobytes(), shape
        assert stats == expect_stats, shape


def test_sor_matches_dense_and_gauss_seidel():
    # omega = 1 is plain Gauss-Seidel and must converge on the same systems.
    for shape in SOR_SHAPES:
        system = random_structured_system(make_rng(404), *shape)
        dense = solve_dense_oracle(system)
        for omega in (1.7, 1.0):
            sol, stats = solve_sor(system, omega=omega, tol=1e-10, max_iter=5000)
            expect, sweeps, update = pointwise_red_black_sor(system, omega, 1e-10, 5000)
            assert sol.tobytes() == expect.tobytes() and update <= 1e-10, (shape, omega)
            assert stats == SolveStats(sweeps, 1e-10), (shape, omega)
            assert sol.shape == shape
            assert np.max(np.abs(sol - dense)) <= 1e-8, (shape, omega)


def test_sor_leaves_inputs_unchanged():
    """policy_evaluate warm starts from a view of the previous iterate."""
    rng = make_rng(409)
    system = random_structured_system(rng, 9, 8)
    initial = rng.uniform(-1, 1, size=(9, 8))
    before = {name: a.copy() for name, a in system_arrays(system).items()}
    initial_before = initial.copy()
    sol, stats = solve_sor(system, omega=1.7, tol=1e-10, max_iter=5000, initial=initial)
    expect, sweeps, update = pointwise_red_black_sor(system, 1.7, 1e-10, 5000, initial)
    assert sol.tobytes() == expect.tobytes() and update <= 1e-10
    assert stats == SolveStats(sweeps, 1e-10)
    assert np.array_equal(initial, initial_before)
    for name, a in system_arrays(system).items():
        assert np.array_equal(a, before[name]), name
    assert not np.shares_memory(sol, initial)


def test_sor_non_convergence_raises():
    """A solve that ends its budget above tol raises, with the update norm
    it stalled at; no caller has to check a flag."""
    rng = make_rng(405)
    system = random_structured_system(rng, 9, 9)
    with pytest.raises(SolverError, match=r"^SOR stalled at update norm \d\.\d{3}e[+-]\d+ "
                       r"after 2 sweeps \(tolerance 1\.000e-14\)$"):
        solve_sor(system, omega=1.7, tol=1e-14, max_iter=2)


def test_sor_reports_a_divergence_at_once():
    """run2d's first evaluation system (h = 0.05, adversarial policy)
    diverges under omega = 1.99.  SOR says so within 50 sweeps, before any
    value overflows, with both update norms; it does not run its whole
    budget and then report a stall."""
    setup = build_benchmark("manufactured2d", h=0.05)
    policy = initial_policy("adversarial2d", setup.grid, setup.problem)
    system = assemble_evaluation_system(setup_workspace(setup), policy)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SolverError, match=r"^SOR diverged after \d+ sweeps: update norm "
                           r"\d\.\d{3}e\+\d+, at least 1000 times the least update norm "
                           r"\d\.\d{3}e[+-]\d+ of this solve$") as error:
            solve_sor(system, omega=1.99, tol=PIConfig.solver_tol,
                      max_iter=PIConfig.solver_max_iter)
    assert int(str(error.value).split()[3]) <= 50


def test_sor_refuses_a_system_that_is_not_2d():
    system = random_dominant_tridiagonal(make_rng(424), 3)
    with pytest.raises(ValueError, match=r"^solve_sor needs a 2D system, of shape \(m0, m1\); "
                       r"got shape \(3,\)$"):
        solve_sor(system, omega=1.7, tol=1e-10, max_iter=5000)


def test_sor_validates_omega():
    """omega outside (0, 2), a non-finite or non-positive tol and a
    max_iter that is not an integer of at least 1 are refused."""
    rng = make_rng(406)
    system = random_structured_system(rng, 3, 3)
    for omega in (0.0, 2.0, -1.0, math.nan):
        with pytest.raises(ValueError, match="omega"):
            solve_sor(system, omega=omega, tol=1e-10, max_iter=5000)
    for tol in (math.nan, math.inf, 0.0, -1e-10):
        with pytest.raises(ValueError, match="tol"):
            solve_sor(system, omega=1.7, tol=tol, max_iter=5000)
    for max_iter in (2.5, True, 0, -1, "10"):
        with pytest.raises(ValueError, match="max_iter"):
            solve_sor(system, omega=1.7, tol=1e-10, max_iter=max_iter)
    sol, stats = solve_sor(system, omega=1.7, tol=1e-10, max_iter=np.int64(5000))
    expect, sweeps, update = pointwise_red_black_sor(system, 1.7, 1e-10, 5000)
    assert sol.tobytes() == expect.tobytes() and update <= 1e-10
    assert stats == SolveStats(sweeps, 1e-10)


def test_dense_oracle_limits():
    rng = make_rng(407)
    system = random_dominant_tridiagonal(rng, 4)
    a, b = system_to_dense(system)
    assert a.shape == (4, 4)
    assert np.array_equal(b, system.rhs)
    assert np.allclose(a @ solve_dense_oracle(system), system.rhs, atol=1e-12)
    big = random_structured_system(rng, 51, 51)
    with pytest.raises(ValueError):
        solve_dense_oracle(big)


def test_maximum_principle_and_solution_bound(lq_coarse):
    """Nonnegative cost and boundary give nonnegative, bounded solutions."""
    setup = lq_coarse
    lo, hi = maximum_principle_range(setup, make_rng(408), 10)
    assert lo >= -1e-12
    cost_sup = float(np.max(setup.problem.state_cost(setup.grid.node_coordinates()))) + 0.5 * 36.0
    bound = max(cost_sup / setup.problem.lam, float(np.max(np.abs(setup.boundary.values))))
    assert hi <= bound + 1e-9
