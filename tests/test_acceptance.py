"""End-to-end acceptance suite for the policy-iteration solver.

One test per advertised guarantee, in a fixed order.  Every test prints a
single PASS/FAIL line with the measured quantity (run pytest with -s to see
them) and asserts both the property and its runtime budget.  The long runs
are cached at module level; their construction cost lands on the first
criterion that needs them, which is the one whose budget accounts for it.
"""

import math
import time
from functools import lru_cache

import numpy as np

from hjb_pi import (
    PIConfig,
    bellman_residual,
    build_benchmark,
    certify_monotone_stencil,
    detect_plateau,
    error_metrics,
    fit_power_rate,
    optimal_iteration_count,
    run_policy_iteration,
)
from hjb_pi.checks import contraction_excess, fixed_point_gap, sor_dense_gap, thomas_dense_gap
from hjb_pi.cli import execute_command
from hjb_pi.oracles import fit_quadratic_coefficient, lq_value_iteration


def _report(tag: str, ok: bool, detail: str, elapsed: float) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {tag}: {detail} [{elapsed:.2f} s]")
    assert ok, f"{tag}: {detail}"


@lru_cache(maxsize=None)
def _setup(name: str, h: float | None = None):
    return build_benchmark(name) if h is None else build_benchmark(name, h=h)


@lru_cache(maxsize=None)
def _lq_paper_run():
    s = _setup("lq1d")
    cfg = PIConfig(max_outer_iterations=50)
    return run_policy_iteration(
        s.problem, s.grid, s.params, cfg, boundary=s.boundary, reference=s.reference
    )


@lru_cache(maxsize=None)
def _lq_coarse_fixed_point():
    s = _setup("lq1d", 0.2)
    cfg = PIConfig(max_outer_iterations=500, outer_tolerance=1e-12)
    return run_policy_iteration(
        s.problem, s.grid, s.params, cfg, boundary=s.boundary, reference=s.reference
    )


@lru_cache(maxsize=None)
def _lq_coarse_envelope_run():
    """Greedy iterates on the coarse 1D mesh, errors against converged V^h."""
    s = _setup("lq1d", 0.2)
    fixed = _lq_coarse_fixed_point()
    cfg = PIConfig(max_outer_iterations=40)
    return run_policy_iteration(
        s.problem, s.grid, s.params, cfg,
        boundary=s.boundary, reference=fixed.final_value,
    )


@lru_cache(maxsize=None)
def _man_greedy_run():
    s = _setup("manufactured2d", 0.1)
    cfg = PIConfig(
        max_outer_iterations=30, relaxation_theta=1.0,
        initial_policy_spec="adversarial2d",
    )
    return run_policy_iteration(
        s.problem, s.grid, s.params, cfg, boundary=s.boundary, reference=s.reference
    )


@lru_cache(maxsize=None)
def _man_paper_run():
    s = _setup("manufactured2d")
    cfg = PIConfig(
        max_outer_iterations=60, relaxation_theta=0.18,
        initial_policy_spec="adversarial2d",
    )
    return run_policy_iteration(
        s.problem, s.grid, s.params, cfg, boundary=s.boundary, reference=s.reference
    )


@lru_cache(maxsize=None)
def _lq_paper_floor() -> float:
    """Discretization floor ||V^h - V||_inf on the reported 1D mesh."""
    s = _setup("lq1d")
    cfg = PIConfig(max_outer_iterations=500, outer_tolerance=1e-12)
    rep = run_policy_iteration(
        s.problem, s.grid, s.params, cfg, boundary=s.boundary, reference=s.reference
    )
    return error_metrics(rep.final_value, s.reference)[0]


@lru_cache(maxsize=None)
def _vi_fit() -> float:
    x, v = lq_value_iteration()
    return fit_quadratic_coefficient(x, v)


def _value_bound(setup) -> float:
    """max(sup |c| / lam, sup |boundary|), the discrete comparison bound."""
    q = np.asarray(setup.problem.state_cost(setup.grid.node_coordinates()), dtype=float)
    shift = 0.5 * setup.problem.a_max**2
    cost_sup = float(np.max(np.maximum(np.abs(q), np.abs(q + shift))))
    return max(cost_sup / setup.params.lam, float(np.max(np.abs(setup.boundary.values))))


def test_c01_monotone_stencil_certification():
    t0 = time.perf_counter()
    worst = -np.inf
    dev = 0.0
    for name in ("lq1d", "manufactured2d"):
        s = _setup(name)
        cert = certify_monotone_stencil(s.problem, s.grid, s.params, n_controls=10000)
        assert cert.controls_checked >= 10000
        assert cert.nodes_checked == (s.grid.nodes_per_axis - 2) ** s.grid.dim
        worst = max(worst, cert.max_neighbor_coefficient)
        dev = max(dev, cert.max_row_sum_deviation)
        sign_tol = 1e-12 * max(1.0, s.params.viscosity / s.params.h)
        assert worst <= sign_tol
    elapsed = time.perf_counter() - t0
    ok = dev <= 1e-12 and elapsed < 5.0
    _report(
        "c01 monotone stencil certification",
        ok,
        f"max neighbor weight {worst:.2e}, max row-sum deviation {dev:.2e}",
        elapsed,
    )


def test_c02_fixed_point_identity():
    t0 = time.perf_counter()
    worst = fixed_point_gap(_setup("lq1d", 0.1), np.random.default_rng(9001), 10, 5.0)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and elapsed < 1.0
    _report(
        "c02 residual/resolvent identity", ok,
        f"max scaled gap {worst:.2e} (allowed 1e-12)", elapsed,
    )


def test_c03_resolvent_contraction():
    t0 = time.perf_counter()
    s = _setup("lq1d", 0.1)
    beta = s.params.contraction_factor
    excess = contraction_excess(s, np.random.default_rng(9002), 10, 4.0)
    elapsed = time.perf_counter() - t0
    ok = excess <= 1e-12 and elapsed < 1.0
    _report(
        "c03 resolvent contraction", ok,
        f"max excess over beta bound {excess:.2e} (beta {beta:.6f})", elapsed,
    )


def test_c04_geometric_error_envelope():
    t0 = time.perf_counter()
    s = _setup("lq1d", 0.2)
    rep = _lq_coarse_envelope_run()
    beta = s.params.contraction_factor
    errors = rep.linf_error_to_reference
    excess = max(
        err - (beta**n * errors[0] + 1e-8) for n, err in enumerate(errors)
    )
    elapsed = time.perf_counter() - t0
    ok = excess <= 0.0 and elapsed < 5.0
    _report(
        "c04 geometric envelope", ok,
        f"max excess over beta^n e0 {excess:.2e} across {len(errors)} iterates",
        elapsed,
    )


def test_c05_greedy_value_decrease():
    t0 = time.perf_counter()
    v1 = float(np.nanmax(_lq_paper_run().monotonicity_violation))
    v2 = float(np.nanmax(_man_greedy_run().monotonicity_violation))
    worst = max(v1, v2)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-8 and elapsed < 60.0
    _report(
        "c05 greedy iterates never increase", ok,
        f"max pointwise increase 1d {v1:.2e}, 2d {v2:.2e} (allowed 1e-8)",
        elapsed,
    )


def test_c06_uniform_value_bound():
    t0 = time.perf_counter()
    worst_margin = -np.inf
    for setup, rep in (
        (_setup("lq1d", 0.2), _lq_coarse_envelope_run()),
        (_setup("lq1d"), _lq_paper_run()),
        (_setup("manufactured2d", 0.1), _man_greedy_run()),
    ):
        bound = _value_bound(setup) + 1e-9
        worst_margin = max(worst_margin, float(np.max(rep.linf_norm)) - bound)
    elapsed = time.perf_counter() - t0
    ok = worst_margin <= 0.0
    _report(
        "c06 uniform bound on iterates", ok,
        f"max overshoot of comparison bound {worst_margin:.2e}", elapsed,
    )


def test_c07_manufactured_solution_exactness():
    t0 = time.perf_counter()
    s = _setup("manufactured2d")
    res = bellman_residual(s.problem, s.params, s.reference)
    worst = float(np.max(np.abs(res.interior())))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-11 and elapsed < 1.0
    _report(
        "c07 manufactured field solves the scheme", ok,
        f"max interior residual {worst:.2e} on the 81x81 mesh (allowed 1e-11)",
        elapsed,
    )


def test_c08_solvers_match_dense_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(9008)  # the SOR systems are drawn after the Thomas ones
    worst_thomas = thomas_dense_gap(rng, 50, 1, 50)
    worst_sor = sor_dense_gap(rng, 10, (9, 9), tol=1e-10, max_iter=5000)
    elapsed = time.perf_counter() - t0
    ok = worst_thomas <= 1e-10 and worst_sor <= 1e-8 and elapsed < 5.0
    _report(
        "c08 linear solvers vs dense oracle", ok,
        f"thomas max gap {worst_thomas:.2e} (50 systems), "
        f"sor max gap {worst_sor:.2e} (10 systems)",
        elapsed,
    )


def test_c09_mesh_convergence_rate():
    t0 = time.perf_counter()
    hs = (0.2, 0.1, 0.05, 0.025)
    errors = []
    for h in hs:
        s = _setup("lq1d", h)
        budget = min(
            optimal_iteration_count(h, s.params.lam, 1, s.params.viscosity), 2000
        )
        cfg = PIConfig(max_outer_iterations=budget, outer_tolerance=1e-12)
        rep = run_policy_iteration(
            s.problem, s.grid, s.params, cfg,
            boundary=s.boundary, reference=s.reference,
        )
        errors.append(rep.linf_error_to_reference[-1])
    fit = fit_power_rate(hs, errors)
    elapsed = time.perf_counter() - t0
    ok = fit.slope >= 0.45 and elapsed < 120.0
    _report(
        "c09 mesh convergence order", ok,
        f"fitted slope {fit.slope:.3f} over h={hs} (required >= 0.45), "
        f"errors {['%.3e' % e for e in errors]}",
        elapsed,
    )


def test_c10_plateau_matches_discretization_floor():
    t0 = time.perf_counter()
    traj = _lq_paper_run().linf_error_to_reference
    idx = detect_plateau(traj, window=10, rel_band=0.01)
    floor = _lq_paper_floor()
    level = traj[-1]
    rel = abs(level - floor) / floor
    elapsed = time.perf_counter() - t0
    ok = idx is not None and rel <= 0.05 and elapsed < 60.0
    _report(
        "c10 error plateau at the mesh floor", ok,
        f"plateau from iteration {idx}, level {level:.6e} vs floor {floor:.6e} "
        f"(rel gap {rel:.2e}, allowed 0.05)",
        elapsed,
    )


def test_c11_relaxed_2d_run_decays():
    t0 = time.perf_counter()
    errors = _man_paper_run().linf_error_to_reference
    steps = np.diff(errors[3:])
    max_step = float(np.max(steps))
    ratio = errors[-1] / errors[0]
    elapsed = time.perf_counter() - t0
    ok = max_step <= 1e-9 and errors[-1] <= errors[0] / 100.0 and elapsed < 600.0
    _report(
        "c11 relaxed 2d error decay", ok,
        f"max error step after iteration 3 {max_step:.2e}, "
        f"final/initial {ratio:.2e} (required <= 1e-2)",
        elapsed,
    )


def test_c12_value_iteration_confirms_root_choice():
    t0 = time.perf_counter()
    fitted = _vi_fit()
    adopted = 0.618034
    rejected = (1.0 + math.sqrt(5.0)) / 2.0
    rel_adopted = abs(fitted - adopted) / adopted
    rel_rejected = abs(fitted - rejected) / rejected
    elapsed = time.perf_counter() - t0
    ok = rel_adopted <= 0.01 and rel_rejected > 0.10 and elapsed < 60.0
    _report(
        "c12 independent dynamic-programming cross-check", ok,
        f"fitted quadratic coefficient {fitted:.6f}: {rel_adopted:.2e} from "
        f"{adopted}, {rel_rejected:.2e} from the sign-flipped root {rejected:.6f}",
        elapsed,
    )


def test_c13_repeat_runs_byte_identical(tmp_path):
    t0 = time.perf_counter()
    for sub in ("one", "two"):
        code = execute_command(["run1d", "--out-dir", str(tmp_path / sub)])
        assert code == 0
    a = (tmp_path / "one" / "run1d_trajectory.csv").read_bytes()
    b = (tmp_path / "two" / "run1d_trajectory.csv").read_bytes()
    elapsed = time.perf_counter() - t0
    ok = a == b and len(a) > 0
    _report(
        "c13 repeat runs byte-identical", ok,
        f"trajectory files of two default 1d runs match ({len(a)} bytes)",
        elapsed,
    )
