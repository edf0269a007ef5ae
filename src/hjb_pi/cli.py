"""Command-line harness: benchmark runs, mesh sweeps and the property checks.

Subcommands
-----------
run1d   1D quadratic-cost benchmark with greedy policy iteration.
run2d   2D manufactured benchmark with relaxed policy iteration and red-black SOR.
sweep   1D mesh sweep with per-h iteration budgets and a fitted error slope.
check   Structural property suite, one PASS/FAIL line per property.

All artifacts are plain UTF-8 CSV and JSON.  Numbers in CSV bodies are
written with 17 significant digits so re-running a command with the same
flags reproduces files byte for byte; JSON summaries echo the full run
configuration and contain no timestamps.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
from dataclasses import dataclass

from .analysis import detect_plateau, fit_power_rate, optimal_iteration_count
from .benchmarks import BENCHMARK_DEFAULTS, BENCHMARK_NAMES, BenchmarkSetup, build_benchmark
from .checks import run_checks
from .grid import Grid
from .howard import PIConfig, PIReport, run_policy_iteration
from .linsolve import SolverError
from .scheme import MonotonicityError, bellman_residual

__all__ = ["RunConfig", "execute_command", "main"]

SLICE_X0 = 0.80
SLICE_Y0 = -0.80
SLICE_ITERATIONS = (0, 5, 15, 30)


@dataclass(frozen=True)
class RunConfig:
    """Echoed verbatim into every JSON summary."""

    command: str
    benchmark: str
    lam: float
    half_width: float
    h: float
    iterations: int
    theta: float
    a_max: float
    initial_policy: str
    omega: float
    solver_tol: float
    solver_max_iter: int
    outer_tolerance: float | None
    sweep_h: tuple[float, ...] | None
    out_dir: str

    def __post_init__(self) -> None:
        # the solver settings are checked once, by PIConfig
        numeric = {
            "lambda": self.lam,
            "half_width": self.half_width,
            "h": self.h,
            "iterations": self.iterations,
            "theta": self.theta,
            "a_max": self.a_max,
        }
        for name, value in numeric.items():
            if not value > 0:
                raise ValueError(f"{name} must be positive, got {value}")
        if self.benchmark not in BENCHMARK_NAMES:
            raise ValueError(f"unknown benchmark {self.benchmark!r}")

    def to_dict(self) -> dict:
        out = dataclasses.asdict(self)
        out["lambda"] = out.pop("lam")
        if out["sweep_h"] is not None:
            out["sweep_h"] = list(out["sweep_h"])
        return out


def _fmt(value: float) -> str:
    return "%.17g" % value


def _write_csv(path: str, header: list[str], rows: list[list[float]]) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _trajectory_rows(report: PIReport) -> list[list[float]]:
    rows = []
    for n in range(report.iterations_run):
        rows.append(
            [
                float(n),
                report.linf_error_to_reference[n],
                report.l2_error_to_reference[n],
                report.residual_l2[n],
                report.monotonicity_violation[n],
                float(report.solve_stats[n].iterations),
                report.inner_tolerance[n],
            ]
        )
    return rows


TRAJECTORY_HEADER = [
    "iter",
    "linf_error",
    "l2_error",
    "residual_l2",
    "monotonicity_violation",
    "inner_sweeps",
    "inner_tol",
]


def _pi_config(config: RunConfig, snapshots: tuple[int, ...] = ()) -> PIConfig:
    return PIConfig(
        max_outer_iterations=config.iterations,
        relaxation_theta=config.theta,
        initial_policy_spec=config.initial_policy,
        outer_tolerance=config.outer_tolerance,
        omega=config.omega,
        solver_tol=config.solver_tol,
        solver_max_iter=config.solver_max_iter,
        snapshot_iterations=snapshots,
    )


def _summary_payload(config: RunConfig, setup: BenchmarkSetup, report: PIReport) -> dict:
    residual = bellman_residual(setup.problem, setup.params, report.final_value)
    plateau = detect_plateau(
        [e for e in report.linf_error_to_reference if math.isfinite(e)],
        window=min(10, max(2, report.iterations_run)),
        rel_band=0.01,
    )
    return {
        "config": config.to_dict(),
        "derived": {
            "viscosity": setup.params.viscosity,
            "contraction_factor": setup.params.contraction_factor,
            "center_weight": setup.params.center_weight,
            "optimal_iteration_count": optimal_iteration_count(
                config.h, config.lam, setup.grid.dim, setup.params.viscosity
            )
            if config.h < 1
            else None,
            "nodes_per_axis": setup.grid.nodes_per_axis,
        },
        "result": {
            "iterations_run": report.iterations_run,
            "stop_reason": report.stop_reason,
            "final_linf_error": report.linf_error_to_reference[-1],
            "final_l2_error": report.l2_error_to_reference[-1],
            "final_residual_l2": report.residual_l2[-1],
            "final_linf_norm": report.linf_norm[-1],
            # ||F_h[V]||_inf / lam bounds ||V - V^h||_inf without a reference
            "final_certified_error": float(abs(residual.values).max()) / setup.params.lam,
            "plateau_start": plateau,
            "max_inner_iterations": max(s.iterations for s in report.solve_stats),
            "total_inner_iterations": sum(s.iterations for s in report.solve_stats),
        },
    }


def _setup(config: RunConfig) -> BenchmarkSetup:
    return build_benchmark(
        config.benchmark,
        lam=config.lam,
        half_width=config.half_width,
        h=config.h,
        a_max=config.a_max,
    )


def _solve(config: RunConfig, setup: BenchmarkSetup, snapshots: tuple[int, ...] = ()) -> PIReport:
    return run_policy_iteration(
        setup.problem,
        setup.grid,
        setup.params,
        _pi_config(config, snapshots),
        boundary=setup.boundary,
        reference=setup.reference,
    )


def _cmd_run1d(config: RunConfig) -> int:
    setup = _setup(config)
    report = _solve(config, setup)
    os.makedirs(config.out_dir, exist_ok=True)
    _write_csv(
        os.path.join(config.out_dir, "run1d_trajectory.csv"),
        TRAJECTORY_HEADER,
        _trajectory_rows(report),
    )
    _write_json(
        os.path.join(config.out_dir, "run1d_summary.json"),
        _summary_payload(config, setup, report),
    )
    print(
        f"run1d: {report.iterations_run} iterations, "
        f"final linf error {report.linf_error_to_reference[-1]:.6e}"
    )
    return 0


def _slice_index(grid: Grid, fixed: float) -> int:
    """Index along an axis of the node at coordinate `fixed`."""
    k = int(round((fixed + grid.half_width) / grid.h))
    inside = 0 <= k < grid.nodes_per_axis
    if not (inside and math.isclose(grid.axis_coords()[k], fixed, abs_tol=1e-9)):
        raise ValueError(f"slice coordinate {fixed} is not a grid node of "
                         f"[{-grid.half_width}, {grid.half_width}] at h={grid.h}")
    return k


def _slice_rows(
    setup: BenchmarkSetup, report: PIReport, axis: int, k: int
) -> tuple[list[str], list[list[float]]]:
    """Profile along one axis with the other index held at `k`."""
    coords = setup.grid.axis_coords()
    taken = [n for n in SLICE_ITERATIONS if n in report.value_snapshots]
    header = ["coord", "reference"] + [f"v_n{n}" for n in taken] + ["v_final"]
    fields = [report.value_snapshots[n] for n in taken] + [report.final_value.values]
    rows = []
    for i in range(setup.grid.nodes_per_axis):
        idx = (k, i) if axis == 0 else (i, k)
        row = [coords[i], setup.reference.values[idx]]
        row.extend(f[idx] for f in fields)
        rows.append(row)
    return header, rows


def _cmd_run2d(config: RunConfig) -> int:
    snapshots = tuple(n for n in SLICE_ITERATIONS if n < config.iterations)
    setup = _setup(config)
    # refuse slices off the grid before solving, not after
    kx = _slice_index(setup.grid, SLICE_X0)
    ky = _slice_index(setup.grid, SLICE_Y0)
    report = _solve(config, setup, snapshots)
    os.makedirs(config.out_dir, exist_ok=True)
    _write_csv(
        os.path.join(config.out_dir, "run2d_trajectory.csv"),
        TRAJECTORY_HEADER,
        _trajectory_rows(report),
    )
    # Slice with x fixed at SLICE_X0 runs along y, and vice versa.
    header_x, rows_x = _slice_rows(setup, report, axis=0, k=kx)
    _write_csv(os.path.join(config.out_dir, "run2d_slice_x0.csv"), header_x, rows_x)
    header_y, rows_y = _slice_rows(setup, report, axis=1, k=ky)
    _write_csv(os.path.join(config.out_dir, "run2d_slice_y0.csv"), header_y, rows_y)
    _write_json(
        os.path.join(config.out_dir, "run2d_summary.json"),
        _summary_payload(config, setup, report),
    )
    first = report.linf_error_to_reference[0]
    last = report.linf_error_to_reference[-1]
    print(
        f"run2d: {report.iterations_run} iterations, linf error "
        f"{first:.6e} -> {last:.6e}"
    )
    return 0


def _cmd_sweep(config: RunConfig, cap: int) -> int:
    h_values = config.sweep_h
    # build every mesh first, so a bad one is refused before any solve
    setups = [_setup(dataclasses.replace(config, h=h)) for h in h_values]
    rows = []
    errors = []
    for h, setup in zip(h_values, setups):
        budget = optimal_iteration_count(h, config.lam, setup.grid.dim, setup.params.viscosity)
        report = _solve(dataclasses.replace(config, h=h, iterations=min(budget, cap)), setup)
        err = report.linf_error_to_reference[-1]
        rows.append(
            [h, float(report.iterations_run), err, report.l2_error_to_reference[-1]]
        )
        errors.append(err)
    fit = fit_power_rate(h_values, errors)
    os.makedirs(config.out_dir, exist_ok=True)
    _write_csv(
        os.path.join(config.out_dir, "sweep.csv"),
        ["h", "n_iterations", "linf_error", "l2_error"],
        rows,
    )
    _write_json(
        os.path.join(config.out_dir, "sweep_summary.json"),
        {
            "config": config.to_dict(),
            "result": {
                "fitted_slope": fit.slope,
                "fitted_intercept": fit.intercept,
                "r_squared": fit.r_squared,
                "points_used": fit.points_used,
                "iteration_cap": cap,
            },
        },
    )
    print(f"sweep: {len(rows)} meshes, fitted error slope {fit.slope:.4f}")
    return 0


def _add_common_flags(parser: argparse.ArgumentParser, benchmark: str) -> None:
    defaults = BENCHMARK_DEFAULTS[benchmark]
    parser.add_argument("--lambda", dest="lam", type=float, default=defaults["lam"],
                        help="discount rate (default %(default)s)")
    parser.add_argument("--half-width", type=float, default=defaults["half_width"],
                        help="domain half-width L (default %(default)s)")
    parser.add_argument("--h", type=float, default=defaults["h"],
                        help="mesh size (default %(default)s)")
    parser.add_argument("--iterations", type=int, default=defaults["iterations"],
                        help="outer iteration budget (default %(default)s)")
    parser.add_argument("--theta", type=float, default=defaults["theta"],
                        help="policy relaxation weight in (0,1] (default %(default)s)")
    parser.add_argument("--a-max", type=float, default=defaults["a_max"],
                        help="control box half-width (default %(default)s)")
    parser.add_argument("--omega", type=float, default=PIConfig.omega,
                        help="SOR relaxation parameter (default %(default)s)")
    parser.add_argument("--solver-tol", type=float, default=PIConfig.solver_tol,
                        help="inner solver update tolerance; the floor of the inexact "
                        "schedule when theta < 1 (default %(default)s)")
    parser.add_argument("--solver-max-iter", type=int, default=PIConfig.solver_max_iter,
                        help="inner solver sweep cap (default %(default)s)")
    parser.add_argument("--outer-tol", dest="outer_tolerance", type=float, default=None,
                        help="optional early-stop tolerance on max |V_n - V_{n-1}|")
    parser.add_argument("--out-dir", default="out",
                        help="directory for CSV/JSON artifacts (default %(default)s)")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hjb-pi",
        description="Policy-iteration benchmarks for a monotone discounted "
        "Hamilton-Jacobi-Bellman scheme.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p1 = sub.add_parser("run1d", help="1D quadratic-cost benchmark, greedy updates")
    _add_common_flags(p1, "lq1d")

    p2 = sub.add_parser("run2d", help="2D manufactured benchmark, relaxed updates")
    _add_common_flags(p2, "manufactured2d")

    ps = sub.add_parser("sweep", help="mesh sweep with fitted error slope (lq1d only)")
    ps.add_argument("--benchmark", choices=list(BENCHMARK_NAMES), default="lq1d")
    _add_common_flags(ps, "lq1d")
    ps.set_defaults(h=None, iterations=None)  # refused: see execute_command
    ps.add_argument("--h-list", default="0.2,0.1,0.05,0.025",
                    help="comma-separated mesh sizes (default %(default)s)")
    ps.add_argument("--max-iterations", type=int, default=2000,
                    help="cap on the per-mesh iteration budget (default %(default)s)")

    pc = sub.add_parser("check", help="run the structural property suite")
    pc.add_argument("--fast", action="store_true",
                    help="skip the slow value-iteration cross-check")

    return parser


def _config_from_args(args: argparse.Namespace, command: str, benchmark: str,
                      sweep_h: tuple[float, ...] | None) -> RunConfig:
    return RunConfig(
        command=command,
        benchmark=benchmark,
        lam=args.lam,
        half_width=args.half_width,
        h=args.h,
        iterations=args.iterations,
        theta=args.theta,
        a_max=args.a_max,
        initial_policy=BENCHMARK_DEFAULTS[benchmark]["initial_policy"],
        omega=args.omega,
        solver_tol=args.solver_tol,
        solver_max_iter=args.solver_max_iter,
        outer_tolerance=args.outer_tolerance,
        sweep_h=sweep_h,
        out_dir=args.out_dir,
    )


def execute_command(argv: list[str]) -> int:
    """Parse argv and run one subcommand; returns the process exit status."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        if args.subcommand == "run1d":
            config = _config_from_args(args, "run1d", "lq1d", None)
            return _cmd_run1d(config)
        if args.subcommand == "run2d":
            config = _config_from_args(args, "run2d", "manufactured2d", None)
            return _cmd_run2d(config)
        if args.subcommand == "sweep":
            if args.benchmark == "manufactured2d":
                raise ValueError(
                    "sweep cannot fit a convergence order on manufactured2d: its "
                    "reference solves the discrete equation exactly at every h, so "
                    "the errors are iteration error alone and the slope would mean nothing"
                )
            if args.h is not None or args.iterations is not None:
                raise ValueError("sweep takes h from --h-list and each budget from "
                                 "optimal_iteration_count; it does not accept --h or --iterations")
            h_values = tuple(float(tok) for tok in args.h_list.split(",") if tok)
            # the fitted order needs two or more meshes, finer and finer
            pairs = zip(h_values, h_values[1:])
            if len(h_values) < 2 or not all(math.inf > a > b > 0 for a, b in pairs):
                raise ValueError(
                    "--h-list must name at least two positive, finite, strictly "
                    f"decreasing mesh sizes, got {args.h_list!r}"
                )
            args.h = h_values[0]  # echoed placeholders; each run sets its own h and budget
            args.iterations = BENCHMARK_DEFAULTS[args.benchmark]["iterations"]
            config = _config_from_args(args, "sweep", args.benchmark, h_values)
            if config.outer_tolerance is None:
                config = dataclasses.replace(config, outer_tolerance=1e-12)
            return _cmd_sweep(config, args.max_iterations)
        if args.subcommand == "check":
            failures = run_checks(fast=args.fast)
            return 1 if failures else 0
        raise ValueError(f"unknown subcommand {args.subcommand!r}")
    except (ValueError, MonotonicityError, SolverError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(execute_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
