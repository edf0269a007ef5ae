"""Command-line harness: benchmark runs, mesh sweeps and the property checks.

Subcommands
-----------
run1d   1D quadratic-cost benchmark with greedy policy iteration.
run2d   2D manufactured benchmark with relaxed policy iteration and red-black SOR.
sweep   lq1d mesh sweep with per-h iteration budgets and a fitted error slope.
check   Structural property suite, one PASS/FAIL line per property.

Each command takes only the flags it can use.  All artifacts are plain
UTF-8 CSV and JSON.  Numbers in CSV bodies are written with 17 significant
digits so re-running a command with the same flags reproduces files byte
for byte; JSON summaries echo the command's flags and no timestamps.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from .analysis import detect_plateau, fit_power_rate, optimal_iteration_count
from .benchmarks import BENCHMARK_DEFAULTS, BenchmarkSetup, build_benchmark
from .grid import Grid
from .howard import PIConfig, PIReport, run_policy_iteration
from .linsolve import SolverError
from .scheme import MonotonicityError, bellman_residual

__all__ = ["execute_command", "main"]

# the benchmark each command solves; its defaults are the command's flag defaults
BENCHMARKS = {"run1d": "lq1d", "run2d": "manufactured2d", "sweep": "lq1d"}

# flags echoed into the JSON summaries under their own names, by the commands that take them
ECHOED_FLAGS = ("half_width", "h", "iterations", "theta", "a_max", "outer_tolerance", "out_dir")
# the SOR settings: only run2d takes them, run1d and sweep keep PIConfig's
SOLVER_FLAGS = ("omega", "solver_tol", "solver_max_iter")

# run2d profiles: file suffix -> (axis of the fixed coordinate, its value);
# the profile with x fixed runs along y, and vice versa
SLICES = {"x0": (0, 0.80), "y0": (1, -0.80)}
SLICE_ITERATIONS = (0, 5, 15, 30)


def _config_echo(args: argparse.Namespace) -> dict:
    """The settings of a run as parsed, echoed verbatim into its JSON summary:
    the command, its benchmark (BENCHMARKS) and that benchmark's initial
    policy, and the flags the command takes, and no others.

    Nothing is checked here: Grid, ControlProblem, SchemeParams and PIConfig
    refuse a meaningless setting when the run builds them.
    """
    benchmark = BENCHMARKS[args.subcommand]
    return {
        "command": args.subcommand,
        "benchmark": benchmark,
        "lambda": args.lam,
        "initial_policy": BENCHMARK_DEFAULTS[benchmark]["initial_policy"],
        **{name: getattr(args, name) for name in ECHOED_FLAGS + SOLVER_FLAGS if name in args},
    }


def _fmt(value: float) -> str:
    return "%.17g" % value


def _write_csv(path: str, header: list[str], rows: list[list[float]]) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def _write_json(path: str, payload: dict) -> None:
    """Strict JSON: a non-finite number raises ValueError before the file
    is opened, so no NaN or Infinity token is ever written."""
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text + "\n")


def _trajectory_rows(report: PIReport) -> list[list[float]]:
    return [
        [float(n), report.linf_error_to_reference[n], report.l2_error_to_reference[n],
         report.residual_l2[n], report.monotonicity_violation[n],
         float(stats.iterations), stats.tol]
        for n, stats in enumerate(report.solve_stats)
    ]


TRAJECTORY_HEADER = [
    "iter",
    "linf_error",
    "l2_error",
    "residual_l2",
    "monotonicity_violation",
    "inner_sweeps",
    "inner_tol",
]


def _summary_payload(config: dict, setup: BenchmarkSetup, report: PIReport) -> dict:
    residual = bellman_residual(setup.problem, setup.params, report.final_value)
    plateau = detect_plateau(
        [e for e in report.linf_error_to_reference if math.isfinite(e)],
        window=min(10, max(2, report.iterations_run)),
        rel_band=0.01,
    )
    return {
        "config": config,
        "derived": {
            "viscosity": setup.params.viscosity,
            "contraction_factor": setup.params.contraction_factor,
            "center_weight": setup.params.center_weight,
            "optimal_iteration_count": optimal_iteration_count(
                setup.params.h, setup.params.lam, setup.grid.dim, setup.params.viscosity
            )
            if setup.params.h < 1
            else None,
            "nodes_per_axis": setup.grid.nodes_per_axis,
        },
        "result": {
            "iterations_run": report.iterations_run,
            "stop_reason": report.stop_reason,
            "final_linf_error": report.linf_error_to_reference[-1],
            "final_l2_error": report.l2_error_to_reference[-1],
            # the step norm needs two iterates: null after a one-iteration run
            "final_residual_l2": report.residual_l2[-1] if report.iterations_run > 1 else None,
            "final_linf_norm": report.linf_norm[-1],
            # ||F_h[V]||_inf / lam bounds ||V - V^h||_inf without a reference
            "final_certified_error": float(abs(residual.values).max()) / setup.params.lam,
            "plateau_start": plateau,
            "max_inner_iterations": max(s.iterations for s in report.solve_stats),
            "total_inner_iterations": sum(s.iterations for s in report.solve_stats),
        },
    }


def _build(config: dict, h: float) -> BenchmarkSetup:
    return build_benchmark(
        config["benchmark"],
        lam=config["lambda"],
        half_width=config["half_width"],
        h=h,
        a_max=config["a_max"],
    )


def _solve(
    config: dict, setup: BenchmarkSetup, iterations: int, snapshots: tuple[int, ...] = ()
) -> PIReport:
    """Policy iteration on `setup` under the echoed settings; PIConfig
    refuses a meaningless setting before anything is solved."""
    settings = PIConfig(
        max_outer_iterations=iterations,
        relaxation_theta=config["theta"],
        initial_policy_spec=config["initial_policy"],
        outer_tolerance=config["outer_tolerance"],
        snapshot_iterations=snapshots,
        **{name: config[name] for name in SOLVER_FLAGS if name in config},
    )
    return run_policy_iteration(
        setup.problem,
        setup.grid,
        setup.params,
        settings,
        boundary=setup.boundary,
        reference=setup.reference,
    )


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


def _cmd_run(args: argparse.Namespace) -> int:
    """run1d or run2d; a 2D run also writes the two slice profiles."""
    config = _config_echo(args)
    command = config["command"]
    setup = _build(config, config["h"])
    slices = {}
    if setup.grid.dim == 2:
        # refuse slices off the grid before solving, not after
        slices = {name: (axis, _slice_index(setup.grid, fixed))
                  for name, (axis, fixed) in SLICES.items()}
    snapshots = tuple(n for n in SLICE_ITERATIONS if slices and n < config["iterations"])
    report = _solve(config, setup, config["iterations"], snapshots)
    out_dir = config["out_dir"]
    os.makedirs(out_dir, exist_ok=True)
    _write_csv(
        os.path.join(out_dir, f"{command}_trajectory.csv"),
        TRAJECTORY_HEADER,
        _trajectory_rows(report),
    )
    for name, (axis, k) in slices.items():
        header, rows = _slice_rows(setup, report, axis, k)
        _write_csv(os.path.join(out_dir, f"{command}_slice_{name}.csv"), header, rows)
    _write_json(
        os.path.join(out_dir, f"{command}_summary.json"),
        _summary_payload(config, setup, report),
    )
    errors = report.linf_error_to_reference
    if slices:
        progress = f"linf error {errors[0]:.6e} -> {errors[-1]:.6e}"
    else:
        progress = f"final linf error {errors[-1]:.6e}"
    print(f"{command}: {report.iterations_run} iterations, {progress}")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    """The lq1d mesh sweep: each h in --h-list runs its own iteration budget,
    and the final errors give the fitted order."""
    if not args.max_iterations >= 1:
        raise ValueError(f"--max-iterations must be at least 1, got {args.max_iterations}")
    h_values = tuple(float(tok) for tok in args.h_list.split(",") if tok)
    # the fitted order needs two or more meshes, finer and finer
    pairs = zip(h_values, h_values[1:])
    if len(h_values) < 2 or not all(math.inf > a > b > 0 for a, b in pairs):
        raise ValueError(
            "--h-list must name at least two positive, finite, strictly "
            f"decreasing mesh sizes, got {args.h_list!r}"
        )
    config = _config_echo(args)
    config["sweep_h"] = list(h_values)
    cap = args.max_iterations
    # build every mesh first, so a bad one is refused before any solve
    setups = [_build(config, h) for h in h_values]
    rows = []
    errors = []
    for h, setup in zip(h_values, setups):
        budget = optimal_iteration_count(h, config["lambda"], setup.grid.dim, setup.params.viscosity)
        report = _solve(config, setup, min(budget, cap))
        err = report.linf_error_to_reference[-1]
        rows.append(
            [h, float(report.iterations_run), err, report.l2_error_to_reference[-1]]
        )
        errors.append(err)
    fit = fit_power_rate(h_values, errors)
    out_dir = config["out_dir"]
    os.makedirs(out_dir, exist_ok=True)
    _write_csv(
        os.path.join(out_dir, "sweep.csv"),
        ["h", "n_iterations", "linf_error", "l2_error"],
        rows,
    )
    _write_json(
        os.path.join(out_dir, "sweep_summary.json"),
        {
            "config": config,
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


def _cmd_check(args: argparse.Namespace) -> int:
    """Every property of checks.CHECKS; exit status 1 if any fails.  Only
    this command imports the property suite and its oracles."""
    from .checks import run_checks

    return 1 if run_checks() else 0


def _add_common_flags(
    parser: argparse.ArgumentParser, command: str, outer_tolerance: float | None = None
) -> None:
    defaults = BENCHMARK_DEFAULTS[BENCHMARKS[command]]
    parser.add_argument("--lambda", dest="lam", type=float, default=defaults["lam"],
                        help="discount rate (default %(default)s)")
    parser.add_argument("--half-width", type=float, default=defaults["half_width"],
                        help="domain half-width L (default %(default)s)")
    parser.add_argument("--theta", type=float, default=defaults["theta"],
                        help="policy relaxation weight in (0,1] (default %(default)s)")
    parser.add_argument("--a-max", type=float, default=defaults["a_max"],
                        help="control box half-width (default %(default)s)")
    parser.add_argument("--outer-tol", dest="outer_tolerance", type=float,
                        default=outer_tolerance,
                        help="early-stop tolerance on max |V_n - V_{n-1}|; None runs "
                        "the whole budget (default %(default)s)")
    parser.add_argument("--out-dir", default="out",
                        help="directory for CSV/JSON artifacts (default %(default)s)")


def _add_run_flags(parser: argparse.ArgumentParser, command: str) -> None:
    defaults = BENCHMARK_DEFAULTS[BENCHMARKS[command]]
    parser.add_argument("--h", type=float, default=defaults["h"],
                        help="mesh size (default %(default)s)")
    parser.add_argument("--iterations", type=int, default=defaults["iterations"],
                        help="outer iteration budget (default %(default)s)")


def _add_solver_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--omega", type=float, default=PIConfig.omega,
                        help="SOR relaxation parameter (default %(default)s)")
    parser.add_argument("--solver-tol", type=float, default=PIConfig.solver_tol,
                        help="inner solver update tolerance; the floor of the inexact "
                        "schedule when theta < 1 (default %(default)s)")
    parser.add_argument("--solver-max-iter", type=int, default=PIConfig.solver_max_iter,
                        help="inner solver sweep cap (default %(default)s)")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hjb-pi",
        description="Policy-iteration benchmarks for a monotone discounted "
        "Hamilton-Jacobi-Bellman scheme.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p1 = sub.add_parser("run1d", help="1D quadratic-cost benchmark, greedy updates")
    _add_common_flags(p1, "run1d")
    _add_run_flags(p1, "run1d")
    p1.set_defaults(handler=_cmd_run)

    p2 = sub.add_parser("run2d", help="2D manufactured benchmark, relaxed updates")
    _add_common_flags(p2, "run2d")
    _add_run_flags(p2, "run2d")
    _add_solver_flags(p2)
    p2.set_defaults(handler=_cmd_run)

    ps = sub.add_parser("sweep", help="lq1d mesh sweep with fitted error slope")
    _add_common_flags(ps, "sweep", outer_tolerance=1e-12)
    ps.add_argument("--h-list", default="0.2,0.1,0.05,0.025",
                    help="comma-separated mesh sizes (default %(default)s)")
    ps.add_argument("--max-iterations", type=int, default=2000,
                    help="cap on the per-mesh iteration budget (default %(default)s)")
    ps.set_defaults(handler=_cmd_sweep)

    pc = sub.add_parser("check", help="run the structural property suite")
    pc.set_defaults(handler=_cmd_check)

    return parser


def execute_command(argv: list[str]) -> int:
    """Parse argv and run one subcommand; returns the process exit status."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return args.handler(args)
    except (ValueError, MonotonicityError, SolverError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(execute_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
