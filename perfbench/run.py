"""hjb-pi benchmark: time to a certified solution on three fixed workloads.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The seed draws the discount rates; the program receives only those rates.
Load is one process, no worker threads, one solve after another (closed
loop).  With --trace 0 the run reports the end-to-end metrics named in
BENCHMARK.json and never imports the tracer.  With --trace 1 it reports the
per-layer metrics: it alternates untraced and traced passes over the same
inputs, and the traced passes wrap the library's layer functions from
outside (see tracer.py).

Every time is reported in reference seconds: program time rescaled to a
fixed host speed that a probe samples throughout the run (see speed.py), so
the drift of a shared host's speed does not move the figures.  The detail
line keeps the unscaled seconds and the speeds next to them.

Before the result, one line of JSON records the environment, the rates
drawn, every pass time and each solve's counts and errors.  The last line of
standard output is the result object.  Traced runs also write their spans to
perfbench/out/.  The run exits with status 2 and prints no result when the
library sources are not in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from speed import SpeedProbe
from workloads import BYTES_PER_UPDATE, WORKLOADS, determinism_errors, run_pass, run_passes

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
# Fresh processes timed per run for setup_s; the median is reported.
SETUP_SAMPLES = 9
PROBE_TIMEOUT_S = 60


class ProgramMissing(RuntimeError):
    pass


def load_program():
    package = SRC / "hjb_pi"
    if not (package / "__init__.py").is_file():
        raise ProgramMissing(f"no hjb_pi sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import hjb_pi

    if Path(hjb_pi.__file__).resolve().parent != package:
        raise ProgramMissing(f"imported hjb_pi from {hjb_pi.__file__}, not {package}")
    return hjb_pi


def metric_units() -> tuple[dict[str, str], dict[str, str]]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment(hjb, args, lams: list[float]) -> dict:
    # Compiled and pure-Python kernels differ by 30-150x: never compare
    # results recorded under different backends.
    backend = getattr(hjb, "backend_name", None)
    return {
        "backend": backend() if callable(backend) else "none",
        "python": platform.python_version(),
        "numpy": sys.modules["numpy"].__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "workload": args.workload,
        "seed": args.seed,
        "lams": lams,
    }


def solve_rows(passes) -> list[dict]:
    return [
        {"lam": s.lam, "seconds": s.seconds, "outer_iters": len(s.sweeps),
         "sweeps": sum(s.sweeps) if s.dim == 2 else 0,
         "sweeps_max": max(s.sweeps, default=0) if s.dim == 2 else 0,
         "final_error": s.final_error, "certified_error": s.certified_error,
         "failure": s.failure}
        for s in passes[0].solves
    ]


def gate(passes) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems) over every solve of every pass."""
    solves = [s for p in passes for s in p.solves]
    problems = [f"lam={s.lam!r}: {s.failure}" for s in solves if s.failure]
    problems += determinism_errors(passes)
    return len(solves), sum(1 for s in solves if s.failure), problems


def measure_setup(workload, lams: list[float]) -> list[float]:
    argv = [sys.executable, str(HERE / "setup_probe.py"), workload.name]
    argv += [lam.hex() for lam in lams]
    samples = []
    for _ in range(SETUP_SAMPLES):
        done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                              timeout=PROBE_TIMEOUT_S, check=True)
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return samples


def timed_run(hjb, workload, lams, seconds) -> tuple[dict, dict]:
    setup_samples = measure_setup(workload, lams)
    setups = [workload.build(hjb, lam) for lam in lams]
    with SpeedProbe() as probe:
        passes = run_passes(hjb, workload, setups, seconds, probe)
    attempted, failed, problems = gate(passes)
    if "tracer" in sys.modules:
        problems.append("the timed run imported the tracer")
    metrics = {
        "solve_s": statistics.median(p.ref_seconds for p in passes),
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "solved_frac": 1.0 - failed / attempted,
    }
    detail = {"pass_ref_seconds": [p.ref_seconds for p in passes],
              "pass_seconds": [p.seconds for p in passes],
              "pass_speeds": [p.speed for p in passes],
              "speed_samples": len(probe.samples),
              "setup_samples": setup_samples,
              "solves": solve_rows(passes), "problems": problems}
    return metrics, {"attempted": attempted, "failed": failed, "problems": problems, "detail": detail}


def _percentile(values: list[float], q: int) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


# Span names whose self times add up to the time inside run_policy_iteration.
SOLVE_LAYERS = {
    "howard.self_s": "howard.run",
    "howard.evaluate_s": "howard.evaluate",
    "howard.improve_s": "howard.improve",
    "linsolve.assemble_s": "linsolve.assemble",
    "problems.cost_drift_s": "problems.cost_drift",
    "linsolve.sor_s": "linsolve.sor",
    "linsolve.thomas_s": "linsolve.thomas",
}


def traced_run(hjb, workload, lams, seconds) -> tuple[dict, dict]:
    import tracer

    probe = SpeedProbe()
    spans = tracer.Tracer(clock=probe.clock)
    untraced, traced = [], []
    with probe:
        spans.install()
        try:
            setups = [workload.build(hjb, lam) for lam in lams]
        finally:
            spans.uninstall()
        start = time.perf_counter()
        while True:
            untraced.append(run_pass(hjb, workload, setups, probe))
            spans.install()
            try:
                traced.append(run_pass(hjb, workload, setups, probe))
            finally:
                spans.uninstall()
            spent = untraced[-1].seconds + traced[-1].seconds
            if time.perf_counter() - start + spent > seconds:
                break
    attempted, failed, problems = gate(untraced + traced)

    # Span times are program seconds; rescale them by the traced passes' mean
    # host speed, so they add up to the traced solve_s in reference seconds.
    speed = sum(p.ref_seconds for p in traced) / sum(p.seconds for p in traced)
    n = len(traced)
    self_s = {name: t * speed for name, t in spans.self_times().items()}
    metrics = {name: self_s.get(span, 0.0) / n for name, span in SOLVE_LAYERS.items()}
    metrics["benchmarks.build_s"] = self_s.get("benchmarks.build", 0.0)
    metrics["scheme.residual_s"] = self_s.get("scheme.residual", 0.0) / n

    solves = traced[0].solves
    sweeps_2d = [s.sweeps for s in solves if s.dim == 2]
    updates = sum(sum(s.sweeps) * s.unknowns for s in solves)
    kernel_s = metrics["linsolve.sor_s"] + metrics["linsolve.thomas_s"]
    iter_ms = [1e3 * speed * t for t in spans.iteration_seconds()]
    completed = [s for s in solves if s.sweeps]
    traced_s = statistics.fmean(p.ref_seconds for p in traced)
    untraced_s = statistics.fmean(p.ref_seconds for p in untraced)
    metrics.update({
        "linsolve.sweeps": sum(sum(s) for s in sweeps_2d),
        "linsolve.sweeps_max": max((max(s) for s in sweeps_2d if s), default=0),
        "linsolve.updates_per_s": updates / kernel_s if kernel_s > 0 else 0.0,
        "linsolve.computed_bytes": BYTES_PER_UPDATE * updates,
        "howard.outer_iters": sum(len(s.sweeps) for s in solves),
        "howard.iter_ms.p50": _percentile(iter_ms, 50),
        "howard.iter_ms.p95": _percentile(iter_ms, 95),
        "howard.certified_error": max((s.certified_error for s in completed), default=0.0),
        "howard.final_error": max((s.final_error for s in completed), default=0.0),
        "trace.overhead_frac": traced_s / untraced_s - 1.0,
    })
    layers_s = sum(metrics[name] for name in SOLVE_LAYERS)
    detail = {
        "untraced_pass_ref_seconds": [p.ref_seconds for p in untraced],
        "traced_pass_ref_seconds": [p.ref_seconds for p in traced],
        "untraced_pass_speeds": [p.speed for p in untraced],
        "traced_pass_speeds": [p.speed for p in traced],
        "traced_solve_s": traced_s,
        "layer_self_sum_s": layers_s,
        "layer_shares": {name: metrics[name] / layers_s for name in SOLVE_LAYERS}
        if layers_s > 0 else {},
        "iter_ms_samples": len(iter_ms),
        "absent_spans": spans.absent,
        "solves": solve_rows(traced),
        "problems": problems,
    }
    return metrics, {"attempted": attempted, "failed": failed, "problems": problems,
                     "detail": detail, "spans": spans.to_json()}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        hjb = load_program()
    except (ProgramMissing, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    e2e_units, layer_units = metric_units()
    workload = WORKLOADS[args.workload]
    lams = workload.draw_lams(args.seed)
    env = environment(hjb, args, lams)
    run = traced_run if args.trace else timed_run
    metrics, outcome = run(hjb, workload, lams, args.seconds)
    units = layer_units if args.trace else e2e_units
    missing = sorted(set(units) - set(metrics))
    if missing:
        print(f"error: metrics not computed: {missing}", file=sys.stderr)
        return 3
    record = {"env": env, **outcome["detail"]}
    if args.trace:
        OUT.mkdir(exist_ok=True)
        path = OUT / f"{args.workload}-seed{args.seed}-spans.json"
        path.write_text(json.dumps({"env": env, "spans": outcome["spans"]}), encoding="utf-8")
        record["spans_file"] = str(path.relative_to(ROOT))
    print(json.dumps(record))
    print(json.dumps({
        "correct": not outcome["problems"],
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
