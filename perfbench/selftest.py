"""Self-tests of the benchmark.  Run from the repository root:

    python3 perfbench/selftest.py

1. CLI cross-check: at lam = 1 each workload's solve reproduces the sweep
   total, iteration count and final-error bits that the CLI writes to its
   summary JSON, so the benchmark drives the same computation as
   `hjb-pi run2d --h 0.1`, `run2d --h 0.05 --theta 1 --iterations 12` and
   `run1d --h 0.01`.
2. Accuracy gate: relaxed2d cut to 5 outer iterations counts as failed.
3. Determinism: a repeated solve reproduces its counts and error bits.
4. Tracer: a missing wrapped name is reported absent instead of raising,
   uninstall restores the library, and layer self times add up to the
   traced solve.
5. Seeded inputs: the rates are a pure function of the seed.
6. Speed probe: it samples at its period, its clock leaves out exactly the
   handler's time, and stopping it restores SIGALRM's previous handler.

Prints one line per check and exits 1 if any check fails.  Takes about a
minute on the pure-Python kernels.
"""

from __future__ import annotations

import json
import math
import signal
import sys
import time

from run import OUT, load_program
from speed import SpeedProbe, reference_loop
from workloads import ACCURACY, WORKLOADS, solve

CLI_ARGS = {
    "relaxed2d": ["run2d", "--h", "0.1"],
    "greedy2d": ["run2d", "--h", "0.05", "--theta", "1", "--iterations", "12"],
    "lq1d-batch": ["run1d", "--h", "0.01", "--lambda", "1"],
}


def check(ok: bool, label: str, detail: str) -> bool:
    print(f"{'PASS' if ok else 'FAIL'} {label}: {detail}")
    return ok


def cli_cross_check(hjb, name: str) -> bool:
    from hjb_pi.cli import execute_command

    out_dir = OUT / "selftest" / name
    status = execute_command(CLI_ARGS[name] + ["--out-dir", str(out_dir)])
    command = CLI_ARGS[name][0]
    summary = json.loads((out_dir / f"{command}_summary.json").read_text(encoding="utf-8"))
    cli = summary["result"]
    workload = WORKLOADS[name]
    ours = solve(hjb, workload, workload.build(hjb, 1.0))
    sweeps = sum(ours.sweeps)
    ok = (status == 0 and ours.failure is None
          and cli["total_inner_iterations"] == sweeps
          and cli["iterations_run"] == len(ours.sweeps)
          and cli["final_linf_error"] == ours.final_error)
    return check(ok, f"cli {name}", (
        f"CLI {cli['total_inner_iterations']} inner iterations over {cli['iterations_run']} "
        f"outer, final error {cli['final_linf_error']!r}; benchmark {sweeps} over "
        f"{len(ours.sweeps)}, {ours.final_error!r}, certified {ours.certified_error:.3e}"))


def gate_check(hjb) -> list[bool]:
    """The cut-short solve must fail the gate, and a repeat must match it bit for bit."""
    workload = WORKLOADS["relaxed2d"]
    setup = workload.build(hjb, 1.0)
    short, again = (solve(hjb, workload, setup, iterations=5) for _ in range(2))
    return [
        check(short.failure is not None and short.certified_error > ACCURACY, "gate",
              f"relaxed2d with 5 outer iterations: certified {short.certified_error:.3e}, "
              f"failure {short.failure!r}"),
        check(short.fingerprint == again.fingerprint, "determinism",
              f"repeat reproduces sweeps {short.sweeps} and error bits {short.final_error.hex()}"),
    ]


def tracer_check(hjb) -> bool:
    import tracer

    spans = tracer.Tracer()
    targets = tracer.TARGETS + (
        ("hjb_pi.howard", "solve_sor_renamed", "linsolve.sor"),
        ("hjb_pi.no_such_module", "anything", "nowhere"),
    )
    original = hjb.howard.policy_evaluate
    workload = WORKLOADS["lq1d-batch"]
    spans.install(targets)
    try:
        result = solve(hjb, workload, workload.build(hjb, 2.0))
    finally:
        spans.uninstall()
    restored = hjb.howard.policy_evaluate is original
    totals = spans.self_times()
    root = sum(s.end - s.start for s in spans.spans if s.name == "howard.run")
    inside = sum(v for k, v in totals.items() if k not in ("benchmarks.build", "scheme.residual"))
    ok = (result.failure is None and restored
          and spans.absent == ["hjb_pi.howard.solve_sor_renamed", "hjb_pi.no_such_module.anything"]
          and math.isclose(inside, root, rel_tol=1e-9)
          and root <= result.seconds)
    return check(ok, "tracer", f"absent {spans.absent}, restored {restored}, layer self "
                 f"times {inside:.6f} s vs traced solve {root:.6f} s (timer {result.seconds:.6f} s)")


def seed_check() -> bool:
    ok = True
    for workload in WORKLOADS.values():
        a, b, c = workload.draw_lams(7), workload.draw_lams(7), workload.draw_lams(8)
        lo, hi = (0.25, 4.0) if workload.benchmark == "lq1d" else (0.8, 1.25)
        ok &= a == b and a != c and all(lo <= lam <= hi for lam in a + c)
    lq = WORKLOADS["lq1d-batch"].draw_lams(7)
    ok &= len(lq) == 64 and {0.25, 4.0} <= set(lq)
    return check(ok, "seed", "rates repeat for one seed, differ across seeds, stay in range")


def speed_check() -> bool:
    before = signal.getsignal(signal.SIGALRM)
    probe = SpeedProbe()
    probe.start()
    t0, c0 = time.perf_counter(), probe.clock()
    while time.perf_counter() - t0 < 0.5:
        reference_loop()
    probe.stop()
    wall, program = time.perf_counter() - t0, probe.clock() - c0
    speed = probe.speed()
    expected = wall / probe.period
    # A sample taken between reading t0 and c0 is the only slack allowed.
    ok = (0.5 * expected <= len(probe.samples) <= 1.5 * expected
          and math.isclose(wall - program, probe.spent, abs_tol=2e-3)
          and speed > 0 and signal.getsignal(signal.SIGALRM) is before)
    return check(ok, "speed", f"{len(probe.samples)} samples in {wall:.3f} s "
                 f"(period {probe.period} s), handler {probe.spent:.4f} s, speed {speed:.3f}")


def main() -> int:
    hjb = load_program()
    results = [cli_cross_check(hjb, name) for name in CLI_ARGS]
    results += gate_check(hjb) + [tracer_check(hjb), seed_check(), speed_check()]
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
