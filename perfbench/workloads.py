"""The benchmark's workloads: one CLI command line each, seeded discount rates.

A workload fixes everything the CLI would (benchmark, mesh, relaxation,
iteration budget, initial policy, solver settings, snapshots) and draws only
the discount rates lam from the seed.  A pass solves every drawn rate once,
one solve after another in this process.  Its time covers the
`run_policy_iteration` calls alone, on the speed probe's clock (which leaves
out the probe's own work), and `Pass.ref_seconds` rescales it by the host
speed sampled during the pass (see speed.py).  After timing, every solve is
checked against the accuracy gate.

The settings are written out here rather than read from `hjb_pi.cli`, so a
later change to the CLI defaults cannot move the benchmark; `selftest.py`
checks that both still drive the same computation.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass

# A solve fails when its certified error ||F_h[V]||_inf / lam exceeds this.
ACCURACY = 2e-9

# Computed traffic of one unknown update: six coefficient/rhs arrays read plus
# the unknown read and written, 8 bytes each.
BYTES_PER_UPDATE = 64


@dataclass(frozen=True)
class Workload:
    name: str
    benchmark: str
    half_width: float
    h: float
    a_max: float
    iterations: int
    theta: float
    initial_policy: str
    snapshots: tuple[int, ...]
    # The manufactured 2D field solves the discrete equation exactly, so its
    # reference gives the true error of the discrete solve; the 1D reference
    # is the PDE's closed-form value and includes discretization error.
    exact_reference: bool

    def draw_lams(self, seed: int) -> list[float]:
        """Discount rates for one run, a pure function of the seed.

        Rates are log-uniform on [1/r, r].  The 2D workloads solve a drawn
        rate and its reciprocal (antithetic pair): sweep counts fall with lam
        nearly linearly in log lam, so the pair's total work barely depends
        on the seed while every rate in the range still gets exercised.
        """
        rng = random.Random(seed)
        if self.benchmark == "lq1d":
            return [0.25, 4.0] + [4.0 ** (2.0 * rng.random() - 1.0) for _ in range(62)]
        lam = 1.25 ** (2.0 * rng.random() - 1.0)
        return [lam, 1.0 / lam]

    def build(self, hjb, lam: float):
        return hjb.build_benchmark(
            self.benchmark, lam=lam, half_width=self.half_width, h=self.h, a_max=self.a_max
        )

    def config(self, hjb, iterations: int | None = None):
        return hjb.PIConfig(
            max_outer_iterations=self.iterations if iterations is None else iterations,
            relaxation_theta=self.theta,
            initial_policy_spec=self.initial_policy,
            outer_tolerance=None,
            omega=1.7,
            solver_tol=1e-10,
            solver_max_iter=5000,
            snapshot_iterations=self.snapshots,
        )


_RUN2D = dict(benchmark="manufactured2d", half_width=2.0, a_max=2.0,
              initial_policy="adversarial2d", snapshots=(0, 5, 15, 30), exact_reference=True)

WORKLOADS = {
    # hjb-pi run2d --h 0.1
    "relaxed2d": Workload(name="relaxed2d", h=0.1, iterations=60, theta=0.18, **_RUN2D),
    # hjb-pi run2d --h 0.05 --theta 1 --iterations 12
    "greedy2d": Workload(name="greedy2d", h=0.05, iterations=12, theta=1.0, **_RUN2D),
    # 64 x hjb-pi run1d --h 0.01 --lambda LAM
    "lq1d-batch": Workload(
        name="lq1d-batch", benchmark="lq1d", half_width=3.0, h=0.01, a_max=6.0,
        iterations=50, theta=1.0, initial_policy="zero", snapshots=(), exact_reference=False,
    ),
}


@dataclass(frozen=True)
class Solve:
    """Outcome of one run_policy_iteration call and its accuracy check."""

    lam: float
    seconds: float
    sweeps: tuple[int, ...]
    unknowns: int
    dim: int
    final_error: float
    certified_error: float
    failure: str | None

    @property
    def fingerprint(self) -> tuple:
        """Exact counts and error bits that a repeat of this solve must reproduce."""
        return (self.lam.hex(), self.sweeps, self.final_error.hex(), self.certified_error.hex())


def certified_error(hjb, setup, value) -> float:
    """||F_h[V]||_inf / lam, a reference-free bound on ||V - V^h||_inf."""
    residual = hjb.bellman_residual(setup.problem, setup.params, value)
    return float(abs(residual.values).max()) / setup.params.lam


def solve(hjb, workload: Workload, setup, iterations: int | None = None,
          clock=time.perf_counter) -> Solve:
    """Run one solve the way the CLI does, then apply the accuracy gate."""
    grid = setup.grid
    unknowns = (grid.nodes_per_axis - 2) ** grid.dim
    lam = setup.params.lam
    config = workload.config(hjb, iterations)
    t0 = clock()
    try:
        report = hjb.run_policy_iteration(
            setup.problem, grid, setup.params, config,
            boundary=setup.boundary, reference=setup.reference,
        )
    except (hjb.SolverError, hjb.MonotonicityError) as exc:
        seconds = clock() - t0
        return Solve(lam, seconds, (), unknowns, grid.dim, math.nan, math.nan,
                     f"{type(exc).__name__}: {exc}")
    seconds = clock() - t0
    sweeps = tuple(int(s.iterations) for s in report.solve_stats)
    final = float(report.linf_error_to_reference[-1])
    cert = certified_error(hjb, setup, report.final_value)
    failure = None
    if not cert <= ACCURACY:
        failure = f"certified error {cert:.3e} above {ACCURACY:g}"
    elif workload.exact_reference and not final <= cert:
        failure = f"broken bound: final error {final:.3e} above certified {cert:.3e}"
    return Solve(lam, seconds, sweeps, unknowns, grid.dim, final, cert, failure)


@dataclass(frozen=True)
class Pass:
    solves: tuple[Solve, ...]
    # Mean host speed over the pass, relative to the probe's reference.
    speed: float

    @property
    def seconds(self) -> float:
        return sum(s.seconds for s in self.solves)

    @property
    def ref_seconds(self) -> float:
        """Solve time rescaled to the reference host speed (see speed.py)."""
        return self.seconds * self.speed

    @property
    def fingerprint(self) -> tuple:
        return tuple(s.fingerprint for s in self.solves)


def run_pass(hjb, workload: Workload, setups, probe) -> Pass:
    """Solve every set-up once while `probe` samples the host speed."""
    mark = probe.mark()
    solves = tuple(solve(hjb, workload, setup, clock=probe.clock) for setup in setups)
    return Pass(solves, probe.speed(mark))


def run_passes(hjb, workload: Workload, setups, seconds: float, probe) -> list[Pass]:
    """Closed loop of passes: keep going while the next one should end in time.

    At least one pass runs.
    """
    passes: list[Pass] = []
    start = time.perf_counter()
    while True:
        passes.append(run_pass(hjb, workload, setups, probe))
        if time.perf_counter() - start + passes[-1].seconds > seconds:
            return passes


def determinism_errors(passes: list[Pass]) -> list[str]:
    """Counts and error bits must repeat exactly across passes of one run."""
    first = passes[0].fingerprint
    return [
        f"pass {i} differs from pass 0 in sweeps, iterations or error bits"
        for i, p in enumerate(passes[1:], start=1)
        if p.fingerprint != first
    ]
