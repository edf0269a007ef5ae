"""The library names and call shapes the benchmark under perfbench/ relies on.

perfbench/ is kept unchanged from one revision to the next, so the library
must keep what it uses: the entry points its tracer wraps by name, and the
`bellman_residual` and `run_policy_iteration` calls of its workloads.  The
benchmark's own self-test only runs in CI; these tests catch a pruned or
moved name in tier 1.  The perfbench modules are loaded from their files,
read-only and without writing bytecode next to them.
"""

import importlib
import importlib.util
import math
import sys
from pathlib import Path

import pytest

import hjb_pi

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load_perfbench(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


def test_every_tracer_target_resolves_to_a_callable():
    tracer = load_perfbench("tracer")
    assert tracer.TARGETS
    missing = [
        f"{module}.{attr}"
        for module, attr, _ in tracer.TARGETS
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert missing == []


@pytest.mark.parametrize("name", ["relaxed2d", "greedy2d", "lq1d-batch"])
def test_workload_solve_runs_against_the_library(name):
    """workloads.solve makes the benchmark's calls, word for word:
    run_policy_iteration(problem, grid, params, config, boundary=..., reference=...)
    and bellman_residual(setup.problem, setup.params, value)."""
    workloads = load_perfbench("workloads")
    workload = workloads.WORKLOADS[name]
    setup = workload.build(hjb_pi, 1.0)
    result = workloads.solve(hjb_pi, workload, setup, iterations=2)
    assert len(result.sweeps) == 2 and all(s >= 1 for s in result.sweeps)
    assert math.isfinite(result.final_error) and math.isfinite(result.certified_error)
    direct = workloads.certified_error(hjb_pi, setup, setup.reference)
    # the 2D reference is discrete-exact; the 1D one carries mesh error
    assert direct <= 1e-11 if workload.exact_reference else direct > 0
