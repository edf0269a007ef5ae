"""Mutation check: every mutation in MUTANTS must make its named tests fail.

Run from anywhere, with the test dependencies installed:

    python tests/mutants.py

For each mutation the runner copies src/, tests/ and pyproject.toml (for
the pytest settings) into a new temporary directory, replaces one exact
piece of text in one file there, and runs only the named tests.  The
mutation is killed when pytest exits with its "tests failed" status and
every named test is among the failures; a collection or import error does
not count.  Before that, the named tests must pass on an unmutated copy, and
every entry's old text must occur exactly once in its file, so the table
cannot go stale silently.  The run prints one line per mutation and exits 1
if any entry is stale or any mutation survives.

To add a mutation, append a Mutant: what it breaks, the file (relative to
the repository root), the exact old text, unique in that file, the new
text, the pytest node ids of the tests that must fail, and the change (its
entry in CHANGES.md) that recorded it.  This file is not a test module, so
tier 1 does not collect it.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "pyproject.toml")
TESTS_FAILED = 1  # pytest.ExitCode.TESTS_FAILED


class Mutant(NamedTuple):
    what: str
    file: str
    old: str
    new: str
    tests: tuple[str, ...]
    recorded: str


LINSOLVE, SCHEME = "src/hjb_pi/linsolve.py", "src/hjb_pi/scheme.py"
HOWARD, ANALYSIS = "src/hjb_pi/howard.py", "src/hjb_pi/analysis.py"
T_LINSOLVE, T_SCHEME = "tests/test_linsolve.py::", "tests/test_scheme.py::"
T_HOWARD = "tests/test_howard.py::"
GUARD, BLOCK = "one monotonicity guard per assembly", "one contiguous block per 2D system"
PROVEN, NORMS = "no re-proof per 1D iteration", "1D trajectory norms once per block"

MUTANTS = [
    Mutant("the sign check's slack absolute below N/h = 1 again", SCHEME,
           "if not worst <= 0.5 * DOMINANCE_RTOL * -neg_ratio:",
           "if not worst <= 1e-12 * max(1.0, -neg_ratio):",
           (T_LINSOLVE + "test_sign_check_implies_the_dominance_floor",
            T_LINSOLVE + "test_sign_check_refuses_a_positive_weight_that_breaks_the_floor_below_unit_ratio",
            T_SCHEME + "test_stencil_sign_check_matches_per_weight_maximum"),
           GUARD),
    Mutant("a foreign system scaled by its first center", LINSOLVE,
           "scale = np.divide(omega, system.center, out=self._scale)",
           "scale = omega / system.center[0, 0]",
           (T_LINSOLVE + "test_sor_scales_a_system_by_its_center_row_by_row",),
           GUARD),
    Mutant("a 2D workspace's center left writable", LINSOLVE,
           "system.center.flags.writeable = False",
           "pass",
           (T_LINSOLVE + "test_a_2d_workspace_center_is_read_only",),
           GUARD),
    Mutant("E and W swapped in the foreign copy", LINSOLVE,
           "(east, west, north, south, system.rhs)",
           "(west, east, north, south, system.rhs)",
           (T_LINSOLVE + "test_sor_matches_pointwise_red_black_bit_for_bit",
            T_LINSOLVE + "test_sor_scales_a_system_by_its_center_row_by_row"),
           BLOCK),
    Mutant("the foreign copy skipped", LINSOLVE,
           "layer[...] = a",
           "pass",
           (T_LINSOLVE + "test_sor_matches_pointwise_red_black_bit_for_bit",
            T_LINSOLVE + "test_sor_layout_reuse_is_bit_identical"),
           BLOCK),
    Mutant("the faces folded y before x", LINSOLVE,
           "in enumerate(_FACES[2]):",
           "in reversed(list(enumerate(_FACES[2]))):",
           (T_LINSOLVE + "test_2d_assembly_folds_its_faces_in_order_bit_for_bit",),
           BLOCK),
    Mutant("the face weight layers swapped", LINSOLVE,
           "((low, low_nodes, 2 * k + 1), (high, high_nodes, 2 * k))",
           "((low, low_nodes, 2 * k), (high, high_nodes, 2 * k + 1))",
           (T_LINSOLVE + "test_2d_assembly_folds_its_faces_in_order_bit_for_bit",
            T_LINSOLVE + "test_assembly_matches_policy_operator"),
           BLOCK),
    Mutant("the pivot check skipped for foreign systems too", LINSOLVE,
           "if foreign and np.count_nonzero(odd_diag) < n_odd:",
           "if False and np.count_nonzero(odd_diag) < n_odd:",
           (T_LINSOLVE + "test_thomas_zero_pivot_is_reported",),
           PROVEN),
    Mutant("the first row's zero pivot left uncaught", LINSOLVE,
           "    try:\n        w, x = -upper[0] / pivot, rhs[0] / pivot\n",
           "    w, x = -upper[0] / pivot, rhs[0] / pivot\n    try:\n",
           (T_LINSOLVE + "test_thomas_zero_pivot_is_reported",),
           PROVEN),
    Mutant("the greedy clip dropped from the unscanned improvement", HOWARD,
           "    greedy_policy(problem, greedy, out=greedy)\n",
           "    np.negative(greedy, greedy)\n",
           (T_HOWARD + "test_policy_improve_hands_on_the_controls_a_validated_policy_holds",),
           PROVEN),
    Mutant("the mix's clip dropped from the unscanned improvement", HOWARD,
           "    mixed.clip(-problem.a_max, problem.a_max, mixed)\n",
           "",
           (T_HOWARD + "test_policy_improve_hands_on_the_controls_a_validated_policy_holds",),
           PROVEN),
    Mutant("the carried iterate dropped at a block boundary", ANALYSIS,
           "return block[-1:]",
           "return []",
           (T_HOWARD + "test_1d_block_norms_match_the_per_iterate_helpers[17-1.0-None-True]",
            T_HOWARD + "test_1d_block_norms_match_the_per_iterate_helpers[50-0.5-None-False]"),
           NORMS),
]


def stale(mutant: Mutant) -> str | None:
    """Why the entry no longer applies to the tree, or None."""
    count = (ROOT / mutant.file).read_text(encoding="utf-8").count(mutant.old)
    return None if count == 1 else f"old text found {count} times in {mutant.file}"


def copy_tree(into: Path) -> None:
    for name in COPIED:
        source = ROOT / name
        if source.is_dir():
            shutil.copytree(source, into / name,
                            ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
        else:
            shutil.copy2(source, into / name)


def run_tests(tree: Path, tests) -> tuple[int, set[str]]:
    """pytest's exit status on `tests` in `tree`, and the node ids it failed."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "--tb=no", "-rf",
         *tests], cwd=tree, env=env, capture_output=True, text=True)
    failed = {line.split()[1] for line in done.stdout.splitlines() if line.startswith("FAILED ")}
    return done.returncode, failed


def check(mutant: Mutant | None, tests) -> tuple[bool, str]:
    """(passed, report) for one mutation in a fresh copy, or for the
    unmutated tree when mutant is None."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        tree = Path(tmp)
        copy_tree(tree)
        if mutant is not None:
            path = tree / mutant.file
            path.write_text(path.read_text(encoding="utf-8").replace(mutant.old, mutant.new),
                            encoding="utf-8")
        status, failed = run_tests(tree, tests)
    if mutant is None:
        return status == 0, f"pytest exit status {status}"
    missed = [t for t in mutant.tests if t not in failed]
    if status != TESTS_FAILED:
        return False, f"pytest exit status {status}, not {TESTS_FAILED} (tests failed)"
    if missed:
        return False, f"these tests still pass: {', '.join(missed)}"
    return True, f"{len(failed)} tests failed"


def main() -> int:
    stale_entries = {m: why for m in MUTANTS if (why := stale(m))}
    problems = [f"stale: {m.what}: {why}" for m, why in stale_entries.items()]
    named = sorted({t for m in MUTANTS for t in m.tests})
    ok, report = check(None, named)
    print(f"{'ok' if ok else 'FAILED':9} unmutated: {len(named)} named tests ({report})")
    if not ok:
        problems.append(f"the named tests do not pass unmutated ({report})")
    for mutant in MUTANTS:
        if mutant in stale_entries:
            continue
        start = time.perf_counter()
        killed, report = check(mutant, mutant.tests)
        seconds = time.perf_counter() - start
        print(f"{'killed' if killed else 'SURVIVED':9} {mutant.what} ({report}; {seconds:.1f} s)")
        if not killed:
            problems.append(f"survived: {mutant.what} ({report})")
    for problem in problems:
        print(problem, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
