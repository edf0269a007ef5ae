import json
import math

import numpy as np
import pytest

from hjb_pi import cli
from hjb_pi.checks import CHECKS
from hjb_pi.cli import TRAJECTORY_HEADER, execute_command


# the summary config of each command echoes exactly the flags it takes:
# only run2d, which runs SOR, takes the solver flags, and sweep, which sets
# h and each budget per mesh, takes no --h or --iterations
SOLVER_FLAGS = [["--omega", "1.2"], ["--solver-tol", "1e-8"], ["--solver-max-iter", "10"]]
RUN1D_CONFIG_KEYS = {
    "command", "benchmark", "lambda", "initial_policy", "half_width", "h", "iterations",
    "theta", "a_max", "outer_tolerance", "out_dir",
}
CONFIG_KEYS = {
    "run1d": RUN1D_CONFIG_KEYS,
    "run2d": RUN1D_CONFIG_KEYS | {"omega", "solver_tol", "solver_max_iter"},
    "sweep": RUN1D_CONFIG_KEYS - {"h", "iterations"} | {"sweep_h"},
}


def read_lines(path):
    return path.read_text().splitlines()


def test_argparse_failures_exit_2():
    assert execute_command([]) == 2
    assert execute_command(["run1d", "--no-such-flag"]) == 2
    assert execute_command(["frobnicate"]) == 2
    # check has one path, so there is nothing to skip
    assert execute_command(["check", "--fast"]) == 2


def test_run1d_artifacts(tmp_path):
    out = tmp_path / "a"
    code = execute_command(
        ["run1d", "--h", "0.2", "--iterations", "5", "--out-dir", str(out)]
    )
    assert code == 0
    lines = read_lines(out / "run1d_trajectory.csv")
    assert lines[0] == ",".join(TRAJECTORY_HEADER)
    assert len(lines) == 6  # header + one row per iteration
    first = lines[1].split(",")
    assert first[0] == "0" and first[3] == "nan" and first[4] == "nan"
    assert [row.split(",")[0] for row in lines[1:]] == ["0", "1", "2", "3", "4"]
    # a direct solve counts as one sweep and is exact, so its tolerance is 0
    assert TRAJECTORY_HEADER[-2:] == ["inner_sweeps", "inner_tol"]
    assert all(row.split(",")[-2] == "1" for row in lines[1:])
    assert all(row.split(",")[-1] == "0" for row in lines[1:])

    summary = json.loads((out / "run1d_summary.json").read_text())
    assert set(summary["config"]) == CONFIG_KEYS["run1d"]
    assert summary["config"]["lambda"] == 1.0
    assert summary["config"]["h"] == 0.2
    assert summary["result"]["iterations_run"] == 5
    assert "timestamp" not in json.dumps(summary)


def test_run1d_reruns_are_byte_identical(tmp_path):
    args = ["run1d", "--h", "0.2", "--iterations", "5"]
    execute_command(args + ["--out-dir", str(tmp_path / "one")])
    execute_command(args + ["--out-dir", str(tmp_path / "two")])
    a = (tmp_path / "one" / "run1d_trajectory.csv").read_bytes()
    b = (tmp_path / "two" / "run1d_trajectory.csv").read_bytes()
    assert a == b


def test_run2d_reruns_in_one_process_are_byte_identical(tmp_path):
    """Nothing a 2D run keeps between its solves leaks into the next run."""
    args = ["run2d", "--h", "0.1"]
    assert execute_command(args + ["--out-dir", str(tmp_path / "one")]) == 0
    assert execute_command(args + ["--out-dir", str(tmp_path / "two")]) == 0
    names = sorted(path.name for path in (tmp_path / "one").glob("*.csv"))
    assert names == ["run2d_slice_x0.csv", "run2d_slice_y0.csv", "run2d_trajectory.csv"]
    for name in names:
        assert (tmp_path / "one" / name).read_bytes() == (tmp_path / "two" / name).read_bytes()


def _reject_constant(token):
    raise ValueError(f"{token} is not JSON")


@pytest.mark.parametrize("command", [["run1d"], ["run2d", "--h", "0.1"]], ids="_".join)
def test_one_iteration_summary_is_strict_json(command, tmp_path):
    """One iterate has no step norm: the summary says null, never NaN."""
    out = tmp_path / "one"
    assert execute_command(command + ["--iterations", "1", "--out-dir", str(out)]) == 0
    text = (out / f"{command[0]}_summary.json").read_text()
    summary = json.loads(text, parse_constant=_reject_constant)
    assert summary["result"]["final_residual_l2"] is None


def test_summaries_refuse_non_finite_numbers(tmp_path):
    path = tmp_path / "bad.json"
    with pytest.raises(ValueError):
        cli._write_json(str(path), {"x": math.nan})
    assert not path.exists()


@pytest.mark.parametrize("lam", ["1e8", "1e300"])
def test_run1d_at_extreme_rates_runs_without_warnings(lam, tmp_path, capsys):
    """The LQ root stays finite and accurate for large lam, so the boundary
    data and reference are finite; warnings are errors in this suite."""
    code = execute_command(
        ["run1d", "--lambda", lam, "--iterations", "3", "--out-dir", str(tmp_path / "run")]
    )
    captured = capsys.readouterr()
    assert code == 0, captured.err
    assert "RuntimeWarning" not in captured.out + captured.err
    summary = json.loads((tmp_path / "run" / "run1d_summary.json").read_text())
    assert math.isfinite(summary["result"]["final_linf_error"])


def test_run1d_rejects_incompatible_mesh(tmp_path, capsys):
    code = execute_command(
        ["run1d", "--h", "0.07", "--out-dir", str(tmp_path / "bad")]
    )
    assert code == 1
    assert capsys.readouterr().err.startswith("error:")


def refuse_solving(monkeypatch):
    """Make any solve fail the test: a refusal must come before it."""

    def no_solve(*args, **kwargs):
        raise AssertionError("the command solved before refusing its input")

    monkeypatch.setattr(cli, "run_policy_iteration", no_solve)


@pytest.mark.parametrize(
    "argv",
    [
        ["run1d", "--half-width", "inf"],
        ["run1d", "--half-width", "1e308"],
        ["run2d", "--h", "nan"],
        ["sweep", "--h-list", "0.2,nan"],
    ],
)
def test_non_finite_grid_input_is_refused(argv, tmp_path, capsys, monkeypatch):
    refuse_solving(monkeypatch)
    out = tmp_path / "g"
    assert execute_command(argv + ["--out-dir", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error:")
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        # the slice at x = 0.80 lies outside [-0.5, 0.5]
        (["--half-width", "0.5", "--h", "0.25"], "not a grid node of [-0.5, 0.5]"),
        # nodes at h = 0.5 are ..., 0.5, 1.0, ...; 0.80 is none of them
        (["--h", "0.5"], "not a grid node"),
    ],
)
def test_run2d_refuses_off_grid_slices_before_solving(argv, message, tmp_path, capsys,
                                                      monkeypatch):
    refuse_solving(monkeypatch)
    out = tmp_path / "s"
    assert execute_command(["run2d"] + argv + ["--out-dir", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err
    assert not out.exists()


@pytest.mark.parametrize(
    "h_list, message",
    [
        ("0.1,0.2", "strictly decreasing"),
        ("0.2,0.2", "strictly decreasing"),
        ("0.2,-0.1", "positive"),
        ("0.2,inf", "finite"),
        ("0.2", "at least two"),
        ("0.2,0.07", "does not divide"),  # refused by the grid of the second mesh
    ],
)
def test_sweep_refuses_bad_h_list_before_solving(h_list, message, tmp_path, capsys,
                                                 monkeypatch):
    refuse_solving(monkeypatch)
    out = tmp_path / "h"
    assert execute_command(["sweep", "--h-list", h_list, "--out-dir", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["run1d", "run2d"])
def test_unresolvable_discount_is_refused_before_solving(command, tmp_path, capsys, monkeypatch):
    """A huge control box makes N so large that lam = 1 is lost in the
    rounding of the center weight; the parent reported the boundary
    interpolation as a solution."""
    refuse_solving(monkeypatch)
    out = tmp_path / "a"
    assert execute_command([command, "--a-max", "1e300", "--out-dir", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "lost in the rounding" in err
    assert not out.exists()


SETTING_REFUSALS = [
    ["--lambda", "0"], ["--lambda", "-1"], ["--lambda", "nan"], ["--lambda", "inf"],
    ["--a-max", "0"], ["--a-max", "nan"],
    ["--theta", "0"], ["--theta", "1.5"],
    ["--half-width", "0"],
    # iteration 0 has no outer step to measure, so inf would stop there
    ["--outer-tol", "inf"],
]


@pytest.mark.parametrize(
    "argv",
    [[command] + flags for command in ("run1d", "run2d")
     for flags in SETTING_REFUSALS + [["--iterations", "0"]]]
    # sweep takes no --iterations; it takes every other flag above
    + [["sweep"] + flags for flags in SETTING_REFUSALS],
    ids="_".join,
)
def test_meaningless_run_settings_are_refused_before_solving(argv, tmp_path, capsys,
                                                             monkeypatch):
    refuse_solving(monkeypatch)
    out = tmp_path / "p"
    assert execute_command(argv + ["--out-dir", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error:")
    assert not out.exists()


@pytest.mark.parametrize("cap", ["0", "-3"])
def test_sweep_refuses_an_iteration_cap_below_one(cap, tmp_path, capsys, monkeypatch):
    refuse_solving(monkeypatch)
    out = tmp_path / "m"
    assert execute_command(["sweep", "--max-iterations", cap, "--out-dir", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "--max-iterations" in err
    assert not out.exists()


def test_meaningless_solver_settings_are_refused(tmp_path, capsys, monkeypatch):
    """PIConfig refuses them on run2d, the one command that runs SOR."""
    refuse_solving(monkeypatch)
    out = tmp_path / "f"
    for flags in (["--solver-tol", "-1"], ["--solver-tol", "nan"], ["--solver-tol", "inf"],
                  ["--omega", "2.5"], ["--solver-max-iter", "0"]):
        assert execute_command(["run2d", "--h", "0.2", "--out-dir", str(out)] + flags) == 1, flags
        assert capsys.readouterr().err.startswith("error:"), flags
        assert not out.exists(), flags


@pytest.mark.parametrize("command", ["run1d", "sweep"])
@pytest.mark.parametrize("flags", SOLVER_FLAGS, ids="_".join)
def test_direct_commands_refuse_solver_flags(command, flags, tmp_path, monkeypatch):
    """run1d and sweep solve directly, so they take no SOR setting: argparse
    refuses one with exit 2 and nothing is written."""
    refuse_solving(monkeypatch)
    out = tmp_path / "s"
    assert execute_command([command, "--out-dir", str(out)] + flags) == 2
    assert not out.exists()


def test_run2d_slices(tmp_path):
    out = tmp_path / "b"
    code = execute_command(
        ["run2d", "--h", "0.2", "--iterations", "6", "--out-dir", str(out)]
    )
    assert code == 0
    for name in ("run2d_slice_x0.csv", "run2d_slice_y0.csv"):
        lines = read_lines(out / name)
        # snapshots 0 and 5 fall inside a 6-iteration run; 15 and 30 do not
        assert lines[0] == "coord,reference,v_n0,v_n5,v_final"
        assert len(lines) == 22  # header + 21 nodes per axis
        coords = np.array([float(r.split(",")[0]) for r in lines[1:]])
        assert coords[0] == -2.0 and coords[-1] == 2.0
        assert np.allclose(np.diff(coords), 0.2)
        # boundary rows carry Dirichlet data, which is the reference itself
        for row in (lines[1], lines[-1]):
            cells = row.split(",")
            assert cells[1] == cells[-1]
    rows = [r.split(",") for r in read_lines(out / "run2d_trajectory.csv")[1:]]
    # the inexact schedule from evaluation 0: 0.01 * theta * max|S| and
    # 0.01 * theta * max|V_0 - S|, S the boundary data with a zero interior
    assert [float(r[-1]) for r in rows[:2]] == [0.0014961389516933085, 0.0013235837033731186]
    assert all(int(r[-2]) >= 1 for r in rows)
    summary = json.loads((out / "run2d_summary.json").read_text())
    assert set(summary["config"]) == CONFIG_KEYS["run2d"]
    result = summary["result"]
    # the reference is discrete-exact, so the certified bound covers the true error
    assert 0 < result["final_linf_error"] <= result["final_certified_error"]


def test_sweep_artifacts(tmp_path):
    out = tmp_path / "c"
    code = execute_command(
        [
            "sweep",
            "--h-list", "0.5,0.25,0.125",
            "--max-iterations", "10",
            "--out-dir", str(out),
        ]
    )
    assert code == 0
    lines = read_lines(out / "sweep.csv")
    assert lines[0] == "h,n_iterations,linf_error,l2_error"
    assert len(lines) == 4
    hs = [float(r.split(",")[0]) for r in lines[1:]]
    errs = [float(r.split(",")[2]) for r in lines[1:]]
    assert hs == [0.5, 0.25, 0.125]
    assert errs[0] > errs[1] > errs[2] > 0
    summary = json.loads((out / "sweep_summary.json").read_text())
    assert set(summary["config"]) == CONFIG_KEYS["sweep"]
    assert summary["config"]["sweep_h"] == [0.5, 0.25, 0.125]
    # each mesh has its own h and budget, so the echo invents neither; the
    # iterations each mesh ran, within the cap of 10, are in the n_iterations column
    assert "h" not in summary["config"] and "iterations" not in summary["config"]
    counts = [float(r.split(",")[1]) for r in lines[1:]]
    assert all(n == int(n) and 1 <= n <= 10 for n in counts), counts
    assert summary["result"]["fitted_slope"] > 0.45
    assert summary["result"]["points_used"] == 3


def test_sweep_help_shows_its_outer_tolerance(capsys):
    assert execute_command(["sweep", "--help"]) == 0
    # argparse wraps the help to the terminal width
    assert "(default 1e-12)" in " ".join(capsys.readouterr().out.split())


def test_sweep_rejects_empty_h_list(tmp_path, capsys):
    code = execute_command(
        ["sweep", "--h-list", ",", "--out-dir", str(tmp_path / "d")]
    )
    assert code == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flags",
    [["--benchmark", "manufactured2d"], ["--benchmark", "lq1d"], ["--h", "0.7"],
     ["--iterations", "3"]],
    ids="_".join,
)
def test_sweep_refuses_flags_it_cannot_use(flags, tmp_path, monkeypatch):
    """sweep fits an order on lq1d only (manufactured2d is exact at every h,
    so its slope would be noise), takes h from --h-list and each budget from
    the iteration count rule: argparse refuses these flags with exit 2."""
    refuse_solving(monkeypatch)
    out = tmp_path / "e"
    assert execute_command(["sweep", "--h-list", "0.5,0.25", "--out-dir", str(out)] + flags) == 2
    assert not out.exists()


def test_diverging_run_exits_1_and_writes_nothing(tmp_path, capsys):
    """SOR diverges on run2d's first evaluation at omega = 1.99: the command
    stops at once, says so on stderr with exit status 1, under the suite's
    warnings-as-errors, and creates no output directory."""
    out = tmp_path / "diverged"
    assert execute_command(["run2d", "--omega", "1.99", "--out-dir", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: SOR diverged after ")
    assert not out.exists()


def test_check_runs_every_property(capsys):
    assert execute_command(["check"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert all(line.startswith("PASS ") for line in lines)
    printed = [line.split()[1].rstrip(":") for line in lines]
    assert printed == [name for name, _ in CHECKS]
