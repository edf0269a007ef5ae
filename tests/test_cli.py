import json

import numpy as np
import pytest

from hjb_pi import cli
from hjb_pi.checks import CHECKS
from hjb_pi.cli import TRAJECTORY_HEADER, execute_command


def read_lines(path):
    return path.read_text().splitlines()


def test_argparse_failures_exit_2():
    assert execute_command([]) == 2
    assert execute_command(["run1d", "--no-such-flag"]) == 2
    assert execute_command(["frobnicate"]) == 2


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
    # a direct solve counts as one sweep; theta = 1 keeps solver_tol throughout
    assert TRAJECTORY_HEADER[-2:] == ["inner_sweeps", "inner_tol"]
    assert all(row.split(",")[-2] == "1" for row in lines[1:])
    assert all(float(row.split(",")[-1]) == 1e-10 for row in lines[1:])

    summary = json.loads((out / "run1d_summary.json").read_text())
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


def test_meaningless_solver_settings_are_refused(tmp_path, capsys):
    for flags in (["--solver-tol", "-1"], ["--solver-tol", "nan"], ["--solver-tol", "inf"],
                  ["--omega", "2.5"], ["--solver-max-iter", "0"]):
        code = execute_command(["run1d", "--h", "0.2", "--out-dir", str(tmp_path / "f")] + flags)
        assert code == 1, flags
        assert capsys.readouterr().err.startswith("error:"), flags


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
    assert [float(r[-1]) for r in rows[:2]] == [1e-10, 1e-10]
    assert all(int(r[-2]) >= 1 for r in rows)
    result = json.loads((out / "run2d_summary.json").read_text())["result"]
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
    assert summary["result"]["fitted_slope"] > 0.45
    assert summary["result"]["points_used"] == 3


def test_sweep_rejects_empty_h_list(tmp_path, capsys):
    code = execute_command(
        ["sweep", "--h-list", ",", "--out-dir", str(tmp_path / "d")]
    )
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_sweep_refuses_discrete_exact_benchmark(tmp_path, capsys):
    """manufactured2d is exact at every h, so a fitted order would be noise."""
    out = tmp_path / "e"
    code = execute_command(
        ["sweep", "--benchmark", "manufactured2d", "--h-list", "0.4,0.2,0.1",
         "--out-dir", str(out)]
    )
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "exactly at every h" in err
    assert not out.exists()


def test_sweep_refuses_per_run_flags(tmp_path, capsys):
    """h comes from --h-list and budgets from the iteration count rule."""
    for flag in (["--h", "0.7"], ["--iterations", "3"]):
        out = tmp_path / flag[0].strip("-")
        code = execute_command(["sweep", "--h-list", "0.5,0.25", "--out-dir", str(out)] + flag)
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "does not accept --h or --iterations" in err
        assert not out.exists()


def test_check_fast_passes(capsys):
    assert execute_command(["check", "--fast"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "SKIP" in out
    assert not any(line.startswith("FAIL") for line in out.splitlines())
    printed = [line.split()[1].rstrip(":") for line in out.splitlines()]
    assert printed == [name for name, _, _ in CHECKS]

