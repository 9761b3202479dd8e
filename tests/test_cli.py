import contextlib
import io
import json
import os
import pathlib
import shlex
import subprocess
import sys
import tempfile
from collections import Counter
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ec3.flows
import ec3.solver
from ec3 import (
    CostFunction,
    SolverConfig,
    SweepRow,
    check_assignment,
    classify_flows,
    clause_count_for_ratio,
    derive_run_seed,
    make_instance,
    mix64,
    parse_instance,
    solve_with_restarts,
    write_labels_csv,
    write_trajectory_csv,
)
from ec3.cli import _ratio_grid, build_parser, dumps17, entry, main

DATA = pathlib.Path(__file__).parent / "data"
REF15 = str(DATA / "ref15.ec3")
REF15_Z = str(DATA / "ref15.z")
UNSAT4 = str(DATA / "unsat4.ec3")
README = pathlib.Path(__file__).parent.parent / "README.md"


# --- JSON rendering -----------------------------------------------------------


def test_dumps17_round_trips_doubles():
    doc = {"a": 0.005, "b": [1 / 3, 1.0, None], "c": {"d": True, "e": 7}}
    text = dumps17(doc)
    back = json.loads(text)
    assert back["a"] == 0.005  # 17 significant digits reconstruct the double
    assert back["b"][0] == 1 / 3
    assert back["b"][2] is None
    assert "0.0050000000000000001" in text
    assert "0.33333333333333331" in text


def test_dumps17_numpy_scalars():
    text = dumps17({"x": np.float64(0.5), "n": np.int64(3), "v": np.arange(3)})
    assert json.loads(text) == {"x": 0.5, "n": 3, "v": [0, 1, 2]}


def test_dumps17_empty_containers_and_unknown_objects():
    assert dumps17({"a": [], "b": {}, "c": np.arange(0)}) == '{\n  "a": [],\n  "b": {},\n  "c": []\n}\n'
    assert dumps17([]) == "[]\n" and dumps17({}) == "{}\n"
    with pytest.raises(TypeError, match="cannot serialize"):
        dumps17({"x": object()})


# --- generate -----------------------------------------------------------------


def test_generate_writes_parseable_instance(tmp_path, capsys):
    out = tmp_path / "inst.ec3"
    rc = main(["generate", "-n", "12", "-m", "6", "--seed", "3", "-o", str(out)])
    assert rc == 0
    text = out.read_text()
    inst = parse_instance(text)
    assert inst.n_vars == 12 and inst.n_clauses == 6
    assert "c generated: n=12 m=6 seed=3" in text
    assert "c r = 0.5" in text
    echo = capsys.readouterr().out
    assert f"c wrote {out}" in echo
    assert "c r = 0.5" in echo


def test_generate_stdout_and_determinism(tmp_path, capsys):
    assert main(["generate", "-n", "10", "-m", "4", "--seed", "1"]) == 0
    first = capsys.readouterr().out
    assert "p ec3 10 4" in first
    assert main(["generate", "-n", "10", "-m", "4", "--seed", "1"]) == 0
    assert capsys.readouterr().out == first


def test_generate_infeasible_is_usage_error(capsys):
    for argv in (
        ["-n", "4", "-m", "100"],
        ["-n", "10", "-m", "-5", "--seed", "1"],
        ["-n", "24", "-m", "12", "--seed", "-1"],
    ):
        rc = main(["generate"] + argv)
        assert rc == 2, argv
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and captured.out == "", argv
        assert captured.err.count("\n") == 1, argv
    assert captured.err == "error: seed must be >= 0, got -1\n"


def test_generate_has_no_format_option(capsys):
    # an instance file has one format, and solve and oracle write one JSON
    # document (to stdout, or with -o to a file); the option would change nothing
    assert main(["generate", "-n", "10", "-m", "4", "--format", "json"]) == 2
    assert "--format" in capsys.readouterr().err
    for command in ("solve", "oracle"):
        for fmt in ("json", "csv"):
            assert main([command, REF15, "--format", fmt]) == 2
            assert "--format" in capsys.readouterr().err
    # trace is the one command that writes a trajectory, so solve takes
    # neither a trace file nor its stride; the stride, the stopping rule a
    # failed solve states, the start half-width and the stop tolerance are
    # constants, not flags
    sweep = ["sweep", "-n", "12", "--r-from", "0.3", "--r-to", "0.3"]
    for argv, flag, value in (
        (["solve", REF15], "--trace", "x.csv"),
        (["solve", REF15], "--record-every", "5"),
        (["trace", REF15], "--record-every", "5"),
        (["solve", REF15], "--assume-q", "0.5"),
        (["solve", REF15], "--chebyshev-k", "3"),
        (["solve", REF15], "--radius", "0.1"),
        (["trace", REF15], "--tol", "1e-9"),
        (sweep, "--radius", "0.1"),
    ):
        assert main([*argv, flag, value]) == 2
        assert flag in capsys.readouterr().err


# --- solve --------------------------------------------------------------------


def test_solve_machine_json(capsys):
    rc = main(["solve", REF15, "--workers", "1"])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.lstrip().startswith("{")  # pure JSON, no comment lines
    doc = json.loads(out)
    assert doc["schema"] == 1
    assert doc["command"] == "solve"
    assert doc["result"]["solved"] is True
    assert doc["result"]["status"] == "Solved"
    assert doc["result"]["vertex_cost"] == 0.0
    inst = parse_instance(pathlib.Path(REF15).read_text())
    z = np.array(doc["result"]["assignment"], dtype=np.uint8)
    assert check_assignment(inst, z).satisfied
    assert doc["config"]["restarts"] == 10
    assert "workers" not in doc["config"]  # not part of reproducibility
    # one entry per reported restart, the winner last
    runs = doc["result"]["runs"]
    assert len(runs) == doc["result"]["stats"]["runs_attempted"]
    assert runs[-1] == {
        "status": "Solved",
        "iterations": doc["result"]["iterations"],
        "vertex_cost": 0.0,
        "certificate": runs[-1]["certificate"],
    }
    assert all(set(r) == {"status", "iterations", "vertex_cost", "certificate"} for r in runs)
    assert "0.0050000000000000001" in out  # eta at 17 significant digits


def test_solve_human_text_and_file(tmp_path, capsys):
    out = tmp_path / "solve.json"
    rc = main(["solve", REF15, "--workers", "1", "-o", str(out)])
    assert rc == 0
    echoed = capsys.readouterr().out
    assert "Solved" in echoed
    assert "z: " in echoed
    assert "q_hat" in echoed
    assert "c config: eta=0.005" in echoed
    doc = json.loads(out.read_text())
    assert doc["result"]["solved"] is True


def test_solve_failure_reports_stopping_rule(tmp_path, capsys):
    out = tmp_path / "solve.json"
    rc = main(["solve", UNSAT4, "--workers", "1", "--restarts", "3", "-o", str(out)])
    assert rc == 1
    echoed = capsys.readouterr().out
    assert "Failed" in echoed
    assert "stopping rule: assuming q >= 0.25" in echoed
    assert "43 runs" in echoed  # ceil(11/0.25 − 1)
    doc = json.loads(out.read_text())
    assert doc["result"]["solved"] is False
    assert doc["result"]["status"] is None
    assert doc["result"]["stats"]["runs_attempted"] == 3
    assert doc["result"]["stats"]["n_s_hat"] is None
    runs = doc["result"]["runs"]
    assert len(runs) == 3
    for run in runs:
        assert run["status"] != "Solved" and run["vertex_cost"] >= 1.0
        assert run["certificate"] is False and run["iterations"] >= 1


def test_solve_failure_reports_a_certificate(tmp_path, capsys):
    # one clause: F = 0.625 at the centre, so every start certifies, and one
    # update from seed 3's start rounds to a vertex that breaks the clause
    inst = tmp_path / "one.ec3"
    inst.write_text("p ec3 3 1\n1 2 3\n")
    out = tmp_path / "solve.json"
    argv = ["solve", str(inst), "--restarts", "1", "--max-iters", "1", "--seed", "3", "-o", str(out)]
    assert main(argv) == 1
    echoed = capsys.readouterr().out
    assert "Failed" in echoed
    assert echoed.endswith("certificate: an interior iterate had F < 1 — the instance is satisfiable\n")
    doc = json.loads(out.read_text())
    assert doc["result"]["solved"] is False and doc["result"]["certificate"] is True


def test_solve_echoes_non_default_descent_settings(tmp_path, capsys):
    # the JSON config names each setting by its SolverConfig field, the
    # config line by its flag
    out = tmp_path / "x.json"
    settings = ["--eta", "0.01", "--max-iters", "7"]
    assert main(["solve", REF15, *settings, "-o", str(out)]) == 1
    echoed = capsys.readouterr().out
    assert "c config: eta=0.01 max-iters=7 seed=0 restarts=10\n" in echoed
    config = json.loads(out.read_text())["config"]
    assert config == {"eta": 0.01, "max_iters": 7, "seed": 0, "restarts": 10}


def test_overflowing_step_keeps_stderr_empty(tmp_path, capsys):
    # past eta ≈ 1e307, eta·∇F overflows to ±inf and the clamp puts the
    # point on a face: a well-defined run, so no warning reaches stderr
    # (under the suite's filterwarnings = error it would raise instead)
    huge = ["--eta", "1e308"]
    for argv, code in (
        (["solve", REF15, *huge, "-o", str(tmp_path / "x.json")], 1),
        (["trace", REF15, *huge, "--format", "json"], 1),
        (["sweep", "-n", "12", "--r-from", "0.3", "--r-to", "0.3", "--per-r", "2", *huge], 0),
    ):
        assert main(argv) == code, argv
        assert capsys.readouterr().err == "", argv


def test_solve_missing_file_is_usage_error(capsys):
    assert main(["solve", "/nonexistent/foo.ec3"]) == 2
    assert "error:" in capsys.readouterr().err


def test_index_outside_int32_is_usage_error(tmp_path, capsys):
    # exit 1 would mean "not solved" or UNSAT; a bad instance is an input error
    inst = tmp_path / "big.ec3"
    (tmp_path / "z").write_text("0 0 1\n")
    cases = (
        ("p ec3 3 1\n1 2 3000000000\n", "error: variable index out of range"),
        # N beyond the index range, checked before any allocation
        ("p ec3 99999999999999999999999 0\n", "error: n_vars=99999999999999999999999 exceeds"),
        ("p ec3 1000000000000 0\n", "error: n_vars=1000000000000 exceeds"),
        # int() would read these as clause (1, 2, 3) and index 10
        ("p ec3 3 1\n+1 2 \u0663\n", "error: line 2: non-integer index"),
        ("p ec3 10 1\n1 2 1_0\n", "error: line 2: non-integer index"),
    )
    for text, message in cases:
        inst.write_text(text)
        for argv in (["solve", str(inst)], ["oracle", str(inst)], ["verify", str(inst), str(tmp_path / "z")]):
            assert main(argv) == 2, argv
            captured = capsys.readouterr()
            assert captured.err.startswith(message) and captured.out == "", (text, argv)
            assert captured.err.count("\n") == 1, (text, argv)
    assert main(["generate", "-n", "99999999999999999999999", "-m", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: n_vars=99999999999999999999999 exceeds") and captured.out == ""


def test_duplicate_clause_is_one_warning_line(tmp_path, capsys):
    # the parser's notice reaches stderr as one line and the command goes on
    inst = tmp_path / "dup.ec3"
    inst.write_text("c x\np ec3 4 2\n1 2 3\n3 2 1\n")
    assert main(["solve", str(inst), "-o", str(tmp_path / "d.json"), "--restarts", "1"]) == 0
    assert capsys.readouterr().err == "warning: duplicate clause (1, 2, 3) (clauses 1 and 2)\n"
    # an input error after it is the one line on stderr
    (tmp_path / "z").write_text("0 0 2 0\n")
    assert main(["verify", str(inst), str(tmp_path / "z")]) == 2
    assert capsys.readouterr().err == "error: assignment values must be 0 or 1\n"


def test_other_warnings_keep_the_outer_filters(tmp_path, monkeypatch, capsys):
    # main prints only UserWarnings itself; a RuntimeWarning inside a command
    # still meets the test suite's error filter
    import warnings

    import ec3.cli

    def noisy(args):
        warnings.warn("overflow in the descent", RuntimeWarning)
        return 0

    monkeypatch.setattr(ec3.cli, "cmd_oracle", noisy)
    inst = tmp_path / "a.ec3"
    inst.write_text("p ec3 3 1\n1 2 3\n")
    with pytest.raises(RuntimeWarning, match="overflow in the descent"):
        main(["oracle", str(inst)])
    assert capsys.readouterr().err == ""


def test_memory_error_is_usage_error(capsys, monkeypatch):
    # an N within the index range can still be too large for memory; the
    # allocation failure is simulated here, not provoked
    for error, line in (
        (MemoryError("Unable to allocate 16.0 GiB for an array"), "error: Unable to allocate 16.0 GiB for an array\n"),
        (MemoryError(), "error: out of memory\n"),
    ):

        def no_memory(text, error=error):
            raise error

        monkeypatch.setattr("ec3.cli.parse_instance", no_memory)
        assert main(["solve", REF15]) == 2
        captured = capsys.readouterr()
        assert captured.err == line and captured.out == ""


def test_solve_flags_are_checked_before_the_solve(capsys, monkeypatch):
    def no_solve(*args, **kwargs):
        raise AssertionError("solve started with a bad flag")

    monkeypatch.setattr("ec3.cli.solve_with_restarts", no_solve)
    cases = (
        ["--eta", "nan"],
        ["--eta", "inf"],
        ["--max-iters", "0"],
    )
    for flags in cases:
        assert main(["solve", REF15, *flags]) == 2, flags
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err, (flags, err)


# --- oracle -------------------------------------------------------------------


def test_oracle_sat(capsys):
    rc = main(["oracle", REF15])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["result"]["satisfiable"] is True
    assert doc["result"]["n_solutions"] == 30
    inst = parse_instance(pathlib.Path(REF15).read_text())
    z = np.array(doc["result"]["witness"], dtype=np.uint8)
    assert check_assignment(inst, z).satisfied


def test_oracle_unsat(capsys):
    rc = main(["oracle", UNSAT4])
    assert rc == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["result"]["satisfiable"] is False
    assert doc["result"]["witness"] is None
    assert doc["result"]["n_solutions"] == 0


def test_oracle_human_text(tmp_path, capsys):
    out = tmp_path / "oracle.json"
    assert main(["oracle", REF15, "-o", str(out)]) == 0
    echoed = capsys.readouterr().out
    assert "SAT" in echoed
    assert "solutions: 30" in echoed
    assert main(["oracle", UNSAT4, "-o", str(out)]) == 1
    assert capsys.readouterr().out.splitlines()[-1] == "UNSAT"
    assert json.loads(out.read_text())["result"]["satisfiable"] is False


def test_oracle_cap_enforced(tmp_path, capsys):
    out = tmp_path / "big.ec3"
    assert main(["generate", "-n", "12", "-m", "5", "-o", str(out)]) == 0
    capsys.readouterr()
    assert main(["oracle", str(out), "--cap", "8"]) == 2
    assert "error:" in capsys.readouterr().err


# --- verify -------------------------------------------------------------------


def test_verify_accepts_known_solution(capsys):
    assert main(["verify", REF15, REF15_Z]) == 0
    assert "satisfied" in capsys.readouterr().out


def test_verify_rejects_wrong_assignment(tmp_path, capsys):
    bad = tmp_path / "bad.z"
    bad.write_text("0 " * 15 + "\n")
    assert main(["verify", REF15, str(bad)]) == 1
    assert "unsatisfied clauses: 8 of 8" in capsys.readouterr().out


def test_verify_malformed_assignment(tmp_path, capsys):
    bad = tmp_path / "bad.z"
    bad.write_text("0 1\n")
    assert main(["verify", REF15, str(bad)]) == 2
    assert "error:" in capsys.readouterr().err


# --- sweep --------------------------------------------------------------------


SWEEP_ARGS = [
    "sweep", "-n", "12", "--r-from", "0.25", "--r-to", "0.5", "--step", "0.25",
    "--per-r", "2", "--budget", "2", "--seed", "5", "--oracle", "--workers", "1",
]


def test_sweep_csv_output(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    rc = main(SWEEP_ARGS + ["-o", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "r,M,N,instances,solver_success_frac,oracle_sat_frac,mean_runs_to_success"
    assert len(lines) == 3
    assert lines[1].startswith("0.25,3,12,2,")
    assert lines[2].startswith("0.5,6,12,2,")
    echoed = capsys.readouterr().out
    assert "c sweep: n=12" in echoed
    # every cell derives its own solver seed, so no solver seed is echoed
    config_line = next(ln for ln in echoed.splitlines() if ln.startswith("c config:"))
    assert "seed=" not in config_line
    # its run budget is --budget, echoed on the sweep line
    assert "restarts" not in config_line
    assert "budget=2" in echoed


def test_sweep_json_document(capsys):
    rc = main(SWEEP_ARGS + ["--format", "json"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["schema"] == 1 and doc["command"] == "sweep"
    assert doc["config"]["r_grid"] == [0.25, 0.5]
    assert doc["config"]["base_seed"] == 5
    assert "seed" not in doc["config"]  # cells derive their solver seeds
    assert "restarts" not in doc["config"] and doc["config"]["run_budget"] == 2
    assert len(doc["rows"]) == 2
    assert "r_star" in doc
    for row in doc["rows"]:
        assert 0.0 <= row["solver_success_frac"] <= 1.0
        # each row is the SweepRow as it is
        assert list(row) == [f.name for f in fields(SweepRow)]


def test_sweep_json_winner_iterations(capsys):
    # at r = 1 no cell solves: the row's means are null, like its runs
    argv = SWEEP_ARGS + ["--r-to", "1.0", "--step", "0.75", "--format", "json"]
    assert main(argv) == 0
    solved, unsolved = json.loads(capsys.readouterr().out)["rows"]
    assert solved["solver_success_frac"] > 0 and solved["mean_winner_iterations"] >= 1
    assert unsolved["r"] == 1 and unsolved["solver_success_frac"] == 0
    assert unsolved["mean_runs_to_success"] is None
    assert unsolved["mean_winner_iterations"] is None


def test_sweep_prints_r_star(capsys):
    argv = ["sweep", "-n", "12", "--r-from", "0.5", "--r-to", "0.9", "--step", "0.2", "--per-r", "4"]
    assert main(argv + ["--budget", "2", "--oracle", "--workers", "1"]) == 0
    assert capsys.readouterr().out.endswith("c r_star = 0.9\n")


def test_sweep_bad_grid(capsys, monkeypatch):
    def no_cell(*args, **kwargs):
        raise AssertionError("a sweep cell ran with bad arguments")

    monkeypatch.setattr("ec3.flows._sweep_cell", no_cell)
    sweep = ["sweep", "-n", "12", "--r-from", "0.25", "--r-to", "0.5", "--per-r", "2"]
    for extra, message in (
        (["--r-from", "0.5", "--r-to", "0.25", "--workers", "1"], "r-to below r-from"),
        (["--workers", "0"], "workers must be at least 1, got 0"),
        (["--workers", "-3"], "workers must be at least 1, got -3"),
        # the oracle counts models only up to --cap variables; phase_sweep
        # says so, in the words of `ec3 oracle`
        (["-n", "30", "--r-from", "0.3", "--r-to", "0.3", "--per-r", "1", "--oracle", "--workers", "1"],
         "error: n_vars=30 exceeds oracle cap 26\n"),
        (["--oracle", "--cap", "11", "--workers", "1"], "error: n_vars=12 exceeds oracle cap 11\n"),
    ):
        rc = main(sweep + extra)
        assert rc == 2, extra
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and message in captured.err, (extra, captured.err)
        assert captured.err.count("\n") == 1 and captured.out == "", extra


def test_bad_output_path_fails_before_the_work(capsys, monkeypatch, tmp_path):
    def no_work(*args, **kwargs):
        raise AssertionError("a command ran with an unwritable -o")

    monkeypatch.setattr("ec3.flows._sweep_cell", no_work)
    monkeypatch.setattr("ec3.cli.solve_with_restarts", no_work)
    bad = str(tmp_path / "missing" / "out.csv")
    sweep = ["sweep", "-n", "12", "--r-from", "0.25", "--r-to", "0.9", "--per-r", "5", "--workers", "1"]
    for argv in (sweep, ["trace", REF15], ["trace", REF15, "--format", "json"], ["solve", REF15]):
        assert main(argv + ["-o", bad]) == 2, argv
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and captured.out == "", argv
    # the check neither truncates a file nor leaves one behind when the
    # command then fails
    kept, new = tmp_path / "kept.json", tmp_path / "new.json"
    kept.write_text("keep me\n")
    for out in (kept, new):
        assert main(["solve", str(tmp_path / "absent.ec3"), "-o", str(out)]) == 2
        assert "error: " in capsys.readouterr().err
    assert kept.read_text() == "keep me\n"
    assert not new.exists()
    # a trace CSV's labels file is checked with it
    monkeypatch.chdir(tmp_path)
    (tmp_path / "flows.labels.csv").mkdir()
    assert main(["trace", REF15, "-o", "flows.csv"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.out == ""
    assert not (tmp_path / "flows.csv").exists()
    # before the instance is read
    assert main(["trace", str(tmp_path / "absent.ec3"), "-o", "flows.csv"]) == 2
    assert "flows.labels.csv" in capsys.readouterr().err


def test_sweep_has_no_restarts_option(capsys):
    # a sweep's run budget is --budget; --restarts would change nothing, and
    # a sweep records no run, so it takes no trajectory stride
    for flag, value in (("--restarts", "3"), ("--record-every", "5")):
        assert main(SWEEP_ARGS + [flag, value]) == 2
        assert flag in capsys.readouterr().err


def test_sweep_zero_step_is_usage_error(capsys, monkeypatch):
    def no_sweep(*args, **kwargs):
        raise AssertionError("sweep started with a bad step")

    monkeypatch.setattr("ec3.cli.phase_sweep", no_sweep)
    rc = main(["sweep", "-n", "12", "--r-from", "0.25", "--r-to", "0.5", "--step", "0", "--workers", "1"])
    assert rc == 2
    assert "step must be positive" in capsys.readouterr().err
    for step, r_to, message in (
        ("nan", "0.5", "step must be positive and finite"),
        ("inf", "0.5", "step must be positive and finite"),
        ("1e-320", "0.5", "step=1e-320 is too small"),
        # finer than the 10-digit rounding of the grid points: 10001 points,
        # only 1001 of them distinct
        ("1e-11", "0.2500001", "step=1e-11 is too small"),
    ):
        rc = main(["sweep", "-n", "12", "--r-from", "0.25", "--r-to", r_to, "--step", step, "--workers", "1"])
        assert rc == 2, step
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err, (step, err)
    with pytest.raises(ValueError, match="step=1e-11 is too small"):
        _ratio_grid(0.25, 0.25 + 1e-7, 1e-11)
    # a span over step that overflows to infinity
    with pytest.raises(ValueError, match="no finite point count"):
        _ratio_grid(0.5, 1e300, 1e-10)


def test_sweep_ratios_are_checked_before_the_grid_is_built(capsys, monkeypatch):
    def no_sweep(*args, **kwargs):
        raise AssertionError("sweep started on an out-of-range grid")

    monkeypatch.setattr("ec3.cli.phase_sweep", no_sweep)
    cases = (("0.5", "1.5", "1.5"), ("0", "0.5", "0.0"), ("-0.25", "0.5", "-0.25"), ("0.5", "inf", "inf"))
    for r_from, r_to, bad in cases:
        rc = main(["sweep", "-n", "12", "--r-from", r_from, "--r-to", r_to, "--step", "0.5", "--workers", "1"])
        assert rc == 2
        assert f"ratio r={bad} outside (0, 1]" in capsys.readouterr().err
    # the grid's rounded end point, not --r-to, is what must lie in (0, 1]
    assert _ratio_grid(0.5, 1.01, 0.1) == [0.5, 0.6, 0.7, 0.8, 0.9, 1.0]
    # its last point is the largest r-from + k·step not above r-to, and a
    # grid that ends on r-to up to float error keeps that point
    assert _ratio_grid(0.3, 0.86, 0.1) == [0.3, 0.4, 0.5, 0.6, 0.7, 0.8]
    assert _ratio_grid(0.5, 1.0, 0.3) == [0.5, 0.8]
    assert _ratio_grid(0.25, 0.5, 0.05) == [0.25, 0.3, 0.35, 0.4, 0.45, 0.5]
    assert _ratio_grid(0.3, 0.9, 0.05) == [round(0.3 + 0.05 * i, 10) for i in range(13)]
    assert _ratio_grid(0.4, 0.6, 0.1) == [0.4, 0.5, 0.6]


def test_sweep_grid_stops_below_r_to(capsys):
    # 0.5 + 2·0.3 = 1.1 would pass --r-to 1.0 and leave (0, 1]
    argv = "sweep -n 12 --r-from 0.5 --r-to 1.0 --step 0.3 --per-r 1 --workers 1 --format json"
    assert main(argv.split()) == 0
    assert [row["r"] for row in json.loads(capsys.readouterr().out)["rows"]] == [0.5, 0.8]


def test_sweep_records_no_trajectories(tmp_path, monkeypatch, capsys):
    def no_recording(*args, **kwargs):
        raise AssertionError("a sweep recorded or classified a run")

    monkeypatch.setattr(ec3.solver, "_Log", no_recording)
    monkeypatch.setattr(ec3.flows, "classify_flows", no_recording)
    assert main(SWEEP_ARGS + ["-o", str(tmp_path / "sweep.csv")]) == 0
    assert main(SWEEP_ARGS + ["--format", "json"]) == 0
    assert capsys.readouterr().err == ""


# The flow-family counts that each row of the golden sweep's JSON document
# (tests/test_golden.py's SWEEP) carried while sweeps classified their winners.
GOLDEN_SWEEP_FLOW_COUNTS = [
    {"V": 19, "II-up": 7, "Irregular": 3, "I": 3, "IV": 2, "III-down": 2},
    {"V": 9, "Irregular": 8, "II-up": 7, "III-down": 5, "I": 6, "IV": 1},
    {"Irregular": 5, "V": 13, "II-up": 8, "I": 3, "III-down": 5, "IV": 2},
    {"III-down": 5, "I": 3, "Irregular": 6, "IV": 2, "V": 6, "II-up": 14},
    {"V": 9, "II-up": 12, "Irregular": 4, "IV": 3, "II-down": 2, "III-down": 5, "I": 1},
    {"II-up": 11, "IV": 4, "Irregular": 1, "III-down": 3, "V": 5},
]


def test_trace_of_each_sweep_cell_gives_its_flow_counts(tmp_path, capsys):
    # sweep cell (i, j) is `ec3 generate` at its instance seed and `ec3
    # trace` at mix64 of it; the labels of its solved cells sum to the row
    grid = _ratio_grid(0.25, 0.5, 0.05)
    assert len(grid) == len(GOLDEN_SWEEP_FLOW_COUNTS)
    for i, (r, want) in enumerate(zip(grid, GOLDEN_SWEEP_FLOW_COUNTS)):
        counts = Counter()
        for j in range(3):
            seed = derive_run_seed(5, (i << 32) | j)
            path = str(tmp_path / f"cell-{i}-{j}.ec3")
            m = clause_count_for_ratio(r, 12)
            assert main(["generate", "-n", "12", "-m", str(m), "--seed", str(seed), "-o", path]) == 0
            capsys.readouterr()
            argv = ["trace", path, "--restarts", "3", "--seed", str(mix64(seed)), "--format", "json"]
            solved = main(argv) == 0
            doc = json.loads(capsys.readouterr().out)
            if solved:
                counts.update(label["label"] for label in doc["labels"])
        assert counts == want, r


# --- trace --------------------------------------------------------------------


def test_trace_csv_writes_both_files(tmp_path, capsys):
    out = tmp_path / "flow.csv"
    rc = main(["trace", REF15, "--workers", "1", "-o", str(out)])
    assert rc == 0
    labels = tmp_path / "flow.labels.csv"
    lines = out.read_text().splitlines()
    assert lines[0] == "iter,F," + ",".join(f"x{i}" for i in range(1, 16))
    assert lines[1].startswith("1,")
    assert len(lines) > 5
    lab_lines = labels.read_text().splitlines()
    assert lab_lines[0] == "var,C_k,label"
    assert len(lab_lines) == 16
    assert lab_lines[6].startswith("6,4,")  # variable 6 sits in 4 clauses
    echoed = capsys.readouterr().out
    assert "flow families:" in echoed
    assert "c traced run: 0" in echoed
    assert "c starting-slope law: " in echoed


def test_trace_csv_requires_output(capsys, monkeypatch):
    # the usage error comes before any solving
    def no_solve(*args, **kwargs):
        raise AssertionError("trace solved before checking its arguments")

    monkeypatch.setattr("ec3.cli.solve_with_restarts", no_solve)
    assert main(["trace", REF15, "--workers", "1"]) == 2
    assert "needs --output" in capsys.readouterr().err
    # before the instance is read
    assert main(["trace", "/nonexistent/foo.ec3"]) == 2
    assert "needs --output" in capsys.readouterr().err


def test_trace_json(capsys):
    rc = main(["trace", REF15, "--workers", "1", "--format", "json"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["run"]["status"] == "Solved"
    assert doc["trajectory"]["iterations"][0] == 1
    assert len(doc["labels"]) == 15
    assert doc["labels"][5] == {"var": 6, "C_k": 4, "label": doc["labels"][5]["label"]}
    n_snap = len(doc["trajectory"]["iterations"])
    assert len(doc["trajectory"]["F"]) == n_snap
    assert all(len(s) == 15 for s in doc["trajectory"]["snapshots"])
    assert 0 <= doc["run"]["slope_law_ok"] <= 15


def test_trace_of_the_flow_gallery_instance(tmp_path, capsys):
    # N = 1000, M = 25: the instance the flow families and the starting-slope
    # law are studied on; `ec3 trace` writes what the library path writes
    inst = tmp_path / "g.ec3"
    assert main(["generate", "-n", "1000", "-m", "25", "--seed", "7", "-o", str(inst)]) == 0
    out = tmp_path / "flows.csv"
    assert main(["trace", str(inst), "--seed", "11", "--workers", "1", "-o", str(out)]) == 0
    echoed = capsys.readouterr().out
    assert "c starting-slope law: 1000/1000 variables within 0.1*eta of eta*C_k/4" in echoed
    # README's line: the flow labels at the recording stride and thresholds
    flows = "flow families: I=3  II-down=4  II-up=43  III-down=7  IV=14  Irregular=1  V=928"
    assert flows in echoed.splitlines()

    instance = parse_instance(inst.read_text())
    outcome = solve_with_restarts(CostFunction.from_instance(instance), SolverConfig(seed=11), 10, record=True)
    trajectory = outcome.results[outcome.traced_index].trajectory
    want_csv, want_labels = tmp_path / "want.csv", tmp_path / "want.labels.csv"
    with open(want_csv, "w") as fh:
        write_trajectory_csv(trajectory, fh)
    with open(want_labels, "w") as fh:
        write_labels_csv(classify_flows(trajectory), instance.clause_degree, fh)
    assert out.read_bytes() == want_csv.read_bytes()
    assert (tmp_path / "flows.labels.csv").read_bytes() == want_labels.read_bytes()

    assert main(["trace", str(inst), "--seed", "11", "--workers", "1", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["run"]["slope_law_ok"] == 1000


def test_traces_come_from_the_solve(tmp_path, monkeypatch):
    # trace records during the solve: no run descends twice
    def no_rerun(*args, **kwargs):
        raise AssertionError("a traced run was descended a second time")

    monkeypatch.setattr("ec3.cli.rerun_with_trajectory", no_rerun)
    monkeypatch.setattr("ec3.solver.rerun_with_trajectory", no_rerun)
    monkeypatch.setattr("ec3.solver.bsgd_run", no_rerun)
    for path, rc in ((REF15, 0), (UNSAT4, 1)):
        out = tmp_path / "t.csv"
        assert main(["trace", path, "--workers", "1", "--restarts", "3", "-o", str(out)]) == rc


def test_trace_unsolved_falls_back_to_run_zero(tmp_path, capsys):
    out = tmp_path / "u.csv"
    rc = main(["trace", UNSAT4, "--workers", "1", "--restarts", "2", "-o", str(out)])
    assert rc == 1  # not solved, but the trace of run 0 is still written
    assert out.exists()
    assert "c traced run: 0 status: Converged-unsolved" in capsys.readouterr().out


def test_trace_of_a_clause_free_instance(tmp_path, capsys):
    # a run with no clauses stops after one update: two snapshots, all V
    inst = tmp_path / "free.ec3"
    assert main(["generate", "-n", "5", "-m", "0", "-o", str(inst)]) == 0
    out = tmp_path / "free.csv"
    assert main(["trace", str(inst), "--workers", "1", "-o", str(out)]) == 0
    assert "flow families: V=5" in capsys.readouterr().out
    labels = (tmp_path / "free.labels.csv").read_text().splitlines()
    assert [line.split(",")[2] for line in labels[1:]] == ["V"] * 5

    instance = parse_instance(inst.read_text())
    outcome = solve_with_restarts(CostFunction.from_instance(instance), SolverConfig(), 10, record=True)
    want = tmp_path / "want.csv"
    with open(want, "w") as fh:
        write_trajectory_csv(outcome.results[outcome.traced_index].trajectory, fh)
    assert out.read_bytes() == want.read_bytes()


def test_trace_of_a_one_update_run(tmp_path, capsys):
    out = tmp_path / "one.csv"
    rc = main(["trace", REF15, "--workers", "1", "--max-iters", "1", "-o", str(out)])
    assert rc in (0, 1), capsys.readouterr().err
    lines = out.read_text().splitlines()
    assert len(lines) == 3  # header, the start and the point after one update
    assert [line.split(",")[0] for line in lines[1:]] == ["1", "2"]


# --- cross-cutting ------------------------------------------------------------


def test_worker_count_does_not_change_output_files(tmp_path):
    files = []
    for w in ("1", "2"):
        f = tmp_path / f"solve-w{w}.json"
        assert main(["solve", REF15, "--workers", w, "--seed", "3", "-o", str(f)]) == 0
        files.append(f.read_bytes())
    assert files[0] == files[1]

    sweeps = []
    for w in ("1", "2"):
        f = tmp_path / f"sweep-w{w}.csv"
        assert main(SWEEP_ARGS + ["--workers", w, "-o", str(f)]) == 0
        sweeps.append(f.read_bytes())
    assert sweeps[0] == sweeps[1]


def test_help_and_unknown_command():
    assert main(["--help"]) == 0
    assert main(["frobnicate"]) == 2
    assert main([]) == 2  # a subcommand is required


def test_console_script_entry(monkeypatch, capsys):
    # the `ec3` console script and `python -m ec3.cli` call entry(), which
    # exits with main's code
    for argv, code in ((["verify", REF15, REF15_Z], 0), (["frobnicate"], 2)):
        monkeypatch.setattr(sys, "argv", ["ec3", *argv])
        with pytest.raises(SystemExit) as exit_info:
            entry()
        assert exit_info.value.code == code, argv
    capsys.readouterr()
    src = pathlib.Path(ec3.__file__).parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    run = subprocess.run([sys.executable, "-m", "ec3.cli", "--help"], env=env, capture_output=True)
    assert run.returncode == 0 and run.stdout.startswith(b"usage: ec3 "), run.stderr
    # no tomllib on Python 3.10: the [project.scripts] table is read as text
    pyproject = (README.parent / "pyproject.toml").read_text()
    scripts = pyproject.split("[project.scripts]\n", 1)[1].split("\n[", 1)[0]
    assert scripts.strip() == 'ec3 = "ec3.cli:entry"'


def test_readme_command_lines_parse(capsys):
    # every `ec3 ...` line of README.md's code blocks names real options;
    # they are parsed, not run
    blocks = README.read_text().split("```")[1::2]
    lines = [line for block in blocks for line in block.splitlines() if line.startswith("ec3 ")]
    assert lines
    parser = build_parser()
    for line in lines:
        try:
            parser.parse_args(shlex.split(line, comments=True)[1:])
        except SystemExit:
            pytest.fail(f"README line does not parse: {line}\n{capsys.readouterr().err}")


# --- the exit-code contract under hostile input ---------------------------------

# N from 1 to 12, or beyond the int32 index range, never in between, so that
# no example allocates much
SIZES = st.one_of(st.integers(1, 12), st.integers(2**31, 10**30))
TOKENS = st.one_of(
    st.integers(-2, 14).map(str),
    SIZES.map(str),
    st.sampled_from(["+1", "1_0", "\u0663", "1.5", "x", "0x1", "1e3", "-0", "007"]),
)
TEXT = st.text(st.characters(blacklist_categories=("Cs",)), max_size=40)


@st.composite
def near_valid_files(draw):
    """An instance file and an assignment file for it, valid but for at
    most one hostile header token, one hostile clause line (in place of a
    clause, or added) and one hostile assignment value."""
    n, m = draw(st.one_of(st.integers(3, 12), SIZES)), draw(st.integers(0, 5))
    header = ["p", "ec3", str(n), str(m)]
    if draw(st.integers(0, 3)) == 0:
        header[draw(st.integers(0, 3))] = draw(TOKENS)
    index = st.integers(1, min(n, 12)).map(str)
    lines = [" ".join(draw(st.lists(index, min_size=3, max_size=3, unique=n >= 3))) for _ in range(m)]
    if draw(st.integers(0, 3)) == 0:
        at = draw(st.integers(0, m))
        lines[at : at + 1] = [" ".join(draw(st.lists(TOKENS, min_size=2, max_size=4)))]
    comments = draw(st.lists(st.sampled_from(["c comment", ""]), max_size=2))
    values = draw(st.lists(st.sampled_from("01"), min_size=min(n, 12), max_size=min(n, 12)))
    if draw(st.booleans()):
        at = draw(st.integers(0, len(values)))
        values[at : at + 1] = [draw(st.sampled_from(["2", "-1", "x", "\u0661", ""]))]
    return "\n".join(comments + [" ".join(header)] + lines).encode(), " ".join(values)


GARBAGE_FILES = st.tuples(st.one_of(TEXT.map(str.encode), st.binary(max_size=40)), TEXT)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(files=st.one_of(near_valid_files(), near_valid_files(), GARBAGE_FILES))
@example(files=(b"p ec3 99999999999999999999999 0\n", "0\n"))
def test_hostile_inputs_keep_the_exit_code_contract(files):
    # exit 0 or 1 with nothing on stderr but duplicate-clause warnings, or
    # exit 2 with one error line; never an escaped exception
    instance, assignment = files
    with tempfile.TemporaryDirectory() as tmp:
        inst, z = pathlib.Path(tmp, "inst.ec3"), pathlib.Path(tmp, "z")
        inst.write_bytes(instance)
        z.write_text(assignment, encoding="utf-8")
        budget = ["--restarts", "1", "--max-iters", "300"]
        for argv in (
            ["solve", str(inst), *budget],
            ["oracle", str(inst)],
            ["verify", str(inst), str(z)],
            ["trace", str(inst), "--format", "json", *budget],
        ):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = main(argv)
            if rc == 2:
                assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1, argv
            else:
                assert rc in (0, 1), (argv, rc)
                for line in err.getvalue().splitlines():
                    assert line.startswith("warning: duplicate clause "), (argv, rc, err.getvalue())
