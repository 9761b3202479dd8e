import json
import pathlib

import numpy as np
import pytest

import ec3.flows
from ec3 import (
    CostFunction,
    SolverConfig,
    check_assignment,
    classify_flows,
    make_instance,
    parse_instance,
    phase_sweep,
    solve_with_restarts,
    write_labels_csv,
    write_trajectory_csv,
)
from ec3.cli import _ratio_grid, dumps17, main

DATA = pathlib.Path(__file__).parent / "data"
REF15 = str(DATA / "ref15.ec3")
REF15_Z = str(DATA / "ref15.z")
UNSAT4 = str(DATA / "unsat4.ec3")


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
    for argv in (["-n", "4", "-m", "100"], ["-n", "10", "-m", "-5", "--seed", "1"]):
        rc = main(["generate"] + argv)
        assert rc == 2, argv
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and captured.out == "", argv


def test_generate_has_no_format_option(capsys):
    # an instance file has one format, and solve and oracle write one JSON
    # document (to stdout, or with -o to a file); the option would change nothing
    assert main(["generate", "-n", "10", "-m", "4", "--format", "json"]) == 2
    assert "--format" in capsys.readouterr().err
    for command in ("solve", "oracle"):
        for fmt in ("json", "csv"):
            assert main([command, REF15, "--format", fmt]) == 2
            assert "--format" in capsys.readouterr().err


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


def test_solve_trace_writes_trajectory(tmp_path, capsys):
    trace = tmp_path / "run.csv"
    rc = main(["solve", REF15, "--workers", "1", "--trace", str(trace)])
    assert rc == 0
    lines = trace.read_text().splitlines()
    assert lines[0] == "iter,F," + ",".join(f"x{i}" for i in range(1, 16))
    assert lines[1].startswith("1,")
    assert len(lines) > 5


def test_solve_missing_file_is_usage_error(capsys):
    assert main(["solve", "/nonexistent/foo.ec3"]) == 2
    assert "error:" in capsys.readouterr().err


def test_solve_flags_are_checked_before_the_solve(capsys, monkeypatch):
    def no_solve(*args, **kwargs):
        raise AssertionError("solve started with a bad flag")

    monkeypatch.setattr("ec3.cli.solve_with_restarts", no_solve)
    cases = (
        ["--assume-q", "5"],
        ["--assume-q", "1e-320"],
        ["--chebyshev-k", "inf"],
        ["--chebyshev-k", "nan"],
        ["--eta", "nan"],
        ["--eta", "inf"],
        ["--tol", "nan"],
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


def test_sweep_bad_grid(capsys, monkeypatch):
    def no_cell(*args, **kwargs):
        raise AssertionError("a sweep cell ran with bad arguments")

    monkeypatch.setattr("ec3.flows._sweep_cell", no_cell)
    sweep = ["sweep", "-n", "12", "--r-from", "0.25", "--r-to", "0.5", "--per-r", "2"]
    for extra, message in (
        (["--r-from", "0.5", "--r-to", "0.25", "--workers", "1"], "r-to below r-from"),
        (["--workers", "0"], "workers must be at least 1, got 0"),
        (["--workers", "-3"], "workers must be at least 1, got -3"),
        # the oracle counts models only up to --cap variables
        (["-n", "30", "--r-from", "0.5", "--r-to", "0.5", "--oracle", "--workers", "1"],
         "--oracle needs N <= --cap, got n=30 above cap 26"),
        (["--oracle", "--cap", "11", "--workers", "1"], "n=12 above cap 11"),
    ):
        rc = main(sweep + extra)
        assert rc == 2, extra
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and message in captured.err, (extra, captured.err)
        assert captured.out == "", extra


def test_sweep_has_no_restarts_option(capsys):
    # a sweep's run budget is --budget; --restarts would change nothing
    assert main(SWEEP_ARGS + ["--restarts", "3"]) == 2
    assert "--restarts" in capsys.readouterr().err


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


def classify_calls(monkeypatch):
    """The trajectories `phase_sweep` classifies, as it runs."""
    calls = []

    def spy(trajectory, *args):
        calls.append(trajectory)
        return classify_flows(trajectory, *args)

    monkeypatch.setattr(ec3.flows, "classify_flows", spy)
    return calls


def test_csv_sweep_classifies_no_flows(tmp_path, monkeypatch):
    calls = classify_calls(monkeypatch)
    assert main(SWEEP_ARGS + ["-o", str(tmp_path / "sweep.csv")]) == 0
    assert calls == []


def test_json_sweep_flow_counts(capsys, monkeypatch):
    calls = classify_calls(monkeypatch)
    assert main(SWEEP_ARGS + ["--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert calls  # some cell solved, and its winner was classified
    want = phase_sweep(12, [0.25, 0.5], 2, SolverConfig(), 2, 5, classify=True)
    assert [row["flow_counts"] for row in doc["rows"]] == [row.flow_counts for row in want.rows]


# --- trace --------------------------------------------------------------------


def test_trace_csv_writes_both_files(tmp_path, capsys):
    out = tmp_path / "flow.csv"
    rc = main(["trace", REF15, "--workers", "1", "-o", str(out)])
    assert rc == 0
    labels = tmp_path / "flow.labels.csv"
    assert out.exists() and labels.exists()
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
    # trace and solve --trace record during the solve: no run descends twice
    def no_rerun(*args, **kwargs):
        raise AssertionError("a traced run was descended a second time")

    monkeypatch.setattr("ec3.cli.rerun_with_trajectory", no_rerun)
    monkeypatch.setattr("ec3.solver.rerun_with_trajectory", no_rerun)
    monkeypatch.setattr("ec3.solver.bsgd_run", no_rerun)
    for path, rc in ((REF15, 0), (UNSAT4, 1)):
        out = tmp_path / "t.csv"
        assert main(["trace", path, "--workers", "1", "--restarts", "3", "-o", str(out)]) == rc
        assert main(["solve", path, "--restarts", "3", "--trace", str(out), "-o", str(tmp_path / "s.json")]) == rc


def test_trace_unsolved_falls_back_to_run_zero(tmp_path, capsys):
    out = tmp_path / "u.csv"
    rc = main(["trace", UNSAT4, "--workers", "1", "--restarts", "2", "-o", str(out)])
    assert rc == 1  # not solved, but the trace of run 0 is still written
    assert out.exists()
    assert "c traced run: 0 status: Converged-unsolved" in capsys.readouterr().out


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
