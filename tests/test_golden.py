"""Every CLI document, byte for byte, against the files in data/golden.

Each command runs in a temporary copy of tests/data and names its files by
relative paths, so no checkout path lands in the bytes. A case gives the
command line, its exit code, the golden file of its stdout and, for each file
the command writes, the golden file of that. stderr must stay empty.
"""

import pathlib
import shutil

import pytest

from ec3.cli import main

DATA = pathlib.Path(__file__).parent / "data"
GOLDEN = DATA / "golden"

SWEEP = (
    "sweep -n 12 --r-from 0.25 --r-to 0.5 --per-r 3 --budget 3 --oracle --seed 5 --workers 1"
).split()

# name: (argv, exit code, stdout golden, {written file: golden})
CASES = {
    "solve-ref15": ("solve ref15.ec3".split(), 0, "solve_ref15.json", {}),
    "solve-ref15-o": (
        "solve ref15.ec3 -o report.json".split(),
        0,
        "solve_ref15.txt",
        {"report.json": "solve_ref15.json"},
    ),
    "oracle-ref15": ("oracle ref15.ec3".split(), 0, "oracle_ref15.json", {}),
    "oracle-ref15-o": (
        "oracle ref15.ec3 -o oracle.json".split(),
        0,
        "oracle_ref15.txt",
        {"oracle.json": "oracle_ref15.json"},
    ),
    "trace-ref15": (
        "trace ref15.ec3 -o flows.csv".split(),
        0,
        "trace_ref15.txt",
        {"flows.csv": "trace_ref15.csv", "flows.labels.csv": "trace_ref15.labels.csv"},
    ),
    "trace-ref15-json": ("trace ref15.ec3 --format json".split(), 0, "trace_ref15.json", {}),
    "trace-ref15-json-o": (
        "trace ref15.ec3 --format json -o trace.json".split(),
        0,
        "trace_ref15_json.txt",
        {"trace.json": "trace_ref15.json"},
    ),
    "solve-unsat4-o": (
        "solve unsat4.ec3 --restarts 3 -o report.json".split(),
        1,
        "solve_unsat4.txt",
        {"report.json": "solve_unsat4.json"},
    ),
    "trace-unsat4": (
        "trace unsat4.ec3 --restarts 2 -o flows.csv".split(),
        1,
        "trace_unsat4.txt",
        {"flows.csv": "trace_unsat4.csv", "flows.labels.csv": "trace_unsat4.labels.csv"},
    ),
    "verify-ref15": ("verify ref15.ec3 ref15.z".split(), 0, "verify_ref15.txt", {}),
    "sweep-csv": (SWEEP, 0, "sweep.csv", {}),
    "sweep-json": (SWEEP + ["--format", "json"], 0, "sweep.json", {}),
}


@pytest.mark.parametrize("name", CASES)
def test_cli_output_matches_golden(name, tmp_path, monkeypatch, capsys):
    argv, code, stdout, written = CASES[name]
    work = tmp_path / "data"
    shutil.copytree(DATA, work, ignore=shutil.ignore_patterns("golden"))
    monkeypatch.chdir(work)
    assert main(argv) == code
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.encode() == (GOLDEN / stdout).read_bytes()
    for path, golden in written.items():
        assert (work / path).read_bytes() == (GOLDEN / golden).read_bytes(), path
