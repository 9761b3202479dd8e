"""Every CLI document, byte for byte, against the files in data/golden.

Each command runs in a temporary copy of tests/data and names its files by
relative paths, so no checkout path lands in the bytes. A case gives the
command line, its exit code, the golden file of its stdout and, for each file
the command writes, the golden file of that. stderr must stay empty.

Run as a script, `PYTHONPATH=src python tests/test_golden.py`, it rewrites
every golden file from its case, with the same runner. It writes nothing
when a case exits with another code or prints to stderr, or when two cases
give one golden file different bytes.
"""

import contextlib
import io
import os
import pathlib
import shutil
import sys
import tempfile

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


def run_case(name, tmp):
    """Run case `name` in a copy of tests/data under `tmp`: its exit code,
    stderr, and {golden file: bytes the case gave it}."""
    argv, _, stdout, written = CASES[name]
    work = pathlib.Path(tmp) / "data"
    shutil.copytree(DATA, work, ignore=shutil.ignore_patterns("golden"))
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(work)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        os.chdir(cwd)
    got = {stdout: out.getvalue().encode()}
    got.update({golden: (work / path).read_bytes() for path, golden in written.items()})
    return code, err.getvalue(), got


@pytest.mark.parametrize("name", CASES)
def test_cli_output_matches_golden(name, tmp_path):
    code, err, got = run_case(name, tmp_path)
    assert code == CASES[name][1]
    assert err == ""
    for golden, data in got.items():
        assert data == (GOLDEN / golden).read_bytes(), golden


def regenerate() -> int:
    """Rewrite every golden file from CASES, or none if a case is refused."""
    files, refused = {}, []
    for name, case in CASES.items():
        with tempfile.TemporaryDirectory() as tmp:
            code, err, got = run_case(name, tmp)
        if code != case[1] or err:
            refused.append(f"{name}: exit {code} (expected {case[1]}), stderr {err!r}")
        for golden, data in got.items():
            if files.setdefault(golden, data) != data:
                refused.append(f"{name}: {golden} differs from an earlier case's")
    if refused:
        print("refused, nothing written:\n" + "\n".join(refused), file=sys.stderr)
        return 1
    for golden, data in files.items():
        (GOLDEN / golden).write_bytes(data)
        print(f"wrote {GOLDEN.name}/{golden}")
    return 0


if __name__ == "__main__":
    sys.exit(regenerate())
