"""Every CLI document, byte for byte, against the files in data/golden.

Each command runs in a temporary copy of tests/data and names its files by
relative paths, so no checkout path lands in the bytes. A case gives the
command line, its exit code, the golden file of its stdout and, for each file
the command writes, the golden file of that. stderr must stay empty.

Run as a script, `PYTHONPATH=src python tests/test_golden.py`, it rewrites
each golden file whose bytes its case changes, with the same runner, names
each file it wrote and counts the rest as unchanged. It writes nothing
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
    """Rewrite the golden files whose bytes CASES change, or none if a case
    is refused."""
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
    unchanged = 0
    for golden, data in files.items():
        path = GOLDEN / golden
        if path.exists() and path.read_bytes() == data:
            unchanged += 1
            continue
        path.write_bytes(data)
        print(f"wrote {GOLDEN.name}/{golden}")
    print(f"{unchanged} unchanged")
    return 0


# regenerate() against a copy of data/golden, with a few fast cases
QUICK = ("verify-ref15", "oracle-ref15", "oracle-ref15-o")


@pytest.fixture
def golden_copy(tmp_path, monkeypatch):
    copy = tmp_path / "golden"
    shutil.copytree(GOLDEN, copy)
    module = sys.modules[__name__]
    monkeypatch.setattr(module, "GOLDEN", copy)
    monkeypatch.setattr(module, "CASES", {name: CASES[name] for name in QUICK})
    return copy


def snapshot(directory):
    return {path.name: path.read_bytes() for path in sorted(directory.iterdir())}


def test_regenerate_leaves_an_up_to_date_copy_alone(golden_copy, capsys):
    before = snapshot(golden_copy)
    assert regenerate() == 0
    assert capsys.readouterr() == ("3 unchanged\n", "")
    assert snapshot(golden_copy) == before


def test_regenerate_rewrites_only_the_altered_file(golden_copy, capsys):
    before = snapshot(golden_copy)
    (golden_copy / "verify_ref15.txt").write_bytes(b"stale\n")
    assert regenerate() == 0
    assert capsys.readouterr() == ("wrote golden/verify_ref15.txt\n2 unchanged\n", "")
    assert snapshot(golden_copy) == before


@pytest.mark.parametrize(
    "name, case, reason",
    [
        ("verify-ref15", ("verify ref15.ec3 ref15.z".split(), 1, "verify_ref15.txt", {}), "exit 0 (expected 1)"),
        ("solve-missing", ("solve missing.ec3".split(), 2, "missing.txt", {}), "error: [Errno 2]"),
        ("oracle-as-verify", ("oracle ref15.ec3".split(), 0, "verify_ref15.txt", {}), "verify_ref15.txt differs"),
    ],
    ids=["exit-code", "stderr", "two-byte-strings"],
)
def test_regenerate_refuses_and_writes_nothing(golden_copy, monkeypatch, capsys, name, case, reason):
    # the altered file would be rewritten, were the run not refused
    (golden_copy / "oracle_ref15.txt").write_bytes(b"stale\n")
    before = snapshot(golden_copy)
    monkeypatch.setitem(CASES, name, case)
    assert regenerate() == 1
    out, err = capsys.readouterr()
    assert out == ""
    head, refusal = err.splitlines()
    assert head == "refused, nothing written:"
    assert refusal.startswith(f"{name}: ") and reason in refusal
    assert snapshot(golden_copy) == before


if __name__ == "__main__":
    sys.exit(regenerate())
