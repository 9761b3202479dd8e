"""Smoke tests of the two scripts beside the CLI: the descent-step timer
`scripts/bench_descent.py` and the benchmark's self-test, each run to
completion on a tiny input. Every experiment runs through `ec3` itself.

The scripts put `src` on the path relative to the working directory, so
they run from the repository root."""

import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "argv",
    [
        ["scripts/bench_descent.py", "--sizes", "24:12", "--widths", "1,2", "--steps", "5", "--reps", "1"],
        # the benchmark's own self-test: it fails if a change breaks a flag
        # the benchmark passes or a name its tracer resolves
        ["perfbench/selftest.py"],
    ],
    ids=["bench_descent", "perfbench_selftest"],
)
def test_script_runs(argv):
    proc = subprocess.run(
        [sys.executable, *argv], cwd=ROOT, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout


def test_bench_descent_has_no_replay():
    # the per-width table measures the engine itself; no model of its
    # batch schedule is kept beside it
    proc = subprocess.run(
        [sys.executable, "scripts/bench_descent.py", "--replay"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 2
    assert "--replay" in proc.stderr
