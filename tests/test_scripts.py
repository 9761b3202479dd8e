"""Smoke tests: each experiment script runs to completion on a tiny input.

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
        ["scripts/run_scaling_demo.py", "--sizes", "15:8", "--trials", "1", "--restarts", "2"],
    ],
    ids=["bench_descent", "run_scaling_demo"],
)
def test_script_runs(argv):
    proc = subprocess.run(
        [sys.executable, *argv], cwd=ROOT, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
