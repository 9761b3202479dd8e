#!/usr/bin/env python3
"""The ec3 benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

run from the root of a source checkout; it imports ec3 from ./src and from
nowhere else, and exits with code 2 without a result if that fails.  The
last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`; the lines before it are the
environment header and the metrics in human form.

With --trace 0 a round of ops runs untraced, again and again, for S
seconds and at least once, and the end-to-end metrics are printed.  With
--trace 1 the first half of a round runs, each op once untraced and once
traced, and the per-layer metrics are printed; the spans are written to
.bench_traces/.  Every op's
outputs are checked; a failed check or an exception marks the op failed and
makes the exit code 1.
"""

from __future__ import annotations

import os

# one BLAS thread, set before numpy loads, so numpy cannot oversubscribe
# the cores that pool workers use
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from checks import SolveStats  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, Capture  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
EC3_MODULES = ("ec3", "ec3.instance", "ec3.cost", "ec3.solver", "ec3.flows", "ec3.cli")
SETUP_REPS = 5

# A run repeats a fixed list of ops (a round) until --seconds have passed,
# at least once, and takes each op's median time over its rounds.  The
# timing metrics are thus always over the same ops, whatever part of a
# second round a run gets to.  A round is about three quarters of what a
# 30 s run completes on a 2-core Xeon: 14 grid passes on sweep-n24, the
# whole panel on the others.
TINY_ROUND = 8
HARD_STOP_S = 150  # so a run exits within three minutes, even mid-round


class SetupError(Exception):
    pass


def import_ec3() -> dict:
    """Import ec3 afresh from ./src (dropping any earlier import)."""
    for name in [m for m in sys.modules if m == "ec3" or m.startswith("ec3.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    try:
        modules = {name: importlib.import_module(name) for name in EC3_MODULES}
    except ImportError as e:
        raise SetupError(f"cannot import ec3 from {SRC}: {e}") from None
    if Path(modules["ec3"].__file__).resolve().parent != SRC / "ec3":
        raise SetupError(f"ec3 was imported from {modules['ec3'].__file__}, not {SRC}")
    return modules


def round_length(cls, tiny: bool) -> int:
    return TINY_ROUND if tiny else cls.round_ops


def tail_percentile(n_ops: int) -> float:
    """Highest percentile with at least 10 of n_ops samples beyond it."""
    return max(50.0, 100.0 * (1.0 - 10.0 / n_ops))


def environment(seed: int) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(
                (ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu
            )
    except OSError:
        pass
    commit = "unknown"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        ref_file = ROOT / ".git" / ref[5:] if ref.startswith("ref: ") else None
        commit = ref_file.read_text().strip() if ref_file and ref_file.is_file() else ref
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": commit,
        "seed": seed,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def peak_rss_mb() -> float:
    """High-water RSS of this process plus that of its largest finished
    child (the pool workers), in MiB."""
    kib = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    )
    return kib / 1024.0


class Tally:
    """Per-op outcomes of one run.  An op may run in several rounds; its
    solve outcomes count once, and every round must agree on whether it was
    solved, since ops are deterministic."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.solved = {}  # op index -> solved in its first round
        self.stats = SolveStats()
        self.csv_bytes = 0

    def run(self, call, i):
        """Run and check op i through `call`; returns its wall time."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            raw = call(self.workload.op, i)
        except Exception:
            dt = time.perf_counter() - t0
            self._fail(i, traceback.format_exc())
            return dt
        dt = time.perf_counter() - t0
        try:
            result = self.workload.check(raw)
        except Exception:
            self._fail(i, traceback.format_exc())
            return dt
        if i in self.solved and result.solved != self.solved[i]:
            result.problems.append("solved differs from an earlier round of the same op")
        if result.problems:
            self._fail(i, "; ".join(result.problems))
            return dt
        if i not in self.solved:
            self.solved[i] = result.solved
            for instance, outcome in result.solves:
                self.stats.add(instance, outcome)
            self.csv_bytes += result.csv_bytes
        return dt

    def _fail(self, i, why):
        self.failed += 1
        self.solved[i] = False
        print(f"op {i} failed: {why}", file=sys.stderr)


def _untraced(fn, i):
    return fn(i)


def measure_untraced(name, seed, seconds, workdir, tiny):
    cls = WORKLOADS[name]
    setup_times = []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        modules = import_ec3()
        workload = cls(modules, Capture(modules, cls.captures), seed, workdir, tiny)
        setup_times.append(time.perf_counter() - t0)

    n_round = round_length(cls, tiny)
    tally = Tally(workload)
    times = [[] for _ in range(n_round)]
    start = time.perf_counter()
    i = 0
    while i < n_round or time.perf_counter() - start < seconds:
        if i > 0 and time.perf_counter() - start > HARD_STOP_S:
            break
        times[i % n_round].append(tally.run(_untraced, i % n_round))
        i += 1

    op_s = [statistics.median(t) for t in times if t]
    pct = tail_percentile(n_round)
    tail = float(np.percentile(op_s, pct))
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "ops_per_s": (len(op_s) / sum(op_s), "op/s"),
        "op_s.p50": (statistics.median(op_s), "s"),
        "op_s.tail": (tail, "s"),
        "solved_frac": (statistics.fmean(tally.solved.values()), "fraction"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    notes = [
        f"ops: {len(op_s)} per round, {i / n_round:.3g} rounds in "
        f"{time.perf_counter() - start:.3f} s; an op's time is its median over rounds",
        f"op_s.tail is p{pct:.4g} of {len(op_s)} op times ({sum(t > tail for t in op_s)} beyond it)",
        f"failed_frac = {tally.failed / tally.attempted:.6g} fraction "
        f"({tally.failed} of {tally.attempted} op runs)",
    ]
    return tally, metrics, notes


def measure_traced(name, seed, workdir, tiny):
    cls = WORKLOADS[name]
    modules = import_ec3()
    capture = Capture(modules, cls.captures)
    tracer = Tracer(modules)
    workload = tracer.span("bench.setup", -1, cls, modules, capture, seed, workdir, tiny)

    n_ops = round_length(cls, tiny) // 2  # twice over, so about --seconds
    untraced = Tally(workload)
    traced = Tally(workload)

    def traced_call(fn, i):
        return tracer.span("bench.op", i, fn, i)

    t_untraced = t_traced = 0.0
    for i in range(n_ops):
        # alternate which copy of the op runs first, so that warm caches
        # favour neither
        if i % 2 == 0:
            t_untraced += untraced.run(_untraced, i)
            t_traced += traced.run(traced_call, i)
        else:
            t_traced += traced.run(traced_call, i)
            t_untraced += untraced.run(_untraced, i)

    layers = tracer.layer_times()
    spans_path = ROOT / ".bench_traces" / f"{name}-seed{seed}.npz"
    tracer.write(str(spans_path))
    metrics = layer_metrics(layers, tracer.counts, traced, 1.0 - t_untraced / t_traced)
    notes = [
        f"ops: {n_ops}, each once untraced ({t_untraced:.3f} s) and once traced "
        f"({t_traced:.3f} s)",
        f"spans: {len(tracer.start)} written to {spans_path.relative_to(ROOT)}",
    ]
    tally = untraced
    tally.attempted += traced.attempted
    tally.failed += traced.failed
    return tally, metrics, notes


def layer_metrics(layers, counts, tally, overhead_frac) -> dict:
    def get(span, key):
        return layers[span][key]

    oracle = layers["instance.oracle"]["durations"]
    kernel_s = get("cost.cost", "total_s") + get("cost.gradient", "total_s")
    stats = tally.stats
    return {
        "instance.oracle_calls": (get("instance.oracle", "calls"), "count"),
        "instance.oracle_s": (get("instance.oracle", "total_s"), "s"),
        "instance.oracle_s.p50": (float(np.median(oracle)) if len(oracle) else 0.0, "s"),
        "instance.generate_s": (get("instance.generate", "total_s"), "s"),
        "instance.parse_s": (get("instance.parse", "total_s"), "s"),
        "instance.check_calls": (get("instance.check", "calls"), "count"),
        "instance.check_s": (get("instance.check", "total_s"), "s"),
        "cost.cost_calls": (get("cost.cost", "calls"), "count"),
        "cost.grad_calls": (get("cost.gradient", "calls"), "count"),
        "cost.cost_s": (get("cost.cost", "total_s"), "s"),
        "cost.grad_s": (get("cost.gradient", "total_s"), "s"),
        "cost.clause_evals": (counts["clause_evals"], "count"),
        "cost.us_per_clause_eval": (
            1e6 * kernel_s / counts["clause_evals"] if counts["clause_evals"] else 0.0, "us",
        ),
        "cost.bytes_computed": (counts["bytes"], "B"),
        "solver.runs": (get("solver.run", "calls"), "count"),
        "solver.iters": (counts["iters"], "count"),
        "solver.run_self_s": (get("solver.run", "self_s"), "s"),
        "solver.us_per_iter": (
            1e6 * get("solver.run", "total_s") / counts["iters"] if counts["iters"] else 0.0, "us",
        ),
        "solver.runs_per_solve": (stats.runs / stats.solves if stats.solves else 0.0, "runs"),
        "solver.success_per_run": (stats.successes / stats.runs if stats.runs else 0.0, "fraction"),
        "solver.solve_self_s": (get("solver.solve", "self_s"), "s"),
        "solver.restart_hamming": (
            statistics.fmean(stats.hamming) if stats.hamming else 0.0, "fraction",
        ),
        "solver.miss_vertex_cost": (
            statistics.fmean(stats.miss_costs) if stats.miss_costs else 0.0, "clauses",
        ),
        "flows.sweep_self_s": (get("flows.sweep", "self_s"), "s"),
        "flows.rerun_s": (get("flows.rerun", "total_s"), "s"),
        "flows.classify_s": (get("flows.classify", "total_s"), "s"),
        "flows.csv_s": (get("flows.csv", "total_s"), "s"),
        "flows.csv_bytes": (tally.csv_bytes, "B"),
        "cli.main_self_s": (get("cli.main", "self_s"), "s"),
        "cli.json_s": (get("cli.json", "total_s"), "s"),
        "trace.overhead_frac": (overhead_frac, "fraction"),
    }


def measure(name, seed, seconds, trace, tiny=False):
    """Run one workload; returns (result dict, human-readable lines)."""
    workdir = tempfile.mkdtemp(prefix=".bench_tmp-", dir=ROOT)
    try:
        if trace:
            tally, metrics, notes = measure_traced(name, seed, workdir, tiny)
        else:
            tally, metrics, notes = measure_untraced(name, seed, seconds, workdir, tiny)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = ["env " + json.dumps(environment(seed), sort_keys=True), f"workload {name}"]
    lines += [f"{key} = {value:.6g} {unit}" for key, (value, unit) in metrics.items()]
    lines += notes
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            key: {"value": float(value), "unit": unit} for key, (value, unit) in metrics.items()
        },
    }
    return result, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result, lines = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except SetupError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    print("\n".join(lines))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
