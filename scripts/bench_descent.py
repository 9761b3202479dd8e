#!/usr/bin/env python3
"""Descent step cost by batch width, and a replay of batch-width schedules.

    python scripts/bench_descent.py --sizes 24:18,100:40,1000:25,1000:250 --widths 1-10
    python scripts/bench_descent.py --sizes 1000:250 --widths 1,2,4,9
    python scripts/bench_descent.py --replay

Widths (a comma list of widths and lo-hi ranges): for each size, W runs of
one instance descend side by side for a fixed number of steps (η is so
small that no run stops before the cap), and each timing is divided by
steps × W; the median and the minimum over --reps timings are printed.
Width 1 is `bsgd_run`, which every version of the package has, so running
this from another checkout with --widths 1 gives that version's
one-run-at-a-time cost; wider batches need the batched engine. Each
repetition also times the same descent recording every row on the default
schedule (start, first five updates, every 10th, final; wider recording
batches need an engine that records every row), and the recorded µs per
run-iteration and its excess over the unrecorded median are printed too.

Replay: the solves of the benchmark's solve-desk and cli-n1000 panels
(perfbench/workloads.py: slot k is the instance drawn with seed 10000 + k,
solved with solver seed 10000 + k and 10 restarts). Every restart of every
solve runs alone once, which gives its iteration count and whether it
solves; the step cost of a batch of each width is measured as above. A
schedule's solve time is then the sum, over its batches, of the step cost
at the number of rows live at each step, where a row stops at its own
iteration count and rows after a success stop with it, up to the batch
that holds the first success. Each panel prints its total time under the
one-width rule (the first batch's width throughout) and, relative to that,
under doubling widths capped at each --caps element budget; rounding,
verification and start draws are left out.
"""

import argparse
import functools
import statistics
import sys
import time

import numpy as np

sys.path.insert(0, "src")

from ec3 import (  # noqa: E402
    CostFunction,
    SOLVED,
    SolverConfig,
    bsgd_run,
    clause_count_for_ratio,
    generate_instance,
    restart_start,
)
from ec3.solver import _BATCH_ELEMENTS, _descend, _run_start  # noqa: E402

# the benchmark's panels: slot k of 64 draws its instance with seed
# PANEL_SEED + k and solves it with solver seed PANEL_SEED + k
PANEL_SEED = 10_000
PANEL_SIZE = 64
RESTARTS = 10


def parse_sizes(text):
    return [tuple(int(v) for v in part.split(":")) for part in text.split(",")]


def parse_widths(text):
    """Widths from a comma list of values and lo-hi ranges, e.g. 1-4,9."""
    widths = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        widths += range(int(lo), int(hi or lo) + 1)
    if not widths or min(widths) < 1:
        raise ValueError(f"no valid widths in {text!r}")
    return widths


def step_times(n, m, widths, steps, reps, modes=(False,)):
    """(width, record) -> (median, min) seconds of `steps` lockstep steps of
    that many runs of one (n, m) instance; within each repetition the
    record modes run one after the other."""
    cfg = SolverConfig(eta=1e-9, max_iters=steps)
    f = CostFunction.from_instance(generate_instance(n, m, 1))
    out = {}
    for width in widths:
        starts = [restart_start(n, cfg.start_radius, np.random.default_rng(i)) for i in range(width)]

        def step(record):
            if width == 1:
                return [bsgd_run(f, cfg, starts[0], record=record)]
            return _descend(f, cfg, np.array(starts), record)

        times = {record: [] for record in modes}
        for _ in range(reps):
            for record in modes:
                t0 = time.perf_counter()
                results = step(record)
                times[record].append(time.perf_counter() - t0)
                if any(r is not None and r.iterations != steps for r in results):
                    sys.exit("a run stopped before the step cap; the timing would be wrong")
        for record in modes:
            out[width, record] = (statistics.median(times[record]), min(times[record]))
    return out


def widths_table(args):
    print(f"{'N':>6} {'M':>5} {'width':>5} {'us/run-iter':>12} {'min':>8} {'recorded':>9} {'+record':>8}")
    widths = args.widths
    for n, m in parse_sizes(args.sizes):
        timed = step_times(n, m, widths, args.steps, args.reps, modes=(False, True))
        for width in widths:
            scale = 1e6 / (args.steps * width)
            (med, low), rec = timed[width, False], timed[width, True][0]
            print(
                f"{n:>6} {m:>5} {width:>5} {med * scale:12.2f} {low * scale:8.2f}"
                f" {rec * scale:9.2f} {(rec - med) * scale:8.2f}"
            )


def panels():
    """panel name -> [(n, m, seed)] of the solves the benchmark makes."""
    desk = {"(100, 40)": [], "(1000, 250)": []}
    for k in range(PANEL_SIZE):
        n, m = (100, 40) if k % 2 == 0 else (1000, 250)
        desk[f"({n}, {m})"].append((n, m, PANEL_SEED + k))
    cli = {"cli r=0.25": [], "cli r=0.025": []}
    for k in range(PANEL_SIZE):
        r = 0.025 if k % 4 < 2 else 0.25
        cli[f"cli r={r}"].append((1000, clause_count_for_ratio(r, 1000), PANEL_SEED + k))
    return {**desk, **cli}


@functools.cache
def run_outcomes(n, m, seed):
    """(iterations, solved) of restarts 0..RESTARTS-1, each run alone."""
    f = CostFunction.from_instance(generate_instance(n, m, seed))
    cfg = SolverConfig(seed=seed)
    out = []
    for i in range(RESTARTS):
        res = bsgd_run(f, cfg, _run_start(f, cfg, i))
        out.append((res.iterations, res.status == SOLVED))
    return out


def batch_time(runs, cost):
    """Seconds to step one batch: the initial evaluation plus, at each step,
    the cost at the number of rows still live. `runs` is [(iterations,
    solved)] in row order; a success stops every row after it."""
    stop = [it for it, _ in runs]
    for j, (it, solved) in enumerate(runs):
        if solved:
            for later in range(j + 1, len(runs)):
                stop[later] = min(stop[later], it)
    total = cost[len(runs)]
    done = 0
    for k in sorted(set(stop)):
        live = sum(1 for s in stop if s >= k)
        total += (k - done) * cost[live]
        done = k
    return total


def solve_time(runs, first, widest, cost):
    """Seconds of a solve whose batches start `first` wide and double after
    each failed batch up to `widest` rows."""
    total, base, width = 0.0, 0, first
    while base < len(runs):
        batch = runs[base : base + width]
        total += batch_time(batch, cost)
        if any(solved for _, solved in batch):
            break
        base += len(batch)
        width = min(2 * width, widest)
    return total


def replay(args):
    caps = [int(c) for c in args.caps.split(",")]
    sizes = dict.fromkeys((n, m) for problems in panels().values() for n, m, _ in problems)
    print(f"step cost by width ({args.steps} steps, median of {args.reps})")
    costs = {}
    for n, m in sizes:
        timed = step_times(n, m, range(1, RESTARTS + 1), args.steps, args.reps)
        costs[(n, m)] = {w: med / args.steps for (w, _), (med, _) in timed.items()}
        print(f"  ({n}, {m}) us/step: " + " ".join(f"{1e6 * c:.0f}" for c in costs[(n, m)].values()))
    header = f"{'panel':>14} {'solves':>6} {'solved':>6} {'runs':>5} {'one-width s':>11}"
    print(header + "".join(f" {'x' + str(c):>8}" for c in caps))
    for name, problems in panels().items():
        base, rel = 0.0, [0.0] * len(caps)
        solved = runs_reported = 0
        for n, m, seed in problems:
            runs = run_outcomes(n, m, seed)
            row = 3 * m + n
            first = max(1, _BATCH_ELEMENTS // row)
            base += solve_time(runs, first, first, costs[(n, m)])
            for i, cap in enumerate(caps):
                rel[i] += solve_time(runs, first, max(first, cap // row), costs[(n, m)])
            wins = [i for i, (_, ok) in enumerate(runs) if ok]
            solved += bool(wins)
            runs_reported += wins[0] + 1 if wins else RESTARTS
        line = f"{name:>14} {len(problems):>6} {solved:>6} {runs_reported:>5} {base:>11.2f}"
        print(line + "".join(f" {r / base:>8.3f}" for r in rel))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--sizes", default="24:18,100:40,1000:25,1000:250", help="comma list of N:M")
    ap.add_argument("--widths", type=parse_widths, default="1-10", help="comma list of widths and ranges lo-hi")
    ap.add_argument("--steps", type=int, default=400, help="update steps per timing")
    ap.add_argument("--reps", type=int, default=9, help="timings per (size, width)")
    ap.add_argument("--replay", action="store_true", help="replay the benchmark panels' solves")
    ap.add_argument(
        "--caps", default="4096,8192,16384,32768", help="replay: element budgets of the widest batch"
    )
    args = ap.parse_args()
    (replay if args.replay else widths_table)(args)


if __name__ == "__main__":
    main()
