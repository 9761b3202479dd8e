#!/usr/bin/env python3
"""Descent step cost by batch width.

    python scripts/bench_descent.py --sizes 24:18,100:40,1000:25,1000:250 --widths 1-10
    python scripts/bench_descent.py --sizes 1000:250 --widths 1,2,4,9

Widths (a comma list of widths and lo-hi ranges): for each size, W runs of
one instance descend side by side through the descent engine (`_descend`;
width 1 is a lone run) for a fixed number of steps (η is so small that no
run stops before the cap), and each timing is divided by steps × W; the
median and the minimum over --reps timings are printed. Each repetition
also times the same descent recording on the default schedule (start,
first five updates, every 10th, final) into the batch's one log, and the
recorded µs per run-iteration and its excess over the unrecorded median
are printed too.
"""

import argparse
import statistics
import sys
import time

import numpy as np

sys.path.insert(0, "src")

from ec3 import (  # noqa: E402
    CostFunction,
    SolverConfig,
    generate_instance,
    restart_start,
)
from ec3.solver import _START_RADIUS, _descend  # noqa: E402


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


def step_times(n, m, widths, steps, reps):
    """(width, record) -> (median, min) seconds of `steps` lockstep steps of
    that many runs of one (n, m) instance; within each repetition the
    unrecorded and the recorded descent run one after the other."""
    cfg = SolverConfig(eta=1e-9, max_iters=steps)
    f = CostFunction.from_instance(generate_instance(n, m, 1))
    out = {}
    for width in widths:
        starts = np.array(
            [restart_start(n, _START_RADIUS, np.random.default_rng(i)) for i in range(width)]
        )
        times = {False: [], True: []}
        for _ in range(reps):
            for record in times:
                t0 = time.perf_counter()
                results = _descend(f, cfg, starts, record)
                times[record].append(time.perf_counter() - t0)
                if any(r is not None and r.iterations != steps for r in results):
                    sys.exit("a run stopped before the step cap; the timing would be wrong")
        for record in times:
            out[width, record] = (statistics.median(times[record]), min(times[record]))
    return out


def widths_table(args):
    print(f"{'N':>6} {'M':>5} {'width':>5} {'us/run-iter':>12} {'min':>8} {'recorded':>9} {'+record':>8}")
    widths = args.widths
    for n, m in parse_sizes(args.sizes):
        timed = step_times(n, m, widths, args.steps, args.reps)
        for width in widths:
            scale = 1e6 / (args.steps * width)
            (med, low), rec = timed[width, False], timed[width, True][0]
            print(
                f"{n:>6} {m:>5} {width:>5} {med * scale:12.2f} {low * scale:8.2f}"
                f" {rec * scale:9.2f} {(rec - med) * scale:8.2f}"
            )


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--sizes", default="24:18,100:40,1000:25,1000:250", help="comma list of N:M")
    ap.add_argument("--widths", type=parse_widths, default="1-10", help="comma list of widths and ranges lo-hi")
    ap.add_argument("--steps", type=int, default=400, help="update steps per timing")
    ap.add_argument("--reps", type=int, default=9, help="timings per (size, width)")
    widths_table(ap.parse_args())


if __name__ == "__main__":
    main()
