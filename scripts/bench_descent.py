#!/usr/bin/env python3
"""Descent step cost by batch width, in µs per run-iteration.

    python scripts/bench_descent.py --sizes 24:18,100:40,1000:25,1000:250 --widths 1-10

For each size, W runs of one instance descend side by side for a fixed
number of steps (η is so small that no run stops before the cap), and each
timing is divided by steps × W; the median and the minimum over --reps
timings are printed. Width 1 is `bsgd_run`, which every version of the
package has, so running this from another checkout with --widths 1 gives
that version's one-run-at-a-time cost; wider batches need the batched
engine.
"""

import argparse
import statistics
import sys
import time

import numpy as np

sys.path.insert(0, "src")

from ec3 import CostFunction, SolverConfig, bsgd_run, generate_instance, restart_start


def parse_sizes(text):
    return [tuple(int(v) for v in part.split(":")) for part in text.split(",")]


def parse_widths(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--sizes", default="24:18,100:40,1000:25,1000:250", help="comma list of N:M")
    ap.add_argument("--widths", default="1-10", help="a width or a range lo-hi")
    ap.add_argument("--steps", type=int, default=400, help="update steps per timing")
    ap.add_argument("--reps", type=int, default=9, help="timings per (size, width)")
    args = ap.parse_args()

    cfg = SolverConfig(eta=1e-9, max_iters=args.steps)
    print(f"{'N':>6} {'M':>5} {'width':>5} {'us/run-iter':>12} {'min':>8}")
    for n, m in parse_sizes(args.sizes):
        f = CostFunction.from_instance(generate_instance(n, m, 1))
        for width in parse_widths(args.widths):
            starts = [restart_start(n, cfg.start_radius, np.random.default_rng(i)) for i in range(width)]
            if width == 1:
                def step():
                    return [bsgd_run(f, cfg, starts[0])]
            else:
                from ec3.solver import _descend

                def step():
                    return _descend(f, cfg, np.array(starts))[0]
            times = []
            for _ in range(args.reps):
                t0 = time.perf_counter()
                results = step()
                times.append(time.perf_counter() - t0)
                if any(r is not None and r.iterations != args.steps for r in results):
                    sys.exit("a run stopped before the step cap; the timing would be wrong")
            per = [1e6 * t / (args.steps * width) for t in times]
            print(f"{n:>6} {m:>5} {width:>5} {statistics.median(per):12.2f} {min(per):8.2f}")


if __name__ == "__main__":
    main()
