#!/usr/bin/env python3
"""Multi-restart descent across instance sizes: runs-to-success, iteration
counts, and wall time per size, with the empirical restart statistics.

    python scripts/run_scaling_demo.py --sizes 15:8,100:40,1000:250 --trials 10
"""

import argparse
import sys
import time

sys.path.insert(0, "src")

from ec3 import CostFunction, SolverConfig, generate_instance, solve_with_restarts


def parse_sizes(text):
    out = []
    for part in text.split(","):
        n, m = part.split(":")
        out.append((int(n), int(m)))
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--sizes", default="15:8,100:40,1000:250", help="comma list of N:M")
    ap.add_argument("--trials", type=int, default=10, help="instances per size")
    ap.add_argument("--restarts", type=int, default=10, help="budget per instance")
    ap.add_argument("--seed", type=int, default=0, help="base seed for instances")
    args = ap.parse_args()

    print(f"{'N':>6} {'M':>6} {'solved':>8} {'mean runs':>10} {'mean iters':>11} {'s/trial':>8}")
    for n, m in parse_sizes(args.sizes):
        solved, runs, iters = 0, [], []
        t0 = time.perf_counter()
        for t in range(args.trials):
            inst = generate_instance(n, m, args.seed + t)
            f = CostFunction.from_instance(inst)
            cfg = SolverConfig(seed=1000 + args.seed + t)
            out = solve_with_restarts(f, cfg, args.restarts)
            if out.solved:
                solved += 1
                runs.append(out.stats.runs_attempted)
                iters.append(out.winner.iterations)
        dt = (time.perf_counter() - t0) / args.trials
        mean_runs = f"{sum(runs) / len(runs):10.2f}" if runs else " " * 9 + "-"
        mean_iters = f"{sum(iters) / len(iters):11.0f}" if iters else " " * 10 + "-"
        print(f"{n:>6} {m:>6} {solved:>5}/{args.trials:<2} {mean_runs} {mean_iters} {dt:8.2f}")


if __name__ == "__main__":
    main()
