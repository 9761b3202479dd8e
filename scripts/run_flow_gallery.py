#!/usr/bin/env python3
"""Flow-family gallery: solve one random instance at small r, record the
winning run's trajectory, classify every variable's flow, and check the
starting-slope law. Writes the trajectory and label CSVs next to each other.

    python scripts/run_flow_gallery.py -n 1000 -r 0.025 --seed 7 --solver-seed 11
"""

import argparse
import sys

import numpy as np

sys.path.insert(0, "src")

from ec3 import (
    CostFunction,
    SolverConfig,
    classify_flows,
    clause_count_for_ratio,
    generate_instance,
    initial_slope_check,
    solve_with_restarts,
    write_labels_csv,
    write_trajectory_csv,
)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("-n", "--n-vars", type=int, default=1000)
    ap.add_argument("-r", "--ratio", type=float, default=0.025)
    ap.add_argument("--seed", type=int, default=7, help="instance seed")
    ap.add_argument("--solver-seed", type=int, default=11)
    ap.add_argument("--restarts", type=int, default=10)
    ap.add_argument("-o", "--output", default="flows.csv")
    args = ap.parse_args()

    m = clause_count_for_ratio(args.ratio, args.n_vars)
    inst = generate_instance(args.n_vars, m, args.seed)
    f = CostFunction.from_instance(inst)
    cfg = SolverConfig(seed=args.solver_seed)

    out = solve_with_restarts(f, cfg, args.restarts, record=True)
    index = out.winner_index if out.solved else 0
    print(f"N={inst.n_vars} M={inst.n_clauses}: "
          f"{'solved on run ' + str(index) if out.solved else 'NOT solved; tracing run 0'}")

    run = out.results[index]
    print(f"traced run: {run.status}, {run.iterations} iterations, "
          f"{len(run.trajectory.iterations)} snapshots")

    chk = initial_slope_check(run.trajectory, cfg.eta, inst.clause_degree)
    print(f"starting-slope law: {int(chk.ok.sum())}/{inst.n_vars} variables "
          f"within 0.1*eta of eta*C_k/4")

    labels = classify_flows(run.trajectory)
    pops = dict(zip(*np.unique(labels, return_counts=True)))
    print("flow families: " + "  ".join(f"{k}={v}" for k, v in sorted(pops.items())))

    base = args.output[:-4] if args.output.endswith(".csv") else args.output
    write_trajectory_csv(run.trajectory, args.output)
    write_labels_csv(labels, inst.clause_degree, base + ".labels.csv")
    print(f"wrote {args.output} and {base}.labels.csv")


if __name__ == "__main__":
    main()
