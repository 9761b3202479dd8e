"""Command-line interface.

Subcommands: generate, solve, oracle, verify, sweep, trace. Every command
echoes its fully resolved configuration as `c key=value` comment lines so a
result can be reproduced from its own output; machine-readable output is CSV
(trajectories, flow labels, sweeps) or JSON documents carrying a top-level
`schema: 1`. JSON floats are printed with 17 significant digits (enough to
reconstruct the exact double), human-readable text with 9.

solve and oracle print their JSON document on stdout; with -o they write
it to that file and print human text instead. sweep and trace choose CSV
or JSON with --format. trace is the one command that writes a run's
trajectory: solve reports results only.

Exit codes: 0 = solved / SAT / report written, 1 = not solved within the
run budget or UNSAT, 2 = usage or input error. An -o path that cannot be
opened for writing, or a trace CSV's labels file beside it, is an input
error before the command does any work. So is an instance too large for
memory, when its allocation fails with a MemoryError. An input error is
one `error:` line on stderr and nothing else there; a command that
finishes prints each warning it raised (every duplicate clause; other
kinds as Python's warning filters allow) as one `warning:` line on stderr.

--restarts is the run budget of solve and trace; a sweep's is --budget,
runs per instance. The start half-width (0.05), the stop tolerance (1e-12),
trace's recording schedule and a failed solve's stopping rule
(q >= 0.25, k = 11) are fixed, not flags. The --workers flag sets how many
processes a sweep spreads its cells over (at most one per cell); solve and
trace run in one process and ignore it. A sweep's results are contractually
identical for every worker count (each cell is seeded from its grid position
alone), so the worker count is not part of the reproducibility header. A
sweep's header carries neither a solver seed nor restarts: each cell derives
its own seed from the instance seed, and its budget is echoed as budget=.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import sys
import warnings
from collections import Counter
from dataclasses import asdict

import numpy as np

from .cost import CostFunction
from .instance import (
    ORACLE_CAP,
    brute_force_oracle,
    check_assignment,
    emit_assignment,
    emit_instance,
    generate_instance,
    parse_assignment,
    parse_instance,
)
from .flows import (
    _g17,
    classify_flows,
    initial_slope_check,
    phase_sweep,
    r_star_estimate,
    write_labels_csv,
    write_sweep_csv,
    write_trajectory_csv,
)
from .solver import (
    SolverConfig,
    solve_with_restarts,
    stopping_rule,
)
# unused here; the benchmark's tracer resolves this name in this module
# until its targets are refreshed (ROADMAP item 1)
from .solver import rerun_with_trajectory  # noqa: F401


def _g9(x) -> str:
    return format(float(x), ".9g")


def dumps17(obj) -> str:
    """JSON text indented by 2, with every float at 17 significant digits."""

    def render(o, level):
        pad = "  " * level
        pad_in = "  " * (level + 1)
        if o is None or isinstance(o, (bool, str)):
            return json.dumps(o)
        if isinstance(o, (int, np.integer)):
            return str(int(o))
        if isinstance(o, (float, np.floating)):
            return _g17(o)
        if isinstance(o, dict):
            if not o:
                return "{}"
            items = ",\n".join(
                f"{pad_in}{json.dumps(str(k))}: {render(v, level + 1)}" for k, v in o.items()
            )
            return "{\n" + items + "\n" + pad + "}"
        if isinstance(o, (list, tuple, np.ndarray)):
            seq = list(o)
            if not seq:
                return "[]"
            flat = all(not isinstance(v, (dict, list, tuple, np.ndarray)) for v in seq)
            if flat:
                return "[" + ", ".join(render(v, level + 1) for v in seq) + "]"
            items = ",\n".join(pad_in + render(v, level + 1) for v in seq)
            return "[\n" + items + "\n" + pad + "]"
        raise TypeError(f"cannot serialize {type(o)!r}")

    return render(obj, 0) + "\n"


def _echo(line: str) -> None:
    print("c " + line)


def _read_instance(path: str):
    with open(path) as fh:
        return parse_instance(fh.read())


# The descent settings every solver command shares, in the order the parser,
# the config echo (by flag) and the JSON config (by field) list them; each
# flag takes its field's default and type.
_DESCENT_SETTINGS = (  # (SolverConfig field, flag, help)
    ("eta", "--eta", "gradient step size"),
    ("max_iters", "--max-iters", None),
)


def _solver_config(args) -> SolverConfig:
    descent = {field: vars(args)[flag[2:].replace("-", "_")] for field, flag, _ in _DESCENT_SETTINGS}
    return SolverConfig(**descent, seed=args.seed)


# The descent settings every solver command shares, then the fields each
# command adds as keywords, in its own order: solve and trace add seed and
# restarts; a sweep adds none (its run budget is --budget, and each of its
# cells derives its own solver seed).
def _echo_solver_config(cfg: SolverConfig, **run) -> None:
    pairs = [(flag[2:], getattr(cfg, field)) for field, flag, _ in _DESCENT_SETTINGS]
    pairs += [(k.replace("_", "-"), v) for k, v in run.items()]
    _echo("config: " + " ".join(f"{k}={_g9(v) if isinstance(v, float) else v}" for k, v in pairs))


def _config_dict(cfg: SolverConfig, **run) -> dict:
    return {**{field: getattr(cfg, field) for field, _, _ in _DESCENT_SETTINGS}, **run}


def _echo_instance(instance, path: str) -> None:
    _echo(
        f"instance: {path} n={instance.n_vars} m={instance.n_clauses} "
        f"r={_g9(instance.ratio)}"
    )


def _instance_dict(instance, path: str) -> dict:
    return {
        "n_vars": instance.n_vars,
        "n_clauses": instance.n_clauses,
        "r": instance.ratio,
        "path": path,
    }


def _check_writable(path: str) -> None:
    """Open `path` for writing without truncating it, so that a bad -o
    fails before the work; a file made only for this check is removed."""
    existed = os.path.exists(path)
    open(path, "a").close()
    if not existed:
        os.remove(path)


def _labels_path(output: str) -> str:
    """Where trace writes the flow labels beside its trajectory CSV:
    X.csv becomes X.labels.csv, any other name gains .labels.csv."""
    base = output[:-4] if output.endswith(".csv") else output
    return base + ".labels.csv"


def _write_output(args, text: str) -> None:
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# commands


def cmd_generate(args) -> int:
    inst = generate_instance(args.n_vars, args.n_clauses, args.seed)
    text = emit_instance(
        inst,
        comments=[
            f"generated: n={args.n_vars} m={args.n_clauses} seed={args.seed}",
            f"r = {_g9(inst.ratio)}",
        ],
    )
    _write_output(args, text)
    if args.output:
        _echo(f"wrote {args.output}")
        _echo(f"r = {_g9(inst.ratio)}")
    return 0


# the per-run success q and Chebyshev k of the rule a failed solve states
_ASSUMED_Q, _CHEBYSHEV_K = 0.25, 11.0


def cmd_solve(args) -> int:
    inst = _read_instance(args.instance)
    cfg = _solver_config(args)
    f = CostFunction.from_instance(inst)
    outcome = solve_with_restarts(f, cfg, args.restarts)
    stats = outcome.stats
    any_certificate = any(r.certificate for r in outcome.results)
    w = outcome.winner
    fields = dict(seed=cfg.seed, restarts=args.restarts)

    # without -o stdout carries the JSON document; with it, human text
    if args.output:
        _echo_instance(inst, args.instance)
        _echo_solver_config(cfg, **fields)
        if outcome.solved:
            print("Solved")
            print("z: " + emit_assignment(w.rounded), end="")
            print(
                f"runs: {stats.runs_attempted}  iterations: {w.iterations}  "
                f"certificate: {str(w.certificate).lower()}  q_hat: {_g9(stats.q_hat)}"
            )
        else:
            print("Failed")
            ns = "n/a" if stats.n_s_hat is None else _g9(stats.n_s_hat)
            sd = "n/a" if stats.sigma_hat is None else _g9(stats.sigma_hat)
            print(
                f"runs: {stats.runs_attempted}  successes: {stats.successes}  "
                f"q_hat: {_g9(stats.q_hat)}  n_s_hat: {ns}  sigma_hat: {sd}"
            )
            rule = stopping_rule(_ASSUMED_Q, _CHEBYSHEV_K)
            print(
                f"stopping rule: assuming q >= {_g9(_ASSUMED_Q)} (k={_g9(_CHEBYSHEV_K)}), "
                f"{rule.required_runs} runs bound the failure probability by "
                f"{_g9(rule.failure_prob_bound)}; attempted {stats.runs_attempted}"
            )
            if any_certificate:
                print("certificate: an interior iterate had F < 1 — the instance is satisfiable")

    doc = {
        "schema": 1,
        "command": "solve",
        "instance": _instance_dict(inst, args.instance),
        "config": _config_dict(cfg, **fields),
        "result": {
            "solved": outcome.solved,
            "status": w.status if w else None,
            "assignment": w.rounded if w else None,
            "winner_index": outcome.winner_index,
            "iterations": w.iterations if w else None,
            "final_cost": w.final_cost if w else None,
            "vertex_cost": w.vertex_cost if w else None,
            "certificate": any_certificate,
            "runs": [
                {
                    "status": r.status,
                    "iterations": r.iterations,
                    "vertex_cost": r.vertex_cost,
                    "certificate": r.certificate,
                }
                for r in outcome.results
            ],
            "stats": asdict(stats),
        },
    }
    _write_output(args, dumps17(doc))
    return 0 if outcome.solved else 1


def cmd_oracle(args) -> int:
    inst = _read_instance(args.instance)
    res = brute_force_oracle(inst, cap=args.cap)
    # without -o stdout carries the JSON document; with it, human text
    if args.output:
        _echo_instance(inst, args.instance)
        free = int((inst.clause_degree == 0).sum())
        _echo(
            f"oracle: cap={args.cap} propagation search over "
            f"{inst.n_vars - free} clause-bearing variables, {free} free"
        )
        if res.satisfiable:
            print("SAT")
            print("z: " + emit_assignment(res.witness), end="")
            print(f"solutions: {res.n_solutions}")
        else:
            print("UNSAT")
    doc = {
        "schema": 1,
        "command": "oracle",
        "instance": _instance_dict(inst, args.instance),
        "result": asdict(res),
    }
    _write_output(args, dumps17(doc))
    return 0 if res.satisfiable else 1


def cmd_verify(args) -> int:
    inst = _read_instance(args.instance)
    with open(args.assignment) as fh:
        z = parse_assignment(fh.read(), inst.n_vars)
    res = check_assignment(inst, z)
    _echo_instance(inst, args.instance)
    _echo(f"assignment: {args.assignment}")
    if res.satisfied:
        print("satisfied")
        return 0
    print(f"unsatisfied clauses: {res.unsatisfied_count} of {inst.n_clauses}")
    return 1


# grid points are rounded to this many decimals; a finer step repeats ratios
_GRID_DIGITS = 10


def _ratio_grid(r_from: float, r_to: float, step: float):
    if not 0.0 < step < math.inf:
        raise ValueError("step must be positive and finite")
    if step < 10.0**-_GRID_DIGITS:
        raise ValueError(
            f"step={step!r} is too small: grid points are rounded to {_GRID_DIGITS} decimals"
        )
    if r_to < r_from:
        raise ValueError("empty ratio grid (r-to below r-from)")
    # the grid rises, so its end points bound it: reject a ratio outside
    # (0, 1] before a list of any length is built
    ends = (r_from, r_to)
    if math.isfinite(r_to - r_from):
        span = (r_to - r_from) / step
        if not math.isfinite(span):
            raise ValueError(f"step={step!r} is too small: the grid has no finite point count")
        # the last point is the largest r-from + k·step not above r-to; the
        # 1e-9 absorbs the float error of the division
        count = math.floor(span + 1e-9) + 1
        ends = (r_from, round(r_from + (count - 1) * step, _GRID_DIGITS))
    for r in ends:
        if not 0.0 < r <= 1.0:
            raise ValueError(f"ratio r={r} outside (0, 1]")
    return [round(r_from + i * step, _GRID_DIGITS) for i in range(count)]


def cmd_sweep(args) -> int:
    cfg = _solver_config(args)
    grid = _ratio_grid(args.r_from, args.r_to, args.step)
    report = phase_sweep(
        args.n_vars,
        grid,
        args.per_r,
        cfg,
        args.budget,
        args.seed,
        workers=args.workers,
        use_oracle=args.oracle,
        oracle_cap=args.cap,
    )
    machine = args.format == "json" and not args.output
    if not machine:
        _echo(
            f"sweep: n={args.n_vars} r={_g9(args.r_from)}..{_g9(args.r_to)} step={_g9(args.step)} "
            f"per-r={args.per_r} budget={args.budget} oracle={str(args.oracle).lower()}"
        )
        _echo_solver_config(cfg)
    rstar = r_star_estimate(report)
    if args.format == "json":
        doc = {
            "schema": 1,
            "command": "sweep",
            "config": {
                "n_vars": args.n_vars,
                "r_grid": grid,
                "instances_per_r": args.per_r,
                "run_budget": args.budget,
                "base_seed": args.seed,
                "oracle": args.oracle,
                "oracle_cap": args.cap,
                **_config_dict(cfg),
            },
            "rows": [asdict(row) for row in report.rows],
            "r_star": rstar,
        }
        _write_output(args, dumps17(doc))
    else:
        buf = io.StringIO()
        write_sweep_csv(report, buf)
        _write_output(args, buf.getvalue())
    if not machine:
        if args.output:
            _echo(f"wrote {args.output}")
        if rstar is not None:
            _echo(f"r_star = {_g9(rstar)}")
    return 0


def cmd_trace(args) -> int:
    if args.format == "csv":  # main has checked -o; the labels go beside it
        if not args.output:
            raise ValueError("trace in csv format needs --output (two files are written)")
        _check_writable(_labels_path(args.output))
    inst = _read_instance(args.instance)
    cfg = _solver_config(args)
    fields = dict(seed=cfg.seed, restarts=args.restarts)
    f = CostFunction.from_instance(inst)
    outcome = solve_with_restarts(f, cfg, args.restarts, record=True)
    index = outcome.traced_index
    run = outcome.results[index]
    labels = classify_flows(run.trajectory)
    slope_law_ok = int(initial_slope_check(run.trajectory, cfg.eta, inst.clause_degree).ok.sum())

    machine = args.format == "json" and not args.output
    if not machine:
        _echo_instance(inst, args.instance)
        _echo_solver_config(cfg, **fields)
        _echo(f"traced run: {index} status: {run.status} iterations: {run.iterations}")
        _echo(
            f"starting-slope law: {slope_law_ok}/{inst.n_vars} variables "
            "within 0.1*eta of eta*C_k/4"
        )
        pops = sorted(Counter(labels).items())
        print("flow families: " + "  ".join(f"{k}={v}" for k, v in pops))

    if args.format == "json":
        doc = {
            "schema": 1,
            "command": "trace",
            "instance": _instance_dict(inst, args.instance),
            "config": _config_dict(cfg, **fields),
            "run": {
                "index": index,
                "status": run.status,
                "iterations": run.iterations,
                "certificate": run.certificate,
                "final_cost": run.final_cost,
                "vertex_cost": run.vertex_cost,
                "slope_law_ok": slope_law_ok,
            },
            "trajectory": {
                "iterations": run.trajectory.iterations,
                "F": run.trajectory.costs,
                "snapshots": run.trajectory.snapshots,
            },
            "labels": [
                {"var": i + 1, "C_k": int(d), "label": str(lbl)}
                for i, (d, lbl) in enumerate(zip(inst.clause_degree, labels))
            ],
        }
        _write_output(args, dumps17(doc))
        if args.output:
            _echo(f"wrote {args.output}")
    else:
        labels_path = _labels_path(args.output)
        with open(args.output, "w") as fh:
            write_trajectory_csv(run.trajectory, fh)
        with open(labels_path, "w") as fh:
            write_labels_csv(labels, inst.clause_degree, fh)
        _echo(f"wrote {args.output} and {labels_path}")
    return 0 if outcome.solved else 1


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ec3",
        description="Solve and study positive 1-in-3 SAT via gradient descent "
        "on a harmonic cost function.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solver_p = argparse.ArgumentParser(add_help=False)
    for field, flag, help in _DESCENT_SETTINGS:
        default = getattr(SolverConfig, field)
        solver_p.add_argument(flag, type=type(default), default=default, help=help)
    solver_p.add_argument("--seed", type=int, default=SolverConfig.seed, help="base RNG seed")
    solver_p.add_argument(
        "--workers",
        type=int,
        default=os.cpu_count() or 1,
        help="sweep: worker processes for the cells (results are identical for any "
        "value); solve and trace ignore it",
    )

    out_p = argparse.ArgumentParser(add_help=False)
    out_p.add_argument("-o", "--output", help="output file path")

    # sweep and trace write CSV by default, or one JSON document
    format_p = argparse.ArgumentParser(add_help=False)
    format_p.add_argument(
        "--format", choices=("csv", "json"), default="csv", help="machine output format"
    )

    g = sub.add_parser("generate", parents=[out_p], help="write a random instance")
    g.add_argument("-n", "--n-vars", type=int, required=True)
    g.add_argument("-m", "--n-clauses", type=int, required=True)
    g.add_argument("--seed", type=int, default=0)
    g.set_defaults(func=cmd_generate)

    s = sub.add_parser("solve", parents=[solver_p, out_p], help="multi-restart descent (no trajectory)")
    s.add_argument("instance")
    s.add_argument("--restarts", type=int, default=10, help="maximum runs")
    s.set_defaults(func=cmd_solve)

    o = sub.add_parser(
        "oracle", parents=[out_p], help="exact propagation search: decide and count models (small N)"
    )
    o.add_argument("instance")
    o.add_argument("--cap", type=int, default=ORACLE_CAP, help="largest admissible N")
    o.set_defaults(func=cmd_oracle)

    v = sub.add_parser("verify", help="check an assignment file against an instance")
    v.add_argument("instance")
    v.add_argument("assignment")
    v.set_defaults(func=cmd_verify)

    w = sub.add_parser("sweep", parents=[solver_p, out_p, format_p], help="ratio sweep")
    w.add_argument("-n", "--n-vars", type=int, required=True)
    w.add_argument("--r-from", type=float, required=True)
    w.add_argument("--r-to", type=float, required=True)
    w.add_argument("--step", type=float, default=0.05)
    w.add_argument("--per-r", type=int, default=50, help="instances per grid point")
    w.add_argument("--budget", type=int, default=5, help="runs per instance")
    w.add_argument("--oracle", action="store_true", help="record exact satisfiability (N <= cap)")
    w.add_argument("--cap", type=int, default=ORACLE_CAP)
    w.set_defaults(func=cmd_sweep)

    t = sub.add_parser("trace", parents=[solver_p, out_p, format_p], help="solve, recording the winning run; classify its flows and check the starting-slope law")
    t.add_argument("instance")
    t.add_argument("--restarts", type=int, default=10, help="maximum runs")
    t.set_defaults(func=cmd_trace)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:  # argparse handles usage errors (2) and --help (0)
        return int(e.code or 0)
    try:
        if getattr(args, "output", None):
            _check_writable(args.output)
        with warnings.catch_warnings(record=True) as caught:
            # the duplicate-clause notice, once per clause; other categories
            # keep the filters outside
            warnings.simplefilter("always", UserWarning)
            code = args.func(args)
    except (ValueError, OSError, MemoryError) as e:
        print(f"error: {str(e) or 'out of memory'}", file=sys.stderr)
        return 2
    for w in caught:
        print(f"warning: {w.message}", file=sys.stderr)
    return code


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
