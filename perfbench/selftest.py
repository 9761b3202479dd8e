#!/usr/bin/env python3
"""Self-test of the ec3 benchmark (about a minute):

    python3 perfbench/selftest.py

1. The check path catches bad output: a solved assignment and an oracle
   witness, each with one clause-bearing bit flipped, are both counted as
   failed ops.
2. A tiny-size smoke run of every workload, untraced and traced, prints
   exactly the metrics BENCHMARK.json names, each with its unit, with no
   failed op; the oracle is called on sweep-n24 only.
"""

from __future__ import annotations

import copy
import json
import sys

import run
from workloads import WORKLOADS, Capture

SEED = 3


def flip_clause_bit(instance, z) -> None:
    j = int((instance.clause_degree > 0).argmax())
    z[j] ^= 1


def test_checks_catch_bad_output() -> None:
    cls = WORKLOADS["sweep-n24"]
    modules = run.import_ec3()
    workload = cls(modules, Capture(modules, cls.captures), SEED, None, tiny=True)
    # a cell that was solved and that the oracle calls SAT
    raw = next(
        raw
        for raw in map(workload.op, range(13))
        if raw[1]["ec3.flows:solve_with_restarts"][0][1].solved
    )
    good = workload.check(raw)
    assert good.solved and not good.problems, good.problems

    bad_solve, bad_witness = copy.deepcopy(raw), copy.deepcopy(raw)
    (args, outcome), = bad_solve[1]["ec3.flows:solve_with_restarts"]
    flip_clause_bit(args[0].instance, outcome.winner.rounded)
    (args, oracle), = bad_witness[1]["ec3.flows:brute_force_oracle"]
    flip_clause_bit(args[0], oracle.witness)

    class Replay:
        check = workload.check

        @staticmethod
        def op(i):
            return (bad_solve, bad_witness)[i]

    tally = run.Tally(Replay)
    for i in range(2):
        tally.run(run._untraced, i)
    assert (tally.attempted, tally.failed) == (2, 2), (tally.attempted, tally.failed)
    print("ok: a flipped solved assignment and a flipped oracle witness both fail")


def test_smoke_metrics() -> None:
    with open(run.ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    for trace, section in ((False, "end_to_end"), (True, "per_layer")):
        units = {m["name"]: m["unit"] for m in spec[section]}
        for w in spec["workloads"]:
            result, lines = run.measure(w["name"], SEED, 0.5, trace, tiny=True)
            got = {key: m["unit"] for key, m in result["metrics"].items()}
            assert got == units, (w["name"], section, got, units)
            for key, unit in units.items():
                assert any(ln.startswith(f"{key} = ") and ln.endswith(f" {unit}") for ln in lines)
            assert result["correct"] and result["failed"] == 0, (w["name"], result)
            if trace:
                calls = result["metrics"]["instance.oracle_calls"]["value"]
                assert (calls > 0) == (w["name"] == "sweep-n24"), (w["name"], calls)
            print(f"ok: {w['name']} --trace {int(trace)} prints all {len(units)} metrics")


if __name__ == "__main__":
    test_checks_catch_bad_output()
    test_smoke_metrics()
    sys.exit(0)
