"""Output checks and restart statistics for the ec3 benchmark.

Every check returns a list of problems; an empty list means the output is
correct.  An instance the solver leaves unsolved is not a problem: it counts
against solved_frac, never as a failure.  All checks use the combinatorial
`check_assignment`, which is independent of the cost kernel and the solver.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field

import numpy as np

SOLVED = "Solved"
_TRACED_RUN = re.compile(r"^c traced run: (\d+) status: (\S+) iterations: (\d+)$", re.M)


@dataclass
class OpCheck:
    solved: bool
    problems: list = field(default_factory=list)
    solves: list = field(default_factory=list)  # (instance, SolveOutcome) pairs
    csv_bytes: int = 0


def check_solved_run(ec3, instance, run) -> list:
    """A run reported Solved must round to a satisfying vertex of cost 0."""
    problems = []
    if not ec3.check_assignment(instance, run.rounded).satisfied:
        problems.append("Solved assignment fails check_assignment")
    if run.vertex_cost != 0.0:
        problems.append(f"Solved run has vertex_cost {run.vertex_cost!r}")
    return problems


def check_solve(ec3, instance, outcome, max_runs: int) -> list:
    problems = []
    results = outcome.results
    if not 1 <= len(results) <= max_runs:
        problems.append(f"{len(results)} runs reported for a budget of {max_runs}")
    for run in results:
        if run.status == SOLVED:
            problems += check_solved_run(ec3, instance, run)
    if outcome.solved:
        if outcome.winner is not results[outcome.winner_index]:
            problems.append("winner is not results[winner_index]")
    elif len(results) != max_runs:
        problems.append("unsolved outcome stopped before its run budget")
    return problems


def check_oracle(ec3, instance, result, outcome) -> list:
    """An oracle witness must satisfy the instance, and an instance the
    oracle calls UNSAT must be neither solved nor certified by `outcome`."""
    if result.satisfiable:
        if result.witness is None or result.n_solutions < 1:
            return ["oracle says SAT without a witness or a model count"]
        if not ec3.check_assignment(instance, result.witness).satisfied:
            return ["oracle witness fails check_assignment"]
        return []
    problems = []
    if result.witness is not None or result.n_solutions != 0:
        problems.append("oracle says UNSAT but reports a witness or models")
    if outcome.solved:
        problems.append("instance the oracle calls UNSAT was reported Solved")
    if any(run.certificate for run in outcome.results):
        problems.append("instance the oracle calls UNSAT was given a certificate")
    return problems


def check_cli_solve(ec3, instance, rc: int, doc_text: str, restarts: int) -> OpCheck:
    """`ec3 solve -o x.json`: the document parses, agrees with the exit code,
    and a solved assignment verifies."""
    if rc not in (0, 1):
        return OpCheck(False, [f"solve exited with {rc}"])
    try:
        result = json.loads(doc_text)["result"]
    except (ValueError, KeyError) as e:
        return OpCheck(False, [f"solve JSON does not parse: {e}"])
    solved = rc == 0
    problems = []
    if result["solved"] is not solved:
        problems.append(f"JSON solved={result['solved']} but exit code {rc}")
    if not 1 <= result["stats"]["runs_attempted"] <= restarts:
        problems.append(f"runs_attempted {result['stats']['runs_attempted']} outside 1..{restarts}")
    if solved:
        z = np.array(result["assignment"], dtype=np.uint8)
        if z.shape != (instance.n_vars,) or not ec3.check_assignment(instance, z).satisfied:
            problems.append("JSON assignment fails check_assignment")
        if result["vertex_cost"] != 0.0 or result["status"] != SOLVED:
            problems.append("solved JSON lacks status Solved with vertex_cost 0")
    return OpCheck(solved, problems)


def recorded_iterations(iterations: int, record_every: int) -> list:
    """1-based indices a recorded run of `iterations` updates keeps: the
    start, the first five updates, every record_every-th one, the final."""
    kept = {1, iterations + 1}
    kept.update(k + 1 for k in range(1, iterations + 1) if k <= 5 or k % record_every == 0)
    return sorted(kept)


def check_cli_trace(
    ec3, instance, rc: int, stdout: str, csv_text: str, labels_text: str, record_every: int
) -> OpCheck:
    """`ec3 trace -o x.csv`: one CSV row per recorded iterate, N+2 columns,
    one label per variable, and a solved run's last row rounds to a
    satisfying assignment."""
    if rc not in (0, 1):
        return OpCheck(False, [f"trace exited with {rc}"])
    solved = rc == 0
    match = _TRACED_RUN.search(stdout)
    if match is None:
        return OpCheck(solved, ["trace printed no 'traced run' line"])
    status, iterations = match.group(2), int(match.group(3))
    problems = []
    if solved and status != SOLVED:
        problems.append(f"trace exited 0 but the traced run is {status}")
    n = instance.n_vars
    lines = csv_text.splitlines()
    if not lines or len(lines[0].split(",")) != n + 2:
        problems.append("trajectory CSV header does not have N+2 columns")
    rows = lines[1:]
    expected = recorded_iterations(iterations, record_every)
    if [int(row.split(",", 1)[0]) for row in rows] != expected:
        problems.append(f"trajectory CSV has {len(rows)} rows, expected {len(expected)}")
    elif solved:
        last = np.array(rows[-1].split(",")[2:], dtype=np.float64)
        z = np.where(last >= 0.5 - 1e-12, 0, 1)
        if last.shape != (n,) or not ec3.check_assignment(instance, z).satisfied:
            problems.append("last trajectory row does not round to a solution")
    if len(labels_text.splitlines()) != n + 1:
        problems.append("labels CSV does not have one row per variable")
    return OpCheck(solved, problems)


class SolveStats:
    """Restart statistics over many solves: runs, successes, the vertex cost
    of unsolved runs and the Hamming distance between restarts."""

    def __init__(self):
        self.solves = 0
        self.runs = 0
        self.successes = 0
        self.miss_costs = []
        self.hamming = []  # one mean pairwise distance per multi-run solve

    def add(self, instance, outcome) -> None:
        results = outcome.results
        self.solves += 1
        self.runs += len(results)
        self.successes += sum(run.status == SOLVED for run in results)
        self.miss_costs += [run.vertex_cost for run in results if run.status != SOLVED]
        if len(results) > 1:
            self.hamming.append(restart_hamming(instance, results))


def restart_hamming(instance, results) -> float:
    """Mean pairwise Hamming distance between the rounded vertices of one
    solve's runs, as a fraction of the clause-bearing variables.  Variables
    in no clause never move and round by their random start, so they would
    make identical descents look different."""
    z = np.array([run.rounded for run in results])[:, instance.clause_degree > 0]
    if z.shape[1] == 0:
        return 0.0
    ones = z.sum(axis=0).astype(np.float64)
    r = len(results)
    # pairs that differ at a variable: ones * zeros of that column
    differing = float((ones * (r - ones)).sum())
    return differing / (r * (r - 1) / 2) / z.shape[1]
