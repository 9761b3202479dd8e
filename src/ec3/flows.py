"""Variable-trajectory analysis and ratio sweeps.

Under descent from a near-center start, individual coordinates trace a small
set of recurring shapes. This module checks the starting-slope law — the
first update moves variable k by η·C_k/4, where C_k is the number of clauses
containing k, so initial slopes are quantized in units of η/4 — classifies
trajectories into the observed families, and sweeps the clauses-to-variables
ratio r = M/N to locate the satisfiability crossover (asymptotically near
r ≈ 0.62 for random instances).

Trajectory families (labels used throughout):

    I         monotone growth to 1
    II-up/-down   rises, dwells on a plateau near 2/3, then commits to 1 or 0
    III-up/-down  rises out of the 1/2 band, returns and dwells near 1/2
                  before splitting to 1 or 0
    IV        rises, then reverses and decays to 0
    V         stationary — in particular every variable in no clause
    Irregular anything else

The thresholds that turn these qualitative shapes into a decision procedure
are the module constants below: they are calibration, not theory.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .cost import CostFunction
from .instance import ORACLE_CAP, brute_force_oracle, generate_instance
from .solver import (
    SolverConfig,
    Trajectory,
    derive_run_seed,
    mix64,
    solve_with_restarts,
)
# unused here; the benchmark's tracer resolves this name in this module
# until its targets are refreshed (ROADMAP item 1)
from .solver import rerun_with_trajectory  # noqa: F401

FAMILIES = ("I", "II-up", "II-down", "III-up", "III-down", "IV", "V", "Irregular")


# classify_flows thresholds
_HIGH = 0.99            # "ends at 1" threshold
_LOW = 0.01             # "ends at 0" threshold
_PLATEAU_BAND = 0.05    # half-width of a plateau band
_PLATEAU_FRAC = 0.10    # dwell fraction that counts as a plateau
_RISE_THRESHOLD = 0.6   # how high a flow must get to count as risen
_MONOTONE_SLACK = 0.01  # cumulative reversal tolerated as monotone
_STATIONARY_TOL = 1e-12


@dataclass(frozen=True)
class SlopeCheck:
    observed: np.ndarray   # first recorded displacement per variable
    predicted: np.ndarray  # η·C_k/4
    ok: np.ndarray         # |observed − predicted| ≤ 0.1·η


def _first_displacement(trajectory: Trajectory) -> np.ndarray:
    """snapshot(2) − snapshot(1); ValueError if either was not recorded."""
    try:
        return trajectory.snapshot_at(2) - trajectory.snapshot_at(1)
    except KeyError as e:
        raise ValueError(f"trajectory lacks the early snapshots needed: {e}") from None


def initial_slope_check(trajectory: Trajectory, eta: float, clause_degree) -> SlopeCheck:
    """Compare each variable's first displacement, snapshot(2) − snapshot(1),
    against the predicted η·C_k/4. The 0.1·η tolerance absorbs the start
    point sitting near, not at, the exact center. Requires the trajectory to
    have recorded iterations 1 and 2 (stride 1 near the start)."""
    observed = _first_displacement(trajectory)
    with np.errstate(over="ignore"):  # past eta ≈ 1e307 it is inf: a miss
        predicted = eta * np.asarray(clause_degree, dtype=np.float64) / 4.0
    ok = np.abs(observed - predicted) <= 0.1 * eta
    return SlopeCheck(observed, predicted, ok)


def slope_spectrum(trajectory: Trajectory, eta: float) -> np.ndarray:
    """First displacements in units of η/4. Clusters on the integers
    0..M — the discrete spectrum of starting slopes."""
    return _first_displacement(trajectory) / (eta / 4.0)


def classify_flows(trajectory: Trajectory):
    """Assign one family label per variable from the sampled trajectory.

    Decision order: V (stationary), III (return to the 1/2 band after an
    excursion above it), II (plateau near 2/3 after rising), I (monotone to
    1), IV (rose then fell to 0), else Irregular. III is tested before II
    because a splitting flow also spends time near 2/3 on its way out. Two
    snapshots, the start and final point every trajectory has, suffice."""
    s = trajectory.snapshots
    if s.shape[0] < 2:
        raise ValueError("need at least 2 snapshots to classify flows")
    t = s.shape[0]
    start, final = s[0], s[-1]

    deviation = np.max(np.abs(s - start), axis=0)
    ends_up = final >= _HIGH
    ends_down = final <= _LOW
    peak = s.max(axis=0)

    above_half = s > 0.5 + _PLATEAU_BAND
    rose_out = above_half.any(axis=0)
    first_exit = np.where(rose_out, above_half.argmax(axis=0), t)
    after_exit = np.arange(t)[:, None] > first_exit[None, :]
    half_dwell = ((np.abs(s - 0.5) <= _PLATEAU_BAND) & after_exit).sum(axis=0) / t
    two_thirds_dwell = (np.abs(s - 2.0 / 3.0) <= _PLATEAU_BAND).mean(axis=0)

    reversal = np.clip(np.diff(s, axis=0), None, 0.0).sum(axis=0)
    monotone_up = reversal >= -_MONOTONE_SLACK

    split = rose_out & (half_dwell >= _PLATEAU_FRAC)
    plateau2 = (peak >= _RISE_THRESHOLD) & (two_thirds_dwell >= _PLATEAU_FRAC)
    # in decision order: a variable takes the first label whose mask holds
    rules = {
        "V": deviation < _STATIONARY_TOL,
        "III-up": split & ends_up,
        "III-down": split & ends_down,
        "II-up": plateau2 & ends_up,
        "II-down": plateau2 & ends_down,
        "I": monotone_up & ends_up,
        "IV": ends_down & (peak >= start + _PLATEAU_BAND),
    }
    return np.select(list(rules.values()), list(rules), default="Irregular")


@dataclass
class SweepRow:
    r: float
    n_clauses: int
    n_vars: int
    instances: int
    solver_success_frac: float
    oracle_sat_frac: float | None
    mean_runs_to_success: float | None
    mean_winner_iterations: float | None = None


@dataclass
class SweepReport:
    """A sweep's results: one SweepRow per grid ratio r, in grid order."""

    rows: list


def clause_count_for_ratio(r: float, n_vars: int) -> int:
    """M = round(r·N), ties rounding half up."""
    return int(math.floor(r * n_vars + 0.5))


def _sweep_cell(n_vars, config, budget, want_oracle, cap, cell):
    """Solve cell `(M, instance seed)` with solver seed mix64(instance seed):
    (runs, winner iterations, oracle SAT), None where it has none."""
    m, inst_seed = cell
    inst = generate_instance(n_vars, m, inst_seed)
    f = CostFunction.from_instance(inst)
    config = replace(config, seed=mix64(inst_seed))
    outcome = solve_with_restarts(f, config, budget)
    sat = brute_force_oracle(inst, cap=cap).satisfiable if want_oracle else None
    runs = iters = None
    if outcome.solved:
        runs, iters = len(outcome.results), outcome.winner.iterations
    return runs, iters, sat


def _mean(values):
    """Mean of the values that are not None; None when there are none."""
    present = [v for v in values if v is not None]
    return sum(present) / len(present) if present else None


def phase_sweep(
    n_vars: int,
    r_grid,
    instances_per_r: int,
    config: SolverConfig,
    run_budget: int,
    base_seed: int,
    workers: int = 1,
    use_oracle: bool = True,
    oracle_cap: int = ORACLE_CAP,
    classify: bool = False,
) -> SweepReport:
    """Solve random instances across a grid of ratios r with M = round(r·N).

    A cell is a function of its grid position (r index i, instance index j):
    its instance seed is base_seed XOR mix64((i << 32) | j) and its solver
    seed mix64 of that, so every cell is reproducible in isolation and the
    report is bitwise identical for any worker count. Records the solver
    success fraction under the run budget, with `use_oracle` exact
    satisfiability, and the mean runs-to-success and mean winner iterations
    among solved cells (None when there is none). No cell records a run, and
    `ec3 trace` gives flow families: `classify` stays for callers that pass
    False, and True, like N > oracle_cap with the oracle, is a ValueError
    before any cell runs. The cells spread over min(workers, cells)
    processes; one runs them in this one, and a count below one is a
    ValueError.
    """
    if classify:
        raise ValueError("phase_sweep classifies no flows: trace a cell with `ec3 trace`")
    if instances_per_r < 1:
        raise ValueError("instances_per_r must be at least 1")
    if run_budget < 1:
        raise ValueError("run_budget must be at least 1")
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    if use_oracle and n_vars > oracle_cap:
        raise ValueError(f"n_vars={n_vars} exceeds oracle cap {oracle_cap}")
    r_grid = [float(r) for r in r_grid]
    if not r_grid:
        raise ValueError("empty ratio grid")
    plan = []
    for r in r_grid:
        if not 0.0 < r <= 1.0:
            raise ValueError(f"ratio r={r} outside (0, 1]")
        m = clause_count_for_ratio(r, n_vars)
        if m < 1:
            raise ValueError(f"ratio r={r} gives no clauses at N={n_vars}")
        if m > math.comb(n_vars, 3):
            raise ValueError(f"ratio r={r} needs {m} distinct clauses; N={n_vars} has too few")
        plan.append((r, m))

    cells = [
        (m, derive_run_seed(base_seed, (i << 32) | j))
        for i, (r, m) in enumerate(plan)
        for j in range(instances_per_r)
    ]
    cell = partial(_sweep_cell, n_vars, config, run_budget, use_oracle, oracle_cap)
    # a fork-started pool forks all its workers at the first submit, so
    # never ask for more than there are cells
    workers = min(workers, len(cells))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(cell, cells, chunksize=4))
    else:
        outcomes = [cell(c) for c in cells]

    rows = []
    for i, (r, m) in enumerate(plan):
        chunk = outcomes[i * instances_per_r : (i + 1) * instances_per_r]
        runs, iters, sats = zip(*chunk)
        rows.append(
            SweepRow(
                r=r,
                n_clauses=m,
                n_vars=n_vars,
                instances=instances_per_r,
                solver_success_frac=sum(ru is not None for ru in runs) / instances_per_r,
                oracle_sat_frac=_mean(sats),
                mean_runs_to_success=_mean(runs),
                mean_winner_iterations=_mean(iters),
            )
        )
    return SweepReport(rows)


def r_star_estimate(report: SweepReport) -> float | None:
    """Ratio where the oracle satisfiable fraction crosses 1/2, by linear
    interpolation between the first adjacent grid points that straddle it.
    None when no oracle data or no crossing."""
    pts = [(row.r, row.oracle_sat_frac) for row in report.rows if row.oracle_sat_frac is not None]
    for (r0, s0), (r1, s1) in zip(pts, pts[1:]):
        if s0 >= 0.5 >= s1:
            if s0 == s1:
                return r0
            return r0 + (s0 - 0.5) * (r1 - r0) / (s0 - s1)
    return None


# ---------------------------------------------------------------------------
# CSV emission (bit-stable: floats printed with 17 significant digits)


def _g17(x) -> str:
    return format(float(x), ".17g")


def write_trajectory_csv(trajectory: Trajectory, fh) -> None:
    """Write rows `iter,F,x1,...,xN` to the open text file fh, one per
    sampled iteration (1-based index).

    Each distinct snapshot value is formatted once (a descent's coordinates
    repeat heavily once they reach 0 or 1, or stop moving). Values are told
    apart by their bits, not compared as floats, so −0.0 and 0.0, and
    NaNs, each keep their own text."""
    snaps = np.ascontiguousarray(trajectory.snapshots, dtype=np.float64)
    n = snaps.shape[1]
    bits, inverse = np.unique(snaps.view(np.uint64), return_inverse=True)
    text = np.array([_g17(v) for v in bits.view(np.float64)], dtype=object)
    cells = text[inverse.reshape(snaps.shape)].tolist()
    fh.write("iter,F," + ",".join(f"x{i + 1}" for i in range(n)) + "\n")
    for it, cost, row in zip(trajectory.iterations, trajectory.costs, cells):
        fh.write(f"{int(it)},{_g17(cost)}," + ",".join(row) + "\n")


def write_labels_csv(labels, clause_degree, fh) -> None:
    """Write rows `var,C_k,label` to the open text file fh, with 1-based
    variable numbering."""
    fh.write("var,C_k,label\n")
    for i, (deg, lbl) in enumerate(zip(np.asarray(clause_degree), labels)):
        fh.write(f"{i + 1},{int(deg)},{lbl}\n")


def write_sweep_csv(report: SweepReport, fh) -> None:
    """Write rows `r,M,N,instances,solver_success_frac,oracle_sat_frac,
    mean_runs_to_success` to the open text file fh; absent oracle data or an
    empty success set print as nan."""
    fh.write("r,M,N,instances,solver_success_frac,oracle_sat_frac,mean_runs_to_success\n")
    for row in report.rows:
        sat = _g17(row.oracle_sat_frac) if row.oracle_sat_frac is not None else "nan"
        mrs = _g17(row.mean_runs_to_success) if row.mean_runs_to_success is not None else "nan"
        fh.write(
            f"{_g17(row.r)},{row.n_clauses},{row.n_vars},{row.instances},"
            f"{_g17(row.solver_success_frac)},{sat},{mrs}\n"
        )
