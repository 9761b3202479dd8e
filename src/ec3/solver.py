"""Small-step projected gradient descent on F with multi-restart.

One run: draw each start coordinate independently and uniformly from
[1/2 − 0.05, 1/2 + 0.05], near the hypercube center; repeat
x ← clamp(x − η·∇F(x), 0, 1) until no coordinate moves more than 1e-12
(or an iteration cap); round the final point to a bit assignment and
verify it. The stationary saddle (2/3, …, 2/3) of every F is never a start.

The per-coordinate start spread does not shrink with N. A start on a sphere
of radius r (`sample_start`) moves each coordinate by only about r/√N, and at
N = 1000 the restarts of one instance then mostly share a single outcome, so
they are not the independent trials the stopping rule assumes.

One descent engine runs every descent: it steps R runs of one instance as
the rows of an (R × N) array, with one fused F/∇F evaluation per step
(`CostFunction.cost_and_gradient`), and a row leaves the array when its run
stops. Each row's arithmetic is that of a run started alone, so a run's
result, and its trajectory when the batch records, is bitwise the same in a
batch of any width; a single run (`bsgd_run`) is a batch of one. A recording
solve keeps the trajectories of its winner and of run 0, each within a fixed
snapshot budget, so tracing a run needs no second descent.

Restarts draw independent start points from per-run seeds derived
deterministically from the base seed (see derive_run_seed), so a multi-run
solve is reproducible. A solve runs in the calling process: its restarts
descend in lockstep batches of consecutive run indices, each batch after a
failed one twice as wide as the last, up to a fixed element budget; runs are
reported up to the smallest successful run index, so a solve's outcome does
not depend on the batch widths.

Run-count planning uses the geometric-trial picture: if a single run succeeds
with probability q, the expected number of runs to the first success is
n_s = 1/q with variance (1−q)/q², and the one-sided Chebyshev bound
P(no success in k·n_s − 1 runs) ≤ (1−q)/(1−q+(k−1)²) gives the run budget
for a target confidence (k = 11 leaves less than 1%).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .cost import CostFunction
from .instance import check_assignment

SADDLE_COORD = 2.0 / 3.0
# start points this close (euclidean) to the saddle are redrawn
_SADDLE_EXCLUSION = 1e-9
# a stalled run with gradient below this and no vertex reached is reported
# as Iteration-cap rather than Converged-unsolved
_STALL_GRAD_TOL = 1e-15

SOLVED = "Solved"
CONVERGED_UNSOLVED = "Converged-unsolved"
ITERATION_CAP = "Iteration-cap"

_MASK64 = (1 << 64) - 1


def mix64(v: int) -> int:
    """First output of a splitmix64 stream seeded with v (Steele et al.):
    add the golden-ratio increment 0x9E3779B97F4A7C15, then xor-shift-multiply
    with 0xBF58476D1CE4E5B9 and 0x94D049BB133111EB. A fixed, well-scrambled
    64-bit hash used for seed derivation."""
    z = (v + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def derive_run_seed(base_seed: int, run_index: int) -> int:
    """Per-run seed: base_seed XOR mix64(run_index). Distinct, reproducible,
    and independent of how runs are grouped into batches."""
    return (base_seed ^ mix64(run_index)) & _MASK64


@dataclass(frozen=True)
class SolverConfig:
    eta: float = 0.005  # gradient step size
    max_iters: int = 1_000_000
    seed: int = 0

    def __post_init__(self):
        # a NaN or infinite step would spin every run to max_iters
        if not 0 < self.eta < math.inf:
            raise ValueError("eta must be positive and finite")
        # a fractional count would run one step past its value
        if not isinstance(self.max_iters, numbers.Integral) or self.max_iters < 1:
            raise ValueError(f"max_iters must be an integer of at least 1, got {self.max_iters!r}")


@dataclass(frozen=True)
class Trajectory:
    """Sampled iterates of one run.

    Iteration indices are 1-based: index 1 is the start point X^(1) and
    index t+1 is the point after t update steps, so the first recorded
    displacement is snapshot(2) − snapshot(1). The first five updates are
    always recorded at stride 1 (the starting-slope law needs them), later
    ones every s steps, plus the final iterate. s starts at 10 and doubles
    each time the run fills its snapshot budget, so a long run keeps
    iterations {1, …, 6} ∪ {k + 1 : k mod s = 0} ∪ {final}.
    """

    iterations: np.ndarray  # (T,), strictly increasing, starts at 1
    costs: np.ndarray       # (T,), F at each snapshot
    snapshots: np.ndarray   # (T, N)

    def snapshot_at(self, iteration: int) -> np.ndarray:
        """The recorded point X^(iteration); KeyError if not sampled."""
        pos = np.searchsorted(self.iterations, iteration)
        if pos >= len(self.iterations) or self.iterations[pos] != iteration:
            raise KeyError(f"iteration {iteration} was not recorded")
        return self.snapshots[pos]


@dataclass
class RunResult:
    status: str                 # SOLVED / CONVERGED_UNSOLVED / ITERATION_CAP
    final_point: np.ndarray
    final_cost: float           # F at the final (continuous) iterate
    vertex_cost: float          # F at the rounded vertex (exact integer)
    rounded: np.ndarray         # the rounded assignment Z
    iterations: int             # update steps performed
    certificate: bool           # some strictly interior iterate had F < 1
    trajectory: Trajectory | None = None


def round_point(x: np.ndarray) -> np.ndarray:
    """Round a point to a bit assignment: z_i = 0 iff x_i ≥ 1/2 − 1e-12.
    A variable in no clause never moves, so it rounds by its start, which a
    solve draws uniformly from [1/2 − 0.05, 1/2 + 0.05]."""
    return np.where(x >= 0.5 - _STOP_TOL, 0, 1).astype(np.uint8)


def _usable_start(n_vars: int, radius: float, propose) -> np.ndarray:
    """The first `propose()` point strictly inside the unit hypercube and at
    least 1e-9 from the saddle (2/3, …, 2/3); None asks for a redraw."""
    if not 0 < radius < 0.5:
        raise ValueError("radius must lie in (0, 1/2)")
    saddle = np.full(n_vars, SADDLE_COORD)
    while True:
        x = propose()
        if x is not None and bool(np.all((x > 0.0) & (x < 1.0))):
            if np.linalg.norm(x - saddle) >= _SADDLE_EXCLUSION:
                return x


def sample_start(n_vars: int, radius: float, rng: np.random.Generator) -> np.ndarray:
    """Uniform random point on the sphere of the given radius centered at
    (1/2, …, 1/2). A zero normal draw, and a point not strictly inside the
    unit hypercube (radii within rounding of 1/2) or within 1e-9 of the
    saddle (2/3, …, 2/3, at distance √N/6), are redrawn. Each coordinate
    deviates from 1/2 by about radius/√N, the regime of the starting-slope
    law; the solver's restarts use `restart_start` instead."""

    def on_sphere():
        v = rng.normal(size=n_vars)
        norm = np.linalg.norm(v)
        return 0.5 + (radius / norm) * v if norm else None

    return _usable_start(n_vars, radius, on_sphere)


def restart_start(n_vars: int, radius: float, rng: np.random.Generator) -> np.ndarray:
    """The solver's start law: each coordinate independently uniform on
    [1/2 − radius, 1/2 + radius], so the per-coordinate spread is the same
    at every N. A start not strictly inside the unit hypercube (radii within
    rounding of 1/2) or within 1e-9 of the saddle (2/3, …, 2/3, out of reach
    for radius < 1/6) is redrawn, the rule `sample_start` shares."""
    return _usable_start(n_vars, radius, lambda: rng.uniform(0.5 - radius, 0.5 + radius, n_vars))


def bsgd_run(
    f: CostFunction,
    config: SolverConfig,
    start: np.ndarray,
    record: bool = False,
) -> RunResult:
    """One projected-gradient descent run from a given interior start point.

    Every iterate is clamped to [0, 1]^N. The run stops when the max-norm
    displacement of an update is at most 1e-12, or at max_iters. The final
    point is rounded to Z and verified; Solved means the rounded vertex has
    cost exactly 0 and passes the combinatorial check. A convergence onto a
    numerically stationary non-vertex point (gradient max-norm below 1e-15,
    e.g. the central saddle) is reported as Iteration-cap: the run spent its
    budget without reaching a decision surface.

    The certificate flag records whether any strictly interior iterate had
    F < 1. F < 1 anywhere in the closed cube certifies satisfiability: by
    the union bound, a vertex drawn with independent coordinates of mean x
    violates no clause with probability ≥ 1 − F(x) > 0. The solver tests
    interior points only, because float F can read 0.9999999999999996 at a
    face point whose exact F is 1.

    This is the descent engine on a batch of one; with `record`, the run's
    Trajectory comes from that batch's log (see `_descend`), and
    `rerun_with_trajectory` records a restart by its index.
    """
    x = np.asarray(start, dtype=np.float64)
    f._check_len(x)
    (result,) = _descend(f, config, x[None, :], record)
    return result


# A recording batch keeps at most this many samples. A full log drops every
# other sample past the stride-1 head and doubles its stride, so a log holds
# at most _MAX_SNAPSHOTS samples of its live rows however long they run.
_MAX_SNAPSHOTS = 1024
# A log's first stride past the head: calibration, like the classifier's
# thresholds, since `classify_flows` reads dwell fractions of the samples.
_RECORD_EVERY = 10
# A restart's start half-width around 1/2: the start law criterion 06 passes on.
_START_RADIUS = 0.05
# The fixed-point step bound and the rounding tie band (x_i ≥ 1/2 − tol → 0).
_STOP_TOL = 1e-12


class _Log:
    """A batch's sampled iterates X^(k+1), k ≤ 5 or a multiple of `stride`,
    as (k + 1, rows, F, X): `rows` names the row of `starts` behind each
    row of F and X. Live rows step together, so one log serves them all,
    and a row is in every sample taken while it was live."""

    def __init__(self, rows, F, X):
        self.stride = _RECORD_EVERY
        self.samples = [(1, rows, F, X)]

    def due(self, k: int) -> bool:
        """Whether the point after k updates is on the schedule."""
        return k <= 5 or k % self.stride == 0

    def _make_room(self) -> None:
        """Thin a full log to the samples on a doubled stride."""
        if len(self.samples) == _MAX_SNAPSHOTS:
            self.stride *= 2
            self.samples = [s for s in self.samples if self.due(s[0] - 1)]

    def add(self, k: int, rows, F, X) -> None:
        """Record the live rows after k updates if, once a full log is
        thinned, k is still on the schedule."""
        self._make_room()
        if self.due(k):
            self.samples.append((k + 1, rows, F, X))

    def trajectory(self, r: int, k: int, cost, x) -> Trajectory:
        """Row r's samples and its final point x, after k updates. A full
        log thins first when that point was not sampled; the live rows
        would thin alike at their next sample."""
        final = [] if self.samples[-1][0] == k + 1 else [(k + 1, cost, x)]
        if final:
            self._make_room()
        picked = [
            (it, F[j], X[j]) for it, rows, F, X in self.samples for j in [np.searchsorted(rows, r)]
        ]
        iterations, costs, snapshots = zip(*picked, *final)
        return Trajectory(
            iterations=np.array(iterations, dtype=np.int64),
            costs=np.array(costs),
            snapshots=np.array(snapshots),
        )


def _descend(
    f: CostFunction,
    config: SolverConfig,
    starts: np.ndarray,
    record: bool = False,
    keep_first: bool = True,
):
    """Descend from every row of the (R, N) array `starts` in lockstep.

    Each row takes exactly the steps, and gets exactly the result, of a run
    started alone from it; a row leaves the batch when it stops. Rows are
    read as consecutive run indices: when one ends Solved, every live row
    after it is dropped (no run past a success is reported), and the rows
    before it run on. Returns one RunResult per row, None for a dropped row.

    With `record`, one `_Log` samples the live rows at the start, the
    first five updates and every `_RECORD_EVERY`-th update, at most
    `_MAX_SNAPSHOTS` samples (a full log thins to a doubled stride). A row
    that ends Solved and, with `keep_first` (a solve's first batch, whose
    row 0 is traced when no run solves), row 0 take their Trajectory from
    the log as they stop, with their final iterate. The log holds at most
    _MAX_SNAPSHOTS · R · N doubles and is freed when this returns.
    """
    X = np.array(starts, dtype=np.float64)
    if not bool(np.all((X > 0.0) & (X < 1.0))):
        raise ValueError("start point must lie strictly inside the open unit hypercube")

    eta = config.eta
    # the kernel's index arrays for the current width, rebuilt as rows leave
    index = f.batch_index(len(X))
    F, G = f.cost_and_gradient(X, index)
    certificate = F < 1.0  # the starts themselves are strictly interior
    rows = np.arange(len(X))  # the row of `starts` behind each live row
    results = [None] * len(X)
    # every step makes new X, F and rows arrays: the log keeps them uncopied
    log = _Log(rows, F, X) if record else None

    k = 0
    # a huge eta overflows eta·∇F to ±inf, a step the clamp maps to a face
    with np.errstate(over="ignore"):
        while len(rows):
            k += 1
            # clamp to [0, 1] as np.clip does (the two differ only on -0.0,
            # which no iterate can hold) at a fraction of its call cost
            Xn = X - eta * G
            np.maximum(Xn, 0.0, out=Xn)
            np.minimum(Xn, 1.0, out=Xn)
            delta = np.max(np.abs(Xn - X), axis=1)
            X = Xn
            F, G = f.cost_and_gradient(X, index)
            low = F < 1.0
            if low.any():
                certificate |= low & np.all((X > 0.0) & (X < 1.0), axis=1)
            if log is not None and log.due(k):
                log.add(k, rows, F, X)
            if delta.min() > _STOP_TOL and k < config.max_iters:
                continue
            converged = delta <= _STOP_TOL
            stopped = converged if k < config.max_iters else np.ones_like(converged)
            live = ~stopped
            for i in np.flatnonzero(stopped):
                r = rows[i]
                res = results[r] = _finish(f, X[i], F[i], G[i], k, converged[i], certificate[i])
                if log is not None and (res.status == SOLVED or (r == 0 and keep_first)):
                    res.trajectory = log.trajectory(r, k, F[i], X[i])
                if res.status == SOLVED:
                    live &= rows < r  # no row after a success is reported
                    break
            X, G, certificate, rows = X[live], G[live], certificate[live], rows[live]
            if len(rows):
                index = f.batch_index(len(rows))
    return results


def _finish(f, x, cost_now, grad, k, converged, certificate) -> RunResult:
    """Round, verify and classify a run that stopped at x after k updates;
    `grad` is ∇F at x."""
    rounded = round_point(x)
    vcost = f.vertex_cost(rounded)
    verdict = check_assignment(f.instance, rounded)
    if verdict.satisfied and vcost == 0.0:
        status = SOLVED
    elif not converged:
        status = ITERATION_CAP
    elif float(np.max(np.abs(grad))) < _STALL_GRAD_TOL and not np.all((x == 0.0) | (x == 1.0)):
        status = ITERATION_CAP  # stationary stall (saddle), not a decision
    else:
        status = CONVERGED_UNSOLVED
    return RunResult(status, x.copy(), float(cost_now), float(vcost), rounded, k, bool(certificate))


@dataclass
class RestartStats:
    """Empirical restart statistics over the runs actually executed. The
    Chebyshev failure bound for a run budget is `stopping_rule`'s."""

    runs_attempted: int
    successes: int
    q_hat: float
    n_s_hat: float | None    # 1/q̂, or None with zero successes
    sigma_hat: float | None  # sqrt((1−q̂)/q̂²), or None with zero successes

    @classmethod
    def from_runs(cls, results) -> "RestartStats":
        r = len(results)
        s = sum(1 for res in results if res.status == SOLVED)
        q = s / r if r else 0.0
        if s > 0:
            return cls(r, s, q, 1.0 / q, math.sqrt((1.0 - q) / (q * q)))
        return cls(r, s, q, None, None)


@dataclass
class SolveOutcome:
    """The reported runs of a solve: runs 0..winner_index, or every run
    when none solved (winner_index None). The winner, `solved` and `stats`
    are read off these two."""

    winner_index: int | None
    results: list

    @property
    def stats(self) -> RestartStats:
        return RestartStats.from_runs(self.results)

    @property
    def solved(self) -> bool:
        return self.winner_index is not None

    @property
    def winner(self) -> RunResult | None:
        return self.results[self.winner_index] if self.solved else None

    @property
    def traced_index(self) -> int:
        """The run a recording solve traces: the winner, else run 0."""
        return self.winner_index if self.solved else 0


# Up to about this many clause terms and gradient entries in a step (3M + N
# a row), a step's cost is mostly per-call overhead, so extra rows come
# nearly free; past it, time grows with the width, and the rows after an
# early success only add work that is thrown away. The first batch of a
# solve holds this many.
_BATCH_ELEMENTS = 1024
# A restart's success rate is unknown before a solve, so each batch after a
# failed one is twice as wide (Luby, Sinclair & Zuckerman 1993), up to this
# many elements a step: 9 rows at (N, M) = (1000, 250).
_MAX_BATCH_ELEMENTS = 16384


def _run_start(f: CostFunction, config: SolverConfig, index: int) -> np.ndarray:
    """The start point of restart `index`."""
    rng = np.random.default_rng(derive_run_seed(config.seed, index))
    return restart_start(f.n_vars, _START_RADIUS, rng)


def solve_with_restarts(
    f: CostFunction, config: SolverConfig, max_runs: int, workers: int = 1, record: bool = False
) -> SolveOutcome:
    """Up to max_runs independent runs, stopping at the first success.

    Runs descend in the calling process, in lockstep batches of consecutive
    run indices: the first batch is W = max(1, 1024 // (3M + N)) wide, and
    each batch after a failed one twice as wide as the one before, up to
    max(1, 16384 // (3M + N)) rows (fewer for the last). The results are
    truncated at the smallest successful index: runs 0..w for a win at
    index w, or all max_runs on failure, each bitwise the run it is alone.
    `workers` is accepted for callers that pass a worker count and changes
    nothing.

    With `record`, every batch records as it descends (see `_descend`), and
    the winner and results[0] carry their Trajectory, bitwise what
    `rerun_with_trajectory` records for that run; the other runs carry none.
    `traced_index` names the one a trace reports.
    """
    if max_runs < 1:
        raise ValueError("max_runs must be at least 1")
    row = 3 * f.instance.n_clauses + f.n_vars
    width = max(1, _BATCH_ELEMENTS // row)
    widest = max(1, _MAX_BATCH_ELEMENTS // row)
    results: list[RunResult] = []
    winner_index = None
    base = 0
    while base < max_runs and winner_index is None:
        idx = range(base, min(base + width, max_runs))
        starts = np.array([_run_start(f, config, i) for i in idx])
        batch = _descend(f, config, starts, record, base == 0)
        for i, res in zip(idx, batch):
            results.append(res)
            if res.status == SOLVED:
                winner_index = i
                break
        base = idx.stop
        width = min(2 * width, widest)

    return SolveOutcome(winner_index, results)


def rerun_with_trajectory(f: CostFunction, config: SolverConfig, run_index: int) -> RunResult:
    """Re-execute restart `run_index` deterministically, recording its
    trajectory. A solve with `record=True` already carries the trajectories
    of its winner and of run 0; this replays any run, bitwise as it ran."""
    if run_index < 0:
        raise ValueError("run_index must be nonnegative")
    return bsgd_run(f, config, _run_start(f, config, run_index), record=True)


@dataclass(frozen=True)
class StoppingRule:
    required_runs: int
    failure_prob_bound: float


def stopping_rule(q_assumed: float, k: float) -> StoppingRule:
    """Run budget from the one-sided Chebyshev inequality: with per-run
    success probability q, running ceil(k/q − 1) times bounds the
    probability of seeing no success by (1−q)/(1−q+(k−1)²). k = 11 gives a
    bound below 1% for every q."""
    if not 0.0 < q_assumed < 1.0:
        raise ValueError("q_assumed must lie strictly between 0 and 1")
    if not 1.0 < k < math.inf:
        raise ValueError("k must exceed 1 and be finite")
    # tiny slack so exact-arithmetic integers (e.g. k/q = 110) survive the
    # float division
    runs = k / q_assumed - 1.0 - 1e-12
    if not math.isfinite(runs):
        raise ValueError(f"q_assumed={q_assumed!r} is too small: the run count overflows")
    required = math.ceil(runs)
    bound = (1.0 - q_assumed) / ((1.0 - q_assumed) + (k - 1.0) ** 2)
    return StoppingRule(int(required), float(bound))

