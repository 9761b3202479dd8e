import math
import pickle
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dataclasses import FrozenInstanceError, fields, replace

from ec3 import (
    CONVERGED_UNSOLVED,
    ITERATION_CAP,
    SADDLE_COORD,
    SOLVED,
    CostFunction,
    RestartStats,
    RunResult,
    SolverConfig,
    Trajectory,
    bsgd_run,
    check_assignment,
    clause_count_for_ratio,
    derive_run_seed,
    generate_instance,
    make_instance,
    mix64,
    rerun_with_trajectory,
    restart_start,
    round_point,
    sample_start,
    solve_with_restarts,
    stopping_rule,
    vertex_point,
)
import ec3.solver
from ec3.solver import _descend, _run_start
from test_cost import reference_cost, reference_gradient


# --- the reference: one run at a time -----------------------------------------


def reference_run(f, config, start, record=False) -> RunResult:
    """One projected-descent run, one point at a time, on the two-pass
    reference kernel: the loop the batched engine replaced, kept as the
    reference it must match bit for bit. It records on the engine's
    schedule and stop test, read from `ec3.solver._RECORD_EVERY` and
    `ec3.solver._STOP_TOL` when it runs."""
    inst = f.instance
    x = np.asarray(start, dtype=np.float64).copy()
    eta = config.eta
    cost_now = reference_cost(inst, x)
    certificate = cost_now < 1.0

    iters_log, costs_log, snaps_log = [], [], []
    if record:
        iters_log.append(1)
        costs_log.append(cost_now)
        snaps_log.append(x.copy())

    converged = False
    k = 0
    while k < config.max_iters:
        k += 1
        g = reference_gradient(inst, x)
        xn = np.clip(x - eta * g, 0.0, 1.0)
        delta = float(np.max(np.abs(xn - x)))
        x = xn
        cost_now = reference_cost(inst, x)
        if cost_now < 1.0 and bool(np.all((x > 0.0) & (x < 1.0))):
            certificate = True
        if record and (k <= 5 or k % ec3.solver._RECORD_EVERY == 0):
            iters_log.append(k + 1)
            costs_log.append(cost_now)
            snaps_log.append(x.copy())
        if delta <= ec3.solver._STOP_TOL:
            converged = True
            break

    if record and iters_log[-1] != k + 1:
        iters_log.append(k + 1)
        costs_log.append(cost_now)
        snaps_log.append(x.copy())

    rounded = round_point(x)
    vcost = reference_cost(inst, vertex_point(rounded))
    verdict = check_assignment(inst, rounded)
    if verdict.satisfied and vcost == 0.0:
        status = SOLVED
    elif not converged:
        status = ITERATION_CAP
    else:
        at_vertex = bool(np.all((x == 0.0) | (x == 1.0)))
        grad_inf = float(np.max(np.abs(reference_gradient(inst, x))))
        if grad_inf < 1e-15 and not at_vertex:
            status = ITERATION_CAP
        else:
            status = CONVERGED_UNSOLVED

    trajectory = None
    if record:
        trajectory = Trajectory(
            iterations=np.array(iters_log, dtype=np.int64),
            costs=np.array(costs_log),
            snapshots=np.array(snaps_log),
        )
    return RunResult(status, x, cost_now, float(vcost), rounded, k, certificate, trajectory)


def reference_solve(f, config, max_runs):
    """(winner_index, results) of restarts 0, 1, … run one after another up
    to the first success."""
    results = []
    for i in range(max_runs):
        seed = derive_run_seed(config.seed, i)
        start = restart_start(f.n_vars, ec3.solver._START_RADIUS, np.random.default_rng(seed))
        results.append(reference_run(f, config, start))
        if results[-1].status == SOLVED:
            return i, results
    return None, results


def _bits(v) -> bytes:
    return np.float64(v).tobytes()


def assert_same_run(got, want):
    assert got.status == want.status
    assert got.iterations == want.iterations
    assert got.final_point.tobytes() == want.final_point.tobytes()
    assert _bits(got.final_cost) == _bits(want.final_cost)
    assert _bits(got.vertex_cost) == _bits(want.vertex_cost)
    assert got.certificate == want.certificate
    assert got.rounded.tobytes() == want.rounded.tobytes()
    assert (got.trajectory is None) == (want.trajectory is None)
    if want.trajectory is not None:
        a, b = got.trajectory, want.trajectory
        assert a.iterations.tobytes() == b.iterations.tobytes()
        assert a.costs.tobytes() == b.costs.tobytes()
        assert a.snapshots.tobytes() == b.snapshots.tobytes()


def assert_solve_matches_reference(f, config, max_runs):
    out = solve_with_restarts(f, config, max_runs)
    winner, results = reference_solve(f, config, max_runs)
    assert out.winner_index == winner
    assert len(out.results) == len(results)
    for got, want in zip(out.results, results):
        assert_same_run(got, want)
    assert out.winner is (out.results[winner] if winner is not None else None)
    return out


def assert_recorded_solve_matches_rerun(f, config, max_runs):
    """A recording solve reports the runs of a plain one; its winner and run
    0 carry bitwise the trajectory a rerun records, and no other run has
    one."""
    plain = solve_with_restarts(f, config, max_runs)
    out = solve_with_restarts(f, config, max_runs, record=True)
    assert out.winner_index == plain.winner_index
    assert len(out.results) == len(plain.results)
    traced = {0, out.winner_index} - {None}
    assert out.traced_index == (out.winner_index if out.solved else 0)
    for i, (got, want) in enumerate(zip(out.results, plain.results)):
        if i in traced:
            assert got.trajectory is not None
            assert_same_run(got, rerun_with_trajectory(f, config, i))
            got = replace(got, trajectory=None)
        assert_same_run(got, want)
    return out


# --- seed derivation ----------------------------------------------------------


def test_mix64_known_answers():
    # first outputs of the splitmix64 stream for seeds 0, 1, 2
    assert mix64(0) == 0xE220A8397B1DCDAF
    assert mix64(1) == 0x910A2DEC89025CC1
    assert mix64(2) == 0x975835DE1C9756CE


def test_derive_run_seed_is_base_xor_mix():
    assert derive_run_seed(0, 5) == mix64(5)
    assert derive_run_seed(123, 5) == 123 ^ mix64(5)
    seeds = {derive_run_seed(99, i) for i in range(1000)}
    assert len(seeds) == 1000  # no collisions over a practical run range


# --- config -------------------------------------------------------------------


@pytest.mark.parametrize(
    "bad",
    [
        pytest.param(dict(eta=0.0), id="eta-zero"),
        pytest.param(dict(eta=-1.0), id="eta-negative"),
        pytest.param(dict(max_iters=0), id="max-iters-zero"),
        # a float literal, even an integral one, is no count
        pytest.param(dict(max_iters=1e6), id="max-iters-float"),
        # non-finite values would spin every run to max_iters
        pytest.param(dict(eta=float("nan")), id="eta-nan"),
        pytest.param(dict(eta=float("inf")), id="eta-inf"),
        # a fractional count would run one step past its value
        pytest.param(dict(max_iters=2.5), id="max-iters-fractional"),
    ],
)
def test_solver_config_validation(bad):
    with pytest.raises(ValueError):
        SolverConfig(**bad)


def test_solver_config_has_no_start_or_stop_setting():
    # the start half-width and the stop tolerance are solver constants
    assert [f.name for f in fields(SolverConfig)] == ["eta", "max_iters", "seed"]
    for removed in (dict(start_radius=0.1), dict(stop_tol=1e-9)):
        with pytest.raises(TypeError):
            SolverConfig(**removed)


def test_replace_revalidates_config():
    cfg = SolverConfig()
    assert replace(cfg, eta=0.01).eta == 0.01
    assert cfg.eta == 0.005  # original untouched
    with pytest.raises(ValueError):
        replace(cfg, max_iters=0)
    # a field set after construction would skip the checks
    with pytest.raises(FrozenInstanceError):
        cfg.eta = -1.0


# --- start sampling -----------------------------------------------------------


def test_sample_start_on_sphere():
    rng = np.random.default_rng(1)
    for n in (1, 2, 15, 400):
        x = sample_start(n, 0.05, rng)
        assert abs(np.linalg.norm(x - 0.5) - 0.05) < 1e-12
        assert np.all((x > 0) & (x < 1))


def test_sample_start_deterministic():
    a = sample_start(20, 0.05, np.random.default_rng(7))
    b = sample_start(20, 0.05, np.random.default_rng(7))
    c = sample_start(20, 0.05, np.random.default_rng(8))
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_sample_start_one_dimension_hits_exact_points():
    rng = np.random.default_rng(0)
    seen = {float(sample_start(1, 0.05, rng)[0]) for _ in range(40)}
    assert seen == {0.45, 0.55}


def test_sample_start_rejects_degenerate_and_saddle_draws():
    # Scripted generator: a zero vector (norm 0, must redraw), then a draw
    # landing exactly on the saddle 2/3 (must redraw), then a usable one.
    class Scripted:
        def __init__(self, draws):
            self.draws = [np.asarray(d, dtype=float) for d in draws]

        def normal(self, size):
            v = self.draws.pop(0)
            assert v.shape == (size,)
            return v

    rng = Scripted([[0.0], [1.0], [-1.0]])
    x = sample_start(1, 1.0 / 6.0, rng)  # radius reaching 2/3 in 1-D
    assert x[0] == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert not rng.draws  # all three scripted draws consumed
    # a radius within rounding of 1/2: 1/2 + radius rounds to 1.0, a face
    # of the cube, which must be redrawn like the saddle
    rng = np.random.default_rng(0)
    for _ in range(20):
        x = sample_start(1, 0.5 - 2.0**-54, rng)
        assert 0.0 < x[0] < 1.0


def test_sample_start_radius_range():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        sample_start(3, 0.0, rng)
    with pytest.raises(ValueError):
        sample_start(3, 0.5, rng)


def test_restart_start_box_and_spread_independent_of_n():
    rng = np.random.default_rng(2)
    for n in (1, 15, 1000, 10_000):
        x = restart_start(n, 0.05, rng)
        assert x.shape == (n,)
        assert np.all((x >= 0.45) & (x < 0.55))
    # uniform on [1/2 - r, 1/2 + r]: per-coordinate std r/sqrt(3) at every N
    assert np.std(restart_start(10_000, 0.05, rng)) == pytest.approx(0.05 / math.sqrt(3), rel=0.05)
    assert np.std(restart_start(10_000, 0.3, rng)) == pytest.approx(0.3 / math.sqrt(3), rel=0.05)


def test_restart_start_rejects_saddle_and_outside_draws():
    # Scripted generator: the saddle (must redraw), a boundary point (must
    # redraw), then a usable draw.
    class Scripted:
        def __init__(self, draws):
            self.draws = [np.asarray(d, dtype=float) for d in draws]

        def uniform(self, low, high, size):
            v = self.draws.pop(0)
            assert v.shape == (size,)
            return v

    rng = Scripted([[SADDLE_COORD, SADDLE_COORD], [0.0, 0.5], [0.4, 0.6]])
    x = restart_start(2, 0.2, rng)
    assert np.array_equal(x, [0.4, 0.6])
    assert not rng.draws


def test_restart_start_radius_range():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        restart_start(3, 0.0, rng)
    with pytest.raises(ValueError):
        restart_start(3, 0.5, rng)


def test_restarts_start_from_restart_start(ref15_cost, monkeypatch):
    # a radius other than the default tells the constant from a literal
    monkeypatch.setattr(ec3.solver, "_START_RADIUS", 0.2)
    cfg = SolverConfig(seed=5)
    res = rerun_with_trajectory(ref15_cost, cfg, 3)
    seed = derive_run_seed(5, 3)
    expected = restart_start(15, 0.2, np.random.default_rng(seed))
    assert np.array_equal(res.trajectory.snapshot_at(1), expected)


# --- rounding -----------------------------------------------------------------


def test_round_point():
    x = np.array([0.9, 0.1, 0.5, 0.5 - 1e-13, 0.5 - 1e-11])
    z = round_point(x)
    # above the band → 0, below → 1, inside the tie band → 0
    assert z.tolist() == [0, 1, 0, 0, 1]
    assert z.dtype == np.uint8


# --- single runs --------------------------------------------------------------


def test_run_rejects_boundary_start(ref15_cost):
    bad = np.full(15, 0.5)
    bad[3] = 1.0
    with pytest.raises(ValueError, match="strictly inside"):
        bsgd_run(ref15_cost, SolverConfig(), bad)


def test_run_empty_instance_converges_immediately():
    f = CostFunction.from_instance(make_instance(3, np.zeros((0, 3), np.int32)))
    res = bsgd_run(f, SolverConfig(), np.array([0.2, 0.5, 0.9]))
    assert res.status == SOLVED
    assert res.iterations == 1
    assert res.vertex_cost == 0.0
    assert res.rounded.tolist() == [1, 0, 0]


def test_run_solves_reference_instance(ref15, ref15_cost):
    cfg = SolverConfig(seed=0)
    rng = np.random.default_rng(derive_run_seed(0, 0))
    res = bsgd_run(ref15_cost, cfg, sample_start(15, 0.05, rng))
    assert res.status == SOLVED
    assert res.vertex_cost == 0.0
    assert ref15_cost.cost(res.final_point) < 1e-6


def test_run_certificate_from_interior_low_cost_start():
    # Start strictly interior with F < 1 (0.837 for a single clause): the
    # certificate must be set even before any update step. Solved runs from
    # the standard start sphere usually reach the boundary with F still ≥ 1,
    # so the flag is a genuine extra observation, not implied by Solved.
    f = CostFunction.from_instance(make_instance(3, [(1, 2, 3)]))
    start = np.array([0.1, 0.9, 0.9])  # deep in the z = (1,0,0) basin
    assert f.cost(start) < 1.0
    res = bsgd_run(f, SolverConfig(), start)
    assert res.certificate
    assert res.status == SOLVED
    assert res.rounded.tolist() == [1, 0, 0]  # exactly one variable set


def test_run_iterates_stay_clamped(unsat4_cost):
    cfg = SolverConfig(eta=0.4, max_iters=200)  # oversized steps to force clipping
    start = np.full(4, 0.5) + np.array([0.04, -0.03, 0.02, -0.01])
    res = bsgd_run(unsat4_cost, cfg, start, record=True)
    assert np.all(res.trajectory.snapshots >= 0.0)
    assert np.all(res.trajectory.snapshots <= 1.0)


def test_run_first_applied_step_from_center_is_exact(ref15, ref15_cost):
    """From the exact center the first update must displace variable j by
    exactly η·C_j/4: every clause term is ±0.25 exactly, so the bin sums and
    the power-of-two scaling are exact in doubles."""
    cfg = SolverConfig()
    center = np.full(15, 0.5)
    step = -cfg.eta * ref15_cost.gradient(center)
    assert np.array_equal(step, cfg.eta * ref15.clause_degree / 4.0)


def test_run_zero_degree_variable_never_moves():
    inst = make_instance(5, [(1, 2, 3)])
    f = CostFunction.from_instance(inst)
    start = np.array([0.52, 0.47, 0.51, 0.37, 0.62])
    res = bsgd_run(f, SolverConfig(), start, record=True)
    assert np.all(res.trajectory.snapshots[:, 3] == 0.37)
    assert np.all(res.trajectory.snapshots[:, 4] == 0.62)
    # each rounds by its start, not by a tie
    assert res.rounded[3] == 1 and res.rounded[4] == 0


def test_run_unsatisfiable_instance_converges_unsolved(unsat4_cost):
    rng = np.random.default_rng(42)
    res = bsgd_run(unsat4_cost, SolverConfig(), sample_start(4, 0.05, rng))
    assert res.status == CONVERGED_UNSOLVED
    assert res.vertex_cost >= 1.0
    assert not res.certificate  # F ≥ 1 everywhere for an unsatisfiable formula


def test_run_started_at_saddle_reports_iteration_cap(unsat4_cost):
    res = bsgd_run(unsat4_cost, SolverConfig(), np.full(4, SADDLE_COORD))
    assert res.status == ITERATION_CAP  # stationary stall, not a decision
    assert res.iterations == 1
    assert np.array_equal(res.final_point, np.full(4, SADDLE_COORD))


def test_run_iteration_cap_status(ref15_cost):
    cfg = SolverConfig(eta=1e-7, max_iters=50)  # far too few steps to converge
    rng = np.random.default_rng(3)
    res = bsgd_run(ref15_cost, cfg, sample_start(15, 0.05, rng))
    assert res.status == ITERATION_CAP
    assert res.iterations == 50


# --- trajectory recording -----------------------------------------------------


def test_trajectory_sampling_layout(ref15_cost):
    cfg = SolverConfig(seed=0)
    res = rerun_with_trajectory(ref15_cost, cfg, 0)
    t = res.trajectory
    it = t.iterations
    assert it[0] == 1  # the start point
    assert it.dtype == np.int64
    assert np.all(np.diff(it) > 0)
    # first five updates present at stride 1
    assert set(range(1, 7)).issubset(set(it.tolist()))
    # later samples on the stride grid (iteration k+1 after k%10 == 0 updates)
    late = it[(it > 6) & (it < it[-1])]
    assert np.all((late - 1) % 10 == 0)
    assert it[-1] == res.iterations + 1  # final iterate always recorded
    assert t.costs.shape == (len(it),)
    assert t.snapshots.shape == (len(it), 15)
    assert np.array_equal(t.snapshot_at(1), _run_start(ref15_cost, cfg, 0))  # run 0's


def test_trajectory_snapshot_lookup(ref15_cost):
    res = rerun_with_trajectory(ref15_cost, SolverConfig(seed=0), 0)
    t = res.trajectory
    assert np.array_equal(t.snapshot_at(1), t.snapshots[0])
    assert np.array_equal(t.snapshot_at(int(t.iterations[-1])), t.snapshots[-1])
    with pytest.raises(KeyError):
        t.snapshot_at(7)  # beyond the stride-1 prefix, off the stride grid


def test_trajectory_costs_match_cost_function(ref15_cost):
    res = rerun_with_trajectory(ref15_cost, SolverConfig(seed=1), 2)
    t = res.trajectory
    for i in range(len(t.iterations)):
        assert t.costs[i] == ref15_cost.cost(t.snapshots[i])


def sampled_stride(t) -> int:
    """The stride of `t`'s samples past the stride-1 head: the gap between
    the first two before the final iterate, or 1 with fewer of them."""
    late = t.iterations[6:-1]
    return int(late[1] - late[0]) if len(late) > 1 else 1


def assert_thinned_from(t, reference, iterations, budget):
    """`t` is a stride-1 run of `iterations` updates thinned to `budget`:
    the stride-1 head, the multiples of its stride, and the final
    iterate, each bitwise the reference's snapshot there."""
    s = sampled_stride(t)
    kept = sorted({1, 2, 3, 4, 5, 6, iterations + 1} | {k + 1 for k in range(s, iterations + 1, s)})
    kept = [it for it in kept if it <= iterations + 1]
    assert len(t.iterations) <= budget
    assert t.iterations.tolist() == kept
    assert s & (s - 1) == 0  # 1 doubled j times
    for it, cost, snap in zip(t.iterations, t.costs, t.snapshots):
        assert snap.tobytes() == reference.snapshot_at(int(it)).tobytes()
        assert _bits(cost) == _bits(reference.costs[int(it) - 1])


def test_trajectory_budget_thins_long_runs(monkeypatch, ref15_cost):
    # a capped stride-1 run three times longer than the snapshot budget
    monkeypatch.setattr(ec3.solver, "_RECORD_EVERY", 1)
    budget = ec3.solver._MAX_SNAPSHOTS
    cfg = SolverConfig(eta=1e-7, max_iters=3 * budget + 17)
    start = _run_start(ref15_cost, cfg, 0)
    reference = reference_run(ref15_cost, cfg, start, record=True).trajectory
    run = bsgd_run(ref15_cost, cfg, start, record=True)
    assert run.status == ITERATION_CAP
    assert sampled_stride(run.trajectory) == 4
    assert run.trajectory.iterations[:6].tolist() == [1, 2, 3, 4, 5, 6]
    assert run.trajectory.iterations[-1] == cfg.max_iters + 1
    assert_thinned_from(run.trajectory, reference, cfg.max_iters, budget)
    # the rows of a recording solve thin alike
    out = solve_with_restarts(ref15_cost, cfg, max_runs=3, record=True)
    assert_same_run(out.results[0], rerun_with_trajectory(ref15_cost, cfg, 0))
    assert [r.trajectory is None for r in out.results] == [False, True, True]


def test_trajectory_budget_at_every_run_length(monkeypatch, ref15_cost):
    # with a budget of 16, every cap from 1 to 120 updates: logs that fill
    # on a sampled step and on the final one
    monkeypatch.setattr(ec3.solver, "_MAX_SNAPSHOTS", 16)
    monkeypatch.setattr(ec3.solver, "_RECORD_EVERY", 1)
    longest = SolverConfig(eta=1e-7, max_iters=120)
    start = _run_start(ref15_cost, longest, 0)
    reference = reference_run(ref15_cost, longest, start, record=True).trajectory
    for cap in range(1, 121):
        cfg = replace(longest, max_iters=cap)
        assert_thinned_from(bsgd_run(ref15_cost, cfg, start, record=True).trajectory, reference, cap, 16)


def full_log_skips(k, budget):
    """Whether a stride-1 log of `budget` samples is full after k updates
    and did not sample the k-th."""
    kept, stride = [0], 1
    for step in range(1, k + 1):
        if step <= 5 or step % stride == 0:
            if len(kept) == budget:
                stride *= 2
                kept = [j for j in kept if j <= 5 or j % stride == 0]
            if step <= 5 or step % stride == 0:
                kept.append(step)
    return len(kept) == budget and kept[-1] != k


def test_batch_log_thins_for_rows_that_stop_apart(monkeypatch):
    # With a budget of 16 a batch's log thins many times. Scan (30, 13)
    # solver seeds for a first batch (14 rows) that wins after row 0, where
    # row 0 and the winner stop at different steps and the earlier of them
    # stops on a step the full log did not sample: once row 0 first, once
    # the winner first.
    monkeypatch.setattr(ec3.solver, "_MAX_SNAPSHOTS", 16)
    monkeypatch.setattr(ec3.solver, "_RECORD_EVERY", 1)
    f = CostFunction.from_instance(generate_instance(30, 13, 0))
    found = {}
    for seed in range(64):
        cfg = SolverConfig(seed=seed)
        out = solve_with_restarts(f, cfg, max_runs=14)
        if out.solved and out.winner_index > 0:
            first, win = out.results[0].iterations, out.winner.iterations
            if first != win and full_log_skips(min(first, win), 16):
                found.setdefault(first < win, cfg)
        if len(found) == 2:
            break
    else:
        pytest.fail(f"solver seeds 0..63 gave such batches only for {sorted(found)}")
    for cfg in found.values():
        out = assert_recorded_solve_matches_rerun(f, cfg, 14)
        for index in {0, out.winner_index}:
            run = out.results[index]
            reference = reference_run(f, cfg, _run_start(f, cfg, index), record=True)
            assert_thinned_from(run.trajectory, reference.trajectory, run.iterations, 16)


# --- restarts -----------------------------------------------------------------


def test_restarts_stop_at_first_success(ref15_cost):
    out = solve_with_restarts(ref15_cost, SolverConfig(seed=0), max_runs=5)
    assert out.solved
    assert out.winner_index == 0  # this instance falls on the first run
    assert out.stats.runs_attempted == out.winner_index + 1
    assert out.winner is out.results[out.winner_index]
    assert out.winner.status == SOLVED


def test_restarts_exhaust_budget_on_unsat(unsat4_cost):
    out = solve_with_restarts(unsat4_cost, SolverConfig(seed=0), max_runs=6)
    assert not out.solved
    assert out.winner is None and out.winner_index is None
    assert out.stats.runs_attempted == 6
    assert out.stats.successes == 0
    assert out.stats.q_hat == 0.0
    assert out.stats.n_s_hat is None and out.stats.sigma_hat is None


def batch_widths(monkeypatch):
    """The widths of the batches that solves descend, as they run."""
    widths = []

    def spy(f, config, starts, *args):
        widths.append(len(starts))
        return _descend(f, config, starts, *args)

    monkeypatch.setattr(ec3.solver, "_descend", spy)
    return widths


def test_restarts_double_the_width_after_each_failed_batch(monkeypatch):
    # at (1000, 250) the first batch is one row, then 2, then 4: scan solver
    # seeds for a win in the second batch (index 1..2) and one in the third
    # (index 3..6)
    widths = batch_widths(monkeypatch)
    f = CostFunction.from_instance(generate_instance(1000, 250, 4))
    found = {}
    for seed in range(40):
        cfg = SolverConfig(seed=seed)
        del widths[:]
        out = solve_with_restarts(f, cfg, max_runs=7)
        if out.solved and out.winner_index >= 1 and len(widths) not in found:
            found[len(widths)] = (cfg, widths[:])
        if len(found) == 2:
            break
    else:
        pytest.fail(f"solver seeds 0..39 won in batches {sorted(found)}, not in both 2 and 3")
    assert found[2][1] == [1, 2] and found[3][1] == [1, 2, 4]
    for cfg, _ in found.values():
        assert_solve_matches_reference(f, cfg, 7)
        assert assert_recorded_solve_matches_rerun(f, cfg, 7).winner_index >= 1


@pytest.mark.parametrize("widest, widths", [(16384, [1, 2, 4]), (48, [1, 2, 3, 1])])
def test_restarts_span_batches_on_unsat(monkeypatch, unsat4_cost, widest, widths):
    # unsat4 is 16 elements a row: a first batch of one row, then doubling
    # widths, capped at 3 rows by a budget of 48 elements
    monkeypatch.setattr(ec3.solver, "_BATCH_ELEMENTS", 16)
    monkeypatch.setattr(ec3.solver, "_MAX_BATCH_ELEMENTS", widest)
    seen = batch_widths(monkeypatch)
    out = assert_solve_matches_reference(unsat4_cost, SolverConfig(seed=2), 7)
    assert seen == widths
    assert out.stats.runs_attempted == 7 and not out.solved
    # unsolved: run 0 is the traced run, and later batches keep no trajectory
    assert_recorded_solve_matches_rerun(unsat4_cost, SolverConfig(seed=2), 7)


def test_solve_leaves_cost_function_unchanged():
    # the kernel's per-width index arrays live in the descent, not on F
    f = CostFunction.from_instance(generate_instance(100, 40, 1))
    before = pickle.dumps(f)
    out = solve_with_restarts(f, SolverConfig(seed=1000), max_runs=10)
    assert len({r.iterations for r in out.results}) > 1  # the batch narrowed
    rerun_with_trajectory(f, SolverConfig(seed=1000), 0)
    assert pickle.dumps(f) == before


def test_restarts_rerun_reproduces_winner(ref15_cost):
    cfg = SolverConfig(seed=3)
    out = solve_with_restarts(ref15_cost, cfg, max_runs=5)
    assert out.solved
    again = rerun_with_trajectory(ref15_cost, cfg, out.winner_index)
    assert again.status == out.winner.status
    assert np.array_equal(again.final_point, out.winner.final_point)
    assert again.trajectory is not None


def test_restarts_budget_validation(ref15_cost):
    with pytest.raises(ValueError):
        solve_with_restarts(ref15_cost, SolverConfig(), max_runs=0)


def test_rerun_rejects_negative_run_index(ref15_cost):
    with pytest.raises(ValueError, match="run_index"):
        rerun_with_trajectory(ref15_cost, SolverConfig(), -1)


# --- the batched engine against the reference, bit for bit --------------------


def test_engine_matches_reference_on_criterion_08_grid():
    # criterion 08's cells: N = 24, r = 0.30 … 0.90, budget 5, seeds as
    # phase_sweep derives them (batches of 5 rows)
    for i in range(13):
        m = clause_count_for_ratio(round(0.3 + 0.05 * i, 10), 24)
        for j in range(3):
            inst_seed = derive_run_seed(2024, (i << 32) | j)
            f = CostFunction.from_instance(generate_instance(24, m, inst_seed))
            assert_solve_matches_reference(f, SolverConfig(seed=mix64(inst_seed)), 5)


def test_engine_matches_reference_at_desk_scale():
    # criterion 06's (100, 40) panel, 10 runs in batches of 4
    for s in range(10):
        f = CostFunction.from_instance(generate_instance(100, 40, s))
        assert_solve_matches_reference(f, SolverConfig(seed=1000 + s), 10)


@pytest.mark.parametrize("m", [25, 250])
def test_engine_matches_reference_at_n1000(m):
    # r = 0.025 and r = 0.25; a batch of one row, then one of the last row
    for s in range(2):
        f = CostFunction.from_instance(generate_instance(1000, m, s))
        assert_solve_matches_reference(f, SolverConfig(seed=1000 + s), 2)


def test_engine_matches_reference_on_edge_runs(monkeypatch, unsat4_cost):
    monkeypatch.setattr(ec3.solver, "_RECORD_EVERY", 3)
    empty = CostFunction.from_instance(make_instance(3, np.zeros((0, 3), np.int32)))
    assert_solve_matches_reference(empty, SolverConfig(seed=4), 3)
    assert_solve_matches_reference(unsat4_cost, SolverConfig(seed=1), 6)
    capped = SolverConfig(seed=2, max_iters=7)
    f = CostFunction.from_instance(generate_instance(24, 18, 5))
    out = assert_solve_matches_reference(f, capped, 5)
    assert [r.status for r in out.results] == [ITERATION_CAP] * 5
    saddle = np.full(4, SADDLE_COORD)
    cases = [
        (unsat4_cost, SolverConfig(), saddle),
        (empty, SolverConfig(), np.array([0.2, 0.5, 0.9])),
        (f, capped, _run_start(f, capped, 0)),
    ]
    for cost, cfg, start in cases:
        for record in (False, True):
            assert_same_run(
                bsgd_run(cost, cfg, start, record=record),
                reference_run(cost, cfg, start, record=record),
            )


def test_engine_recorded_runs_match_reference(monkeypatch):
    monkeypatch.setattr(ec3.solver, "_RECORD_EVERY", 7)
    f = CostFunction.from_instance(generate_instance(100, 40, 1))
    cfg = SolverConfig(seed=3)
    for index in range(3):
        start = _run_start(f, cfg, index)
        assert_same_run(
            rerun_with_trajectory(f, cfg, index),
            reference_run(f, cfg, start, record=True),
        )


def test_engine_batch_whose_winner_is_not_row_zero():
    # Scan (30, 13) solver seeds for a batch of 8 rows that wins after row
    # 0, where a later row ends Solved before the winner does and live rows
    # are dropped: the rows before a success run on, and the engine still
    # reports exactly the reference's runs 0..w.
    f = CostFunction.from_instance(generate_instance(30, 13, 0))
    for seed in range(64):
        cfg = SolverConfig(seed=seed)
        starts = np.array([_run_start(f, cfg, i) for i in range(8)])
        results = _descend(f, cfg, starts)
        solved = [i for i, r in enumerate(results) if r is not None and r.status == SOLVED]
        if len(solved) >= 2 and solved[0] > 0 and None in results:
            break
    else:
        pytest.fail("no solver seed in 0..63 gives such a batch")
    winner, want = reference_solve(f, cfg, 8)
    assert winner == solved[0]
    for got, ref in zip(results[: winner + 1], want):
        assert_same_run(got, ref)
    out = assert_solve_matches_reference(f, cfg, 8)
    assert out.winner_index == winner
    assert_recorded_solve_matches_rerun(f, cfg, 8)


# --- restart statistics -------------------------------------------------------


@given(r=st.integers(1, 60), s=st.integers(0, 60))
@settings(max_examples=80, deadline=None)
def test_restart_stats_formulas(r, s):
    s = min(s, r)
    fake = [SimpleNamespace(status=SOLVED)] * s + [
        SimpleNamespace(status=CONVERGED_UNSOLVED)
    ] * (r - s)
    stats = RestartStats.from_runs(fake)
    assert stats.runs_attempted == r
    assert stats.successes == s
    assert stats.q_hat == s / r
    if s > 0:
        q = s / r
        assert stats.n_s_hat == pytest.approx(1 / q, rel=1e-15)
        assert stats.sigma_hat == pytest.approx(math.sqrt((1 - q) / q**2), rel=1e-14)
    else:
        assert stats.n_s_hat is None and stats.sigma_hat is None


# --- stopping rule ------------------------------------------------------------


def test_stopping_rule_reference_points():
    # q = 0.25, k = 11: 11/0.25 − 1 = 43 runs, bound 0.75/100.75
    rule = stopping_rule(0.25, 11.0)
    assert rule.required_runs == 43
    assert rule.failure_prob_bound == pytest.approx(0.75 / 100.75, rel=1e-15)
    # exact-integer quotient survives the float division
    assert stopping_rule(0.1, 11.0).required_runs == 109
    assert stopping_rule(0.5, 11.0).required_runs == 21
    assert stopping_rule(0.5, 11.0).failure_prob_bound == pytest.approx(0.5 / 100.5, rel=1e-15)


def test_stopping_rule_bound_below_one_percent_at_k11():
    for q in np.arange(0.1, 0.95, 0.05):
        assert stopping_rule(float(q), 11.0).failure_prob_bound < 0.01


def test_stopping_rule_validation():
    for q in (0.0, 1.0, -0.2, 1.5):
        with pytest.raises(ValueError):
            stopping_rule(q, 11.0)
    for k in (1.0, float("inf"), float("nan")):
        with pytest.raises(ValueError, match="k must"):
            stopping_rule(0.5, k)
    # k/q overflows: no finite run count
    with pytest.raises(ValueError):
        stopping_rule(1e-320, 11.0)


def test_geometric_trial_variance_identity():
    # variance of the geometric run count at q = 1/2 is (1−q)/q² = 2
    stats = RestartStats.from_runs(
        [SimpleNamespace(status=SOLVED), SimpleNamespace(status=CONVERGED_UNSOLVED)]
    )
    assert stats.sigma_hat**2 == pytest.approx(2.0, rel=1e-14)
