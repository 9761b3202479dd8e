import io
from dataclasses import replace

import numpy as np
import pytest

from ec3 import (
    FAMILIES,
    ClassifierConfig,
    CostFunction,
    SolverConfig,
    SweepReport,
    SweepRow,
    Trajectory,
    bsgd_run,
    classify_flows,
    clause_count_for_ratio,
    derive_run_seed,
    generate_instance,
    initial_slope_check,
    make_instance,
    mix64,
    phase_sweep,
    r_star_estimate,
    rerun_with_trajectory,
    slope_spectrum,
    solve_with_restarts,
    write_labels_csv,
    write_sweep_csv,
    write_trajectory_csv,
)
import ec3.flows
from ec3.flows import _g17

T = 100  # snapshot count for the synthetic flows below


def synth(columns, stride=10):
    """Trajectory from per-variable coordinate histories (lists of length T)."""
    s = np.column_stack([np.asarray(c, dtype=float) for c in columns])
    t = s.shape[0]
    return Trajectory(
        iterations=np.arange(1, t + 1, dtype=np.int64),
        costs=np.zeros(t),
        snapshots=s,
        stride=stride,
    )


def ramp(a, b, n):
    return np.linspace(a, b, n)


# hand-built exemplars, one per family
def flow_I():
    # fast saturating rise: passes the 2/3 band in ~2 snapshots, no plateau
    return 1.0 - 0.5 * np.exp(-np.arange(T) / 8.0)


def flow_II(end):
    up = ramp(0.5, 2 / 3, 20)
    dwell = np.full(30, 2 / 3)
    out = ramp(2 / 3, end, 50)
    return np.concatenate([up, dwell, out])


def flow_III(end):
    out_and_back = np.concatenate([ramp(0.5, 0.62, 10), ramp(0.62, 0.5, 10)])
    dwell = np.full(25, 0.5)
    commit = ramp(0.5, end, 55)
    return np.concatenate([out_and_back, dwell, commit])


def flow_IV():
    # rises clear of the start band but short of 0.6, then collapses fast
    return np.concatenate([ramp(0.5, 0.58, 10), ramp(0.58, 0.0, 5), np.zeros(85)])


def flow_V():
    return np.full(T, 0.5)


def flow_irregular():
    return 0.5 + 0.3 * np.sin(np.arange(T))  # oscillates, commits to nothing


def test_classifier_labels_canonical_shapes():
    t = synth(
        [
            flow_I(),
            flow_II(1.0),
            flow_II(0.0),
            flow_III(1.0),
            flow_III(0.0),
            flow_IV(),
            flow_V(),
            flow_irregular(),
        ]
    )
    labels = classify_flows(t)
    assert labels.tolist() == [
        "I",
        "II-up",
        "II-down",
        "III-up",
        "III-down",
        "IV",
        "V",
        "Irregular",
    ]
    assert set(labels) <= set(FAMILIES)


def test_classifier_stationary_tolerance():
    jitter = np.full(T, 0.5)
    jitter[40] += 1e-13  # below stationary_tol: still V
    moved = np.full(T, 0.5)
    moved[40] += 1e-6  # above it, and nothing else happens: Irregular
    labels = classify_flows(synth([jitter, moved]))
    assert labels.tolist() == ["V", "Irregular"]


def test_classifier_splitting_beats_plateau():
    # a flow that dwells near 2/3 on its way out but then returns to 1/2 and
    # splits must be III, not II — the return to the half band is decisive
    col = np.concatenate(
        [ramp(0.5, 2 / 3, 10), np.full(15, 2 / 3), ramp(2 / 3, 0.5, 10), np.full(20, 0.5), ramp(0.5, 1.0, 45)]
    )
    assert classify_flows(synth([col])).tolist() == ["III-up"]


def test_classifier_needs_three_snapshots():
    with pytest.raises(ValueError, match="3 snapshots"):
        classify_flows(synth([[0.5, 0.6]]))


def test_classifier_thresholds_are_adjustable():
    # with a huge stationary tolerance everything is V
    cfg = ClassifierConfig(stationary_tol=10.0)
    t = synth([flow_I(), flow_IV(), flow_irregular()])
    assert classify_flows(t, cfg).tolist() == ["V", "V", "V"]


# --- starting-slope law -------------------------------------------------------


def center_run(f, eta=0.005):
    cfg = SolverConfig(eta=eta, max_iters=30, record_every=10)
    return bsgd_run(f, cfg, np.full(f.n_vars, 0.5), record=True)


def test_initial_slope_check_from_exact_center(ref15, ref15_cost):
    res = center_run(ref15_cost)
    chk = initial_slope_check(res.trajectory, 0.005, ref15.clause_degree)
    assert bool(np.all(chk.ok))
    assert np.array_equal(chk.predicted, 0.005 * ref15.clause_degree / 4.0)
    # the applied update is exact from the center; snapshot storage may cost
    # a rounding of order 1e-14 relative, far inside the 0.1·η acceptance
    assert np.max(np.abs(chk.observed - chk.predicted)) < 1e-13 * 0.005


def test_initial_slope_zero_degree_is_exactly_zero():
    inst = make_instance(4, [(1, 2, 3)])  # variable 4 untouched
    f = CostFunction.from_instance(inst)
    res = center_run(f)
    chk = initial_slope_check(res.trajectory, 0.005, inst.clause_degree)
    assert chk.observed[3] == 0.0
    assert chk.predicted[3] == 0.0


def test_initial_slope_requires_early_snapshots():
    t = Trajectory(np.array([1, 50, 100]), np.zeros(3), np.full((3, 2), 0.5), 50)
    with pytest.raises(ValueError, match="early snapshots"):
        initial_slope_check(t, 0.005, [1, 1])
    with pytest.raises(ValueError, match="early snapshots"):
        slope_spectrum(t, 0.005)


def test_slope_spectrum_is_discrete(ref15, ref15_cost):
    res = center_run(ref15_cost)
    spectrum = slope_spectrum(res.trajectory, 0.005)
    # clusters on the integers C_k with at worst storage-rounding error
    assert np.max(np.abs(spectrum - ref15.clause_degree)) < 1e-9
    assert np.array_equal(np.round(spectrum).astype(int), ref15.clause_degree)


# --- ratio sweep --------------------------------------------------------------


def test_clause_count_rounds_half_up():
    assert clause_count_for_ratio(0.5, 5) == 3   # 2.5 → 3
    assert clause_count_for_ratio(0.3, 5) == 2   # 1.5 → 2
    assert clause_count_for_ratio(0.25, 12) == 3
    assert clause_count_for_ratio(0.62, 100) == 62


def test_phase_sweep_small_grid():
    cfg = SolverConfig(seed=0)
    rep = phase_sweep(12, [0.25, 0.5], 3, cfg, run_budget=3, base_seed=5)
    assert rep.r_grid == [0.25, 0.5]
    for row, m in zip(rep.rows, (3, 6)):
        assert row.n_clauses == m
        assert row.instances == 3
        assert 0.0 <= row.solver_success_frac <= 1.0
        assert row.oracle_sat_frac is not None  # N=12 is within the oracle cap
        assert 0.0 <= row.oracle_sat_frac <= 1.0
        if row.mean_runs_to_success is not None:
            assert row.mean_runs_to_success >= 1.0
        # each solved instance contributes exactly N flow labels
        n_solved = round(row.solver_success_frac * row.instances)
        assert sum(row.flow_counts.values()) == 12 * n_solved
        assert set(row.flow_counts) <= set(FAMILIES)


def test_phase_sweep_worker_invariance():
    cfg = SolverConfig(seed=0)
    kw = dict(instances_per_r=3, config=cfg, run_budget=3, base_seed=5)
    a, b = (phase_sweep(12, [0.25, 0.5], workers=w, **kw) for w in (1, 2))
    sa, sb = io.StringIO(), io.StringIO()
    write_sweep_csv(a, sa)
    write_sweep_csv(b, sb)
    assert sa.getvalue() == sb.getvalue()
    for ra, rb in zip(a.rows, b.rows):
        assert ra.flow_counts == rb.flow_counts


def test_phase_sweep_pool_is_bounded_by_its_cells(monkeypatch):
    # a fork-started pool forks all its workers at once: a sweep of 2 cells
    # asks for 2, whatever the worker count, and 1 cell runs in-process
    pools = []

    class SerialPool:
        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize=1):
            return map(fn, items)

    monkeypatch.setattr(ec3.flows, "ProcessPoolExecutor", SerialPool)
    cfg = SolverConfig(seed=0)
    kw = dict(config=cfg, run_budget=2, base_seed=5)
    serial = phase_sweep(12, [0.25, 0.5], 1, workers=1, **kw)
    assert pools == []
    pooled = phase_sweep(12, [0.25, 0.5], 1, workers=10**6, **kw)
    assert pools == [2]
    assert pooled == serial
    phase_sweep(12, [0.25], 1, workers=10**6, **kw)
    assert pools == [2]


def reference_flow_counts(n_vars, r_grid, instances_per_r, config, run_budget, base_seed):
    """Per-ratio flow-family counts the way sweeps once made them: solve
    each cell without recording, then descend the winner again with
    `rerun_with_trajectory` and classify that."""
    rows = []
    for i, r in enumerate(r_grid):
        counts = {}
        for j in range(instances_per_r):
            inst_seed = derive_run_seed(base_seed, (i << 32) | j)
            cfg = replace(config, seed=mix64(inst_seed))
            f = CostFunction.from_instance(
                generate_instance(n_vars, clause_count_for_ratio(r, n_vars), inst_seed)
            )
            out = solve_with_restarts(f, cfg, run_budget)
            if out.solved:
                rerun = rerun_with_trajectory(f, cfg, out.winner_index)
                for lbl in classify_flows(rerun.trajectory):
                    counts[lbl] = counts.get(lbl, 0) + 1
        rows.append(counts)
    return rows


@pytest.mark.parametrize("n_vars, grid", [(24, [0.3, 0.5, 0.7, 0.9]), (100, [0.2, 0.4])])
def test_phase_sweep_flow_counts_match_rerun(n_vars, grid):
    cfg = SolverConfig(record_every=3)
    rep = phase_sweep(n_vars, grid, 6, cfg, run_budget=4, base_seed=11, use_oracle=False)
    want = reference_flow_counts(n_vars, grid, 6, cfg, 4, 11)
    assert [row.flow_counts for row in rep.rows] == want
    assert any(want)  # some cell solved and was classified


def test_phase_sweep_grid_validation():
    cfg = SolverConfig(seed=0)
    with pytest.raises(ValueError, match="empty"):
        phase_sweep(12, [], 2, cfg, 2, 0)
    with pytest.raises(ValueError, match="outside"):
        phase_sweep(12, [1.5], 2, cfg, 2, 0)
    with pytest.raises(ValueError, match="no clauses"):
        phase_sweep(12, [0.01], 2, cfg, 2, 0)
    with pytest.raises(ValueError, match="too few"):
        phase_sweep(3, [1.0], 2, cfg, 2, 0)  # M = 3 exceeds C(3,3) = 1
    with pytest.raises(ValueError):
        phase_sweep(12, [0.5], 0, cfg, 2, 0)
    with pytest.raises(ValueError):
        phase_sweep(12, [0.5], 2, cfg, 0, 0)
    for workers in (0, -3):
        with pytest.raises(ValueError, match="workers"):
            phase_sweep(12, [0.5], 2, cfg, 2, 0, workers=workers)


def test_r_star_interpolation():
    def rep(pairs):
        rows = [
            SweepRow(r, 0, 24, 4, 1.0, s, None) for r, s in pairs
        ]
        return SweepReport(rows)

    assert r_star_estimate(rep([(0.5, 0.8), (0.6, 0.4)])) == pytest.approx(0.575)
    assert r_star_estimate(rep([(0.4, 1.0), (0.5, 0.5), (0.6, 0.0)])) == pytest.approx(0.5)
    assert r_star_estimate(rep([(0.4, 0.9), (0.5, 0.8)])) is None  # no crossing
    assert r_star_estimate(rep([(0.5, 0.5), (0.6, 0.5)])) == 0.5  # flat tie → left edge
    assert r_star_estimate(SweepReport([])) is None
    no_oracle = SweepReport([SweepRow(0.5, 12, 24, 4, 1.0, None, None)])
    assert r_star_estimate(no_oracle) is None


# --- CSV emission -------------------------------------------------------------


def test_trajectory_csv_golden():
    t = Trajectory(
        np.array([1, 2], dtype=np.int64),
        np.array([2.5, 0.125]),
        np.array([[0.5, 0.25], [1.0 / 3.0, 1.0]]),
        stride=10,
    )
    buf = io.StringIO()
    write_trajectory_csv(t, buf)
    assert buf.getvalue() == (
        "iter,F,x1,x2\n"
        "1,2.5,0.5,0.25\n"
        "2,0.125,0.33333333333333331,1\n"
    )


def reference_trajectory_csv(trajectory, fh):
    """The per-value writer: every snapshot value formatted where it
    stands. `write_trajectory_csv` must write exactly these bytes."""
    n = trajectory.snapshots.shape[1]
    fh.write("iter,F," + ",".join(f"x{i + 1}" for i in range(n)) + "\n")
    for it, cost, snap in zip(trajectory.iterations, trajectory.costs, trajectory.snapshots):
        fh.write(f"{int(it)},{_g17(cost)}," + ",".join(_g17(v) for v in snap) + "\n")


def assert_trajectory_csv_matches_reference(t):
    got, want = io.StringIO(), io.StringIO()
    write_trajectory_csv(t, got)
    reference_trajectory_csv(t, want)
    assert got.getvalue() == want.getvalue()


@pytest.mark.parametrize("r", [0.025, 0.25])
def test_trajectory_csv_matches_reference_at_n1000(r):
    # the trajectories that `ec3 trace` writes at N = 1000
    f = CostFunction.from_instance(generate_instance(1000, clause_count_for_ratio(r, 1000), 3))
    assert_trajectory_csv_matches_reference(rerun_with_trajectory(f, SolverConfig(seed=3), 0).trajectory)


def test_trajectory_csv_keeps_signed_zeros_and_nans_apart():
    # one NaN with a payload; as floats, np.unique would merge -0.0 with
    # 0.0 and could merge the NaNs
    payload_nan = np.array([0x7FF8000000000001], dtype=np.uint64).view(np.float64)[0]
    snaps = np.array([[0.0, -0.0, np.nan, payload_nan], [np.inf, -np.inf, -0.0, 1.0 / 3.0]])
    t = Trajectory(np.array([1, 2], dtype=np.int64), np.array([1.0, -0.0]), snaps, 1)
    assert_trajectory_csv_matches_reference(t)
    empty = Trajectory(np.array([1], dtype=np.int64), np.ones(1), np.zeros((1, 0)), 1)
    assert_trajectory_csv_matches_reference(empty)


def test_labels_csv_golden():
    buf = io.StringIO()
    write_labels_csv(["I", "V"], np.array([3, 0]), buf)
    assert buf.getvalue() == "var,C_k,label\n1,3,I\n2,0,V\n"


def test_sweep_csv_golden():
    rows = [
        SweepRow(0.5, 6, 12, 4, 0.75, 1.0, 1.5),
        SweepRow(0.75, 9, 12, 4, 0.0, None, None),
    ]
    buf = io.StringIO()
    write_sweep_csv(SweepReport(rows), buf)
    assert buf.getvalue() == (
        "r,M,N,instances,solver_success_frac,oracle_sat_frac,mean_runs_to_success\n"
        "0.5,6,12,4,0.75,1,1.5\n"
        "0.75,9,12,4,0,nan,nan\n"
    )
