"""EC3 (positive 1-in-3 SAT) via a harmonic cost relaxation.

The clause set becomes a multilinear cost F over the unit hypercube whose
vertices count unsatisfied clauses; small-step projected gradient descent
with random restarts searches for a zero-cost vertex. See the individual
modules: instance (problem representation and exact oracle), cost (F and its
gradient), solver (descent and restart statistics), flows (trajectory
families and ratio sweeps), cli (command-line surface).
"""

from .cost import (
    CostFunction,
    clause_probability,
    harmonicity_defect,
    vertex_point,
    vertex_spectrum_check,
)
from .flows import (
    FAMILIES,
    SlopeCheck,
    SweepReport,
    SweepRow,
    classify_flows,
    clause_count_for_ratio,
    initial_slope_check,
    phase_sweep,
    r_star_estimate,
    slope_spectrum,
    write_labels_csv,
    write_sweep_csv,
    write_trajectory_csv,
)
from .instance import (
    ORACLE_CAP,
    CheckResult,
    Instance,
    OracleResult,
    brute_force_oracle,
    check_assignment,
    emit_assignment,
    emit_instance,
    generate_instance,
    make_instance,
    parse_assignment,
    parse_instance,
)
from .solver import (
    CONVERGED_UNSOLVED,
    ITERATION_CAP,
    SADDLE_COORD,
    SOLVED,
    RestartStats,
    RunResult,
    SolveOutcome,
    SolverConfig,
    StoppingRule,
    Trajectory,
    bsgd_run,
    derive_run_seed,
    mix64,
    rerun_with_trajectory,
    restart_start,
    round_point,
    sample_start,
    solve_with_restarts,
    stopping_rule,
)

__version__ = "0.1.0"
