import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ec3 import (
    CostFunction,
    SolverConfig,
    check_assignment,
    clause_probability,
    generate_instance,
    harmonicity_defect,
    make_instance,
    vertex_point,
    vertex_spectrum_check,
)
from conftest import REF15_SOLUTION


def reference_cost(instance, x) -> float:
    """F by a gather of its own, summed as one 1-D array: the two-pass
    kernel that the fused batch kernel replaced, kept as its reference."""
    c = instance.clauses.astype(np.int64).reshape(-1, 3) - 1
    if len(c) == 0:
        return 0.0
    return float(clause_probability(x[c[:, 0]], x[c[:, 1]], x[c[:, 2]]).sum())


def reference_gradient(instance, x) -> np.ndarray:
    """∇F by a second gather and one bincount over the concatenated a-, b-
    and c-terms; the reference for the fused kernel's gradient."""
    c = instance.clauses.astype(np.int64).reshape(-1, 3) - 1
    if len(c) == 0:
        return np.zeros(instance.n_vars)
    ka, kb, kc = c[:, 0], c[:, 1], c[:, 2]
    xa, xb, xc = x[ka], x[kb], x[kc]
    terms = np.concatenate(
        [
            3.0 * xb * xc - xb - xc,
            3.0 * xa * xc - xa - xc,
            3.0 * xa * xb - xa - xb,
        ]
    )
    return np.bincount(np.concatenate([ka, kb, kc]), weights=terms, minlength=instance.n_vars)


def fd_gradient(f, x, h=1e-5):
    """Central-difference gradient, the numerical oracle for the analytic one."""
    g = np.empty(len(x))
    for j in range(len(x)):
        xp, xm = x.copy(), x.copy()
        xp[j] += h
        xm[j] -= h
        g[j] = (f.cost(xp) - f.cost(xm)) / (2 * h)
    return g


# --- single-clause probability ----------------------------------------------


def test_clause_probability_corner_cases():
    assert clause_probability(0.0, 0.0, 0.0) == 1.0  # all bits 1: violated
    assert clause_probability(1.0, 1.0, 0.0) == 0.0  # exactly one 1: satisfied
    assert clause_probability(1.0, 0.5, 0.5) == 0.5
    assert clause_probability(0.5, 0.5, 0.5) == 0.625  # 1 + 3/8 − 3/4


@given(
    x=st.floats(0, 1), y=st.floats(0, 1), z=st.floats(0, 1)
)
@settings(max_examples=100, deadline=None)
def test_clause_probability_range_and_symmetry(x, y, z):
    p = clause_probability(x, y, z)
    assert -1e-12 <= p <= 1 + 1e-12
    for perm in ((x, z, y), (y, x, z), (z, y, x)):
        assert clause_probability(*perm) == pytest.approx(p, abs=1e-12)


# --- cost -------------------------------------------------------------------


def test_cost_reference_values(ref15_cost):
    assert ref15_cost.cost(np.zeros(15)) == 8.0  # all z = 1: every clause fails
    assert ref15_cost.cost(np.full(15, 0.5)) == 5.0  # M · 5/8 at the center
    assert ref15_cost.cost(vertex_point(REF15_SOLUTION)) == 0.0


def test_cost_length_mismatch(ref15_cost):
    with pytest.raises(ValueError, match="shape"):
        ref15_cost.cost(np.zeros(14))


def test_cost_empty_instance():
    f = CostFunction.from_instance(make_instance(3, np.zeros((0, 3), np.int32)))
    assert f.cost(np.array([0.2, 0.5, 0.9])) == 0.0
    assert np.array_equal(f.gradient(np.array([0.2, 0.5, 0.9])), np.zeros(3))


def test_cost_invariant_under_clause_permutation():
    rng = np.random.default_rng(3)
    a = make_instance(6, [(1, 2, 3), (2, 4, 6)])
    b = make_instance(6, [(3, 1, 2), (6, 2, 4)])
    fa, fb = CostFunction.from_instance(a), CostFunction.from_instance(b)
    for _ in range(20):
        x = rng.uniform(0, 1, 6)
        assert fa.cost(x) == pytest.approx(fb.cost(x), abs=1e-14)


@given(seed=st.integers(0, 2**32 - 1), n=st.integers(3, 12), data=st.data())
@settings(max_examples=40, deadline=None)
def test_vertex_cost_counts_unsatisfied_clauses(seed, n, data):
    m = data.draw(st.integers(1, min(12, math.comb(n, 3))))
    inst = generate_instance(n, m, seed)
    f = CostFunction.from_instance(inst)
    rng = np.random.default_rng(seed ^ 0xABCDEF)
    for _ in range(20):
        z = rng.integers(0, 2, n).astype(np.uint8)
        chk = vertex_spectrum_check(f, z)
        assert chk.agree
        assert chk.cost_at_vertex == float(chk.unsat_count)  # zero tolerance
        assert chk.unsat_count == check_assignment(inst, z).unsatisfied_count


def test_interior_positivity_sampled(ref15_cost, unsat4_cost):
    rng = np.random.default_rng(0)
    for f in (ref15_cost, unsat4_cost):
        for _ in range(200):
            x = rng.uniform(1e-6, 1 - 1e-6, f.n_vars)
            assert f.cost(x) > 0.0


# --- gradient ---------------------------------------------------------------


def test_gradient_matches_finite_differences(ref15_cost):
    rng = np.random.default_rng(17)
    for _ in range(50):
        x = rng.uniform(0, 1, 15)
        g = ref15_cost.gradient(x)
        fd = fd_gradient(ref15_cost, x)
        assert np.allclose(g, fd, rtol=1e-6, atol=1e-9)


def test_gradient_at_center_is_quarter_degrees(ref15, ref15_cost):
    g = ref15_cost.gradient(np.full(15, 0.5))
    assert np.array_equal(g, -ref15.clause_degree / 4.0)  # exact in doubles


def test_gradient_vanishes_at_interior_saddle(ref15_cost, unsat4_cost):
    for f in (ref15_cost, unsat4_cost):
        g = f.gradient(np.full(f.n_vars, 2.0 / 3.0))
        assert np.max(np.abs(g)) == 0.0  # exactly stationary, not just small


def test_gradient_zero_degree_component_is_zero():
    inst = make_instance(5, [(1, 2, 3)])  # variables 4, 5 appear nowhere
    f = CostFunction.from_instance(inst)
    rng = np.random.default_rng(5)
    for _ in range(20):
        g = f.gradient(rng.uniform(-1, 2, 5))  # extended domain too
        assert g[3] == 0.0 and g[4] == 0.0


# --- the fused batch kernel ---------------------------------------------------


@pytest.mark.parametrize("n,m", [(24, 7), (24, 18), (100, 40), (1000, 25), (1000, 250), (60, 200)])
def test_batch_kernel_rows_bitwise_equal_reference(n, m):
    # M = 200 > 128 puts numpy's pairwise summation into its blocked branch
    rng = np.random.default_rng(n * 1000 + m)
    for s in range(3):
        inst = generate_instance(n, m, s)
        f = CostFunction.from_instance(inst)
        for width in (1, 2, 5, 10):
            X = rng.uniform(0, 1, (width, n))
            X[0] = rng.integers(0, 2, n)  # a vertex row
            F, G = f.cost_and_gradient(X)
            assert F.shape == (width,) and G.shape == (width, n)
            for b in range(width):
                want_f = reference_cost(inst, X[b])
                want_g = reference_gradient(inst, X[b])
                assert np.float64(F[b]).tobytes() == np.float64(want_f).tobytes()
                assert G[b].tobytes() == want_g.tobytes()
                assert f.cost(X[b]) == want_f
                assert f.gradient(X[b]).tobytes() == want_g.tobytes()


def test_batch_kernel_empty_instance_and_shape_check():
    f = CostFunction.from_instance(make_instance(3, np.zeros((0, 3), np.int32)))
    F, G = f.cost_and_gradient(np.full((2, 3), 0.5))
    assert F.dtype == G.dtype == np.float64
    assert np.array_equal(F, [0.0, 0.0]) and np.array_equal(G, np.zeros((2, 3)))
    with pytest.raises(ValueError, match="shape"):
        f.cost_and_gradient(np.zeros((2, 4)))
    with pytest.raises(ValueError, match="shape"):
        f.cost_and_gradient(np.zeros(3))


# --- second-order structure ---------------------------------------------------


def test_harmonicity_defect_small(ref15_cost):
    rng = np.random.default_rng(23)
    for _ in range(30):
        x = rng.uniform(0, 1, 15)
        d = harmonicity_defect(ref15_cost, x, h=1e-3)
        assert np.max(np.abs(d)) < 1e-6


def test_harmonicity_single_clause_center_exact():
    f = CostFunction.from_instance(make_instance(3, [(1, 2, 3)]))
    d = harmonicity_defect(f, np.full(3, 0.5), h=1e-3)
    assert np.max(np.abs(d)) == 0.0


def test_harmonicity_rejects_bad_step(ref15_cost):
    with pytest.raises(ValueError, match="positive"):
        harmonicity_defect(ref15_cost, np.full(15, 0.5), h=0.0)


def test_hessian_diagonal_zero_offdiagonal_matches_fd(ref15_cost):
    rng = np.random.default_rng(29)
    x = rng.uniform(0, 1, 15)
    h = ref15_cost.hessian(x)
    assert np.array_equal(np.diag(h), np.zeros(15))
    assert np.allclose(h, h.T, atol=0)
    # numerical cross-derivative check on a few entries
    eps = 1e-5
    for j, k in [(5, 2), (14, 4), (6, 12), (0, 1)]:
        xpp, xpm, xmp, xmm = (x.copy() for _ in range(4))
        xpp[j] += eps; xpp[k] += eps
        xpm[j] += eps; xpm[k] -= eps
        xmp[j] -= eps; xmp[k] += eps
        xmm[j] -= eps; xmm[k] -= eps
        fd = (ref15_cost.cost(xpp) - ref15_cost.cost(xpm) - ref15_cost.cost(xmp) + ref15_cost.cost(xmm)) / (4 * eps * eps)
        assert h[j, k] == pytest.approx(fd, abs=1e-4)


@pytest.mark.parametrize("n, m", [(24, 16), (24, 22), (100, 40)])
def test_hessian_rows_are_bounded_by_four_times_the_degree(n, m):
    # each clause of x_k adds 3·x_b − 1 ∈ [−1, 2] to two entries of row k, so
    # by Gershgorin ∇F is Lipschitz with L ≤ 4·C_max, at any point of the cube
    rng = np.random.default_rng(1000 + m)
    for seed in range(10, 20):
        inst = generate_instance(n, m, seed)
        f = CostFunction.from_instance(inst)
        bound = 4 * int(inst.clause_degree.max())
        points = np.vstack([rng.uniform(0, 1, (5, n)), rng.integers(0, 2, (5, n))])
        for x in points:
            assert np.abs(f.hessian(x)).sum(axis=1).max() <= bound


def test_default_step_is_within_the_descent_lemma():
    # projected descent keeps F non-increasing for eta ≤ 1/L ≤ 1/(4·C_max);
    # the default step claims that guarantee for every C_max ≤ 12
    assert 4 * 12 * SolverConfig.eta <= 1
