import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ec3 import (
    brute_force_oracle,
    check_assignment,
    clause_count_for_ratio,
    emit_assignment,
    emit_instance,
    generate_instance,
    make_instance,
    parse_assignment,
    parse_instance,
)
from conftest import REF15_SOLUTION


def slow_oracle(n_vars, clauses):
    """Independent reference: enumerate assignment indices with plain
    Python (bit v of index a is z_{v+1}, the same order the packed oracle
    scans)."""
    count = 0
    witness = None
    for a in range(2**n_vars):
        z = [(a >> v) & 1 for v in range(n_vars)]
        if all(z[k - 1] + z[m - 1] + z[j - 1] == 1 for k, m, j in clauses):
            count += 1
            if witness is None:
                witness = z
    return witness, count


_WORD = np.uint64(0xFFFFFFFFFFFFFFFF)

# Truth pattern of variable v (v < 6) across the 64 assignments packed in one
# word: bit s of pattern v equals bit v of the slot index s.
_LOW_BIT_PATTERNS = np.array(
    [
        0xAAAAAAAAAAAAAAAA,
        0xCCCCCCCCCCCCCCCC,
        0xF0F0F0F0F0F0F0F0,
        0xFF00FF00FF00FF00,
        0xFFFF0000FFFF0000,
        0xFFFFFFFF00000000,
    ],
    dtype=np.uint64,
)


def bitsliced_oracle(instance):
    """Independent reference at sizes slow_oracle cannot reach: enumerate
    all 2^N assignments 64 at a time. Assignment index a (bit v of a is
    z_{v+1}) maps to slot a%64 of word a//64, and each clause's exactly-one
    condition is a bitwise expression over variable truth patterns. Returns
    the lowest-index satisfying assignment (or None) and the model count."""
    n = instance.n_vars
    cls0 = instance.clauses.astype(np.int64) - 1
    n_words = 1 << max(0, n - 6)
    chunk = min(n_words, 1 << 16)
    count = 0
    first_index = None

    def patterns(var, word_idx):
        if var < 6:
            return np.broadcast_to(_LOW_BIT_PATTERNS[var], word_idx.shape)
        bit = (word_idx >> np.uint64(var - 6)) & np.uint64(1)
        return np.where(bit.astype(bool), _WORD, np.uint64(0))

    for base in range(0, n_words, chunk):
        words = np.arange(base, min(base + chunk, n_words), dtype=np.uint64)
        sat = np.full(words.shape, _WORD, dtype=np.uint64)
        for k, m, j in cls0:
            pk = patterns(int(k), words)
            pm = patterns(int(m), words)
            pj = patterns(int(j), words)
            sat &= (pk ^ pm ^ pj) & ~((pk & pm) | (pm & pj) | (pk & pj))
        if n < 6:
            sat &= np.uint64((1 << (1 << n)) - 1)  # only 2^n slots are real
        count += int(np.bitwise_count(sat).sum())
        if first_index is None:
            nz = np.flatnonzero(sat)
            if nz.size:
                w = int(sat[nz[0]])
                slot = (w & -w).bit_length() - 1
                first_index = (base + int(nz[0])) * 64 + slot

    if first_index is None:
        return None, 0
    return [(first_index >> v) & 1 for v in range(n)], count


# --- parsing ---------------------------------------------------------------


def test_parse_round_trip(ref15):
    text = emit_instance(ref15, comments=["round trip"])
    back = parse_instance(text)
    assert back.n_vars == ref15.n_vars
    assert np.array_equal(back.clauses, ref15.clauses)
    assert np.array_equal(back.clause_degree, ref15.clause_degree)


def test_parse_minimal():
    inst = parse_instance("p ec3 3 1\n1 2 3\n")
    assert inst.n_vars == 3 and inst.n_clauses == 1
    assert inst.clause_degree.tolist() == [1, 1, 1]
    assert inst.clause_degree.dtype == np.int64


def test_parse_accepts_comments_anywhere():
    inst = parse_instance("c top\np ec3 4 2\nc middle\n1 2 3\n2 3 4\nc tail\n")
    assert inst.n_clauses == 2


def test_parse_rejects_bad_header():
    with pytest.raises(ValueError, match="header"):
        parse_instance("p cnf 3 1\n1 2 3\n")
    with pytest.raises(ValueError, match="header"):
        parse_instance("1 2 3\n")


def test_parse_rejects_out_of_range_index():
    with pytest.raises(ValueError, match="out of range"):
        parse_instance("p ec3 3 1\n1 2 4\n")


@pytest.mark.parametrize("index", [3_000_000_000, -3_000_000_000, 10**30])
def test_index_outside_int32_is_out_of_range(index):
    # the range check comes before the int32 cast, which would overflow
    with pytest.raises(ValueError, match="out of range"):
        parse_instance(f"p ec3 3 1\n1 2 {index}\n")
    with pytest.raises(ValueError, match="out of range"):
        make_instance(3, [[1, 2, index]])


@pytest.mark.parametrize(
    "build, message",
    [
        pytest.param(lambda: parse_instance("p ec3 x 1\n1 2 3\n"), "non-integer N/M in header", id="header-n"),
        pytest.param(lambda: parse_instance("p ec3 0 0\n"), "bad sizes in header", id="header-zero-n"),
        pytest.param(lambda: parse_instance("p ec3 3 -1\n"), "bad sizes in header", id="header-negative-m"),
        pytest.param(lambda: parse_instance("p ec3 3 1\n1 2\n"), "expected 3 indices", id="clause-of-2"),
        pytest.param(lambda: parse_instance("p ec3 4 1\n1 2 3 4\n"), "expected 3 indices", id="clause-of-4"),
        pytest.param(lambda: parse_instance("p ec3 3 1\n1 2 x\n"), "non-integer index", id="clause-index"),
        pytest.param(lambda: parse_instance("c only\nc comments\n"), "missing 'p ec3 <N> <M>' header", id="no-header"),
        pytest.param(lambda: make_instance(0, []), "n_vars must be >= 1", id="make-zero-n"),
        pytest.param(lambda: make_instance(3, [[1, 2]]), r"\(M, 3\) array", id="make-shape"),
        # the int32 cast would truncate it to clause (1, 2, 3)
        pytest.param(lambda: make_instance(3, [[1.5, 2, 3]]), "must be integers", id="make-fractional"),
        # N is bounded by the int32 index range, checked before any allocation
        pytest.param(
            lambda: parse_instance("p ec3 99999999999999999999999 0\n"),
            "exceeds the int32 index range",
            id="header-oversized-n",
        ),
        pytest.param(lambda: make_instance(2**31, []), "exceeds the int32 index range", id="make-oversized-n"),
        pytest.param(
            lambda: generate_instance(10**23, 1, 0), "exceeds the int32 index range", id="generate-oversized-n"
        ),
        # numpy's own message would name no argument
        pytest.param(lambda: generate_instance(24, 12, -1), r"^seed must be >= 0, got -1$", id="generate-negative-seed"),
        # beyond the 4300 digits int() and str() take, the message a 30-digit
        # value gets, with no value printed
        pytest.param(
            lambda: parse_instance("p ec3 3 1\n1 2 " + "9" * 5000 + "\n"),
            r"^variable index out of range \[1, 3\]$",
            id="clause-5000-digits",
        ),
        pytest.param(
            lambda: parse_instance("p ec3 " + "9" * 5000 + " 0\n"),
            r"^n_vars=\(over 100 digits\) exceeds the int32 index range",
            id="header-5000-digit-n",
        ),
        pytest.param(
            lambda: parse_instance("p ec3 3 " + "9" * 5000 + "\n1 2 3\n"),
            r"^header promises \(over 100 digits\) clauses, file contains 1$",
            id="header-5000-digit-m",
        ),
        pytest.param(lambda: make_instance(-(10**5000), []), r"got \(over 100 digits\)$", id="make-5000-digit-n"),
        # an integer is an optional '-' and ASCII digits, nothing else
        pytest.param(lambda: parse_instance("p ec3 +3 0\n"), "non-integer N/M in header", id="header-plus"),
        pytest.param(lambda: parse_instance("p ec3 3 1\n+1 2 \u0663\n"), "non-integer index", id="clause-plus-arabic"),
        pytest.param(lambda: parse_instance("p ec3 10 1\n1 2 1_0\n"), "non-integer index", id="clause-underscore"),
        pytest.param(lambda: parse_instance("p ec3 3 1\n-1 2 3\n"), "out of range", id="clause-negative"),
        # plain values, not numpy reprs
        pytest.param(
            lambda: parse_instance("p ec3 3 1\n1 1 3\n"), r"repeats a variable: \(1, 1, 3\)$", id="repeat-plain"
        ),
    ],
)
def test_instance_error_messages(build, message):
    with pytest.raises(ValueError, match=message):
        build()


def test_leading_zeros_do_not_count_as_digits():
    inst = parse_instance("p ec3 " + "0" * 5000 + "3 1\n1 2 " + "0" * 5000 + "3\n")
    assert inst.n_vars == 3 and inst.clauses.tolist() == [[1, 2, 3]]
    with pytest.raises(ValueError, match="out of range"):
        parse_instance("p ec3 3 1\n1 2 -" + "0" * 5000 + "1\n")


def test_make_instance_copies_its_input():
    a = np.array([[1, 2, 3]], dtype=np.int32)
    inst = make_instance(3, a)
    assert a.flags.writeable
    assert inst.clauses is not a
    assert not inst.clauses.flags.writeable


def test_parse_rejects_repeated_index_within_clause():
    with pytest.raises(ValueError, match="repeats"):
        parse_instance("p ec3 3 1\n1 1 3\n")


def test_parse_rejects_clause_count_mismatch():
    with pytest.raises(ValueError, match="promises"):
        parse_instance("p ec3 4 3\n1 2 3\n2 3 4\n")
    with pytest.raises(ValueError, match="promises"):
        parse_instance("p ec3 4 1\n1 2 3\n2 3 4\n")


def test_parse_warns_on_duplicate_clause():
    with pytest.warns(UserWarning, match="duplicate clause"):
        inst = parse_instance("p ec3 4 2\n1 2 3\n3 2 1\n")
    assert inst.n_clauses == 2  # accepted, just noisy
    # the clauses sit on file lines 3 and 4; the warning counts clauses
    with pytest.warns(UserWarning, match=r"duplicate clause \(1, 2, 3\) \(clauses 1 and 2\)"):
        parse_instance("c x\np ec3 4 2\n1 2 3\n3 2 1\n")


def test_assignment_file_round_trip():
    z = np.array([1, 0, 1, 0], dtype=np.uint8)
    assert np.array_equal(parse_assignment(emit_assignment(z), 4), z)
    with pytest.raises(ValueError, match="values"):
        parse_assignment("1 0 1", 4)
    with pytest.raises(ValueError, match="0 or 1"):
        parse_assignment("1 0 2 0", 4)


# --- generation ------------------------------------------------------------


def test_generate_is_deterministic():
    a = generate_instance(20, 12, seed=7)
    b = generate_instance(20, 12, seed=7)
    assert np.array_equal(a.clauses, b.clauses)
    c = generate_instance(20, 12, seed=8)
    assert not np.array_equal(a.clauses, c.clauses)


def test_generate_forced_single_triple():
    inst = generate_instance(3, 1, seed=0)
    assert sorted(inst.clauses[0].tolist()) == [1, 2, 3]


def test_generate_rejects_infeasible():
    with pytest.raises(ValueError, match="distinct clauses"):
        generate_instance(3, 2, seed=0)
    with pytest.raises(ValueError, match="n_vars"):
        generate_instance(2, 1, seed=0)
    with pytest.raises(ValueError, match="n_clauses must be >= 0"):
        generate_instance(10, -5, seed=1)


@given(n=st.integers(4, 16), seed=st.integers(0, 2**32 - 1), data=st.data())
@settings(max_examples=40, deadline=None)
def test_generate_invariants(n, seed, data):
    m = data.draw(st.integers(1, min(20, math.comb(n, 3))))
    inst = generate_instance(n, m, seed)
    assert inst.n_clauses == m
    # distinct indices per clause, all in range
    for row in inst.clauses:
        assert len(set(row.tolist())) == 3
        assert 1 <= row.min() and row.max() <= n
    # no duplicate clauses as unordered triples
    keys = {frozenset(row.tolist()) for row in inst.clauses}
    assert len(keys) == m
    assert int(inst.clause_degree.sum()) == 3 * m


# --- checking --------------------------------------------------------------


def test_check_known_solution(ref15):
    res = check_assignment(ref15, REF15_SOLUTION)
    assert res.satisfied and res.unsatisfied_count == 0


def test_check_all_zeros_and_all_ones(ref15):
    # every clause sums to 0 (or 3): nothing is satisfied
    assert check_assignment(ref15, np.zeros(15, np.uint8)).unsatisfied_count == 8
    assert check_assignment(ref15, np.ones(15, np.uint8)).unsatisfied_count == 8


def test_check_length_mismatch(ref15):
    with pytest.raises(ValueError, match="length"):
        check_assignment(ref15, np.zeros(14, np.uint8))
    # values that are not bits: [2, -1, 0] sums to 1, and 0.5 truncated to 0
    for z in ([2, -1, 0], [0.5, 0.5, 0]):
        with pytest.raises(ValueError, match="assignment values must be 0 or 1"):
            check_assignment(make_instance(3, [[1, 2, 3]]), np.array(z))


# --- exact oracle ----------------------------------------------------------


def test_oracle_ref15(ref15):
    res = brute_force_oracle(ref15)
    assert res.satisfiable
    assert res.n_solutions == 30  # exact enumeration, frozen
    assert check_assignment(ref15, res.witness).satisfied
    # the reference solution is among the satisfying assignments
    assert check_assignment(ref15, REF15_SOLUTION).satisfied


def test_oracle_unsat4(unsat4):
    res = brute_force_oracle(unsat4)
    assert not res.satisfiable
    assert res.witness is None and res.n_solutions == 0


def test_oracle_no_clauses():
    inst = make_instance(5, np.zeros((0, 3), dtype=np.int32))
    res = brute_force_oracle(inst)
    assert res.satisfiable and res.n_solutions == 2**5
    assert res.witness.tolist() == [0, 0, 0, 0, 0]


def test_oracle_cap():
    inst = make_instance(30, [(1, 2, 3)])
    with pytest.raises(ValueError, match="cap"):
        brute_force_oracle(inst)
    # and a permissive cap admits larger N explicitly
    brute_force_oracle(make_instance(8, [(1, 2, 3)]), cap=8)


@given(n=st.integers(3, 9), seed=st.integers(0, 2**32 - 1), data=st.data())
@settings(max_examples=30, deadline=None)
def test_oracle_matches_slow_reference(n, seed, data):
    m = data.draw(st.integers(1, min(8, math.comb(n, 3))))
    inst = generate_instance(n, m, seed)
    witness, count = slow_oracle(n, inst.clauses.tolist())
    res = brute_force_oracle(inst)
    assert res.n_solutions == count
    assert res.satisfiable == (count > 0)
    if count:
        # both report the lowest-index satisfying assignment
        assert res.witness.tolist() == witness
        assert check_assignment(inst, res.witness).satisfied


def assert_matches_reference(inst):
    witness, count = bitsliced_oracle(inst)
    res = brute_force_oracle(inst)
    assert res.satisfiable == (count > 0)
    assert res.n_solutions == count
    assert (None if res.witness is None else res.witness.tolist()) == witness


def test_bitsliced_reference_matches_slow_reference():
    for seed in range(20):
        inst = generate_instance(10, 3 + seed % 6, seed)
        assert bitsliced_oracle(inst) == slow_oracle(10, inst.clauses.tolist())


@pytest.mark.parametrize("r", [round(0.3 + 0.05 * i, 10) for i in range(13)])
def test_oracle_matches_bitsliced_reference_n24(r):
    # criterion 08's grid at N=24, two instances per ratio
    m = clause_count_for_ratio(r, 24)
    for seed in (1, 2):
        assert_matches_reference(generate_instance(24, m, seed))


def test_oracle_free_variables_double_the_count():
    res = brute_force_oracle(make_instance(8, [(1, 2, 3)]))
    assert res.n_solutions == 96  # 3 covers of the clause x 2^5 free variables
    assert res.witness.tolist() == [1, 0, 0, 0, 0, 0, 0, 0]


def test_oracle_propagation_forces_a_later_branch_variable():
    # branching z_8 = 0, z_7 = 0 forces z_6 = 1 through (6 7 8) before z_6's
    # own turn, which forces z_4 = z_5 = 0 through (4 5 6) and then z_1 = 1
    # through (1 4 7); the first branch on z_3 (0) leaves z_2 = 1
    inst = make_instance(8, [(6, 7, 8), (4, 5, 6), (1, 4, 7), (2, 3, 8)])
    res = brute_force_oracle(inst)
    assert res.witness.tolist() == [1, 1, 0, 0, 0, 1, 0, 0]
    assert_matches_reference(inst)


def test_oracle_unsat_refuted_by_propagation():
    # z_5 = 1 zeroes z_1..z_4, three 0s in (1 3 4). Under z_5 = 0, z_4 = 1
    # zeroes z_1, z_2 and z_3, three 0s in (1 2 5); z_4 = 0 forces z_3 = 1
    # through (3 4 5), which zeroes z_1 and z_2, again three 0s in (1 2 5).
    # Every branch ends in a propagation conflict
    inst = make_instance(5, [(1, 2, 5), (3, 4, 5), (1, 3, 4), (2, 3, 4)])
    res = brute_force_oracle(inst)
    assert not res.satisfiable and res.witness is None and res.n_solutions == 0
    assert_matches_reference(inst)
