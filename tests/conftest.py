import numpy as np
import pytest

from ec3 import CostFunction, make_instance

# A 15-variable, 8-clause reference instance with a known solution, used
# throughout the suite. Exact enumeration gives 30 satisfying assignments;
# REF15_SOLUTION is one of them (every clause picks up exactly one 1-bit).
REF15_CLAUSES = [
    (3, 6, 15),
    (4, 7, 13),
    (11, 14, 15),
    (2, 6, 12),
    (7, 12, 15),
    (5, 13, 15),
    (1, 6, 8),
    (6, 9, 10),
]
REF15_SOLUTION = np.array([1, 0, 1, 1, 1, 0, 0, 0, 0, 1, 0, 1, 0, 1, 0], dtype=np.uint8)

# Four mutually overlapping clauses over four variables have no solution:
# summing all four clause conditions counts each variable three times, so
# 3·(z1+z2+z3+z4) = 4 — impossible in integers.
UNSAT4_CLAUSES = [(1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4)]


@pytest.fixture(scope="session")
def ref15():
    return make_instance(15, REF15_CLAUSES)


@pytest.fixture(scope="session")
def ref15_cost(ref15):
    return CostFunction.from_instance(ref15)


@pytest.fixture(scope="session")
def unsat4():
    return make_instance(4, UNSAT4_CLAUSES)


@pytest.fixture(scope="session")
def unsat4_cost(unsat4):
    return CostFunction.from_instance(unsat4)
