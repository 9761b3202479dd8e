"""EC3 (positive 1-in-3 SAT) instances: representation, file I/O, random
generation, and an exact oracle (a counting propagation search) that decides
satisfiability and counts models for small N.

An instance is a set of M clauses over N boolean variables; each clause names
three distinct 1-based variable indices and is satisfied by an assignment Z
exactly when z_k + z_m + z_n = 1.

File format (line oriented, whitespace separated):

    c optional comment lines
    p ec3 <N> <M>
    <k> <m> <n>        (M lines, 1-based indices)

Assignments travel as a single line of N space-separated 0/1 values.
"""

from __future__ import annotations

import math
import re
import warnings
from dataclasses import dataclass

import numpy as np

# Default ceiling on N for the exact oracle. The propagation search decides
# far larger instances, but counting models stays exponential in the worst
# case, and a ceiling keeps `ec3 oracle` and oracle sweeps to small N.
ORACLE_CAP = 26

# Indices are stored as int32, so N is bounded by that range.
_MAX_VARS = int(np.iinfo(np.int32).max)

# Integer tokens, space-joined: each an optional '-' and ASCII digits.
# int() alone would also take '+', '_' separators and non-ASCII digits.
_INT_TOKENS = re.compile(r"-?[0-9]+(?: -?[0-9]+)*")

# int() and str() refuse integers of more than 4300 digits (a process-wide
# limit that can be lowered to 640). Every range here is far smaller, so a
# token of more than _MAX_DIGITS significant digits reads as ±_OVERLONG,
# which each range check compares as it would the token, and a message
# names such a value by its length alone.
_MAX_DIGITS = 100
_OVERLONG = 10**_MAX_DIGITS


@dataclass(frozen=True, eq=False)
class Instance:
    """An EC3 problem: N variables and an ordered list of 3-index clauses.

    Immutable after construction (arrays are marked read-only), so instances
    can be shared freely across worker processes.
    """

    n_vars: int
    clauses: np.ndarray        # shape (M, 3), int32, 1-based indices
    clause_degree: np.ndarray  # shape (N,), per-variable clause count

    @property
    def n_clauses(self) -> int:
        return len(self.clauses)

    @property
    def ratio(self) -> float:
        """Clauses-to-variables ratio r = M/N."""
        return self.n_clauses / self.n_vars


def _shown(value: int) -> str:
    """An integer as message text, one of _OVERLONG or more by its length."""
    return str(value) if abs(value) < _OVERLONG else f"(over {_MAX_DIGITS} digits)"


def _check_int32_range(n_vars) -> None:
    """Reject an N whose indices int32 cannot hold, before any allocation."""
    if n_vars > _MAX_VARS:
        raise ValueError(f"n_vars={_shown(n_vars)} exceeds the int32 index range (at most {_MAX_VARS})")


def _read_int(token: str) -> int:
    digits = token.lstrip("-").lstrip("0") or "0"
    value = int(digits) if len(digits) <= _MAX_DIGITS else _OVERLONG
    return -value if token.startswith("-") else value


def _parse_ints(tokens, what: str, lineno: int, line: str) -> tuple:
    # one match over the joined line costs about what int() does
    if not _INT_TOKENS.fullmatch(" ".join(tokens)):
        raise ValueError(f"line {lineno}: non-integer {what} {line!r}")
    return tuple(map(_read_int, tokens))


def make_instance(n_vars, clauses) -> Instance:
    """Validate a clause list and build an Instance from a copy of it, so
    the caller's array stays writable and its own.

    Raises ValueError for an n_vars outside [1, 2^31 - 1] and for
    out-of-range, non-integer or repeated indices; duplicate clauses (as unordered triples) are accepted with a warning.
    """
    if n_vars < 1:
        raise ValueError(f"n_vars must be >= 1, got {_shown(n_vars)}")
    _check_int32_range(n_vars)
    arr = np.asarray(clauses)
    if arr.size == 0:
        arr = arr.reshape(0, 3)
    if arr.ndim != 2 or arr.shape[1] != 3:
        raise ValueError("clauses must be an (M, 3) array of variable indices")
    # checked before the int32 cast, which would overflow on a huge index
    # and truncate a fractional one
    if arr.size and (arr.min() < 1 or arr.max() > n_vars):
        raise ValueError(f"variable index out of range [1, {n_vars}]")
    if arr.size and np.any(arr % 1 != 0):
        raise ValueError("variable indices must be integers")
    arr = arr.astype(np.int32)  # always a copy
    seen = {}
    for i, row in enumerate(arr):
        if len(set(row.tolist())) != 3:
            raise ValueError(f"clause {i + 1} repeats a variable: {tuple(row.tolist())}")
        key = frozenset(row.tolist())
        if key in seen:
            warnings.warn(
                f"duplicate clause {tuple(sorted(key))} (clauses {seen[key] + 1} and {i + 1})",
                stacklevel=2,
            )
        else:
            seen[key] = i
    degree = np.bincount(arr.ravel() - 1, minlength=n_vars).astype(np.int64, copy=False)
    arr.setflags(write=False)
    degree.setflags(write=False)
    return Instance(int(n_vars), arr, degree)


def parse_instance(text: str) -> Instance:
    """Parse the instance file format. Comment lines start with 'c'."""
    header = None
    triples = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        tokens = line.split()
        if header is None:
            if len(tokens) != 4 or tokens[0] != "p" or tokens[1] != "ec3":
                raise ValueError(f"line {lineno}: expected header 'p ec3 <N> <M>', got {line!r}")
            header = _parse_ints(tokens[2:], "N/M in header", lineno, line)
            if header[0] < 1 or header[1] < 0:
                raise ValueError(f"line {lineno}: bad sizes in header {line!r}")
            continue
        if len(tokens) != 3:
            raise ValueError(f"line {lineno}: expected 3 indices, got {line!r}")
        triples.append(_parse_ints(tokens, "index in", lineno, line))
    if header is None:
        raise ValueError("missing 'p ec3 <N> <M>' header")
    n_vars, m = header
    if len(triples) != m:
        raise ValueError(f"header promises {_shown(m)} clauses, file contains {len(triples)}")
    return make_instance(n_vars, triples)


def emit_instance(instance: Instance, comments=()) -> str:
    """Render an Instance in the file format (inverse of parse_instance)."""
    lines = [f"c {c}" for c in comments]
    lines.append(f"p ec3 {instance.n_vars} {instance.n_clauses}")
    lines.extend(" ".join(str(v) for v in row) for row in instance.clauses.tolist())
    return "\n".join(lines) + "\n"


def generate_instance(n_vars: int, n_clauses: int, seed: int) -> Instance:
    """Draw n_clauses unordered triples of distinct variables uniformly
    without replacement from all C(N, 3) possibilities.

    Duplicate clauses are rejected and redrawn, so the clause list is
    duplicate-free; a duplicate would only double one additive cost term
    without changing satisfiability. Deterministic for fixed arguments.
    """
    if n_vars < 3:
        raise ValueError(f"need n_vars >= 3 to form clauses, got {n_vars}")
    _check_int32_range(n_vars)
    if n_clauses < 0:
        raise ValueError(f"n_clauses must be >= 0, got {n_clauses}")
    if n_clauses > math.comb(n_vars, 3):
        raise ValueError(
            f"cannot draw {n_clauses} distinct clauses over {n_vars} variables "
            f"(only {math.comb(n_vars, 3)} exist)"
        )
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    seen = set()
    rows = []
    while len(rows) < n_clauses:
        triple = rng.choice(n_vars, size=3, replace=False).astype(np.int32) + 1
        key = frozenset(triple.tolist())
        if key in seen:
            continue
        seen.add(key)
        rows.append(triple)
    clauses = np.array(rows, dtype=np.int32).reshape(n_clauses, 3)
    return make_instance(n_vars, clauses)


@dataclass(frozen=True)
class CheckResult:
    satisfied: bool
    unsatisfied_count: int


def check_assignment(instance: Instance, z) -> CheckResult:
    """Count clauses whose three bits do not sum to exactly 1."""
    z = np.asarray(z)
    if z.shape != (instance.n_vars,):
        raise ValueError(f"assignment length {z.shape} != n_vars {instance.n_vars}")
    if not np.all((z == 0) | (z == 1)):
        raise ValueError("assignment values must be 0 or 1")
    sums = z.astype(np.int64)[instance.clauses - 1].sum(axis=1)
    unsat = int(np.count_nonzero(sums != 1))
    return CheckResult(unsat == 0, unsat)


@dataclass(frozen=True)
class OracleResult:
    satisfiable: bool
    witness: np.ndarray | None  # lowest-index satisfying assignment, or None
    n_solutions: int


def brute_force_oracle(instance: Instance, cap: int = ORACLE_CAP) -> OracleResult:
    """Exactly decide satisfiability and count models for n_vars <= cap.

    A counting propagation search (DPLL with the exactly-one rules): it
    branches on the clause-bearing variables from z_N down to z_1, trying 0
    before 1. A 1 forces the other two members of each of its clauses to 0,
    two 0s force the third member to 1, and a clause with two 1s or three 0s
    is a conflict. Propagation only prunes subtrees without solutions, so the
    first leaf reached is the satisfying assignment with the smallest index
    (bit v of the index is z_{v+1}; all-zeros first), the one a sequential
    scan would report. The search visits every leaf, so the model count is
    exact: variables in no clause are 0 in the witness and each doubles it.
    """
    n = instance.n_vars
    if n > cap:
        raise ValueError(f"n_vars={n} exceeds oracle cap {cap}")
    clauses = (instance.clauses - 1).tolist()
    occurs = [[] for _ in range(n)]
    for c in clauses:
        for v in c:
            occurs[v].append(c)
    order = [v for v in range(n - 1, -1, -1) if occurs[v]]
    if not order:  # no clauses: every assignment is a model
        return OracleResult(True, np.zeros(n, dtype=np.uint8), 1 << n)
    value = [-1] * n  # -1 unassigned, else the bit
    trail = []

    def assign(var: int, bit: int) -> bool:
        """Set var and propagate; False on a conflict (the trail keeps
        whatever was set, for the caller to undo)."""
        value[var] = bit
        trail.append(var)
        head = len(trail) - 1
        while head < len(trail):
            u = trail[head]
            head += 1
            for a, b, c in occurs[u]:
                va, vb, vc = value[a], value[b], value[c]
                ones = (va == 1) + (vb == 1) + (vc == 1)
                if ones == 1:
                    for w, vw in ((a, va), (b, vb), (c, vc)):
                        if vw < 0:
                            value[w] = 0
                            trail.append(w)
                elif ones:
                    return False
                else:
                    zeros = (va == 0) + (vb == 0) + (vc == 0)
                    if zeros == 3:
                        return False
                    if zeros == 2:
                        w = a if va < 0 else b if vb < 0 else c
                        value[w] = 1
                        trail.append(w)
        return True

    count = 0
    witness = None
    # pending branches (position in order, trail length to undo to, bit),
    # popped depth-first with the 0-branch on top
    stack = [(0, 0, 1), (0, 0, 0)]
    while stack:
        pos, mark, bit = stack.pop()
        for var in trail[mark:]:
            value[var] = -1
        del trail[mark:]
        if not assign(order[pos], bit):
            continue
        while pos < len(order) and value[order[pos]] >= 0:
            pos += 1
        if pos < len(order):
            mark = len(trail)
            stack += ((pos, mark, 1), (pos, mark, 0))
            continue
        count += 1
        if witness is None:
            witness = np.array([max(v, 0) for v in value], dtype=np.uint8)

    if witness is None:
        return OracleResult(False, None, 0)
    return OracleResult(True, witness, count << (n - len(order)))


def parse_assignment(text: str, n_vars: int) -> np.ndarray:
    """Parse a single-line assignment file: N space-separated 0/1 values."""
    tokens = text.split()
    if len(tokens) != n_vars:
        raise ValueError(f"assignment has {len(tokens)} values, instance has {n_vars} variables")
    if any(t not in ("0", "1") for t in tokens):
        raise ValueError("assignment values must be 0 or 1")
    return np.array([int(t) for t in tokens], dtype=np.uint8)


def emit_assignment(z) -> str:
    return " ".join(str(int(b)) for b in np.asarray(z)) + "\n"
