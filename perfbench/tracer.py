"""In-memory span tracer that wraps ec3's public functions from outside src/.

Each wrapped function records one span (name, start, end, parent span, op
id) per call.  Spans live in flat `array` columns while the run goes on and
are written to an .npz file at the end.  A layer's self time is its spans'
durations minus the time covered by their direct children.

Functions are wrapped under the names their callers look them up by, for
example `ec3.flows.brute_force_oracle` (what `phase_sweep` calls) rather than
`ec3.instance.brute_force_oracle`.  Calls made in forked pool workers are not
recorded (their spans could not come back), so pool work shows up in the
parent as waiting inside `solver.solve`.
"""

from __future__ import annotations

import functools
import os
import time
from array import array

import numpy as np

# span name -> the module attributes wrapped under it ("Class.method" for
# methods); every name is the one the calling module resolves at call time
TARGETS = {
    "instance.generate": ["ec3:generate_instance", "ec3.flows:generate_instance"],
    "instance.parse": ["ec3.cli:parse_instance"],
    "instance.oracle": ["ec3.flows:brute_force_oracle", "ec3.cli:brute_force_oracle"],
    "instance.check": ["ec3.solver:check_assignment"],
    "cost.cost": ["ec3.cost:CostFunction.cost"],
    "cost.gradient": ["ec3.cost:CostFunction.gradient"],
    "solver.run": ["ec3.solver:bsgd_run"],
    "solver.solve": [
        "ec3:solve_with_restarts",
        "ec3.flows:solve_with_restarts",
        "ec3.cli:solve_with_restarts",
    ],
    "flows.sweep": ["ec3:phase_sweep"],
    "flows.rerun": ["ec3.flows:rerun_with_trajectory", "ec3.cli:rerun_with_trajectory"],
    "flows.classify": ["ec3.cli:classify_flows"],
    "flows.csv": ["ec3.cli:write_trajectory_csv", "ec3.cli:write_labels_csv"],
    "cli.main": ["ec3.cli:main"],
    "cli.json": ["ec3.cli:dumps17"],
}

# Bytes a kernel call touches, computed from array sizes (float64 values,
# int64 indices), not measured: cost gathers 3 columns of M indices and M
# values each and writes M clause terms; gradient gathers the same, writes 3M
# terms, reads 3M scatter indices with those terms and writes N outputs.
COST_BYTES_PER_CLAUSE = 8 * (3 + 3 + 1)
GRAD_BYTES_PER_CLAUSE = 8 * (3 + 3 + 3 + 3 + 3)
GRAD_BYTES_PER_VAR = 8


def _count_cost(counts, args, result):
    m = args[0].instance.n_clauses
    counts["clause_evals"] += m
    counts["bytes"] += COST_BYTES_PER_CLAUSE * m


def _count_gradient(counts, args, result):
    m, n = args[0].instance.n_clauses, args[0].instance.n_vars
    counts["clause_evals"] += m
    counts["bytes"] += GRAD_BYTES_PER_CLAUSE * m + GRAD_BYTES_PER_VAR * n


def _count_run(counts, args, result):
    counts["iters"] += result.iterations


# span name -> fn(counts, args, result), called after each traced call
COUNTERS = {"cost.cost": _count_cost, "cost.gradient": _count_gradient, "solver.run": _count_run}


def resolve(modules, target):
    """(owner object, attribute name) for 'module:attr' or 'module:Class.attr'."""
    mod_name, path = target.split(":")
    owner = modules[mod_name]
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


class Tracer:
    """Spans of the calls made while `span` runs.  Wrappers are installed
    for the duration of each `span` call and removed after it, so untraced
    calls run the unmodified program."""

    def __init__(self, modules):
        self.modules = modules  # module name -> imported ec3 module
        self.pid = os.getpid()
        self.op_id = -1
        self.names: list[str] = []
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.stack: list[int] = []
        self.counts = {"clause_evals": 0, "bytes": 0, "iters": 0}
        self._saved = []

    def _install(self) -> None:
        for span_name, targets in TARGETS.items():
            for target in targets:
                owner, attr = resolve(self.modules, target)
                original = getattr(owner, attr)
                self._saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(original, span_name))

    def _uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def _name_id(self, span_name) -> int:
        if span_name not in self.names:
            self.names.append(span_name)
        return self.names.index(span_name)

    def _wrap(self, fn, span_name):
        nid = self._name_id(span_name)
        count = COUNTERS.get(span_name)
        tr = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if os.getpid() != tr.pid:  # a forked pool worker
                return fn(*args, **kwargs)
            idx = len(tr.start)
            tr.name.append(nid)
            tr.parent.append(tr.stack[-1] if tr.stack else -1)
            tr.op.append(tr.op_id)
            tr.start.append(0.0)
            tr.end.append(0.0)
            tr.stack.append(idx)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                tr.stack.pop()
                tr.start[idx] = t0
                tr.end[idx] = t1
            if count is not None:
                count(tr.counts, args, result)
            return result

        return traced

    def span(self, span_name, op_id, fn, *args):
        """Call fn(*args) under a root span of its own (an op or set-up)."""
        self.op_id = op_id
        self._install()
        try:
            return self._wrap(fn, span_name)(*args)
        finally:
            self._uninstall()

    def arrays(self):
        return {
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "name": np.frombuffer(self.name, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "op": np.frombuffer(self.op, dtype=np.int32),
        }

    def layer_times(self) -> dict:
        """span name -> {"calls", "total_s", "self_s", "durations"}; self
        time is a span's duration minus that of its direct children."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child = np.bincount(
            a["parent"][has_parent], weights=dur[has_parent], minlength=len(dur)
        )
        self_s = dur - child
        out = {}
        for nid, span_name in enumerate(self.names):
            sel = a["name"] == nid
            out[span_name] = {
                "calls": int(sel.sum()),
                "total_s": float(dur[sel].sum()),
                "self_s": float(self_s[sel].sum()),
                "durations": dur[sel],
            }
        return out

    def write(self, path) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())
