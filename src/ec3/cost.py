"""The continuous cost function F over the unit hypercube.

Each variable carries a probability x_i = Pr{z_i = 0}; under independent
per-bit randomization a clause over (k, m, n) is unsatisfied with probability

    P = 1 + 3·x_k·x_m·x_n − x_k·x_m − x_m·x_n − x_k·x_n

and F(X) = Σ_i P_i. F is multilinear, so it is affine in every single
coordinate (zero per-coordinate second derivative — a harmonic function with
an all-zero Hessian diagonal), takes exact integer values on hypercube
vertices (the number of unsatisfied clauses there), and is strictly positive
in the open interior. F < 1 anywhere in the closed cube certifies
satisfiability: by the union bound, a vertex drawn with independent
coordinates of mean x violates no clause with probability ≥ 1 − F(x) > 0.

Conversions between bit assignments Z and points X use x_i = 1 − z_i
(vertex x_i = 1 means z_i = 0) everywhere in this package.

Evaluation extends to all of R^N; box constraints are the solver's job.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .instance import CheckResult, Instance, check_assignment


def clause_probability(x_k, x_m, x_n):
    """Probability that a single clause is unsatisfied; multilinear in its
    three arguments and symmetric under their permutation. Accepts scalars
    or broadcastable arrays."""
    return 1.0 + 3.0 * x_k * x_m * x_n - x_k * x_m - x_m * x_n - x_k * x_n


def vertex_point(z) -> np.ndarray:
    """The hypercube vertex encoding assignment Z (x_i = 1 − z_i)."""
    return 1.0 - np.asarray(z, dtype=np.float64)


@dataclass(frozen=True, eq=False)
class CostFunction:
    """F and its analytic gradient for one instance.

    The gradient is assembled from clause incidence: each clause contributes
    3·x_a·x_b − x_a − x_b to the component of its third member, where a, b
    are the other two variables. Components of variables that appear in no
    clause are identically zero. F and ∇F come from one gather and one
    scatter of O(M) entries per evaluation, for a single point or a batch
    of them. Immutable: the index arrays of a batch belong to the caller
    that steps it (`batch_index`), so an evaluation leaves nothing behind
    on the object, and it is safe to share across workers.
    """

    instance: Instance
    # the clause columns (0-based) as [a, b, c], the bins of ∇F's terms
    _scatter: np.ndarray = field(repr=False)
    # [[b, a, a], [c, c, b]]: the (u, v) of each term 3·u·v − u − v
    _gather: np.ndarray = field(repr=False)

    @classmethod
    def from_instance(cls, instance: Instance) -> "CostFunction":
        scatter = np.ascontiguousarray(instance.clauses.T, dtype=np.int64) - 1
        gather = scatter[[[1, 0, 0], [2, 2, 1]]]
        for arr in (scatter, gather):
            arr.setflags(write=False)
        return cls(instance, scatter, gather)

    @property
    def n_vars(self) -> int:
        return self.instance.n_vars

    def _check_len(self, x: np.ndarray):
        if x.shape != (self.n_vars,):
            raise ValueError(f"point has shape {x.shape}, expected ({self.n_vars},)")

    def batch_index(self, r: int):
        """Gather and scatter indices for a batch of r rows: row b's entries
        are offset by b·N, so one bincount keeps the rows apart and still adds
        each row's terms in clause order, a-terms first, as for one point
        (one row has offset 0). Built afresh on each call; a caller that
        steps a batch of r rows many times builds them once and passes them
        to `cost_and_gradient`."""
        offsets = self.n_vars * np.arange(r)[:, None]
        return (
            self._gather[:, :, None, :] + offsets,
            (self._scatter[:, None, :] + offsets).ravel(),
        )

    def cost_and_gradient(self, X, index=None) -> tuple[np.ndarray, np.ndarray]:
        """F at each row of an (R, N) batch of points, and ∇F there;
        `index` is `batch_index(R)`, built here when not given.

        `_kernel`'s clause probabilities P and gradient, with F the pairwise
        row sum of P. Every row is summed and scattered in the order a lone
        point is, so its results are bitwise those of `cost` and `gradient`
        on that row.
        """
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.n_vars:
            raise ValueError(f"batch has shape {X.shape}, expected (R, {self.n_vars})")
        p = np.empty((len(X), self.instance.n_clauses))
        grad = self._kernel(X, index, p)
        return p.sum(axis=1), grad

    def _kernel(self, X, index, p) -> np.ndarray:
        """∇F at each row of the (R, N) float64 batch X, with each clause's P
        written into the (R, M) buffer p; `index` is `batch_index(R)` or None.

        One C-contiguous gather of the clause columns serves both: with
        (u, v) = (x_b, x_c), (x_a, x_c), (x_a, x_b), the terms of ∂F/∂x_a,
        ∂F/∂x_b, ∂F/∂x_c are 3·u·v − u − v, and P reuses (3·x_a)·x_b and the
        products u·v.
        """
        r, n = X.shape
        if not p.size:  # no clauses (or no rows): bincount of no weights is integer
            return np.zeros((r, n))
        gather, scatter = self.batch_index(r) if index is None else index
        # take gives C order; X[:, cols] would give F order, whose row sums
        # add sequentially instead of pairwise
        u, v = X.take(gather)
        uv3 = 3.0 * u * v
        uv = u * v
        # P = 1 + 3·x_a·x_b·x_c − x_a·x_b − x_b·x_c − x_a·x_c, in that order,
        # in place: 1 + a is a + 1, bit for bit
        np.multiply(uv3[2], v[0], out=p)
        p += 1.0
        p -= uv[2]
        p -= uv[0]
        p -= uv[1]
        uv3 -= u
        uv3 -= v  # the terms 3·u·v − u − v
        return np.bincount(scatter, weights=uv3.ravel(), minlength=r * n).reshape(r, n)

    def _one_row(self, x) -> tuple[float, np.ndarray]:
        x = np.asarray(x, dtype=np.float64)
        self._check_len(x)
        f, g = self.cost_and_gradient(x[None, :])
        return float(f[0]), g[0]

    def cost(self, x) -> float:
        """F(X) = Σ_i P_i. Exact integer at vertices."""
        return self._one_row(x)[0]

    def gradient(self, x) -> np.ndarray:
        """∂F/∂x_j for all j; exactly zero for zero-degree variables."""
        return self._one_row(x)[1]

    def hessian(self, x) -> np.ndarray:
        """Dense Hessian, offered as a diagnostic: entry (j, a) sums
        3·x_b − 1 over clauses containing both j and a (b the third member);
        the diagonal is zero by construction (F is affine per coordinate)."""
        x = np.asarray(x, dtype=np.float64)
        self._check_len(x)
        h = np.zeros((self.n_vars, self.n_vars))
        cols = self._scatter
        for i, j, k in ((0, 1, 2), (0, 2, 1), (1, 2, 0)):
            w = 3.0 * x[cols[k]] - 1.0
            np.add.at(h, (cols[i], cols[j]), w)
            np.add.at(h, (cols[j], cols[i]), w)
        return h

    def vertex_cost(self, z) -> float:
        """F at the vertex encoding Z; equals the unsatisfied-clause count."""
        return self.cost(vertex_point(z))


def harmonicity_defect(f: CostFunction, x, h: float) -> np.ndarray:
    """Per-coordinate second central difference (F(x+h·e_j) − 2F(x) +
    F(x−h·e_j)) / h². Identically zero in exact arithmetic for every j and
    every x — the numerical result is pure rounding noise."""
    if h <= 0:
        raise ValueError("step h must be positive")
    x = np.asarray(x, dtype=np.float64)
    f._check_len(x)
    fx = f.cost(x)
    out = np.empty(f.n_vars)
    for j in range(f.n_vars):
        xp = x.copy()
        xp[j] = x[j] + h
        xm = x.copy()
        xm[j] = x[j] - h
        out[j] = (f.cost(xp) - 2.0 * fx + f.cost(xm)) / (h * h)
    return out


@dataclass(frozen=True)
class VertexCheck:
    cost_at_vertex: float
    unsat_count: int
    agree: bool


def vertex_spectrum_check(f: CostFunction, z) -> VertexCheck:
    """Evaluate F at the vertex of Z and compare, with zero tolerance,
    against the combinatorial unsatisfied-clause count. Multilinear
    evaluation at 0/1 arguments is exact in floating point, so `agree`
    failing would indicate a real bug, not roundoff."""
    cost = f.vertex_cost(z)
    chk: CheckResult = check_assignment(f.instance, z)
    return VertexCheck(cost, chk.unsatisfied_count, cost == float(chk.unsatisfied_count))
