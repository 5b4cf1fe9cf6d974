"""Shared linear-algebra core for steady-state opinion evaluation.

The steady state for a target configuration solves ``M x = s`` where
``M = L + diag(a)``, ``L`` is the regular-graph Laplacian, ``a`` counts the
strategic attachments per node, and ``s`` is +1/-1 per plus/minus attachment
(a node attached to both contributes 0). Adding one extra plus link to node v
changes the system by a rank-one update ``M + e_v e_v^T`` and ``s + e_v``, so
a fixed base (graph, minus set, pre-placed plus set) is factorized once and
every candidate target set is evaluated through low-rank corrections:

    x_A = x0 + Z C^-1 (1 - x0[A]),   C = I + (M^-1)[A, A],  Z = M^-1[:, A]

which gives the profile, and the objective as its mean, without re-solving.
Target-set sweeps (the inner loop of every search heuristic) therefore cost
O(|A|^3) per evaluation after an O(N^3) or sparse factorization done once
per base.

Backends: a dense inverse for moderate sizes; above ``DENSE_CUTOFF`` nodes, a
sparse LU factorization of the symmetric positive definite ``M`` in SuperLU's
symmetric mode (minimum-degree ordering on ``M + M^T``, diagonal pivots).
Sparse solves take one step of iterative refinement; the inverse columns an
evaluation needs are solved on demand as one block and not kept. A gain
sweep needs the whole diagonal of ``M^-1``; it is computed once, in fixed
batches of ``_DIAG_CHUNK`` columns, each entry refined by the second-order
correction ``x_j + x_j^T (e_j - M x_j)``, so a sweep does not depend on
which evaluations ran before. A residual above
``RESIDUAL_RTOL * max(1, d_max)`` in the base solve, a diagonal batch or a
returned profile (every objective is the mean of one) raises
:class:`SolverConvergenceError`.

With no attachment at all the base is singular, but every nonempty target
set has the closed-form consensus x = 1, which the solver returns directly.
"""

from __future__ import annotations

from functools import cached_property
from typing import Sequence

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .graphs import Graph, degrees

DENSE_CUTOFF = 2000
RESIDUAL_RTOL = 1e-10
_DIAG_CHUNK = 256


class SolverConvergenceError(RuntimeError):
    """The linear solver failed to reach the required residual tolerance."""


def mean_opinion(x: np.ndarray) -> float:
    """The objective: the mean of a steady-state opinion profile."""
    return float(x.sum() / x.size)


def _as_index(nodes: Sequence[int]) -> np.ndarray:
    return np.asarray(sorted(int(v) for v in nodes), dtype=np.int64)


def _splu_spd(m) -> spla.SuperLU:
    """Sparse LU of a symmetric positive definite matrix.

    Minimum-degree ordering on the symmetric pattern with diagonal pivots
    keeps the fill about 3x below the default COLAMD column ordering, which
    is meant for unsymmetric matrices.
    """
    return spla.splu(sp.csc_matrix(m), permc_spec="MMD_AT_PLUS_A",
                     diag_pivot_thresh=0.0, options={"SymmetricMode": True})


class OpinionSolver:
    """Evaluator for one fixed base: graph + minus set + pre-placed plus set.

    All public methods take ``extra`` / ``committed`` as the set of additional
    plus-side targets, disjoint from the pre-placed ones.
    """

    def __init__(self, graph: Graph, minus: Sequence[int], plus_base: Sequence[int],
                 dense_cutoff: int = DENSE_CUTOFF):
        n = graph.node_count
        self.graph = graph
        self.n = n
        self._adj = graph.adjacency_csr()
        plus_links = np.bincount(_as_index(plus_base), minlength=n)
        minus_links = np.bincount(_as_index(minus), minlength=n)
        self.base_diag = (degrees(graph) + plus_links + minus_links).astype(np.float64)
        self.rhs0 = (plus_links - minus_links).astype(np.float64)
        self.anchored = bool(plus_links.any() or minus_links.any())
        self.dense = n <= dense_cutoff
        if not self.anchored:
            # Singular base, but no solve is needed: any plus target drives
            # every opinion to +1, as x = 1 solves (L + e_v e_v^T) x = e_v.
            return
        if self.dense:
            self._inv = np.linalg.inv(np.diag(self.base_diag) - self._adj.toarray())
            self._x0 = self._inv @ self.rhs0
            self._w0 = self._inv.sum(axis=1)
        else:
            self._lu = _splu_spd(sp.diags(self.base_diag) - self._adj)
            self._x0 = self._solve(self.rhs0)
            self._w0 = self._solve(np.ones(n))
        self._check(self.residual_norm((), self._x0), (), "base solve")

    # -- base solve bookkeeping ----------------------------------------

    def _apply_base(self, x: np.ndarray) -> np.ndarray:
        """``M x`` for a vector or a block of columns."""
        return (self.base_diag * x.T).T - self._adj @ x

    def _solve(self, rhs: np.ndarray) -> np.ndarray:
        # One step of iterative refinement keeps large sparse solves near
        # machine precision, which downstream 1e-12 cross-checks rely on.
        x = self._lu.solve(rhs)
        return x + self._lu.solve(rhs - self._apply_base(x))

    def _check(self, res: float, extra: Sequence[int], what: str) -> None:
        tol = self.residual_tolerance(extra)
        if not res <= tol:
            raise SolverConvergenceError(
                f"{what} residual {res:.3e} exceeds tolerance {tol:.3e}"
            )

    # -- inverse access -------------------------------------------------

    def _columns(self, idx: np.ndarray) -> np.ndarray:
        """``M^-1[:, idx]``; sparse columns come from one refined block solve
        of the unit columns, recomputed on every call."""
        if self.dense:
            return self._inv[:, idx]
        eye = np.zeros((self.n, idx.size))
        eye[idx, np.arange(idx.size)] = 1.0
        return self._solve(eye)

    @cached_property
    def _g0(self) -> np.ndarray:
        """``diag(M^-1)``, computed for every node on the first gain sweep."""
        if self.dense:
            return np.diag(self._inv).copy()
        # Fixed chunks, so the result does not depend on earlier calls. Each
        # entry gets the scalar form of one refinement step: since M is
        # symmetric, e_j^T M^-1 r_j = x_j^T r_j for the column x_j and its
        # residual r_j, which is second-order accurate like the full step at
        # the cost of one sparse product instead of a second n-column solve.
        g0 = np.empty(self.n)
        for start in range(0, self.n, _DIAG_CHUNK):
            chunk = np.arange(start, min(start + _DIAG_CHUNK, self.n))
            at = (chunk, np.arange(chunk.size))
            eye = np.zeros((self.n, chunk.size))
            eye[at] = 1.0
            cols = self._lu.solve(eye)
            res = eye - self._apply_base(cols)
            self._check(float(np.abs(res).max()), (), "diagonal solve")
            g0[chunk] = cols[at] + np.einsum("ij,ij->j", cols, res)
        return g0

    # -- evaluation -----------------------------------------------------

    def _update(self, idx: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Woodbury pieces for the extra targets ``idx``: the columns
        ``Z = M^-1[:, idx]``, the capacitance matrix ``C = I + Z[idx]`` and
        ``C^-1 (1 - x0[idx])``."""
        z = self._columns(idx)
        c = np.eye(idx.size) + z[idx, :]
        return z, c, np.linalg.solve(c, 1.0 - self._x0[idx])

    def objective(self, extra: Sequence[int] = ()) -> float:
        """Mean steady-state opinion with ``extra`` additional plus targets:
        the mean of :meth:`profile`, under the same residual rule."""
        return mean_opinion(self.profile(extra))

    def profile(self, extra: Sequence[int] = ()) -> np.ndarray:
        """Full steady-state opinion vector for the given extra targets.

        Raises :class:`SolverConvergenceError` if it misses the balance
        equations by more than :meth:`residual_tolerance`.
        """
        idx = _as_index(extra)
        if not self.anchored:
            if idx.size == 0:
                raise ValueError("no strategic attachment: profile undefined")
            x = np.ones(self.n)
        elif idx.size == 0:
            x = self._x0.copy()
        else:
            z, _, alpha = self._update(idx)
            x = self._x0 + z @ alpha
        self._check(self.residual_norm(idx, x), idx, "equilibrium")
        return x

    def gains(self, committed: Sequence[int] = ()) -> np.ndarray:
        """Marginal objective gain of adding each single node to ``committed``.

        Returns a fresh length-N vector; entries at nodes that are already
        targeted (committed or pre-placed) are meaningless and must be masked
        by the caller.
        """
        idx = _as_index(committed)
        if not self.anchored:
            # F(empty) is undefined, so the first sweep scores F({v}) = 1
            # itself; once a target is committed nothing more can be gained.
            return np.full(self.n, 0.0 if idx.size else 1.0)
        x, w, g = self._x0, self._w0, self._g0
        if idx.size:
            z, c, alpha = self._update(idx)
            x = x + z @ alpha
            w = w - z @ np.linalg.solve(c, w[idx])
            g = g - np.einsum("ij,ji->i", z, np.linalg.solve(c, z.T))
        return w * (1.0 - x) / (self.n * (1.0 + g))

    def residual_norm(self, extra: Sequence[int], x: np.ndarray) -> float:
        """Infinity norm of ``M_A x - s_A`` for the system with extra targets."""
        idx = _as_index(extra)
        res = self._apply_base(x) - self.rhs0
        res[idx] += x[idx] - 1.0
        return float(np.abs(res).max())

    def residual_tolerance(self, extra: Sequence[int]) -> float:
        idx = _as_index(extra)
        dmax = float(self.base_diag.max())
        if idx.size:
            dmax = max(dmax, float(self.base_diag[idx].max()) + 1.0)
        return RESIDUAL_RTOL * max(1.0, dmax)
