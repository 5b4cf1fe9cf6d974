"""Shared linear-algebra core for steady-state opinion evaluation.

The steady state for a target configuration solves ``M x = s`` where
``M = L + diag(a)``, ``L`` is the regular-graph Laplacian, ``a`` counts the
strategic attachments per node, and ``s`` is +1/-1 per plus/minus attachment
(a node attached to both contributes 0). Adding one extra plus link to node v
changes the system by a rank-one update ``M + e_v e_v^T`` and ``s + e_v``, so
a fixed base (graph, minus set, pre-placed plus set) is factorized once and
every candidate target set is evaluated through low-rank corrections:

    x_A = x0 + Z C^-1 (1 - x0[A]),   C = I + (M^-1)[A, A],  Z = M^-1[:, A]

which gives the mean opinion without re-solving. Target-set sweeps (the inner
loop of every search heuristic) therefore cost O(|A|^3) per evaluation after
an O(N^3) or sparse factorization done once per base.

Backends: a dense inverse for moderate sizes; above ``DENSE_CUTOFF`` nodes, a
sparse LU factorization of the symmetric positive definite ``M`` in SuperLU's
symmetric mode (minimum-degree ordering on ``M + M^T``, diagonal pivots), with
inverse columns solved on demand and kept in a cache of at most
``_COL_CACHE_SIZE`` columns. A gain sweep needs the whole diagonal of
``M^-1``; the sparse backend solves for it in batches of ``_DIAG_CHUNK``
columns. Sparse solves for single columns and base vectors take one step of
iterative refinement; the diagonal pass refines only the entries it keeps,
each by the second-order correction ``x_j + x_j^T (e_j - M x_j)``.

With no attachment at all the base is singular, but every nonempty target
set has the closed-form consensus x = 1, which the solver returns directly.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .graphs import Graph, degrees

DENSE_CUTOFF = 2000
RESIDUAL_RTOL = 1e-10
_DIAG_CHUNK = 256
_COL_CACHE_SIZE = 64


class SolverConvergenceError(RuntimeError):
    """The linear solver failed to reach the required residual tolerance."""


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
        self._minus = _as_index(minus)
        self._plus = _as_index(plus_base)
        self._adj = graph.adjacency_csr()
        anchor = np.zeros(n, dtype=np.float64)
        rhs0 = np.zeros(n, dtype=np.float64)
        anchor[self._minus] += 1.0
        rhs0[self._minus] -= 1.0
        anchor[self._plus] += 1.0
        rhs0[self._plus] += 1.0
        self.base_diag = degrees(graph).astype(np.float64) + anchor
        self.rhs0 = rhs0
        self.anchored = bool(anchor.any())
        self.dense = n <= dense_cutoff
        self._col_cache: dict[int, np.ndarray] = {}
        self._gains_cache: tuple[tuple[int, ...], np.ndarray] | None = None
        if not self.anchored:
            # Singular base, but no solve is needed: any plus target drives
            # every opinion to +1, as x = 1 solves (L + e_v e_v^T) x = e_v.
            return
        if self.dense:
            m0 = np.diag(self.base_diag) - self._adj.toarray()
            self._inv = np.linalg.inv(m0)
            self._lu = None
            self._x0 = self._inv @ rhs0
            self._w0 = self._inv.sum(axis=1)
            self._g0 = np.diag(self._inv).copy()
        else:
            m0 = sp.diags(self.base_diag) - self._adj
            self._inv = None
            self._lu = _splu_spd(m0)
            self._x0 = self._refine(self._lu.solve(rhs0), rhs0)
            ones = np.ones(n)
            self._w0 = self._refine(self._lu.solve(ones), ones)
            self._g0 = np.full(n, np.nan)
        self._check_base_residual()

    # -- base solve bookkeeping ----------------------------------------

    def _apply_base(self, x: np.ndarray) -> np.ndarray:
        return self.base_diag * x - self._adj @ x

    def _refine(self, x: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        # One step of iterative refinement keeps large sparse solves near
        # machine precision, which downstream 1e-12 cross-checks rely on.
        return x + self._lu.solve(rhs - self._apply_base(x))

    def _check_base_residual(self) -> None:
        tol = self.residual_tolerance(())
        res = np.abs(self._apply_base(self._x0) - self.rhs0).max()
        if not res <= tol:
            raise SolverConvergenceError(
                f"base solve residual {res:.3e} exceeds tolerance {tol:.3e}"
            )

    @property
    def base_objective(self) -> float:
        if not self.anchored:
            raise ValueError("no strategic attachment: objective undefined")
        return float(self._x0.sum() / self.n)

    # -- inverse access -------------------------------------------------

    def _column(self, v: int) -> np.ndarray:
        if self.dense:
            return self._inv[:, v]
        col = self._col_cache.pop(v, None)
        if col is None:
            e = np.zeros(self.n)
            e[v] = 1.0
            col = self._refine(self._lu.solve(e), e)
            self._g0[v] = col[v]
            if len(self._col_cache) >= _COL_CACHE_SIZE:
                del self._col_cache[next(iter(self._col_cache))]
        self._col_cache[v] = col  # most recently used last
        return col

    def _columns(self, idx: np.ndarray) -> np.ndarray:
        if self.dense:
            return self._inv[:, idx]
        return np.column_stack([self._column(int(v)) for v in idx])

    def _ensure_diag(self, nodes: np.ndarray) -> None:
        if self.dense:
            return
        # Each entry gets the scalar form of one refinement step: since M is
        # symmetric, e_j^T M^-1 r_j = x_j^T r_j for the column x_j and its
        # residual r_j, which is second-order accurate like the full step at
        # the cost of one sparse product instead of a second n-column solve.
        tol = self.residual_tolerance(())
        missing = nodes[np.isnan(self._g0[nodes])]
        for start in range(0, missing.size, _DIAG_CHUNK):
            chunk = missing[start:start + _DIAG_CHUNK]
            at = (chunk, np.arange(chunk.size))
            eye = np.zeros((self.n, chunk.size))
            eye[at] = 1.0
            cols = self._lu.solve(eye)
            res = eye - (self.base_diag[:, None] * cols - self._adj @ cols)
            worst = np.abs(res).max()
            if not worst <= tol:
                raise SolverConvergenceError(
                    f"diagonal solve residual {worst:.3e} exceeds tolerance {tol:.3e}"
                )
            self._g0[chunk] = cols[at] + np.einsum("ij,ij->j", cols, res)

    # -- evaluation -----------------------------------------------------

    def _correction(self, idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Columns Z and capacitance factor C for the update set ``idx``."""
        z = self._columns(idx)
        c = np.eye(idx.size) + z[idx, :]
        return z, c

    def objective(self, extra: Sequence[int] = ()) -> float:
        """Mean steady-state opinion with ``extra`` additional plus targets."""
        idx = _as_index(extra)
        if idx.size == 0:
            return self.base_objective
        if not self.anchored:
            return 1.0
        z, c = self._correction(idx)
        alpha = np.linalg.solve(c, 1.0 - self._x0[idx])
        return float(self.base_objective + self._w0[idx] @ alpha / self.n)

    def profile(self, extra: Sequence[int] = ()) -> np.ndarray:
        """Full steady-state opinion vector for the given extra targets."""
        idx = _as_index(extra)
        if not self.anchored:
            if idx.size == 0:
                raise ValueError("no strategic attachment: profile undefined")
            return np.ones(self.n)
        if idx.size == 0:
            return self._x0.copy()
        z, c = self._correction(idx)
        alpha = np.linalg.solve(c, 1.0 - self._x0[idx])
        return self._x0 + z @ alpha

    def gains(self, committed: Sequence[int] = ()) -> np.ndarray:
        """Marginal objective gain of adding each single node to ``committed``.

        Returns a length-N vector; entries at nodes that are already targeted
        (committed or pre-placed) are meaningless and must be masked by the
        caller.
        """
        key = tuple(_as_index(committed).tolist())
        if self._gains_cache is not None and self._gains_cache[0] == key:
            return self._gains_cache[1]
        if not self.anchored:
            # F(empty) is undefined, so the first sweep scores F({v}) = 1
            # itself; once a target is committed nothing more can be gained.
            gains = np.full(self.n, 0.0 if key else 1.0)
        else:
            gains = self._gains_anchored(np.asarray(key, dtype=np.int64))
        self._gains_cache = (key, gains)
        return gains

    def _gains_anchored(self, idx: np.ndarray) -> np.ndarray:
        self._ensure_diag(np.arange(self.n))
        if idx.size == 0:
            x, w, g = self._x0, self._w0, self._g0
        else:
            z, c = self._correction(idx)
            x = self._x0 + z @ np.linalg.solve(c, 1.0 - self._x0[idx])
            w = self._w0 - z @ np.linalg.solve(c, self._w0[idx])
            g = self._g0 - np.einsum("ij,ji->i", z, np.linalg.solve(c, z.T))
        return w * (1.0 - x) / (self.n * (1.0 + g))

    def residual_norm(self, extra: Sequence[int], x: np.ndarray) -> float:
        """Infinity norm of ``M_A x - s_A`` for the system with extra targets."""
        idx = _as_index(extra)
        diag = self.base_diag.copy()
        rhs = self.rhs0.copy()
        diag[idx] += 1.0
        rhs[idx] += 1.0
        return float(np.abs(diag * x - self._adj @ x - rhs).max())

    def residual_tolerance(self, extra: Sequence[int]) -> float:
        idx = _as_index(extra)
        dmax = float(self.base_diag.max())
        if idx.size:
            dmax = max(dmax, float(self.base_diag[idx].max()) + 1.0)
        return RESIDUAL_RTOL * max(1.0, dmax)
