"""Shared linear-algebra core for steady-state opinion evaluation.

The steady state for a target configuration solves ``M x = s`` where
``M = L + diag(a)``, ``L`` is the regular-graph Laplacian, ``a`` counts the
strategic attachments per node, and ``s`` is +1/-1 per plus/minus attachment
(a node attached to both contributes 0). Adding one extra plus link to node v
changes the system by a rank-one update ``M + e_v e_v^T`` and ``s + e_v``, so
a fixed base (graph, minus set, pre-placed plus set) is factorized once and
every candidate target set is evaluated through low-rank corrections:

    x_A = x0 + Z C^-1 (1 - x0[A]),   C = I + (M^-1)[A, A],  Z = M^-1[:, A]

which gives the profile without re-solving (``C`` is factored once per call,
by one LAPACK ``dgesv`` for all of its right-hand sides). Target-set sweeps
therefore cost O(|A|^3) per evaluation after one factorization per base.

The objective is the profile's mean after one step of iterative refinement,
``F = (fsum(x) + w_A^T r) / n`` at the cost of a dot product (see
:meth:`OpinionSolver._evaluate`), so its printed digits do not depend on the
backend or on how ``M`` was factorized.

``M^-1`` is one object at every size, :class:`_KronFactor`: the factor
``P M P^T = L D L^T`` by Kron reduction, one level of independent
low-degree nodes at a time, each a Schur complement whose entries and
pivots are sums of nonnegative terms (GTH-style), so nothing cancels. The
first level is taken only if the dense work it saves pays for the fixed
cost of a factor with levels (``_FACTOR_WORK``; tests patch it to 0 or
inf), so that rule alone picks the backend. The rest, the tail, is
inverted by LAPACK Cholesky and kept; with no level the factor is the dense
inverse of ``M`` itself. The factor holds only ``L``, ``D`` and ``S_T^-1``;
``M`` belongs to :class:`OpinionSolver`. With levels, ``solve`` and
``columns`` are one solve each, and ``diagonal`` (for gain sweeps) is
selected inversion on the factor, which the solver checks by a probe of
``_DIAG_PROBE`` unit-column solves; a sweep reads only the factor, so it
does not depend on which evaluations ran before. No solve is refined: the
objective's ``w_A^T r`` term is the one accuracy step.
A residual above ``RESIDUAL_RTOL * max(1, d_max)`` in the base solve, the
diagonal probe or a returned profile (every objective is computed from one),
a probe that disagrees by more, a pivot ``d_j <= 0`` or a failed dense
Cholesky step raises :class:`SolverConvergenceError`.

With no attachment at all the base is singular, but every nonempty target
set has the closed-form consensus x = 1, which the solver returns directly.
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import Sequence

import numpy as np
import scipy.sparse as sp
from scipy.linalg import lapack

from .graphs import Graph, degrees

RESIDUAL_RTOL = 1e-10
_DIAG_PROBE = 32
# Kron reduction (see _KronFactor). A level takes nodes within _LEVEL_SLACK
# of the minimum degree. The first one must save |level| n^2 >= _FACTOR_WORK
# flops of dense work, the fixed cost of a factor with levels (1.3 ms on
# 200-node trees, mostly selected inversion and probe, at the dense inverse's
# 1.2e7 flops per ms at n = 400; rounded up). Later levels stop at a thin one
# (under 1/_THIN_LEVEL of the m nodes left, |level| m^2 below _LEVEL_WORK)
# or a Schur complement denser than _DENSE_TAIL. _HASH is odd: it permutes ids mod 2^32.
_LEVEL_SLACK = 3
_FACTOR_WORK = 2e7
_THIN_LEVEL = 32
_LEVEL_WORK = 1e7
_DENSE_TAIL = 0.1
_HASH = 2654435761
# Head columns per product with the dense tail, which bounds that scratch to
# this many rows of the tail's width, and per step of a level of the head.
_TAIL_BLOCK = 256
# Columns per step of the copy that makes a triangle symmetric.
_MIRROR_BLOCK = 128


class SolverConvergenceError(RuntimeError):
    """The linear solver failed to reach the required residual tolerance."""


def _as_int(value, what: str) -> int:
    """``value`` as an int if it is integral (``2.0`` is 2); a fractional, NaN
    or infinite value raises ``ValueError`` naming ``what``."""
    try:
        whole = int(value)
    except (OverflowError, ValueError):
        whole = None
    if whole is None or whole != value:
        raise ValueError(f"{what} must be an integer: got {value!r}")
    return whole


def _as_index(nodes: Sequence[int], n: int) -> np.ndarray:
    """Sorted node ids: integral by :func:`_as_int`, in ``[0, n)``, none
    repeated."""
    nodes = list(nodes)
    try:
        ids = sorted(_as_int(v, "node id") for v in nodes)
    except ValueError:
        raise ValueError(f"node ids must be integers: got {nodes}") from None
    if ids and not (0 <= ids[0] and ids[-1] < n):
        raise ValueError(f"node ids must lie in [0, {n}): got {ids}")
    if len(set(ids)) != len(ids):
        raise ValueError(f"node ids must not repeat: got {ids}")
    return np.asarray(ids, dtype=np.int64)


def _unit_columns(n: int, idx: np.ndarray) -> np.ndarray:
    """The columns ``e_v`` of the n x n identity for the nodes ``idx``."""
    eye = np.zeros((n, idx.size))
    eye[idx, np.arange(idx.size)] = 1.0
    return eye


def _solve_small(a: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """``a^-1 rhs`` for a small dense ``a``: one LU factorization with
    partial pivoting for all columns of ``rhs`` (LAPACK ``dgesv``).

    The capacitance matrix is SPD, but a 1 x 1 LU solves ``c x = c`` exactly
    where Cholesky divides twice by ``sqrt(c)``: a single target on the only
    minus node then gives the exact profile 0 and an objective of exactly 0."""
    _, _, x, info = lapack.dgesv(a, rhs)
    if info != 0:
        raise SolverConvergenceError(f"capacitance matrix is singular (dgesv info {info})")
    return x


def _dense_inverse(adj, d: np.ndarray) -> np.ndarray:
    """``M^-1`` for ``M = diag(d) - adj`` through its Cholesky factor (LAPACK
    ``dpotrf``, then ``dpotri``), assembled, factored and inverted in one
    n x n array: M is symmetric, so its transpose is the Fortran-ordered
    matrix that LAPACK overwrites."""
    m = adj.toarray()
    np.subtract(0.0, m, out=m)  # -adj without -0.0 entries
    m.ravel()[::m.shape[0] + 1] = d
    c, info = lapack.dpotrf(m.T, overwrite_a=1)
    if info == 0:
        inv, info = lapack.dpotri(c, overwrite_c=1)
    if info != 0:
        raise SolverConvergenceError(f"dense Cholesky inverse failed (LAPACK info {info})")
    # dpotri filled the upper triangle and dpotrf zeroed the lower one. Copy
    # it down one block of _MIRROR_BLOCK columns at a time, which stays in
    # cache where a whole transposed pass does not.
    for b in range(0, inv.shape[0], _MIRROR_BLOCK):
        e = b + _MIRROR_BLOCK
        inv[e:, b:e] = inv[b:e, e:].T
        block = inv[b:e, b:e]
        block += np.triu(block, 1).T
    return inv


def _tolerance(d_max: float) -> float:
    """The residual rule's bound; ``RESIDUAL_RTOL`` is read at each call."""
    return RESIDUAL_RTOL * max(1.0, d_max)


def _check(res: float, tol: float, what: str) -> None:
    if not res <= tol:
        raise SolverConvergenceError(
            f"{what} residual {res:.3e} exceeds tolerance {tol:.3e}"
        )


def _ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The concatenation of ``arange(s, s + c)`` over ``zip(starts, counts)``."""
    ends = np.cumsum(counts)
    return np.arange(ends[-1] if ends.size else 0) + np.repeat(starts - ends + counts, counts)


def _check_pivots(d: np.ndarray) -> None:
    if not (d > 0.0).all():
        raise SolverConvergenceError(
            f"sparse factor of an SPD matrix has a pivot d = {d.min():.3e} <= 0")


def _level(ptr: np.ndarray, col: np.ndarray, ids: np.ndarray, least: float) -> np.ndarray:
    """The next level of a Schur complement whose off-diagonal pattern over
    the nodes ``ids`` is the CSR ``(ptr, col)``: each node within
    ``_LEVEL_SLACK`` of the minimum degree whose key (degree, then a fixed
    hash of its id) is below the key of every such neighbour, or none if
    fewer than ``least`` nodes are that close. Keys are distinct, so no two
    nodes of a level are adjacent."""
    deg = np.diff(ptr)
    low = deg <= deg.min() + _LEVEL_SLACK
    if np.count_nonzero(low) < least:
        return ids[:0]
    key = deg.astype(np.int64) << 32 | ids * _HASH % (1 << 32)
    never = np.iinfo(np.int64).max
    key[~low] = never
    nearest = np.full(ids.size, never)
    linked = deg > 0
    nearest[linked] = np.minimum.reduceat(key[col], ptr[:-1][linked])
    return np.flatnonzero(key < nearest)


def _eliminate(ptr: np.ndarray, col: np.ndarray, val: np.ndarray, a: np.ndarray,
               h: np.ndarray) -> tuple:
    """Eliminate the independent nodes ``h`` from ``diag(a + W 1) - W``, ``W``
    the CSR ``(ptr, col, val)``; the pivots ``d_h`` are checked before any
    division. Returns ``d_h``; ``F`` by neighbour runs, ``F[nb[e], h[k]] =
    f[e]`` for ``e`` in ``[hptr[k], hptr[k + 1])``; the rest ``r``; and its
    ``W'`` (a CSR with sorted rows) and ``a'``."""
    deg = np.diff(ptr)
    k = deg[h]
    hptr = np.concatenate(([0], np.cumsum(k)))
    run = _ranges(ptr[h], k)
    nb, w_h = col[run], val[run]
    owner = np.repeat(np.arange(h.size), k)
    d_h = a[h] + np.bincount(owner, weights=w_h, minlength=h.size)
    _check_pivots(d_h)
    f = w_h * (1.0 / d_h)[owner]
    rest = np.ones(a.size, dtype=bool)
    rest[h] = False
    r, new = np.flatnonzero(rest), np.cumsum(rest) - 1
    # W_RR and the fill F[i, h] W[h, j] of each pair i != j of a run, summed by key.
    row = np.repeat(np.arange(a.size), deg)
    kept = rest[row] & rest[col]
    p = np.repeat(np.arange(run.size), k[owner])
    q = _ranges(hptr[owner], k[owner])
    pair = p != q
    p, q = p[pair], q[pair]
    keys = np.concatenate((new[row[kept]] * r.size + new[col[kept]],
                           new[nb[p]] * r.size + new[nb[q]]))
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    first = np.flatnonzero(np.diff(keys, prepend=-1))
    w_r = np.add.reduceat(np.concatenate((val[kept], f[p] * w_h[q]))[order], first)
    rows, cols = np.divmod(keys[first], r.size)
    a_r = a[r] + np.bincount(new[nb], weights=f * a[h][owner], minlength=r.size)
    return d_h, hptr, nb, f, r, np.searchsorted(rows, np.arange(r.size + 1)), cols, w_r, a_r


class _KronFactor:
    """``P M P^T = L D L^T`` for ``M = diag(a + W 1) - W`` (``W`` the
    symmetric nonnegative CSR adjacency, ``a >= 0`` the grounding) by Kron
    reduction, one level ``H`` of independent nodes (:func:`_level`) at a
    time. The rest ``R`` keeps the form, with

        W' = W_RR + offdiag(F W_HR),   a' = a_R + F a_H,   F = W_RH D_H^-1,

    and the pivots ``D_H = a_H + W_H 1``: sums of nonnegative terms, never
    differences (as in the GTH algorithm of Grassmann, Taksar and Heyman
    1985), so each keeps a small relative error and no entry cancels; the
    pattern of ``L`` is the exact, chordal fill, with ``L[R, H] = -F``.
    The first level must save ``_FACTOR_WORK`` flops of dense work, read at
    each call. The Schur complement left, the tail, is inverted by
    :func:`_dense_inverse`; with no level it is all of ``M``, whose diagonal
    ``d_m`` is read only then, and :meth:`solve`, :meth:`columns` and
    :meth:`diagonal` read that inverse.

    ``perm`` lists the nodes in elimination order, ``pos`` is its inverse,
    level k holds the positions ``[bounds[k], bounds[k + 1])`` and
    ``blocks[k]`` is its ``F`` on the positions after it, so the level
    columns of ``L`` are the unit diagonal and ``-blocks[k]``. ``d`` holds
    their pivots and ``z_tail`` the symmetric ``S_T^-1`` of the tail.
    """

    def __init__(self, w, a: np.ndarray, d_m: np.ndarray):
        n = a.size
        ids = np.arange(n)
        a = a.astype(np.float64)
        needed = _FACTOR_WORK
        ptr, col, val = w.indptr, w.indices, w.data
        levels = []
        while True:
            m = ids.size
            h = _level(ptr, col, ids, needed / (m * m))
            work = h.size * m * m
            thin = work < needed or (h.size * _THIN_LEVEL < m and work < _LEVEL_WORK)
            if thin or h.size == m or ptr[-1] > _DENSE_TAIL * m * m:
                break
            needed = 0.0
            d_h, hptr, nb, f, r, ptr, col, val, a = _eliminate(ptr, col, val, a, h)
            levels.append((ids[h], d_h, hptr, ids[nb], f))
            ids = ids[r]
        self.perm = np.concatenate([lv[0] for lv in levels] + [ids])
        self.pos = np.argsort(self.perm)
        self.bounds = b = np.cumsum([0] + [lv[0].size for lv in levels]).tolist()
        self.d = np.concatenate([np.empty(0)] + [lv[1] for lv in levels])
        self.blocks = [sp.csc_matrix((f, self.pos[nb] - p1, hptr), shape=(n - p1, p1 - p0))
                       for (_, _, hptr, nb, f), p0, p1 in zip(levels, b, b[1:])]
        if levels:
            w = sp.csr_matrix((val, col, ptr), shape=(ids.size, ids.size))
            d_m = a + w @ np.ones(ids.size)
        self.z_tail = _dense_inverse(w, d_m)

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """``M^-1 rhs`` for a vector or a block of columns: one sparse product
        per level on the way down and on the way back, and one product with
        ``z_tail`` on the tail."""
        if len(self.bounds) == 1:
            return self.z_tail @ rhs
        b = rhs.reshape(rhs.shape[0], -1)[self.perm]
        levels = list(zip(self.bounds, self.bounds[1:], self.blocks))
        for p0, p1, f in levels:
            b[p1:] += f @ b[p0:p1]
        t = self.bounds[-1]
        # z_tail @ b[t:], taken as (b^T z_tail^T)^T: on 2 to 32 columns of an
        # 879-column tail, OpenBLAS runs that form 1.4-1.9x faster.
        b[t:] = (b[t:].T @ self.z_tail.T).T
        for p0, p1, f in reversed(levels):
            b[p0:p1] /= self.d[p0:p1, None]
            b[p0:p1] += f.T @ b[p1:]
        return b[self.pos].reshape(rhs.shape)

    def columns(self, idx: np.ndarray) -> np.ndarray:
        """``M^-1[:, idx]``, recomputed on every call."""
        if len(self.bounds) == 1:
            return self.z_tail[:, idx]
        return self.solve(_unit_columns(self.pos.size, idx))

    def diagonal(self) -> np.ndarray:
        """``diag(M^-1)``, unchecked with levels but for the pivots."""
        if len(self.bounds) == 1:
            return self.z_tail.diagonal()
        _check_pivots(self.d)
        return _selected_diagonal(self.blocks, self.d, self.bounds, self.z_tail)[self.pos]


def _selected_diagonal(blocks: list, d: np.ndarray, bounds: list,
                       z_tail: np.ndarray) -> np.ndarray:
    """``diag(M^-1)`` in elimination order from a :class:`_KronFactor`: the
    level columns of ``L``, a unit diagonal and ``-F`` of each CSC of
    ``blocks`` (rows need not be sorted), pivots ``d``, level ``bounds`` and
    ``z_tail``, the inverse of the Schur complement left. Nothing is modified.

    Selected inversion (Takahashi, Fagan & Chin 1973): with ``s`` the
    below-diagonal pattern of column j,

        Z[s, j] = -Z[s, s] L[s, j],   Z[j, j] = 1/d_j - L[s, j]^T Z[s, j].

    ``Z = M^-1`` is kept on the pattern of those columns, one value per entry,
    plus the dense ``Z[t:, t:] = S_T^-1``, which is ``z_tail``; no n x n
    array is formed. The chordal fill puts every entry a level's columns
    read in the columns of later levels and of the tail, so the levels are
    walked last first, in chunks of at most ``_TAIL_BLOCK`` columns.
    """
    t = bounds[-1]
    n = t + z_tail.shape[0]
    # z[e] is Z at the entry e, (r[e], col[e]) with the key col n + r; the
    # entries are sorted by key, so the rows of each column are, its
    # diagonal first. Rows are int64, as keys overflow int32 above n = 46340.
    counts = np.concatenate([np.diff(f.indptr) + 1 for f in blocks])
    ptr = np.concatenate(([0], np.cumsum(counts)))
    col = np.repeat(np.arange(t), counts)
    below = _ranges(ptr[:-1] + 1, counts - 1)
    r, x = col.copy(), np.ones(col.size)
    r[below] = np.concatenate([f.indices + p for f, p in zip(blocks, bounds[1:])])
    x[below] = -np.concatenate([f.data for f in blocks])
    keys = col * n + r
    order = np.argsort(keys)
    keys, r, x = keys[order], r[order], x[order]
    # Tail part: tp[e] = (Z[tail, tail] L[tail, j])[r[e]] at each tail-row
    # entry e of a column j. z_tail is symmetric, so its C-ordered transpose
    # serves as the dense operand without a copy.
    te = np.flatnonzero(r >= t)
    tptr = np.searchsorted(te, ptr)
    head_to_tail = sp.csr_matrix((x[te], r[te] - t, tptr), shape=(t, n - t))
    tp = np.zeros(r.size)
    for start in range(0, t, _TAIL_BLOCK):
        stop = min(t, start + _TAIL_BLOCK)
        e = te[tptr[start]:tptr[stop]]
        tp[e] = (head_to_tail[start:stop] @ z_tail.T)[col[e] - start, r[e] - t]
    # The below-diagonal entries; ``s`` of column j is the run
    # [eptr[j], eptr[j + 1]), its head rows first.
    m = counts - 1
    eptr = ptr - np.arange(t + 1)
    ent = _ranges(ptr[:-1] + 1, m)
    k_of = np.repeat(np.arange(t), m)
    r_ent, x_ent, tp_ent = r[ent], x[ent], tp[ent]
    # Pairs (a, b): a a head row of s, b any row of s. ``heads`` lists the
    # head-row entries; each pairs with the m of its column.
    head_rows = np.concatenate(([0], np.cumsum(r < t)))
    h = head_rows[ptr[1:]] - head_rows[ptr[:-1] + 1]
    hptr = np.concatenate(([0], np.cumsum(h)))
    heads = _ranges(eptr[:-1], h)
    partners = m[k_of[heads]]
    first_partner = eptr[k_of[heads]]
    chunks = [(k, min(k + _TAIL_BLOCK, hi))
              for lo, hi in zip(bounds, bounds[1:]) for k in range(lo, hi, _TAIL_BLOCK)]
    z = np.empty(r.size)
    for k0, k1 in reversed(chunks):
        e0, e1 = eptr[k0], eptr[k1]
        a0, a1 = hptr[k0], hptr[k1]
        # a and b as positions in this chunk's entries.
        a = np.repeat(heads[a0:a1] - e0, partners[a0:a1])
        b = _ranges(first_partner[a0:a1] - e0, partners[a0:a1])
        rs, xs = r_ent[e0:e1], x_ent[e0:e1]
        ra, rb = rs[a], rs[b]
        zab = z[np.searchsorted(keys, np.minimum(ra, rb) * n + np.maximum(ra, rb))]
        # y = Z[s, s] L[s, j]: head rows sum Z[a, b] L[b, j] over all of s,
        # tail rows add Z[b, a] L[a, j] to their part from Z[tail, tail].
        y = tp_ent[e0:e1] + np.bincount(
            np.concatenate((a, b)),
            weights=np.concatenate((zab * xs[b], zab * xs[a] * (rb >= t))), minlength=e1 - e0)
        z[ent[e0:e1]] = -y
        z[ptr[k0:k1]] = 1.0 / d[k0:k1] + np.bincount(k_of[e0:e1] - k0, weights=xs * y,
                                                      minlength=k1 - k0)
    return np.concatenate((z[ptr[:-1]], z_tail.diagonal()))


class OpinionSolver:
    """Evaluator for one fixed base: graph + minus set + pre-placed plus set.

    All public methods take ``extra`` / ``committed`` as the set of additional
    plus-side targets, disjoint from the pre-placed ones.
    """

    def __init__(self, graph: Graph, minus: Sequence[int], plus_base: Sequence[int]):
        n = graph.node_count
        self.n = n
        self._adj = graph.adjacency_csr()
        plus_links = np.bincount(_as_index(plus_base, n), minlength=n)
        minus_links = np.bincount(_as_index(minus, n), minlength=n)
        self.base_diag = (degrees(graph) + plus_links + minus_links).astype(np.float64)
        self._d_max = float(self.base_diag.max())
        self.rhs0 = (plus_links - minus_links).astype(np.float64)
        self._placed = plus_links > 0
        self.anchored = bool(plus_links.any() or minus_links.any())
        self.dense = True  # no level: M^-1 is the dense inverse
        if not self.anchored:
            # Singular base, but no solve is needed: any plus target drives
            # every opinion to +1, as x = 1 solves (L + e_v e_v^T) x = e_v.
            return
        self._inv = _KronFactor(self._adj, plus_links + minus_links, self.base_diag)
        self.dense = len(self._inv.bounds) == 1
        self._x0 = self._inv.solve(self.rhs0)
        self._w0 = self._inv.solve(np.ones(n))
        # Right-hand sides of the Woodbury step for x and w, gathered per call.
        self._rhs = np.empty((n, 2))
        self._rhs[:, 0] = 1.0 - self._x0
        self._rhs[:, 1] = self._w0
        no_extra = _as_index((), n)
        _check(float(np.abs(self._residual(no_extra, self._x0)).max()),
               self._residual_tolerance(no_extra), "base solve")

    @cached_property
    def _g0(self) -> np.ndarray:
        """``diag(M^-1)``, computed for every node on the first gain sweep.

        With levels a probe checks it: the unit-column solves ``x_j`` of the
        nodes eliminated first, each entry refined by ``x_j^T r_j`` (M is
        symmetric), ``r_j`` formed in ``np.longdouble`` (the entries of
        ``M^-1`` grow to n on a path) and then rounded, as it is small."""
        diag = self._inv.diagonal()
        if self.dense:
            return diag
        probe = np.flatnonzero(self._inv.pos < _DIAG_PROBE)
        cols = self._inv.columns(probe)
        res = self._residual_of(_unit_columns(self.n, probe), cols).astype(np.float64)
        tol = _tolerance(self._d_max)
        _check(float(np.abs(res).max()), tol, "diagonal solve")
        refined = cols[probe, np.arange(probe.size)] + np.einsum("ij,ij->j", cols, res)
        _check(float(np.abs(refined - diag[probe]).max()), tol, "selected inversion probe")
        return diag

    def _extra_index(self, extra: Sequence[int]) -> np.ndarray:
        """:func:`_as_index` of extra targets, none of them pre-placed."""
        idx = _as_index(extra, self.n)
        placed = idx[self._placed[idx]]
        if placed.size:
            raise ValueError(f"targets {placed.tolist()} already hold a plus link")
        return idx

    def _update(self, idx: np.ndarray, with_columns: bool = False) -> tuple:
        """Woodbury step for the extra targets ``idx``: the profile ``x_A``
        and ``w_A = M_A^-1 1``, and with ``with_columns`` also the columns
        ``Z = M^-1[:, idx]`` and ``C^-1 Z^T``. ``C = I + Z[idx]`` is factored
        once, for all of its right-hand sides."""
        if not idx.size:
            return self._x0.copy(), self._w0, None, None
        z = self._inv.columns(idx)
        c = z[idx]
        c.ravel()[::idx.size + 1] += 1.0
        rhs = np.hstack((self._rhs[idx], z.T)) if with_columns else self._rhs[idx]
        sol = _solve_small(c, rhs)
        y = z @ sol[:, :2]
        return self._x0 + y[:, 0], self._w0 - y[:, 1], z, sol[:, 2:]

    def _evaluate(self, extra: Sequence[int]) -> tuple[np.ndarray, float]:
        """The profile ``x`` for ``extra`` and its mean opinion
        ``F = (sum(x) + w_A^T r) / n``, under the residual rule.

        ``r = s_A - M_A x`` is computed once, in ``np.longdouble``, for both.
        As ``M_A`` is symmetric, ``w_A^T r = 1^T M_A^-1 r`` is the change of
        ``sum(x)`` under one step of iterative refinement, so ``F`` is the
        mean of the refined profile without a further solve: its error is of
        the second order in the solver's, and its printed digits do not
        depend on the backend. ``sum(x)`` is ``math.fsum``, exact up to one
        final rounding.
        """
        idx = self._extra_index(extra)
        if self.anchored:
            x, w, _, _ = self._update(idx)
        elif idx.size:
            # x = 1 solves the system exactly, so the correction is 0.
            x, w = np.ones(self.n), np.zeros(self.n)
        else:
            raise ValueError("no strategic attachment: profile undefined")
        r = self._residual(idx, x)
        _check(float(np.abs(r).max()), self._residual_tolerance(idx), "equilibrium")
        return x, float((math.fsum(x.tolist()) + w @ r) / self.n)

    def objective(self, extra: Sequence[int] = ()) -> float:
        """Mean steady-state opinion with ``extra`` additional plus targets,
        corrected for the profile's residual (see :meth:`_evaluate`)."""
        return self._evaluate(extra)[1]

    def profile(self, extra: Sequence[int] = ()) -> np.ndarray:
        """Full steady-state opinion vector for the given extra targets.

        Raises :class:`SolverConvergenceError` if it misses the balance
        equations by more than ``RESIDUAL_RTOL * max(1, d_max)``, ``d_max``
        the largest diagonal entry of ``M_A``.
        """
        return self._evaluate(extra)[0]

    def gains(self, committed: Sequence[int] = ()) -> np.ndarray:
        """Marginal objective gain of adding each single node to ``committed``.

        Returns a fresh length-N vector; entries at nodes that are already
        targeted (committed or pre-placed) are meaningless and must be masked
        by the caller.
        """
        idx = self._extra_index(committed)
        if not self.anchored:
            # F(empty) is undefined, so the first sweep scores F({v}) = 1
            # itself; once a target is committed nothing more can be gained.
            return np.full(self.n, 0.0 if idx.size else 1.0)
        x, w, z, c_inv_zt = self._update(idx, with_columns=True)
        g = self._g0
        if idx.size:
            g = g - np.einsum("ij,ji->i", z, c_inv_zt)
        return w * (1.0 - x) / (self.n * (1.0 + g))

    def _residual_of(self, rhs: np.ndarray, x: np.ndarray) -> np.ndarray:
        """``rhs - M x`` in ``np.longdouble``, ``x`` a vector or columns."""
        xl = x.astype(np.longdouble)
        return rhs - ((self.base_diag * xl.T).T - self._adj @ xl)

    def _residual(self, idx: np.ndarray, x: np.ndarray) -> np.ndarray:
        """``s_A - M_A x`` in ``np.longdouble``."""
        r = self._residual_of(self.rhs0, x)
        r[idx] += 1.0 - x[idx].astype(np.longdouble)
        return r

    def _residual_tolerance(self, idx: np.ndarray) -> float:
        d_max = self._d_max
        if idx.size:
            d_max = max(d_max, max(self.base_diag[idx].tolist()) + 1.0)
        return _tolerance(d_max)
