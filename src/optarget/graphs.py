"""Undirected graphs over regular agents, generators, and tree utilities.

All graphs are simple (no self-loops, no duplicate edges), undirected, with
unit edge weights and integer node ids 0..n-1 (fractional ids are rejected).
Instances are immutable after construction and safe to share across threads.
"""

from __future__ import annotations

import warnings
from typing import Iterable

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import breadth_first_order


class NotATreeError(ValueError):
    """Raised when a tree-only operation is applied to a non-tree graph."""


class EdgeListError(ValueError):
    """Raised on malformed or empty edge-list files."""


class Graph:
    """Immutable undirected graph on nodes ``0 .. node_count-1``.

    The stored form is the symmetric 0/1 adjacency matrix in CSR form with
    sorted column indices, and the library reads only that. ``edges`` and
    ``adjacency`` are Python views derived from it for callers.

    Attributes:
        node_count: Number of nodes N.
        edges: Sorted tuple of unordered edges, each given as ``(i, j)``
            with ``i < j``, read off the upper triangle of the CSR.
        adjacency: Per-node neighbor tuples, sorted ascending; built from
            the CSR on first use and cached.
    """

    __slots__ = ("node_count", "_csr", "_adjacency", "_connected")

    def __init__(self, node_count: int, edges: Iterable[tuple[int, int]]):
        if node_count < 1:
            raise ValueError("node_count must be >= 1")
        n = node_count
        raw = np.asarray(edges if isinstance(edges, np.ndarray) else list(edges))
        if raw.size and (raw.ndim != 2 or raw.shape[1] != 2):
            raise ValueError("edges must be (u, v) pairs")
        raw = raw.reshape(-1, 2)
        with np.errstate(invalid="ignore"):  # NaN and inf are caught below
            pairs = raw.astype(np.int64, copy=False)
        u, v = pairs.T
        fractional = np.zeros(len(raw), dtype=bool)
        if raw.dtype.kind in "fO":  # ids the int64 cast changed: fractions, NaN, inf
            fractional = (pairs != raw).any(axis=1)
        bad = fractional | (u == v) | (np.minimum(u, v) < 0) | (np.maximum(u, v) >= n)
        if bad.any():
            i = int(bad.argmax())
            a, b = int(u[i]), int(v[i])
            if fractional[i]:
                raise ValueError(f"edge {tuple(raw[i].tolist())} has a non-integer node id")
            if a == b:
                raise ValueError(f"self-loop on node {a}")
            raise ValueError(f"edge ({a}, {b}) outside [0, {n})")
        # Both directions of every edge as row * n + col keys, sorted and
        # deduplicated (a plain sort beats np.unique's hashing here).
        keys = np.sort(np.concatenate((u * n + v, v * n + u)))
        rows, cols = np.divmod(keys[np.diff(keys, prepend=-1) != 0], n)
        indptr = np.searchsorted(rows, np.arange(n + 1))
        csr = sp.csr_matrix((np.ones(len(cols)), cols, indptr), shape=(n, n))
        object.__setattr__(self, "node_count", node_count)
        object.__setattr__(self, "_csr", csr)
        object.__setattr__(self, "_adjacency", None)
        object.__setattr__(self, "_connected", None)

    def __setattr__(self, name, value):
        raise AttributeError("Graph is immutable")

    @property
    def edge_count(self) -> int:
        return self._csr.nnz // 2

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        return tuple(zip(*_upper_triangle(self)))

    @property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        if self._adjacency is None:
            indptr, indices = self._csr.indptr.tolist(), self._csr.indices.tolist()
            object.__setattr__(self, "_adjacency", tuple(
                tuple(indices[a:b]) for a, b in zip(indptr, indptr[1:])))
        return self._adjacency

    def adjacency_csr(self) -> sp.csr_matrix:
        """0/1 adjacency matrix in CSR form (the stored representation)."""
        return self._csr

    def __eq__(self, other):
        return (
            isinstance(other, Graph)
            and self.node_count == other.node_count
            and np.array_equal(self._csr.indptr, other._csr.indptr)
            and np.array_equal(self._csr.indices, other._csr.indices)
        )

    def __hash__(self):
        return hash((self.node_count, self._csr.indices.tobytes()))

    def __repr__(self):
        return f"Graph(node_count={self.node_count}, edge_count={self.edge_count})"


class TreeView:
    """A tree rooted at a chosen node, with parent links and subtree sizes.

    Attributes:
        graph: The underlying tree graph.
        root: Root node id.
        parent: Per-node parent id; the root maps to itself.
        depth: Per-node hop distance from the root.
        children: Per-node tuple of children, ascending order.
        subtree_size: Per-node count of nodes in the rooted subtree
            (the node itself included).
    """

    __slots__ = ("graph", "root", "parent", "depth", "children", "subtree_size")

    def __init__(self, graph: Graph, root: int):
        n = graph.node_count
        if not (0 <= root < n):
            raise ValueError(f"root {root} outside [0, {n})")
        if graph.edge_count != n - 1:
            raise NotATreeError(
                f"graph has {graph.edge_count} edges, a tree on {n} nodes has {n - 1}"
            )
        # The CSR is symmetric, so a directed traversal follows every edge;
        # it scans each node's neighbors in ascending order.
        order, parent = breadth_first_order(graph.adjacency_csr(), root,
                                            return_predecessors=True)
        if len(order) != n:
            raise NotATreeError("graph is disconnected")
        parent[root] = root
        order, parent = order.tolist(), parent.tolist()
        depth = [0] * n
        # BFS discovers each node's children in ascending order.
        children: list[list[int]] = [[] for _ in range(n)]
        for v in order[1:]:
            p = parent[v]
            depth[v] = depth[p] + 1
            children[p].append(v)
        size = [1] * n
        for v in reversed(order[1:]):
            size[parent[v]] += size[v]
        object.__setattr__(self, "graph", graph)
        object.__setattr__(self, "root", root)
        object.__setattr__(self, "parent", tuple(parent))
        object.__setattr__(self, "depth", tuple(depth))
        object.__setattr__(self, "children", tuple(map(tuple, children)))
        object.__setattr__(self, "subtree_size", tuple(size))

    def __setattr__(self, name, value):
        raise AttributeError("TreeView is immutable")


# Uniforms per block of an ER draw (2 MB of float64). A graph of up to 724
# nodes draws its pairs in one block.
_ER_BLOCK = 1 << 18


def generate_erdos_renyi(n: int, p: float, seed: int) -> Graph:
    """Sample a G(n, p) graph: each unordered pair is an edge with probability p.

    Deterministic for a fixed ``(n, p, seed)`` triple. The n(n - 1)/2 uniforms
    are drawn in blocks of ``_ER_BLOCK``; PCG64 gives the same stream, and so
    the same edges, as one draw of them all. Time is O(n²), memory
    O(block + m).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if not (0.0 <= p <= 1.0):
        raise ValueError(f"p must be in [0, 1], got {p}")
    rng = np.random.default_rng(seed)
    # The kept pairs, as flat indices into the row-major upper triangle: row i
    # holds (i, i + 1), ..., (i, n - 1) and starts at i (2n - i - 1) / 2.
    total = n * (n - 1) // 2
    kept = np.concatenate([np.empty(0, np.int64)] + [
        start + np.flatnonzero(rng.random(min(_ER_BLOCK, total - start)) < p)
        for start in range(0, total, _ER_BLOCK)])
    i = np.arange(n)
    row_start = i * (2 * n - i - 1) // 2
    i = np.searchsorted(row_start, kept, side="right") - 1
    return Graph(n, np.column_stack((i, kept - row_start[i] + i + 1)))


def generate_complete(n: int) -> Graph:
    """Complete graph on n nodes."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return Graph(n, np.column_stack(np.triu_indices(n, k=1)))


def generate_line(n: int) -> Graph:
    """Path graph 0 - 1 - ... - (n-1)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return Graph(n, ((i, i + 1) for i in range(n - 1)))


def generate_poisson_tree(lam: float, max_nodes: int, seed: int) -> Graph:
    """Grow a Galton-Watson tree with Poisson(lam) offspring counts.

    Nodes are created in breadth-first order starting from a single root, so
    every parent id is smaller than its children's ids. Growth halts
    mid-generation once ``max_nodes`` nodes exist; a process that dies out
    first returns a smaller tree. Node u's offspring count is the u-th value
    of one Poisson stream, drawn in batches; time and memory are
    O(max_nodes).

    Args:
        lam: Mean offspring count, finite and > 0.
        max_nodes: Hard cap on the number of nodes.
        seed: RNG seed; the result is deterministic for a fixed seed.
    """
    if not (0 < lam < np.inf):
        raise ValueError(f"lam must be > 0 and finite, got {lam}")
    if max_nodes < 1:
        raise ValueError("max_nodes must be >= 1")
    rng = np.random.default_rng(seed)
    # Nodes leave the queue in id order, so node u's offspring count is the
    # u-th draw; a count past the cap is cut to it, which changes no tree.
    # Before u is popped, before[u] = 1 + counts[:u].sum() nodes exist; the
    # first u with an empty queue (u >= before[u]) or a full tree is never
    # popped. The drawn total doubles from 64 until that u is known.
    counts = np.empty(0, np.int64)
    while True:
        draws = rng.poisson(lam, max(64, len(counts)))
        counts = np.concatenate((counts, np.minimum(draws, max_nodes)))
        before = np.concatenate(([1], 1 + np.cumsum(counts)))
        stop = (np.arange(len(before)) >= before) | (before >= max_nodes)
        if stop.any():
            break
    popped = int(stop.argmax())
    count = min(max_nodes, int(before[popped]))
    parents = np.repeat(np.arange(popped), counts[:popped])[:count - 1]
    return Graph(count, np.column_stack((parents, np.arange(1, count))))


def load_edge_list(path) -> Graph:
    """Read a whitespace-separated ``u v`` edge list file into a Graph.

    Lines beginning with ``#`` are comments. Node ids are decimal integers
    (a byte that is not UTF-8 reads as U+FFFD, so it is no id). Duplicate
    pairs and reversed duplicates collapse to one undirected edge; self-loops
    are dropped with a single warning reporting how many were seen. The node
    count is one plus the largest id in the file, so sparse id ranges are
    preserved as isolated nodes. The data lines are parsed in one
    ``np.loadtxt`` call; only a file it rejects is read again line by line,
    for the number of the first bad line.
    """
    with open(path, "r", encoding="utf-8", errors="replace") as fh:
        lines = fh.read().split("\n")
    rows = [i for i, line in enumerate(lines) if (s := line.strip()) and s[0] != "#"]
    if not rows:
        raise EdgeListError(f"{path}: no edges found")
    try:
        pairs = np.loadtxt([lines[i] for i in rows], dtype=np.int64, comments=None, ndmin=2)
    except ValueError:
        pairs = None
    if pairs is None or pairs.shape[1] != 2 or (pairs < 0).any():
        _raise_first_error(path, lines, rows)
    loops = pairs[:, 0] == pairs[:, 1]
    if loops.any():
        warnings.warn(f"{path}: dropped {int(loops.sum())} self-loop(s)", stacklevel=2)
    return Graph(int(pairs.max()) + 1, pairs[~loops])


def _raise_first_error(path, lines: list[str], rows: list[int]) -> None:
    """Raise the EdgeListError of the first data line (0-based ``rows`` of
    ``lines``) that is not two nonnegative integer ids."""
    for i in rows:
        line = lines[i].strip()
        if len(line.split()) != 2:
            raise EdgeListError(f"{path}:{i + 1}: expected 'u v', got {line!r}")
        try:
            pair = np.loadtxt([line], dtype=np.int64, comments=None)
        except ValueError as exc:
            raise EdgeListError(f"{path}:{i + 1}: non-integer node id") from exc
        if (pair < 0).any():
            raise EdgeListError(f"{path}:{i + 1}: negative node id")


def _upper_triangle(g: Graph) -> tuple[list[int], list[int]]:
    """The edges ``(i, j)``, ``i < j``, in row-major order of the CSR's upper
    triangle, as a list of the ``i`` and a list of the ``j``."""
    csr = g.adjacency_csr()
    rows = np.repeat(np.arange(g.node_count), np.diff(csr.indptr))
    upper = rows < csr.indices
    return rows[upper].tolist(), csr.indices[upper].tolist()


def write_edge_list(g: Graph, path) -> None:
    """Write a Graph in the same ``u v`` per-line format read by load_edge_list."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"# nodes={g.node_count} edges={g.edge_count}\n")
        fh.write("".join(f"{u} {v}\n" for u, v in zip(*_upper_triangle(g))))


def is_connected(g: Graph) -> bool:
    """True iff a breadth-first search from node 0 reaches every node. The
    answer is cached on the (immutable) graph, so a second check is free."""
    if g._connected is None:
        reached = breadth_first_order(g.adjacency_csr(), 0, return_predecessors=False)
        object.__setattr__(g, "_connected", len(reached) == g.node_count)
    return g._connected


def degrees(g: Graph) -> np.ndarray:
    """Per-node degree within the regular graph (strategic links excluded)."""
    return np.diff(g.adjacency_csr().indptr).astype(np.int64)


def tree_view(g: Graph, root: int) -> TreeView:
    """Root a tree graph at ``root``; raises NotATreeError otherwise."""
    return TreeView(g, root)

