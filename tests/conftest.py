import math
from unittest import mock

import numpy as np
import pytest

from optarget import Graph, engine


def pinned_solver(graph: Graph, minus, plus, backend: str) -> engine.OpinionSolver:
    """An ``OpinionSolver`` whose factor takes no level (``"dense"``) or as
    many as the thin and dense-tail rules allow (``"sparse"``):
    ``engine._FACTOR_WORK``, read when the factor is built, is patched to
    inf or 0 for the build."""
    work = {"dense": math.inf, "sparse": 0}[backend]
    with mock.patch.object(engine, "_FACTOR_WORK", work):
        return engine.OpinionSolver(graph, minus, plus)


def record_solves(monkeypatch, factor) -> list[int]:
    """Patch the sparse backend's ``factor.solve`` to record the column
    count of each right-hand side it gets; the list's length counts the
    solves. The factor does not refine a solve, so each ``solve`` call, and
    each ``columns`` call on a factor with levels, adds one entry."""
    widths = []
    solve = factor.solve

    def recorded(rhs):
        widths.append(1 if rhs.ndim == 1 else rhs.shape[1])
        return solve(rhs)

    monkeypatch.setattr(factor, "solve", recorded)
    return widths


def star_graph(leaves: int) -> Graph:
    """Star with center 0 and the given number of leaves."""
    return Graph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def random_connected_graph(n: int, p: float, rng: np.random.Generator) -> Graph:
    """Random G(n, p) plus a random spanning tree so it is always connected."""
    edges = {(j, i) if j < i else (i, j)
             for i in range(1, n)
             for j in (int(rng.integers(0, i)),)}
    iu, ju = np.triu_indices(n, k=1)
    mask = rng.random(iu.shape[0]) < p
    edges.update(zip(iu[mask].tolist(), ju[mask].tolist()))
    return Graph(n, edges)


def random_tree(n: int, rng: np.random.Generator) -> Graph:
    """Uniform random-attachment tree; parent ids always precede children."""
    return Graph(n, [(int(rng.integers(0, i)), i) for i in range(1, n)])


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
