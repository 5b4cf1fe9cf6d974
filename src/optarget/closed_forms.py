"""Analytic objective formulas and exact optimizers for special graph families.

Complete graphs admit a closed-form objective in the sizes of the four node
classes (linked to +, to -, to both, to neither), which yields an exact
budgeted optimizer. Line graphs and trees admit voltage-divider formulas along
the unique path between the two attachment nodes. These double as fast solvers
and as oracles for the numerical path in the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .graphs import TreeView


@dataclass(frozen=True)
class CompleteConfig:
    """Node-class sizes on a complete graph of n regular nodes.

    p, q, r count the nodes linked to + only, to - only, and to both.
    """

    n: int
    p: int
    q: int
    r: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if min(self.p, self.q, self.r) < 0:
            raise ValueError("class sizes must be nonnegative")
        if self.p + self.q + self.r > self.n:
            raise ValueError("class sizes exceed the node count")


@dataclass(frozen=True)
class LineConfig:
    """A line of n nodes with the minus agent attached at 1-indexed position ell."""

    n: int
    ell: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if not (1 <= self.ell <= self.n):
            raise ValueError(f"ell must be in [1, {self.n}]")


def complete_objective(cfg: CompleteConfig) -> float:
    """Mean steady-state opinion on a complete graph, by class sizes."""
    if cfg.p + cfg.q + cfg.r == 0:
        raise ValueError("no strategic attachment: objective undefined")
    num = (cfg.n + 2) * (cfg.p - cfg.q)
    den = (cfg.n + 2) * (cfg.p + cfg.q) + 2 * (cfg.n + 1) * cfg.r
    return num / den


def complete_otp(n: int, p0: int, q0: int, r0: int, k_plus: int) -> tuple[int, int, float]:
    """Exact budgeted targeting on a complete graph.

    Given initial class sizes and a budget of ``k_plus`` new plus links,
    returns ``(p1, r1, f_star)``: how many untouched nodes and how many
    minus-linked nodes to target, and the optimal objective value. The whole
    budget is always spent (the objective is strictly improved by every
    additional link).
    """
    CompleteConfig(n, p0, q0, r0)
    if k_plus < 0:
        raise ValueError("k_plus must be >= 0")
    free = n - p0 - q0 - r0
    if k_plus > free + q0:
        raise ValueError(
            f"budget {k_plus} exceeds the {free + q0} nodes without a plus link"
        )
    if k_plus > q0 - p0:
        # Enough links to overcome the opponent: block as many of its nodes
        # as the budget allows, spend the rest on untouched nodes.
        p1 = max(0, k_plus - q0)
    else:
        # Opponent keeps the majority; the least bad spend avoids blocking.
        p1 = min(k_plus, free)
    r1 = k_plus - p1
    f_star = complete_objective(CompleteConfig(n, p0 + p1, q0 - r1, r0 + r1))
    return p1, r1, f_star


def line_objective(cfg: LineConfig, k: int) -> float:
    """Mean steady-state opinion on a line with the plus link at position k.

    Positions are 1-indexed. Exact rational value evaluated in floating point;
    k equal to the minus position gives exactly 0.
    """
    n, ell = cfg.n, cfg.ell
    if not (1 <= k <= n):
        raise ValueError(f"k must be in [1, {n}]")
    num = -k * k + (n + 1) * k - (n + 1) * ell + ell * ell
    den = n * (k - ell + 2) if k >= ell else n * (ell - k + 2)
    return num / den


def line_optimal_k(cfg: LineConfig) -> tuple[int, float]:
    """Best plus position on a line, with ties broken toward smaller k.

    The continuous maximizer sits at ``ell - 2 + sqrt(2n + 6 - 4*ell)`` when
    the minus attachment is in the left half, mirrored otherwise; the discrete
    optimum is one of its neighbors. The two zero-valued positions (the minus
    position and its mirror) are also checked so boundary ties resolve exactly
    like a full scan.
    """
    n, ell = cfg.n, cfg.ell
    if n < 2:
        raise ValueError("n must be >= 2")
    if ell < (n + 1) / 2:
        khat = ell - 2 + math.sqrt(2 * n + 6 - 4 * ell)
    else:
        khat = ell + 2 - math.sqrt(4 * ell + 2 - 2 * n)
    candidates = {
        min(max(int(math.floor(khat)), 1), n),
        min(max(int(math.ceil(khat)), 1), n),
        ell,
        n + 1 - ell,
    }
    best_k, best_f = None, -math.inf
    for k in sorted(candidates):
        f = line_objective(cfg, k)
        if f > best_f:
            best_k, best_f = k, f
    return best_k, best_f


def tree_path_objective(t: TreeView, k: int) -> float:
    """Mean steady-state opinion on a tree rooted at the minus attachment.

    Every node off the path from the root to k short-circuits to its nearest
    path node, so the objective is the voltage-divider value along the path
    weighted by the hanging subtree sizes. Summed by parts this is

        F({k}) = 2 P(k) / (n (depth(k) + 2)) - 1,

    where P(k) sums the subtree sizes of the path nodes, root and k included;
    the ratio is of integers, so k equal to the root gives exactly 0.
    """
    n = t.graph.node_count
    if not (0 <= k < n):
        raise ValueError("k out of range")
    path_sizes = t.subtree_size[k]
    v = k
    while v != t.root:
        v = t.parent[v]
        path_sizes += t.subtree_size[v]
    return 2 * path_sizes / (n * (t.depth[k] + 2)) - 1
