"""Targeting solvers: exhaustive search, classic heuristics, and tree search.

Every solver returns a :class:`StrategyOutcome` with the chosen target set,
its objective (always re-solved from scratch, never taken from the search
bookkeeping), and two instrumentation counters: how many equilibrium
evaluations the search spent and how many distinct candidate nodes it scored.

Candidate scores that differ by less than ``SCORE_TIE_TOL`` are treated as
tied and resolved toward the smaller node index. Genuinely distinct objective
values in the supported instance families differ by far more than solver
round-off (rational gaps of 1e-8 and up versus noise near 1e-13), so the
tolerance only collapses exact mathematical ties that floating point would
otherwise order arbitrarily.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

from .equilibrium import Instance, solve_equilibrium
from .graphs import degrees, tree_view

SCORE_TIE_TOL = 1e-10

MAX_BRUTE_FORCE_CONFIGURATIONS = 2_000_000


@dataclass(frozen=True)
class StrategyOutcome:
    """Result of one targeting solver run."""

    chosen_set: frozenset[int]
    objective: float
    equilibrium_evaluations: int
    visited_nodes: int


def _finish(inst: Instance, chosen, evaluations: int, visited: int) -> StrategyOutcome:
    chosen = frozenset(int(v) for v in chosen)
    return StrategyOutcome(
        chosen_set=chosen,
        objective=solve_equilibrium(inst, chosen).objective,
        equilibrium_evaluations=evaluations,
        visited_nodes=visited,
    )


def brute_force(
    inst: Instance, max_configurations: int = MAX_BRUTE_FORCE_CONFIGURATIONS
) -> StrategyOutcome:
    """Exact maximizer over all target sets within budget.

    Ties resolve to the lexicographically smallest sorted tuple. Raises if the
    number of configurations exceeds ``max_configurations``.

    With budget 1 and at least one strategic attachment, every singleton is
    scored in one gain sweep, ``F({v}) = F(empty) + gains(())[v]``: the same
    rank-one update the combination loop applies one set at a time. The
    empty set and then the singletons are scanned in ascending order, and the
    counters are those of the loop: ``len(pool) + 1`` evaluations (the empty
    set included) and ``len(pool)`` visited nodes.
    """
    pool = inst.candidates
    k = inst.budget
    total = sum(math.comb(len(pool), size) for size in range(k + 1))
    if total > max_configurations:
        raise ValueError(
            f"{total} configurations exceed the cap of {max_configurations}"
        )
    solver = inst.solver
    anchored = bool(inst.minus_set or inst.plus_base)
    if k == 1 and anchored:
        f0 = solver.objective(())
        gains = solver.gains(())
        scored = [((), f0)] + [((v,), f0 + gains[v]) for v in pool]
        return _finish(inst, _best_candidate(scored)[0], len(scored), len(pool))
    sizes = range(k + 1)
    if not anchored:
        sizes = range(1, k + 1)  # the empty set has no equilibrium
    best_f = -math.inf
    best: tuple[int, ...] | None = None
    evaluations = 0
    for size in sizes:
        for combo in combinations(pool, size):
            f = solver.objective(combo)
            evaluations += 1
            if best is None or f > best_f + SCORE_TIE_TOL:
                best, best_f = combo, f
            elif f >= best_f - SCORE_TIE_TOL and combo < best:
                best = combo
    return _finish(inst, best, evaluations, len(pool))


def degree_heuristic(inst: Instance) -> StrategyOutcome:
    """Top-budget nodes by regular-graph degree; zero search cost.

    Degree ties resolve to the smaller node index. The single equilibrium
    evaluation is the final scoring of the chosen set.
    """
    deg = degrees(inst.graph)
    ranked = sorted(inst.candidates, key=lambda v: (-deg[v], v))
    chosen = ranked[: inst.budget]
    return _finish(inst, chosen, evaluations=1, visited=0)


def _best_candidate(scored) -> tuple[int, float] | None:
    """Pick the max-score candidate from (node, score) pairs in ascending
    node order, treating scores within SCORE_TIE_TOL as tied."""
    best = None
    for v, f in scored:
        if best is None or f > best[1] + SCORE_TIE_TOL:
            best = (v, f)
    return best


def _greedy_rounds(inst: Instance, committed: list[int], rounds: int) -> int:
    """Run greedy selection rounds in place; returns evaluations spent."""
    solver = inst.solver
    evaluations = 0
    for _ in range(rounds):
        taken = set(committed)
        pool = [v for v in inst.candidates if v not in taken]
        if not pool:
            break
        gains = solver.gains(tuple(committed))
        evaluations += len(pool)
        pick = _best_candidate((v, gains[v]) for v in pool)
        committed.append(pick[0])
    return evaluations


def greedy(inst: Instance) -> StrategyOutcome:
    """Budgeted greedy: each round adds the candidate with the best marginal
    objective gain, scanning every remaining candidate."""
    committed: list[int] = []
    evaluations = _greedy_rounds(inst, committed, inst.budget)
    visited = len(inst.candidates)
    if inst.budget == 0:
        visited = 0
    return _finish(inst, committed, evaluations, visited)


def blocking(inst: Instance) -> StrategyOutcome:
    """Block the opponent's exclusive nodes first, then go greedy.

    If the budget does not exceed the opponent's link advantage the method
    falls back to plain greedy. When the blockable set itself exceeds the
    budget, the highest-degree blocked nodes are preferred.
    """
    blockable = sorted(inst.minus_set - inst.plus_base)
    advantage = len(blockable) - len(inst.plus_base - inst.minus_set)
    if inst.budget <= advantage:
        return greedy(inst)
    if len(blockable) > inst.budget:
        deg = degrees(inst.graph)
        blockable = sorted(blockable, key=lambda v: (-deg[v], v))[: inst.budget]
    committed = sorted(blockable)
    remaining = inst.budget - len(committed)
    evaluations = _greedy_rounds(inst, committed, remaining)
    visited = len(inst.candidates) - len(blockable) if remaining > 0 else 0
    return _finish(inst, committed, evaluations, visited)


def tree_descent(inst: Instance, v_minus: int | None = None) -> StrategyOutcome:
    """Exact single-target search on a tree by descending improving children.

    Starting from the minus attachment as root, children are scanned in
    ascending order; the search re-roots at the first child that improves the
    objective and stops when none does. On a tree at most one child can
    improve, so the first improving child is the only one, and the walk ends
    at the exact optimum.
    """
    if len(inst.minus_set) != 1:
        raise ValueError("tree descent requires exactly one minus attachment")
    if inst.plus_base:
        raise ValueError("tree descent requires no pre-placed plus links")
    if inst.budget != 1:
        raise ValueError("tree descent solves the single-target problem only")
    root = next(iter(inst.minus_set))
    if v_minus is not None and int(v_minus) != root:
        raise ValueError(f"v_minus {v_minus} does not match minus_set {{{root}}}")
    view = tree_view(inst.graph, root)
    gains = inst.solver.gains(())
    current, current_f = root, gains[root]
    evaluations, visited = 1, 0
    improved = True
    while improved:
        improved = False
        for child in view.children[current]:
            visited += 1
            evaluations += 1
            if gains[child] > current_f + SCORE_TIE_TOL:
                current, current_f = child, gains[child]
                improved = True
                break
    return _finish(inst, [current], evaluations, visited)


def hill_climb(inst: Instance, root: int | None = None) -> StrategyOutcome:
    """Single-target search on any graph by moving to the best improving
    neighbor until none improves.

    ``root`` defaults to the minimum-degree minus attachment (ties to the
    smaller index): on sparse graphs it is easier to walk away from a marginal
    node than to recover from starting in the opponent's strongest region.
    Each node is evaluated at most once; re-encountered neighbors reuse their
    cached score. Exact on trees, heuristic otherwise.
    """
    if inst.budget != 1:
        raise ValueError("hill climb solves the single-target problem only")
    deg = degrees(inst.graph)
    if root is None:
        if not inst.minus_set:
            raise ValueError("no minus attachment to start from")
        root = min(inst.minus_set, key=lambda v: (deg[v], v))
    root = int(root)
    if not (0 <= root < inst.graph.node_count):
        raise ValueError(f"root {root} out of range")
    gains = inst.solver.gains(())
    blocked = inst.plus_base
    scores: dict[int, float] = {}
    evaluations = 0
    if root not in blocked:
        scores[root] = gains[root]
        evaluations += 1
        current_f = scores[root]
    else:
        current_f = 0.0  # placing no link yet: zero marginal gain as reference
    current = root
    visited = 0
    while True:
        fresh = [v for v in inst.graph.adjacency[current]
                 if v not in scores and v not in blocked]
        for v in fresh:
            scores[v] = gains[v]
        visited += len(fresh)
        evaluations += len(fresh)
        improving = [
            (v, scores[v])
            for v in inst.graph.adjacency[current]
            if v in scores and scores[v] > current_f + SCORE_TIE_TOL
        ]
        if not improving:
            break
        current, current_f = _best_candidate(improving)
    if current in blocked:
        # Never moved off a pre-targeted start; fall back to the best
        # candidate seen, if any.
        if not scores:
            raise ValueError("no candidate reachable from a pre-targeted root")
        current = _best_candidate(sorted(scores.items()))[0]
    return _finish(inst, [current], evaluations, visited)


def hill_climb_multi(inst: Instance) -> StrategyOutcome:
    """Budgeted targeting via one hill climb per link.

    Step i starts a climb from the i-th minus attachment in ascending degree
    order (cycling when the budget exceeds the attachments) and maximizes the
    marginal gain over the committed set; the best explored candidate is
    committed. Visited counts accumulate over steps.
    """
    if inst.budget < 1:
        raise ValueError("budget must be >= 1")
    if not inst.minus_set:
        raise ValueError("no minus attachment to start from")
    deg = degrees(inst.graph)
    roots = sorted(inst.minus_set, key=lambda v: (deg[v], v))
    solver = inst.solver
    committed: list[int] = []
    evaluations = 0
    visited = 0
    for step in range(inst.budget):
        root = roots[step % len(roots)]
        taken = set(committed) | inst.plus_base
        gains = solver.gains(tuple(committed))
        scores: dict[int, float] = {}
        if root not in taken:
            scores[root] = gains[root]
            evaluations += 1
            current_f = scores[root]
        else:
            current_f = 0.0  # committing nothing has zero marginal gain
        current = root
        while True:
            fresh = [v for v in inst.graph.adjacency[current]
                     if v not in scores and v not in taken]
            for v in fresh:
                scores[v] = gains[v]
            visited += len(fresh)
            evaluations += len(fresh)
            improving = [
                (v, scores[v])
                for v in inst.graph.adjacency[current]
                if v in scores and scores[v] > current_f + SCORE_TIE_TOL
            ]
            if not improving:
                break
            current, current_f = _best_candidate(improving)
        if not scores:
            continue  # nothing explorable this step
        pick = _best_candidate(sorted(scores.items()))
        committed.append(pick[0])
    return _finish(inst, committed, evaluations, visited)


def success(f_star: float, f_hat: float) -> bool:
    """Relative-error acceptance test between the optimum and a heuristic value.

    Success means a relative error of at most 1/e. A vanishing optimum (below
    1e-12 in magnitude) degenerates to requiring the heuristic value to vanish
    as well (within 1e-9).
    """
    if abs(f_star) <= 1e-12:
        return abs(f_hat) <= 1e-9
    return abs(f_star - f_hat) / abs(f_star) <= 1.0 / math.e
