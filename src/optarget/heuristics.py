"""Targeting solvers: exhaustive search, classic heuristics, and tree search.

Every solver returns a :class:`StrategyOutcome` with the chosen target set,
its objective (always re-solved from scratch, never taken from the search
bookkeeping), and two instrumentation counters: how many equilibrium
evaluations the search spent and how many distinct candidate nodes it scored.

Every scan takes candidates in ascending order (for ``brute_force``, sorted
tuples in lexicographic order) and keeps the first one unless a later one
beats the best so far by more than ``SCORE_TIE_TOL``; a walk moves only on
such a gain, so among tied nodes it stays at the first one it reaches.
Genuinely distinct objective values in the supported instance families
differ by far more than solver round-off (rational gaps of 1e-8 and up
versus noise near 1e-13), so the tolerance only collapses exact
mathematical ties that floating point would otherwise order arbitrarily.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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


def brute_force(inst: Instance) -> StrategyOutcome:
    """Exact maximizer over all target sets within budget.

    Ties resolve to the lexicographically smallest sorted tuple. Raises if the
    number of configurations exceeds ``MAX_BRUTE_FORCE_CONFIGURATIONS``.

    Sets are scored in lexicographic order; one gain sweep per set S below
    the budget scores every extension by a larger v as the rank-one update
    ``F(S + {v}) = F(S) + gains(S)[v]``. The empty set scores
    ``objective(())``; without any attachment it has no equilibrium, is not
    counted, and seeds its extensions with 0 (each then scores exactly 1).
    Every other set is one evaluation; a budget above 0 visits every candidate.
    """
    pool = inst.candidates
    k = inst.budget
    total = sum(math.comb(len(pool), size) for size in range(k + 1))
    if total > MAX_BRUTE_FORCE_CONFIGURATIONS:
        raise ValueError(
            f"{total} configurations exceed the cap of {MAX_BRUTE_FORCE_CONFIGURATIONS}"
        )
    solver = inst.solver
    best = _best_candidate(_scored_sets(solver, pool, k))
    if best is None:
        raise ValueError("no strategic attachment: objective undefined")
    evaluations = total if solver.anchored else total - 1
    return _finish(inst, best[0], evaluations, len(pool) if k else 0)


def _scored_sets(solver, pool: tuple[int, ...], k: int):
    """Yield every set of at most ``k`` candidates from ``pool`` with its
    score, in lexicographic order: depth first, one gain vector per depth."""
    f0 = 0.0
    if solver.anchored:
        f0 = solver.objective(())
        yield (), f0
    if k:
        yield from _extensions(solver, pool, k, (), f0, 0)


def _extensions(solver, pool: tuple[int, ...], k: int, s: tuple, f: float, start: int):
    """``s`` (score ``f``) extended by ``pool[start:]`` up to size ``k``, depth
    first. Not nested in ``_scored_sets``: a nested generator closes over
    itself, and the cycle would hold the solver until the cyclic GC runs."""
    gains = solver.gains(s)
    for i in range(start, len(pool)):
        t, g = s + (pool[i],), f + gains[pool[i]]
        yield t, g
        if len(t) < k:
            yield from _extensions(solver, pool, k, t, g, i + 1)


def degree_heuristic(inst: Instance) -> StrategyOutcome:
    """Top-budget nodes by regular-graph degree; zero search cost.

    Degree ties resolve to the smaller node index. The single equilibrium
    evaluation is the final scoring of the chosen set.
    """
    deg = degrees(inst.graph)
    chosen = sorted(inst.candidates, key=lambda v: (-deg[v], v))[: inst.budget]
    return _finish(inst, chosen, evaluations=1, visited=0)


def _best_candidate(scored):
    """The record of (key, score) pairs taken in order: the first pair, or a
    later one that beats the best so far by more than SCORE_TIE_TOL; None if
    there is none."""
    best = None
    for key, f in scored:
        if best is None or f > best[1] + SCORE_TIE_TOL:
            best = (key, f)
    return best


def _greedy_from(inst: Instance, committed: list[int]) -> StrategyOutcome:
    """Greedy rounds from ``committed`` until the budget is spent; the
    candidates outside the start set count as visited once a round runs."""
    rounds = inst.budget - len(committed)
    visited = len(inst.candidates) - len(committed) if rounds > 0 else 0
    evaluations = 0
    for _ in range(rounds):
        taken = set(committed)
        pool = [v for v in inst.candidates if v not in taken]
        gains = inst.solver.gains(tuple(committed))
        evaluations += len(pool)
        committed.append(_best_candidate((v, gains[v]) for v in pool)[0])
    return _finish(inst, committed, evaluations, visited)


def greedy(inst: Instance) -> StrategyOutcome:
    """Budgeted greedy: each round adds the candidate with the best marginal
    objective gain, scanning every remaining candidate."""
    return _greedy_from(inst, [])


def blocking(inst: Instance) -> StrategyOutcome:
    """Block the opponent's exclusive nodes first, then go greedy.

    If the budget does not exceed the opponent's link advantage the method
    falls back to plain greedy. When the blockable set itself exceeds the
    budget, the highest-degree blocked nodes are preferred.
    """
    blockable = inst.minus_set - inst.plus_base
    if inst.budget <= len(blockable) - len(inst.plus_base - inst.minus_set):
        blockable = frozenset()  # no advantage to overcome: plain greedy
    deg = degrees(inst.graph)
    blocked = sorted(blockable, key=lambda v: (-deg[v], v))[: inst.budget]
    return _greedy_from(inst, sorted(blocked))


def tree_descent(inst: Instance) -> StrategyOutcome:
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
    view = tree_view(inst.graph, root)
    gains = inst.solver.gains(())
    current, current_f = root, gains[root]
    visited = 0  # every visited child is one evaluation, after the root's
    improved = True
    while improved:
        improved = False
        for child in view.children[current]:
            visited += 1
            if gains[child] > current_f + SCORE_TIE_TOL:
                current, current_f = child, gains[child]
                improved = True
                break
    return _finish(inst, [current], visited + 1, visited)


def _climb(inst: Instance, gains, root: int, taken) -> tuple[int | None, int, int]:
    """Walk from ``root`` to the best improving neighbor until none improves.

    Each step is one record walk over the current node, then its neighbors.
    Nodes in ``taken`` are never scored; a taken root scores -inf, so the
    first step leaves it for the first neighbor scored. Each node is scored at
    most once, and re-encountered neighbors reuse their score. Returns the
    walk's end (None if the walk scored no node: the root and all its
    neighbors are taken) and the evaluation and visited counts.
    """
    csr = inst.graph.adjacency_csr()
    indptr, indices = csr.indptr, csr.indices
    scores: dict[int, float] = {}
    if root not in taken:
        scores[root] = gains[root]
    best = (root, scores.get(root, -math.inf))
    evaluations, visited = len(scores), 0
    while True:
        current = best[0]
        # Python ints, in ascending order: the CSR's sorted column indices.
        neighbors = indices[indptr[current]:indptr[current + 1]].tolist()
        fresh = [v for v in neighbors if v not in scores and v not in taken]
        for v in fresh:
            scores[v] = gains[v]
        visited += len(fresh)
        evaluations += len(fresh)
        best = _best_candidate([best, *((v, scores[v]) for v in neighbors if v in scores)])
        if best[0] == current:
            break
    return (None if current in taken else current), evaluations, visited


def _climbs(inst: Instance) -> tuple[list[int], int, int]:
    """One ``_climb`` per link, committing each walk's end (if any) and
    summing the counters. Step i maximizes the marginal gain over the
    committed set from the i-th minus attachment in (degree, id) order,
    cycling: walking away from a marginal node beats starting in the
    opponent's strongest region."""
    if not inst.minus_set:
        raise ValueError("no minus attachment to start from")
    deg = degrees(inst.graph)
    roots = sorted(inst.minus_set, key=lambda v: (deg[v], v))
    committed: list[int] = []
    evaluations = visited = 0
    for step in range(inst.budget):
        node, step_evaluations, step_visited = _climb(
            inst, inst.solver.gains(tuple(committed)), roots[step % len(roots)],
            set(committed) | inst.plus_base)
        evaluations += step_evaluations
        visited += step_visited
        if node is not None:
            committed.append(node)
    return committed, evaluations, visited


def hill_climb(inst: Instance) -> StrategyOutcome:
    """``hill_climb_multi`` at budget 1: one walk from the minimum-degree
    minus attachment. Exact on trees, heuristic otherwise."""
    if inst.budget != 1:
        raise ValueError("hill climb solves the single-target problem only")
    committed, evaluations, visited = _climbs(inst)
    if not committed:
        raise ValueError("no candidate reachable from a pre-targeted root")
    return _finish(inst, committed, evaluations, visited)


def hill_climb_multi(inst: Instance) -> StrategyOutcome:
    """Budgeted targeting via one hill climb per link (see ``_climbs``);
    visited counts accumulate over steps."""
    if inst.budget < 1:
        raise ValueError("budget must be >= 1")
    return _finish(inst, *_climbs(inst))


def success(f_star: float, f_hat: float) -> bool:
    """Relative-error acceptance test between the optimum and a heuristic value.

    Success means a relative error of at most 1/e. A vanishing optimum (below
    1e-12 in magnitude) degenerates to requiring the heuristic value to vanish
    as well (within 1e-9).
    """
    if abs(f_star) <= 1e-12:
        return abs(f_hat) <= 1e-9
    return abs(f_star - f_hat) / abs(f_star) <= 1.0 / math.e
