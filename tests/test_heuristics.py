import math
from itertools import combinations

import pytest

from optarget import (
    Graph,
    Instance,
    NotATreeError,
    blocking,
    brute_force,
    complete_otp,
    degree_heuristic,
    generate_complete,
    generate_erdos_renyi,
    generate_line,
    generate_poisson_tree,
    greedy,
    hill_climb,
    hill_climb_multi,
    solve_equilibrium,
    success,
    tree_descent,
    tree_view,
)
from optarget.engine import _DIAG_CHUNK, DENSE_CUTOFF, OpinionSolver
from optarget.heuristics import SCORE_TIE_TOL
from conftest import CountingLU, random_connected_graph, random_tree, star_graph


def line_instance(n=10, minus=0, budget=1):
    return Instance(generate_line(n), frozenset({minus}), budget=budget)


def random_instance(rng, max_n=8, max_budget=3, with_plus=False):
    n = int(rng.integers(3, max_n + 1))
    g = random_connected_graph(n, float(rng.uniform(0.2, 0.8)), rng)
    minus = frozenset(int(v) for v in rng.choice(n, int(rng.integers(1, 3)),
                                                 replace=False))
    plus = frozenset()
    if with_plus and rng.random() < 0.5:
        plus = frozenset({int(rng.integers(0, n))})
    budget = int(rng.integers(1, min(max_budget, n - len(plus)) + 1))
    return Instance(g, minus, plus, budget=budget)


class TestBruteForce:
    def test_k10_blocking_optimum(self):
        inst = Instance(generate_complete(10), frozenset({7, 8, 9}), budget=5)
        out = brute_force(inst)
        _, _, f_star = complete_otp(10, 0, 3, 0, 5)
        assert out.objective == pytest.approx(f_star, abs=1e-12)
        assert out.equilibrium_evaluations == sum(
            math.comb(10, s) for s in range(6)
        )

    def test_line_single_target(self):
        out = brute_force(line_instance())
        assert out.chosen_set == {3}
        assert out.objective == pytest.approx(0.36, abs=1e-12)

    def test_zero_budget_returns_baseline(self):
        inst = line_instance(budget=0)
        out = brute_force(inst)
        assert out.chosen_set == frozenset()
        assert out.objective == pytest.approx(-1.0, abs=1e-12)

    def test_configuration_cap(self):
        # 4.6 M sets of at most 6 of 40 nodes: rejected before factorizing.
        inst = Instance(generate_complete(40), frozenset({0}), budget=6)
        with pytest.raises(ValueError, match="cap of 2000000"):
            brute_force(inst)
        assert "solver" not in inst.__dict__

    def test_sparse_budget_two_solves_once_per_sweep(self, rng):
        # Budget 2 on 100 nodes scores every pair: one diagonal pass, then
        # one refined column solve (two LU solves) per singleton's sweep and
        # for the final profile, and still the dense optimum.
        g = random_connected_graph(100, 0.04, rng)
        inst = on_backend(Instance(g, frozenset({3, 50}), budget=2), "sparse")
        inst.solver._inv._lu = lu = CountingLU(inst.solver._inv._lu)
        out = brute_force(inst)
        bound = math.ceil(g.node_count / _DIAG_CHUNK) + 2 * (len(inst.candidates) + 1)
        assert lu.solves <= bound
        expected = brute_force(Instance(g, frozenset({3, 50}), budget=2))
        assert out.chosen_set == expected.chosen_set
        assert out.objective == pytest.approx(expected.objective, abs=1e-12)

    def test_tie_prefers_lexicographically_smallest(self):
        # On a complete graph with one opposing link every fresh node is
        # equivalent, so the reported optimum must be the first one.
        inst = Instance(generate_complete(6), frozenset({5}), budget=2)
        out = brute_force(inst)
        assert out.chosen_set == {0, 5} or out.chosen_set == {0, 1}
        # blocking node 5 plus one fresh node beats two fresh nodes
        assert out.chosen_set == {0, 5}


def on_backend(inst, backend):
    """``inst`` with its solver pinned to the dense or the sparse backend."""
    inst.__dict__["solver"] = OpinionSolver(
        inst.graph, sorted(inst.minus_set), sorted(inst.plus_base),
        dense_cutoff={"dense": DENSE_CUTOFF, "sparse": 0}[backend])
    return inst


@pytest.fixture
def backend():
    """Backend for the solver test classes; their ``...OnSparse`` twins,
    made by ``on_sparse``, switch it to "sparse"."""
    return "dense"


def on_sparse(cls):
    """Twin of a test class that runs every test on the sparse backend."""
    @pytest.fixture
    def backend(self):
        return "sparse"
    return type(f"{cls.__name__}OnSparse", (cls,), {"backend": backend})


def combination_loop(inst):
    """brute_force's former combination loop, one objective call per target
    set: the reference for its gain sweeps. Returns (best, evaluations)."""
    sizes = range(inst.budget + 1)
    if not (inst.minus_set or inst.plus_base):
        sizes = range(1, inst.budget + 1)
    best, best_f, evaluations = None, -math.inf, 0
    for size in sizes:
        for combo in combinations(inst.candidates, size):
            f = inst.solver.objective(combo)
            evaluations += 1
            if best is None or f > best_f + SCORE_TIE_TOL:
                best, best_f = combo, f
            elif f >= best_f - SCORE_TIE_TOL and combo < best:
                best = combo
    return best, evaluations


def cycle_instance(n=9, minus=4):
    return Instance(Graph(n, [(i, (i + 1) % n) for i in range(n)]),
                    frozenset({minus}), budget=1)


@pytest.mark.parametrize("backend", ["dense", "sparse"])
class TestBruteForceSingleTargetSweep:
    def assert_matches_loop(self, inst):
        best, evaluations = combination_loop(inst)
        out = brute_force(inst)
        assert out.chosen_set == frozenset(best)
        assert out.objective == solve_equilibrium(inst, best).objective
        assert out.equilibrium_evaluations == evaluations == sum(
            math.comb(len(inst.candidates), size) for size in range(inst.budget + 1))
        assert out.visited_nodes == len(inst.candidates)
        return out

    def test_random_instances(self, rng, backend):
        for _ in range(25):
            inst = random_instance(rng, max_n=30, max_budget=1, with_plus=True)
            self.assert_matches_loop(on_backend(inst, backend))

    @pytest.mark.parametrize("budget", [2, 3])
    def test_random_instances_larger_budgets(self, rng, backend, budget):
        for _ in range(10):
            inst = random_instance(rng, max_n=16, with_plus=True)
            if len(inst.candidates) >= budget:
                inst = Instance(inst.graph, inst.minus_set, inst.plus_base, budget=budget)
                self.assert_matches_loop(on_backend(inst, backend))

    @pytest.mark.parametrize("budget", [2, 3])
    def test_exact_ties_at_larger_budgets(self, backend, budget):
        # Reflections of the cycle tie many sets exactly.
        inst = cycle_instance()
        inst = Instance(inst.graph, inst.minus_set, budget=budget)
        self.assert_matches_loop(on_backend(inst, backend))

    def test_exact_tie_resolves_to_smallest_index(self, backend):
        # On a cycle the reflection swapping the minus node and a target v
        # negates every opinion, so all singletons score exactly 0.
        out = self.assert_matches_loop(on_backend(cycle_instance(), backend))
        assert out.chosen_set == {0}

    def test_plus_base_only_keeps_the_empty_set(self, backend):
        # Every opinion is already +1: no singleton gains anything.
        inst = Instance(generate_line(6), frozenset(), frozenset({2}), budget=1)
        out = self.assert_matches_loop(on_backend(inst, backend))
        assert out.chosen_set == frozenset()
        assert out.objective == pytest.approx(1.0, abs=1e-12)


def test_single_target_sweep_backends_agree(rng):
    for _ in range(10):
        inst = random_instance(rng, max_n=30, max_budget=1, with_plus=True)
        twin = Instance(inst.graph, inst.minus_set, inst.plus_base, budget=1)
        sparse = brute_force(on_backend(inst, "sparse"))
        dense = brute_force(on_backend(twin, "dense"))
        assert sparse.chosen_set == dense.chosen_set
        assert sparse.objective == pytest.approx(dense.objective, abs=1e-12)


class TestNoAttachment:
    """Without attachments every nonempty target set scores exactly +1, so
    the searches keep the smallest set and node indices."""

    def test_brute_force(self, rng):
        g = random_connected_graph(12, 0.3, rng)
        for k, expected_evaluations in [(1, 12), (2, 12 + 66)]:
            out = brute_force(Instance(g, frozenset(), budget=k))
            assert out.chosen_set == {0}
            assert out.objective == 1.0
            assert out.equilibrium_evaluations == expected_evaluations

    def test_brute_force_zero_budget(self, rng):
        # The empty set is the only candidate and it has no equilibrium.
        g = random_connected_graph(12, 0.3, rng)
        with pytest.raises(ValueError,
                           match="no strategic attachment: objective undefined"):
            brute_force(Instance(g, frozenset(), budget=0))

    def test_greedy(self, rng):
        g = random_connected_graph(12, 0.3, rng)
        out = greedy(Instance(g, frozenset(), budget=3))
        assert out.chosen_set == {0, 1, 2}
        assert out.objective == 1.0
        assert out.equilibrium_evaluations == 12 + 11 + 10


class TestDegreeHeuristic:
    def test_star_center(self):
        inst = Instance(star_graph(5), frozenset({3}), budget=1)
        assert degree_heuristic(inst).chosen_set == {0}

    def test_complete_graph_tie_break(self):
        inst = Instance(generate_complete(8), frozenset({4}), budget=2)
        assert degree_heuristic(inst).chosen_set == {0, 1}

    def test_single_evaluation(self):
        out = degree_heuristic(line_instance())
        assert out.equilibrium_evaluations == 1
        assert out.visited_nodes == 0

    def test_excludes_preplaced_targets(self):
        inst = Instance(star_graph(5), frozenset({3}), frozenset({0}), budget=1)
        out = degree_heuristic(inst)
        assert out.chosen_set == {1}

    def test_underperforms_greedy_on_average(self, rng):
        # Picking hubs ignores where the opponent sits; over a batch of
        # sparse graphs greedy must win on average.
        deg_sum = greedy_sum = 0.0
        n = 80
        p = 2.5 * math.log(n) / n
        for trial in range(12):
            g = generate_erdos_renyi(n, p, seed=1000 + trial)
            while True:
                from optarget import is_connected
                if is_connected(g):
                    break
                g = generate_erdos_renyi(n, p, seed=int(rng.integers(1 << 30)))
            minus = frozenset(int(v) for v in rng.choice(n, 3, replace=False))
            inst = Instance(g, minus, budget=3)
            deg_sum += degree_heuristic(inst).objective
            greedy_sum += greedy(inst).objective
        assert greedy_sum > deg_sum


class TestGreedy:
    def test_single_round_equals_brute_force(self, rng, backend):
        for _ in range(20):
            inst = on_backend(random_instance(rng, max_budget=1), backend)
            g_out = greedy(inst)
            b_out = brute_force(inst)
            assert g_out.chosen_set == b_out.chosen_set
            assert g_out.objective == pytest.approx(b_out.objective, abs=1e-12)

    def test_objective_nondecreasing_in_budget(self, rng, backend):
        for _ in range(10):
            base = random_instance(rng, max_n=10, max_budget=1)
            values = []
            for k in range(0, 4):
                inst = Instance(base.graph, base.minus_set, base.plus_base, budget=k)
                values.append(greedy(on_backend(inst, backend)).objective)
            assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    def test_evaluation_budget(self, rng, backend):
        for _ in range(10):
            inst = on_backend(random_instance(rng, max_n=10), backend)
            out = greedy(inst)
            n = inst.graph.node_count
            assert out.equilibrium_evaluations <= n * inst.budget
            assert len(out.chosen_set) == min(inst.budget, len(inst.candidates))

    def test_near_optimal_on_small_instances(self, rng, backend):
        # Standard submodular-greedy guarantee, relative to a positive
        # optimum. Optima that vanish up to round-off (such as targeting
        # exactly the minus set, F = 0) count as zero, as in ``success``.
        checked = 0
        while checked < 40:
            inst = on_backend(random_instance(rng), backend)
            f_star = brute_force(inst).objective
            if f_star <= 1e-12:
                continue
            assert greedy(inst).objective >= (1 - 1 / math.e) * f_star - 1e-9
            checked += 1


class TestBlocking:
    def test_matches_exact_optimum_on_complete_graph(self, backend):
        inst = Instance(generate_complete(10), frozenset({7, 8, 9}), budget=5)
        out = blocking(on_backend(inst, backend))
        assert out.chosen_set >= {7, 8, 9}
        _, _, f_star = complete_otp(10, 0, 3, 0, 5)
        assert out.objective == pytest.approx(f_star, abs=1e-12)

    def test_guard_failure_falls_back_to_greedy(self, rng, backend):
        # Budget of 2 cannot exceed the advantage of 3 exclusive links.
        for _ in range(10):
            n = int(rng.integers(6, 14))
            g = random_connected_graph(n, 0.4, rng)
            minus = frozenset(int(v) for v in rng.choice(n, 3, replace=False))
            inst = on_backend(Instance(g, minus, budget=2), backend)
            assert blocking(inst).chosen_set == greedy(inst).chosen_set

    def test_oversized_block_set_truncated_by_degree(self, backend):
        # plus_base makes the guard pass while four nodes are blockable but
        # only three links exist; highest-degree blocked nodes win.
        g = star_graph(6)
        inst = Instance(g, frozenset({0, 1, 2, 3}), frozenset({5, 6}), budget=3)
        out = blocking(on_backend(inst, backend))
        assert out.chosen_set == {0, 1, 2}  # center first, then smaller leaves
        assert out.equilibrium_evaluations == 0

    def test_spends_leftover_budget_greedily(self, backend):
        inst = Instance(generate_complete(8), frozenset({6, 7}), budget=4)
        out = blocking(on_backend(inst, backend))
        assert {6, 7} <= out.chosen_set
        assert len(out.chosen_set) == 4
        assert out.equilibrium_evaluations <= 2 * 8


class TestTreeDescent:
    def test_line_from_endpoint(self, backend):
        out = tree_descent(on_backend(line_instance(), backend))
        assert out.chosen_set == {3}
        assert out.objective == pytest.approx(0.36, abs=1e-12)
        assert out.visited_nodes == 4

    def test_star_from_leaf_matches_brute_force(self, backend):
        inst = on_backend(Instance(star_graph(7), frozenset({4}), budget=1), backend)
        assert tree_descent(inst).chosen_set == brute_force(inst).chosen_set == {0}

    def test_rejects_non_tree(self, backend):
        inst = on_backend(Instance(generate_complete(4), frozenset({0}), budget=1),
                          backend)
        with pytest.raises(NotATreeError):
            tree_descent(inst)

    def test_rejects_multi_minus(self, backend):
        inst = on_backend(Instance(generate_line(5), frozenset({0, 4}), budget=1),
                          backend)
        with pytest.raises(ValueError):
            tree_descent(inst)

    def test_exact_on_random_trees(self, rng, backend):
        for trial in range(40):
            g = generate_poisson_tree(3.0, max_nodes=80, seed=trial)
            if g.node_count < 2:
                continue
            n = g.node_count
            root = int(rng.integers(0, n))
            inst = on_backend(Instance(g, frozenset({root}), budget=1), backend)
            exact = brute_force(inst)
            walk = tree_descent(inst)
            assert walk.objective == pytest.approx(exact.objective, abs=1e-12)
            assert walk.visited_nodes <= n

    def test_branch_scores_rise_then_fall(self, rng, backend):
        # Along any root-to-leaf branch the single-target score is unimodal.
        for trial in range(15):
            g = random_tree(int(rng.integers(4, 40)), rng)
            n = g.node_count
            root = int(rng.integers(0, n))
            inst = on_backend(Instance(g, frozenset({root}), budget=1), backend)
            gains = inst.solver.gains(())
            t = tree_view(g, root)
            leaves = [v for v in range(n) if not t.children[v]]
            for leaf in leaves:
                branch = [leaf]
                while branch[-1] != root:
                    branch.append(t.parent[branch[-1]])
                scores = [gains[v] for v in reversed(branch)]
                dropped = False
                for a, b in zip(scores, scores[1:]):
                    if b < a - 1e-12:
                        dropped = True
                    else:
                        assert not dropped or b <= a + 1e-12

    def test_at_most_one_improving_child(self, rng, backend):
        for trial in range(15):
            g = random_tree(int(rng.integers(4, 40)), rng)
            n = g.node_count
            root = int(rng.integers(0, n))
            inst = on_backend(Instance(g, frozenset({root}), budget=1), backend)
            gains = inst.solver.gains(())
            t = tree_view(g, root)
            for v in range(n):
                improving = [c for c in t.children[v]
                             if gains[c] > gains[v] + 1e-12]
                assert len(improving) <= 1


class TestHillClimb:
    def test_agrees_with_descent_on_trees(self, rng, backend):
        for trial in range(25):
            g = generate_poisson_tree(4.0, max_nodes=60, seed=200 + trial)
            if g.node_count < 2:
                continue
            root = int(rng.integers(0, g.node_count))
            inst = on_backend(Instance(g, frozenset({root}), budget=1), backend)
            assert hill_climb(inst).chosen_set == tree_descent(inst).chosen_set

    def test_default_root_is_min_degree_minus_node(self, backend):
        # A star with a pendant path: leaf 3 has degree 1, the center 0 has
        # the maximum degree, so the walk starts at the leaf.
        g = Graph(7, [(0, 1), (0, 2), (0, 3), (0, 4), (4, 5), (5, 6)])
        inst = on_backend(Instance(g, frozenset({0, 3}), budget=1), backend)
        by_default = hill_climb(inst)
        from_leaf = hill_climb(inst, root=3)
        assert by_default.chosen_set == from_leaf.chosen_set
        assert by_default.visited_nodes == from_leaf.visited_nodes

    def test_single_minus_starts_there(self, backend):
        out = hill_climb(on_backend(line_instance(), backend))
        assert out.chosen_set == {3}
        assert out.visited_nodes == 4

    def test_counts_each_node_once(self, backend):
        g = generate_complete(6)  # every move re-sees the same neighbors
        inst = on_backend(Instance(g, frozenset({0}), budget=1), backend)
        out = hill_climb(inst)
        assert out.visited_nodes <= 6
        assert out.equilibrium_evaluations <= 6

    def test_budget_must_be_one(self, backend):
        with pytest.raises(ValueError):
            hill_climb(on_backend(line_instance(budget=2), backend))

    def test_not_worse_than_max_degree_rooting(self, rng, backend):
        # Paired comparison on sparse graphs: rooting at the opponent's most
        # marginal node should not lose to rooting at its hub.
        n = 60
        p = 1.5 * math.log(n) / n
        min_wins = max_wins = 0
        from optarget import degrees, is_connected
        trials = 0
        seed = 0
        while trials < 30:
            seed += 1
            g = generate_erdos_renyi(n, p, seed=seed)
            if not is_connected(g):
                continue
            trials += 1
            minus = frozenset(int(v) for v in rng.choice(n, 3, replace=False))
            inst = on_backend(Instance(g, minus, budget=1), backend)
            f_star = brute_force(inst).objective
            deg = degrees(inst.graph)
            lo = min(minus, key=lambda v: (deg[v], v))
            hi = max(minus, key=lambda v: (deg[v], -v))
            min_wins += success(f_star, hill_climb(inst, root=lo).objective)
            max_wins += success(f_star, hill_climb(inst, root=hi).objective)
        assert min_wins >= max_wins - 2


class TestHillClimbMulti:
    def test_single_budget_reduces_to_hill_climb(self, rng, backend):
        for _ in range(15):
            inst = on_backend(random_instance(rng, max_budget=1), backend)
            assert hill_climb_multi(inst).chosen_set == hill_climb(inst).chosen_set

    def test_objective_nondecreasing_across_steps(self, rng, backend):
        for _ in range(10):
            base = random_instance(rng, max_n=12, max_budget=1)
            prev = None
            for k in range(1, 4):
                inst = Instance(base.graph, base.minus_set, base.plus_base, budget=k)
                val = hill_climb_multi(on_backend(inst, backend)).objective
                if prev is not None:
                    assert val >= prev - 1e-12
                prev = val

    def test_respects_budget_and_disjointness(self, rng, backend):
        for _ in range(15):
            inst = on_backend(random_instance(rng, with_plus=True), backend)
            out = hill_climb_multi(inst)
            assert len(out.chosen_set) <= inst.budget
            assert not (out.chosen_set & inst.plus_base)


TestGreedyOnSparse = on_sparse(TestGreedy)
TestBlockingOnSparse = on_sparse(TestBlocking)
TestTreeDescentOnSparse = on_sparse(TestTreeDescent)
TestHillClimbOnSparse = on_sparse(TestHillClimb)
TestHillClimbMultiOnSparse = on_sparse(TestHillClimbMulti)


class TestSuccess:
    def test_exact_match(self):
        assert success(0.5, 0.5)

    def test_zero_estimate_fails_against_positive_optimum(self):
        assert not success(1.0, 0.0)

    def test_boundary_ratio(self):
        assert success(1.0, 0.64)  # relative error 0.36 < 1/e
        assert not success(1.0, 0.6)  # relative error 0.4 > 1/e

    def test_degenerate_optimum(self):
        assert success(0.0, 1e-10)
        assert not success(0.0, 0.5)


class TestOutcomeContracts:
    def test_objective_is_fresh_resolve(self, rng):
        for _ in range(10):
            inst = random_instance(rng, with_plus=True)
            for solver in (brute_force, degree_heuristic, greedy, blocking):
                out = solver(inst)
                fresh = solve_equilibrium(inst, out.chosen_set).objective
                assert out.objective == pytest.approx(fresh, abs=1e-12)
                assert not (out.chosen_set & inst.plus_base)
                assert len(out.chosen_set) <= inst.budget

    def test_deterministic_outcomes(self, rng):
        inst = random_instance(rng, with_plus=True)
        for solver in (brute_force, degree_heuristic, greedy, blocking,
                       hill_climb_multi):
            assert solver(inst) == solver(inst)
