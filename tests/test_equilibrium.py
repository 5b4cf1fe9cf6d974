import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from optarget import (
    EquilibriumProfile,
    Graph,
    Instance,
    blocking,
    brute_force,
    degree_heuristic,
    generate_complete,
    generate_erdos_renyi,
    generate_line,
    generate_poisson_tree,
    greedy,
    hill_climb_multi,
    solve_equilibrium,
    verify_electrical,
)
from conftest import random_connected_graph, star_graph


def brute_profile(inst: Instance, extra=frozenset()):
    """Independent oracle: assemble the balance equations row by row and
    solve them with a plain dense solve."""
    n = inst.graph.node_count
    plus = set(inst.plus_base) | set(extra)
    mat = np.zeros((n, n))
    rhs = np.zeros(n)
    for i in range(n):
        mat[i, i] = len(inst.graph.adjacency[i]) + (i in inst.minus_set) + (i in plus)
        for j in inst.graph.adjacency[i]:
            mat[i, j] -= 1.0
        rhs[i] = (i in plus) - (i in inst.minus_set)
    return np.linalg.solve(mat, rhs)


class TestSolveEquilibrium:
    def test_single_node_with_both_sources_is_neutral(self):
        inst = Instance(Graph(1, []), frozenset({0}), frozenset({0}), budget=0)
        prof = solve_equilibrium(inst)
        assert prof.opinions == pytest.approx([0.0], abs=1e-14)
        assert prof.objective == pytest.approx(0.0, abs=1e-14)

    def test_two_node_line_hand_solved(self):
        # Balance equations: 2*x0 - x1 = -1 and 2*x1 - x0 = +1,
        # hence x0 = -1/3, x1 = +1/3.
        inst = Instance(generate_line(2), frozenset({0}), budget=1)
        prof = solve_equilibrium(inst, {1})
        assert prof.opinions == pytest.approx([-1 / 3, 1 / 3], abs=1e-12)
        assert prof.objective == pytest.approx(0.0, abs=1e-12)

    def test_complete_ten_with_mixed_attachments(self):
        # Two nodes linked to +, one to -, two to both. Eliminating the four
        # node classes by hand gives a total opinion sum of 3/2, so the mean
        # is 0.15.
        g = generate_complete(10)
        inst = Instance(g, frozenset({4, 5, 9}), frozenset({1, 2, 4, 5}), budget=0)
        prof = solve_equilibrium(inst)
        assert prof.objective == pytest.approx(0.15, abs=1e-12)

    def test_matches_row_by_row_oracle(self, rng):
        for _ in range(25):
            n = int(rng.integers(2, 30))
            g = random_connected_graph(n, 0.3, rng)
            minus = frozenset(int(v) for v in rng.choice(n, 2, replace=False))
            extra = {int(rng.integers(0, n))}
            inst = Instance(g, minus, budget=1)
            prof = solve_equilibrium(inst, extra)
            assert prof.opinions == pytest.approx(brute_profile(inst, extra), abs=1e-10)

    def test_all_minus_profile_without_plus(self):
        inst = Instance(generate_line(5), frozenset({2}), budget=0)
        prof = solve_equilibrium(inst)
        assert prof.opinions == pytest.approx([-1.0] * 5, abs=1e-12)
        assert prof.objective == pytest.approx(-1.0, abs=1e-12)

    def test_no_attachment_anywhere_rejected(self):
        inst = Instance(generate_line(3), frozenset(), budget=1)
        with pytest.raises(ValueError, match="no strategic attachment"):
            solve_equilibrium(inst)

    def test_extra_overlapping_plus_base_rejected(self):
        # Pre-placed, repeated, out-of-range and fractional targets all fail
        # the engine's id rule, in the solve and in the electrical check alike.
        inst = Instance(generate_line(3), frozenset({0}), frozenset({1}), budget=1)
        prof = solve_equilibrium(inst, {2})
        for extra, message in [({1}, "already hold"), ([2, 2], "must not repeat"),
                               ([3], "must lie in"), ([2.7], "must be integers")]:
            with pytest.raises(ValueError, match=message):
                solve_equilibrium(inst, extra)
            with pytest.raises(ValueError, match=message):
                verify_electrical(inst, extra, prof)

    def test_out_of_range_base_ids_rejected(self):
        line = generate_line(3)
        for minus, plus in [({3}, set()), ({0}, {-1})]:
            with pytest.raises(ValueError, match="node ids must lie in"):
                Instance(line, frozenset(minus), frozenset(plus), budget=0)

    def test_budget_follows_the_integer_rule(self):
        # An integral budget is the int, so every solver can range over it; a
        # fractional, NaN or infinite one is rejected, as an infinite id is.
        g = generate_line(6)
        inst = Instance(g, frozenset({0}), budget=2.0)
        assert type(inst.budget) is int and inst.budget == 2
        for solver in (greedy, brute_force, degree_heuristic, blocking, hill_climb_multi):
            assert len(solver(inst).chosen_set) == 2
        for budget in (1.5, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="budget must be an integer"):
                Instance(g, frozenset({0}), budget=budget)
        with pytest.raises(ValueError, match="node ids must be integers"):
            Instance(g, frozenset({float("inf")}))
        with pytest.raises(ValueError, match="node ids must be integers"):
            Instance(g, frozenset({0}), frozenset({float("nan")}), budget=0)

    def test_fractional_base_ids_rejected(self):
        # int() would truncate 2.7 to 2; an integral float is the integer id.
        line = generate_line(6)
        with pytest.raises(ValueError, match="must be integers"):
            Instance(line, frozenset({2.7}))
        with pytest.raises(ValueError, match="must be integers"):
            Instance(line, frozenset({0}), frozenset({1.5}), budget=0)
        inst = Instance(line, frozenset({2.0}), budget=1)
        assert inst.minus_set == {2} and all(type(v) is int for v in inst.minus_set)
        prof = solve_equilibrium(inst, [4.0])
        assert prof.target_set == {4}
        assert prof.objective == solve_equilibrium(inst, [4]).objective

    def test_disconnected_graph_rejected(self):
        with pytest.raises(ValueError, match="connected"):
            Instance(Graph(4, [(0, 1), (2, 3)]), frozenset({0}), budget=1)

    def test_budget_above_free_nodes_rejected(self):
        with pytest.raises(ValueError, match="budget"):
            Instance(generate_line(3), frozenset({0}), frozenset({1}), budget=3)
        with pytest.raises(ValueError, match="budget must be >= 0"):
            Instance(generate_line(3), frozenset({0}), budget=-1)

    def test_opinions_stay_in_unit_interval(self, rng):
        for _ in range(30):
            n = int(rng.integers(2, 25))
            g = random_connected_graph(n, 0.4, rng)
            minus = frozenset(int(v) for v in rng.choice(n, 2, replace=False))
            k = int(rng.integers(0, 3))
            extra = frozenset(int(v) for v in rng.choice(n, k, replace=False))
            prof = solve_equilibrium(Instance(g, minus, budget=k), extra)
            assert prof.opinions.min() >= -1 - 1e-9
            assert prof.opinions.max() <= 1 + 1e-9


class TestObjective:
    def test_equals_profile_objective(self):
        inst = Instance(generate_line(10), frozenset({0}), budget=1)
        assert solve_equilibrium(inst, {3}).objective == inst.solver.objective({3})

    def test_line_ten_value(self):
        inst = Instance(generate_line(10), frozenset({0}), budget=1)
        assert solve_equilibrium(inst, {3}).objective == pytest.approx(0.36, abs=1e-12)

    def test_swapping_roles_negates(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 20))
            g = random_connected_graph(n, 0.4, rng)
            minus = frozenset(int(v) for v in rng.choice(n, 2, replace=False))
            extra = frozenset({int(rng.integers(0, n))})
            f = solve_equilibrium(Instance(g, minus, budget=1), extra).objective
            swapped = Instance(g, extra, minus, budget=0)
            assert solve_equilibrium(swapped).objective == pytest.approx(-f, abs=1e-12)

    def test_targeting_exactly_the_minus_set_cancels(self, rng):
        for _ in range(10):
            n = int(rng.integers(3, 20))
            g = random_connected_graph(n, 0.4, rng)
            minus = frozenset(int(v) for v in rng.choice(n, 2, replace=False))
            inst = Instance(g, minus, budget=len(minus))
            assert solve_equilibrium(inst, minus).objective == pytest.approx(0.0, abs=1e-12)


def marginal_gain(inst: Instance, targets, v: int) -> float:
    """Objective increase from adding node v to the target set."""
    return (solve_equilibrium(inst, set(targets) | {v}).objective
            - solve_equilibrium(inst, targets).objective)


class TestMarginalGain:
    def test_deterministic(self):
        inst = Instance(generate_erdos_renyi(12, 0.4, seed=3), frozenset({0}), budget=2)
        assert marginal_gain(inst, {5}, 3) == marginal_gain(inst, {5}, 3)

    def test_monotone_on_random_instances(self, rng):
        for _ in range(15):
            n = int(rng.integers(3, 12))
            g = random_connected_graph(n, 0.5, rng)
            inst = Instance(g, frozenset({0}), budget=2)
            v, w = (int(x) for x in rng.choice(n, 2, replace=False))
            assert marginal_gain(inst, set(), v) >= -1e-9
            if w != v:
                assert marginal_gain(inst, {w}, v) >= -1e-9

    def test_submodular_exhaustive_on_small_graphs(self):
        # Diminishing returns, checked definitionally on a couple of fixed
        # small graphs (the acceptance suite sweeps every graph up to n=5).
        for g in (generate_complete(4), generate_line(5), star_graph(4)):
            n = g.node_count
            inst = Instance(g, frozenset({0}), budget=n)
            values = {}
            for mask in range(2 ** n):
                sub = frozenset(i for i in range(n) if mask >> i & 1)
                values[sub] = solve_equilibrium(inst, sub).objective
            for a_mask in range(2 ** n):
                a = frozenset(i for i in range(n) if a_mask >> i & 1)
                for b_mask in range(2 ** n):
                    b = frozenset(i for i in range(n) if b_mask >> i & 1)
                    if not (a <= b):
                        continue
                    for v in range(n):
                        if v in b:
                            continue
                        da = values[a | {v}] - values[a]
                        db = values[b | {v}] - values[b]
                        assert da >= db - 1e-9


class TestElectricalVerification:
    def test_passes_across_generators(self, rng):
        graphs = [
            generate_complete(8),
            generate_line(12),
            generate_erdos_renyi(20, 0.3, seed=1),
            generate_poisson_tree(3.0, 40, seed=2),
            star_graph(6),
        ]
        for g in graphs:
            if not g.edge_count:
                continue
            n = g.node_count
            minus = frozenset({int(rng.integers(0, n))})
            extra = frozenset({int(rng.integers(0, n))})
            inst = Instance(g, minus, budget=1)
            prof = solve_equilibrium(inst, extra)
            assert verify_electrical(inst, extra, prof)

    def test_line_voltage_divider_values(self):
        # Minus at position 1, plus at position 4 of a 10-node line: the path
        # nodes sit at evenly spaced potentials 2*(i - l + 1)/(k - l + 2) - 1
        # and everything beyond the plus node short-circuits to it.
        inst = Instance(generate_line(10), frozenset({0}), budget=1)
        prof = solve_equilibrium(inst, {3})
        expected = [2 * i / 5 - 1 for i in range(1, 5)] + [2 * 4 / 5 - 1] * 6
        assert prof.opinions == pytest.approx(expected, abs=1e-12)
        assert verify_electrical(inst, {3}, prof)

    def test_detects_perturbed_profile(self):
        inst = Instance(generate_line(6), frozenset({0}), budget=1)
        prof = solve_equilibrium(inst, {4})
        bad = prof.opinions.copy()
        bad[2] += 1e-3
        forged = EquilibriumProfile(bad, prof.objective, prof.target_set)
        assert not verify_electrical(inst, {4}, forged)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(2, 16))
def test_equilibrium_residual_is_tiny(seed, n):
    rng = np.random.default_rng(seed)
    g = random_connected_graph(n, 0.4, rng)
    minus = frozenset({int(rng.integers(0, n))})
    extra = frozenset({int(rng.integers(0, n))})
    inst = Instance(g, minus, budget=1)
    prof = solve_equilibrium(inst, extra)
    x = prof.opinions
    for i in range(n):
        d = len(g.adjacency[i]) + (i in minus) + (i in extra)
        s = (i in extra) - (i in minus)
        balance = d * x[i] - sum(x[j] for j in g.adjacency[i]) - s
        assert abs(balance) <= 1e-9
