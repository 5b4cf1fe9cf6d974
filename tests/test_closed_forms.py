import itertools

import numpy as np
import pytest

from optarget import (
    CompleteConfig,
    Instance,
    LineConfig,
    complete_objective,
    complete_otp,
    generate_complete,
    generate_line,
    generate_poisson_tree,
    line_objective,
    line_optimal_k,
    solve_equilibrium,
    tree_path_objective,
    tree_view,
)


def complete_instance(n, p, q, r, budget=0):
    """Explicit complete-graph instance with the first p nodes linked to +,
    the next q to -, the next r to both."""
    plus = frozenset(range(p)) | frozenset(range(p + q, p + q + r))
    minus = frozenset(range(p, p + q + r))
    return Instance(generate_complete(n), minus, plus, budget=budget)


class TestCompleteObjective:
    def test_mixed_attachment_value(self):
        # Hand-derived: class elimination gives a total opinion sum of 3/2
        # for n=10, p=2, q=1, r=2, so the mean is 0.15.
        assert complete_objective(CompleteConfig(10, 2, 1, 2)) == pytest.approx(0.15)

    def test_balanced_attachments_cancel(self):
        for n, p, r in [(5, 1, 0), (8, 2, 3), (12, 4, 2)]:
            assert complete_objective(CompleteConfig(n, p, p, r)) == 0.0

    def test_single_plus_link_reaches_consensus(self):
        assert complete_objective(CompleteConfig(4, 1, 0, 0)) == 1.0
        inst = complete_instance(4, 1, 0, 0)
        assert solve_equilibrium(inst).objective == pytest.approx(1.0, abs=1e-12)

    def test_no_attachment_rejected(self):
        with pytest.raises(ValueError, match="no strategic attachment"):
            complete_objective(CompleteConfig(5, 0, 0, 0))

    def test_matches_solver_on_a_grid(self):
        for n in range(1, 9):
            for p, q, r in itertools.product(range(n + 1), repeat=3):
                if not 1 <= p + q + r <= n:
                    continue
                inst = complete_instance(n, p, q, r)
                want = complete_objective(CompleteConfig(n, p, q, r))
                assert solve_equilibrium(inst).objective == pytest.approx(
                    want, abs=1e-9
                ), (n, p, q, r)

    def test_blocking_monotonicity_in_r(self):
        # More double-covered nodes dampen whichever side is winning.
        for p, q in [(3, 1), (1, 3)]:
            vals = [complete_objective(CompleteConfig(12, p, q, r)) for r in range(5)]
            diffs = np.diff(vals)
            assert all(d < 0 for d in diffs) if p > q else all(d > 0 for d in diffs)


class TestCompleteOtp:
    def test_budget_overcomes_opponent(self):
        # Exhaustively derived optimum: block all three opposing links and
        # spend the remaining two links on fresh nodes, value 24/90.
        p1, r1, f = complete_otp(10, 0, 3, 0, 5)
        assert (p1, r1) == (2, 3)
        assert f == pytest.approx(24 / 90)

    def test_budget_matches_gap_gives_zero(self):
        _, _, f = complete_otp(10, 1, 4, 0, 3)
        assert f == 0.0

    def test_budget_below_gap_stays_negative(self):
        p1, r1, f = complete_otp(10, 0, 5, 0, 2)
        assert (p1, r1) == (2, 0)
        assert f == pytest.approx(complete_objective(CompleteConfig(10, 2, 5, 0)))
        assert f < 0

    def test_infeasible_budget_rejected(self):
        with pytest.raises(ValueError, match="budget"):
            complete_otp(5, 2, 1, 1, 3)  # only 1 free + 1 opposing node left
        for args, message in [((5, 0, 1, 0, -1), "k_plus must be >= 0"),
                              ((0, 0, 0, 0, 0), "n must be >= 1"),
                              ((5, -1, 1, 0, 1), "class sizes must be nonnegative"),
                              ((5, 3, 2, 1, 1), "class sizes exceed the node count")]:
            with pytest.raises(ValueError, match=message):
                complete_otp(*args)

    def test_matches_exhaustive_enumeration(self):
        # Independent oracle: enumerate every feasible target set on the
        # explicit instance and maximize through the solver.
        for n in range(2, 8):
            for p0, q0, r0 in itertools.product(range(3), repeat=3):
                if p0 + q0 + r0 > n or p0 + q0 + r0 == 0:
                    continue
                for k in range(0, 3):
                    free = n - p0 - q0 - r0
                    if k > free + q0:
                        continue
                    inst = complete_instance(n, p0, q0, r0, budget=k)
                    best = max(
                        solve_equilibrium(inst, combo).objective
                        for combo in itertools.combinations(inst.candidates, k)
                    )
                    _, _, f = complete_otp(n, p0, q0, r0, k)
                    assert f == pytest.approx(best, abs=1e-12), (n, p0, q0, r0, k)


class TestLineObjective:
    def test_same_position_cancels_exactly(self):
        for n, ell in [(5, 2), (10, 1), (9, 5)]:
            assert line_objective(LineConfig(n, ell), ell) == 0.0

    def test_reference_value(self):
        assert line_objective(LineConfig(10, 1), 4) == pytest.approx(18 / 50)

    def test_mirror_symmetry_is_exact(self):
        for n in range(2, 21):
            for ell in range(1, n + 1):
                for k in range(1, n + 1):
                    assert line_objective(LineConfig(n, ell), k) == line_objective(
                        LineConfig(n, n + 1 - ell), n + 1 - k
                    )

    def test_matches_solver(self):
        for n in (2, 3, 7, 10, 23):
            g = generate_line(n)
            for ell in range(1, n + 1):
                inst = Instance(g, frozenset({ell - 1}), budget=1)
                for k in range(1, n + 1):
                    want = line_objective(LineConfig(n, ell), k)
                    assert solve_equilibrium(inst, {k - 1}).objective == pytest.approx(
                        want, abs=1e-9
                    ), (n, ell, k)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            line_objective(LineConfig(5, 1), 6)
        with pytest.raises(ValueError, match="n must be >= 1"):
            LineConfig(0, 1)
        with pytest.raises(ValueError, match=r"ell must be in \[1, 5\]"):
            LineConfig(5, 6)
        with pytest.raises(ValueError, match="n must be >= 2"):
            line_optimal_k(LineConfig(1, 1))
        t = tree_view(generate_line(5), 0)
        for k in (-1, 5):
            with pytest.raises(ValueError, match="k out of range"):
                tree_path_objective(t, k)


class TestLineOptimalK:
    def test_reference_optimum(self):
        # F(3) = 0.35 < F(4) = 0.36 around the continuous peak near 3.69.
        assert line_optimal_k(LineConfig(10, 1)) == (4, pytest.approx(0.36))

    def test_mirror_of_reference(self):
        k, _ = line_optimal_k(LineConfig(10, 10))
        assert k == 7

    def test_exact_tie_prefers_smaller_k(self):
        # n=5, minus at the end: positions 2 and 3 both score exactly 0.2.
        cfg = LineConfig(5, 1)
        assert line_objective(cfg, 2) == line_objective(cfg, 3) == 0.2
        assert line_optimal_k(cfg) == (2, 0.2)

    def test_matches_brute_force_for_all_small_lines(self):
        for n in range(2, 31):
            for ell in range(1, n + 1):
                cfg = LineConfig(n, ell)
                best_k, best_f = None, -np.inf
                for k in range(1, n + 1):
                    f = line_objective(cfg, k)
                    if f > best_f:
                        best_k, best_f = k, f
                assert line_optimal_k(cfg) == (best_k, best_f), (n, ell)

    def test_centered_minus_blocks_in_place(self):
        for n in (5, 7, 9):
            ell = (n + 1) // 2
            k, f = line_optimal_k(LineConfig(n, ell))
            assert k == ell
            assert f == 0.0


class TestTreePathObjective:
    def test_line_as_tree_matches_line_formula(self):
        t = tree_view(generate_line(10), root=0)
        for k in range(10):
            assert tree_path_objective(t, k) == pytest.approx(
                line_objective(LineConfig(10, 1), k + 1), abs=1e-12
            )

    def test_root_target_cancels(self):
        t = tree_view(generate_poisson_tree(3.0, 60, seed=8), root=0)
        assert tree_path_objective(t, 0) == 0.0

    def test_matches_solver_on_random_trees(self, rng):
        checked = 0
        seed = 0
        while checked < 200:
            seed += 1
            g = generate_poisson_tree(3.0, max_nodes=int(rng.integers(10, 200)),
                                      seed=seed)
            if g.node_count < 3:
                continue
            n = g.node_count
            root = int(rng.integers(0, n))
            k = int(rng.integers(0, n))
            t = tree_view(g, root)
            inst = Instance(g, frozenset({root}), budget=1)
            assert tree_path_objective(t, k) == pytest.approx(
                solve_equilibrium(inst, {k}).objective, abs=1e-12
            )
            checked += 1
