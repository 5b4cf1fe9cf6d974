import math

import numpy as np
import pytest

from optarget import engine
from optarget import Instance, generate_line, solve_equilibrium, verify_electrical
from optarget.engine import OpinionSolver, SolverConvergenceError
from conftest import random_connected_graph


@pytest.fixture(scope="module")
def backends():
    rng = np.random.default_rng(99)
    g = random_connected_graph(120, 0.05, rng)
    minus = (3, 40)
    plus = (7,)
    dense = OpinionSolver(g, minus, plus, dense_cutoff=2000)
    sparse = OpinionSolver(g, minus, plus, dense_cutoff=10)
    return dense, sparse


class TestSparseBackendAgreesWithDense:
    def test_base_objective(self, backends):
        dense, sparse = backends
        assert sparse.base_objective == pytest.approx(dense.base_objective, abs=1e-12)

    def test_objective_on_sets(self, backends):
        dense, sparse = backends
        for extra in [(), (5,), (0, 11), (2, 50, 90), (3,)]:
            assert sparse.objective(extra) == pytest.approx(
                dense.objective(extra), abs=1e-12
            )

    def test_profiles(self, backends):
        dense, sparse = backends
        for extra in [(), (5,), (0, 11, 60)]:
            np.testing.assert_allclose(
                sparse.profile(extra), dense.profile(extra), atol=1e-11
            )

    def test_gain_sweeps(self, backends):
        dense, sparse = backends
        for committed in [(), (5,), (5, 31)]:
            np.testing.assert_allclose(
                sparse.gains(committed), dense.gains(committed), atol=1e-11
            )

    def test_residuals_check_out(self, backends):
        _, sparse = backends
        x = sparse.profile((4, 17))
        assert sparse.residual_norm((4, 17), x) <= sparse.residual_tolerance((4, 17))


class CountingLU:
    """Proxy for a SuperLU factor that counts its ``solve`` calls."""

    def __init__(self, lu):
        self.lu = lu
        self.solves = 0

    def solve(self, rhs):
        self.solves += 1
        return self.lu.solve(rhs)


class TestSparseDiagonalPass:
    @pytest.fixture
    def sparse(self, backends):
        dense, _ = backends
        return OpinionSolver(dense.graph, (3, 40), (7,), dense_cutoff=10)

    def test_matches_dense_inverse(self, backends, sparse):
        dense, _ = backends
        sparse.gains(())
        np.testing.assert_allclose(sparse._g0, np.diag(dense._inv), rtol=1e-12, atol=0)

    def test_matches_refined_columns(self, sparse):
        # The per-entry correction against one full refinement step of
        # every column, the diagonal pass it replaces.
        sparse.gains(())
        eye = np.eye(sparse.n)
        cols = sparse._lu.solve(eye)
        cols += sparse._lu.solve(eye - (sparse.base_diag[:, None] * cols
                                        - sparse._adj @ cols))
        np.testing.assert_allclose(sparse._g0, np.diag(cols), rtol=1e-12, atol=0)

    @pytest.mark.parametrize("chunk", [engine._DIAG_CHUNK, 32])
    def test_one_solve_per_chunk(self, sparse, monkeypatch, chunk):
        monkeypatch.setattr(engine, "_DIAG_CHUNK", chunk)
        sparse._lu = CountingLU(sparse._lu)
        sparse.gains(())
        assert sparse._lu.solves == math.ceil(sparse.n / chunk)

    def test_residual_over_tolerance_raises(self, sparse, monkeypatch):
        monkeypatch.setattr(engine, "RESIDUAL_RTOL", 0.0)
        with pytest.raises(SolverConvergenceError, match="diagonal solve residual"):
            sparse.gains(())


class TestLargeInstances:
    def test_long_line_uses_sparse_solver_end_to_end(self):
        # 2600 nodes is beyond the dense cutoff, so this covers the sparse
        # factorization inside the equilibrium API and the sparse branch of
        # the electrical cross-check.
        n = 2600
        inst = Instance(generate_line(n), frozenset({0}), budget=1)
        prof = solve_equilibrium(inst, {3})
        expected = [2 * i / 5 - 1 for i in range(1, 5)] + [2 * 4 / 5 - 1] * (n - 4)
        np.testing.assert_allclose(prof.opinions, expected, atol=1e-9)
        assert verify_electrical(inst, {3}, prof)

    def test_heuristics_on_sparse_backend(self):
        from optarget import brute_force, hill_climb

        rng = np.random.default_rng(5)
        g = random_connected_graph(2100, 0.002, rng)
        inst = Instance(g, frozenset({17}), budget=1)
        exact = brute_force(inst)
        walk = hill_climb(inst)
        assert walk.objective <= exact.objective + 1e-12
        fresh = solve_equilibrium(inst, walk.chosen_set).objective
        assert walk.objective == pytest.approx(fresh, abs=1e-12)


@pytest.mark.parametrize("cutoff", [2000, 0], ids=["dense", "sparse"])
class TestNoAttachment:
    """With no attachment, any plus target drives every opinion to +1."""

    @pytest.fixture
    def solver(self, cutoff):
        g = random_connected_graph(30, 0.1, np.random.default_rng(8))
        return OpinionSolver(g, (), (), dense_cutoff=cutoff)

    def test_empty_set_has_no_equilibrium(self, solver):
        with pytest.raises(ValueError, match="no strategic attachment"):
            solver.profile(())
        with pytest.raises(ValueError, match="no strategic attachment"):
            solver.objective(())

    def test_any_target_gives_consensus(self, solver):
        for extra in [(4,), (0, 29), (3, 11, 17)]:
            assert np.array_equal(solver.profile(extra), np.ones(solver.n))
            assert solver.objective(extra) == 1.0

    def test_gains(self, solver):
        assert np.array_equal(solver.gains(()), np.ones(solver.n))
        assert np.array_equal(solver.gains((4, 9)), np.zeros(solver.n))
