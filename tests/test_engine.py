import math

import numpy as np
import pytest

from optarget import engine
from optarget import (
    Instance,
    generate_erdos_renyi,
    generate_line,
    solve_equilibrium,
    verify_electrical,
)
from optarget.engine import OpinionSolver, SolverConvergenceError
from conftest import CountingLU, random_connected_graph


@pytest.fixture(scope="module")
def backends():
    rng = np.random.default_rng(99)
    g = random_connected_graph(120, 0.05, rng)
    minus = (3, 40)
    plus = (7,)
    dense = OpinionSolver(g, minus, plus, dense_cutoff=2000)
    sparse = OpinionSolver(g, minus, plus, dense_cutoff=10)
    return dense, sparse


class TestBackendChoice:
    """The dense inverse up to ``dense_cutoff`` nodes, the sparse LU above."""

    @pytest.fixture
    def graph(self):
        return random_connected_graph(40, 0.1, np.random.default_rng(3))

    def test_dense_at_the_cutoff(self, graph):
        solver = OpinionSolver(graph, (3,), (7,), dense_cutoff=graph.node_count)
        assert solver.dense and isinstance(solver._inv, np.ndarray)

    def test_sparse_one_above_the_cutoff(self, graph):
        solver = OpinionSolver(graph, (3,), (7,), dense_cutoff=graph.node_count - 1)
        assert not solver.dense and isinstance(solver._inv, engine._RefinedLU)

    @pytest.mark.parametrize("below", [0, 1], ids=["dense", "sparse"])
    def test_unanchored_builds_neither(self, graph, below):
        solver = OpinionSolver(graph, (), (), dense_cutoff=graph.node_count - below)
        assert "_inv" not in vars(solver)


class TestSparseBackendAgreesWithDense:
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

    @pytest.mark.parametrize("cutoff", [2000, 0], ids=["dense", "sparse"])
    def test_gain_sweeps_are_fresh_arrays(self, backends, cutoff):
        # Writing into one sweep must not change the next sweep of the same
        # committed set.
        solver = OpinionSolver(backends[0].graph, (3, 40), (7,), dense_cutoff=cutoff)
        for committed in [(), (5,), (5, 31)]:
            first = solver.gains(committed)
            expected = first.copy()
            first[:] = 5.0
            assert np.array_equal(solver.gains(committed), expected)

    @pytest.mark.parametrize("cutoff", [2000, 0], ids=["dense", "sparse"])
    def test_solve_equilibrium_objective_is_the_solver_objective(self, backends, cutoff):
        g = backends[0].graph
        inst = Instance(g, frozenset({3, 40}), frozenset({7}), budget=3)
        inst.__dict__["solver"] = OpinionSolver(g, (3, 40), (7,), dense_cutoff=cutoff)
        for extra in [(), (5,), (0, 11), (2, 50, 90)]:
            assert solve_equilibrium(inst, extra).objective == inst.solver.objective(extra)

    def test_residuals_check_out(self, backends):
        _, sparse = backends
        x = sparse.profile((4, 17))
        assert sparse.residual_norm((4, 17), x) <= sparse.residual_tolerance((4, 17))


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
        cols = sparse._inv._lu.solve(eye)
        cols += sparse._inv._lu.solve(eye - (sparse.base_diag[:, None] * cols
                                             - sparse._adj @ cols))
        np.testing.assert_allclose(sparse._g0, np.diag(cols), rtol=1e-12, atol=0)

    @pytest.mark.parametrize("chunk", [engine._DIAG_CHUNK, 32])
    def test_one_solve_per_chunk(self, sparse, monkeypatch, chunk):
        monkeypatch.setattr(engine, "_DIAG_CHUNK", chunk)
        sparse._inv._lu = CountingLU(sparse._inv._lu)
        sparse.gains(())
        assert sparse._inv._lu.solves == math.ceil(sparse.n / chunk)

    def test_residual_over_tolerance_raises(self, sparse, monkeypatch):
        monkeypatch.setattr(engine, "RESIDUAL_RTOL", 0.0)
        with pytest.raises(SolverConvergenceError, match="diagonal solve residual"):
            sparse.gains(())

    def test_sweep_does_not_depend_on_earlier_profiles(self):
        # Column solves for profiles used to seed the diagonal, which moved
        # the batches of the diagonal pass and the last bits of the gains.
        n = 300
        g = generate_erdos_renyi(n, 3 * math.log(n) / n, seed=5)
        fresh = OpinionSolver(g, (1, 2), (), dense_cutoff=0)
        used = OpinionSolver(g, (1, 2), (), dense_cutoff=0)
        for extra in [(5,), (77,), (150,)]:
            used.profile(extra)
        assert np.array_equal(used.gains(()), fresh.gains(()))


@pytest.mark.parametrize("cutoff", [2000, 0], ids=["dense", "sparse"])
class TestResidualRule:
    """With a zero tolerance every residual check fails, so each one is seen
    to run."""

    def test_base_solve(self, backends, cutoff, monkeypatch):
        dense, _ = backends
        monkeypatch.setattr(engine, "RESIDUAL_RTOL", 0.0)
        with pytest.raises(SolverConvergenceError, match="base solve residual"):
            OpinionSolver(dense.graph, (3, 40), (7,), dense_cutoff=cutoff)

    def test_equilibrium(self, backends, cutoff, monkeypatch):
        dense, _ = backends
        inst = Instance(dense.graph, frozenset({3, 40}), frozenset({7}), budget=2)
        inst.__dict__["solver"] = OpinionSolver(
            dense.graph, (3, 40), (7,), dense_cutoff=cutoff)
        solve_equilibrium(inst, {5, 60})
        monkeypatch.setattr(engine, "RESIDUAL_RTOL", 0.0)
        with pytest.raises(SolverConvergenceError, match="equilibrium residual"):
            solve_equilibrium(inst, {5, 60})

    def test_objective(self, backends, cutoff, monkeypatch):
        # The objective is the mean of a checked profile, never a value the
        # residual rule has not seen.
        solver = OpinionSolver(backends[0].graph, (3, 40), (7,), dense_cutoff=cutoff)
        solver.objective((4,))
        monkeypatch.setattr(engine, "RESIDUAL_RTOL", 0.0)
        with pytest.raises(SolverConvergenceError, match="equilibrium residual"):
            solver.objective((4,))


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
