import functools
import math
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from optarget import engine
from optarget import (
    Graph,
    Instance,
    generate_complete,
    generate_erdos_renyi,
    generate_line,
    solve_equilibrium,
    tree_descent,
    tree_path_objective,
    tree_view,
    verify_electrical,
)
from optarget.engine import OpinionSolver, SolverConvergenceError
from optarget.experiments import er_edge_probability, sample_connected_er, sample_sized_tree
from optarget.graphs import degrees
from conftest import (
    pinned_solver, random_connected_graph, random_tree, record_solves, star_graph,
)


@pytest.fixture(scope="module")
def base_graph():
    return random_connected_graph(120, 0.05, np.random.default_rng(99))


@pytest.fixture(scope="module")
def backends(base_graph):
    minus = (3, 40)
    plus = (7,)
    dense = pinned_solver(base_graph, minus, plus, "dense")
    sparse = pinned_solver(base_graph, minus, plus, "sparse")
    return dense, sparse


def er_blocking_graph(a: float) -> Graph:
    """A seeded connected G(400, a ln(400) / 400) draw, as in er-blocking."""
    return sample_connected_er(400, er_edge_probability(400, a), 11, int(2 * a))


class TestBackendChoice:
    """The first level's dense work against ``_FACTOR_WORK`` picks the
    backend: a factor with no level is the dense inverse itself."""

    def test_large_tree_takes_levels(self):
        solver = OpinionSolver(sample_sized_tree(9.0, 400, 7, 0), (0,), ())
        assert not solver.dense
        assert len(solver._inv.bounds) > 1

    def test_patched_factor_work_pins_the_backend(self, monkeypatch):
        # The factor reads the constant when it is built, so patching it
        # moves both trees of the rule's tests to the other backend.
        def levels(g: Graph) -> int:
            a = np.bincount([0], minlength=g.node_count)
            factor = engine._KronFactor(g.adjacency_csr(), a, (a + degrees(g)).astype(float))
            return len(factor.bounds) - 1

        monkeypatch.setattr(engine, "_FACTOR_WORK", 0)
        assert levels(sample_sized_tree(3.0, 200, 7, 0)) > 0
        monkeypatch.setattr(engine, "_FACTOR_WORK", math.inf)
        assert levels(sample_sized_tree(9.0, 400, 7, 0)) == 0

    # At 201 nodes the product form the factor uses with levels,
    # (rhs^T z^T)^T, differs from z @ rhs in the last bit on 32 columns.
    @pytest.mark.parametrize("graph", [
        pytest.param(lambda: sample_sized_tree(3.0, 200, 7, 0), id="tree-200"),
        pytest.param(lambda: sample_sized_tree(3.0, 201, 7, 0), id="tree-201"),
        *(pytest.param(functools.partial(er_blocking_graph, a), id=f"er-a={a}")
          for a in (1.5, 3.0, 6.0, 10.0)),
    ])
    def test_no_level_is_the_dense_inverse(self, graph):
        g = graph()
        solver = OpinionSolver(g, (0, 1, 2), ())
        factor = solver._inv
        assert solver.dense and factor.bounds == [0]
        inv = engine._dense_inverse(solver._adj, solver.base_diag)
        rhs = np.random.default_rng(0).random((g.node_count, 32))
        idx = np.array([4, 17, 150])
        for block in (rhs[:, 0], rhs[:, :3], rhs):
            assert np.array_equal(factor.solve(block), inv @ block)
        assert np.array_equal(factor.columns(idx), inv[:, idx])
        assert np.array_equal(factor.diagonal(), inv.diagonal())

    @pytest.mark.parametrize("backend", [None, "dense", "sparse"], ids=["rule", "dense", "sparse"])
    def test_unanchored_builds_neither(self, backend):
        g = random_connected_graph(40, 0.1, np.random.default_rng(3))
        solver = OpinionSolver(g, (), ()) if backend is None else pinned_solver(g, (), (), backend)
        assert "_inv" not in vars(solver)


def dense_level(w: np.ndarray, a: np.ndarray, h: np.ndarray) -> tuple:
    """Eliminate the independent nodes ``h`` from diag(a + W 1) - W by dense
    arrays, each sum taken in index order: the pivots, F, W' and a'."""
    r = np.setdiff1d(np.arange(a.size), h)
    d = a[h] + np.add.accumulate(w[h], axis=1)[:, -1]
    f = w[np.ix_(h, r)].T * (1.0 / d)
    fill, fa = np.zeros((r.size, r.size)), np.zeros(r.size)
    for k, v in enumerate(h):
        fill += np.outer(f[:, k], w[v, r])
        fa += f[:, k] * a[v]
    np.fill_diagonal(fill, 0.0)
    return d, f, w[np.ix_(r, r)] + fill, a[r] + fa


class TestLevelStep:
    """Each Kron level built on the CSR arrays against dense elimination:
    bit for bit on trees, where no entry gets more than one fill term, and
    to 1e-14 relative with fill."""

    @staticmethod
    def check(g: Graph, grounded, exact: bool) -> tuple[int, int]:
        """Eliminate levels until one would take every node left; returns
        the number of levels and of fill entries."""
        w = g.adjacency_csr()
        ptr, col, val = w.indptr, w.indices, w.data
        a = np.bincount(grounded, minlength=g.node_count).astype(np.float64)
        levels = fills = 0
        while True:
            h = engine._level(ptr, col, np.arange(a.size), 0)
            if h.size == a.size:
                return levels, fills
            dense = sp.csr_matrix((val, col, ptr), shape=(a.size, a.size)).toarray()
            m = np.diag(a + dense.sum(axis=1)) - dense
            expected = dense_level(dense, a, h)
            d, hptr, nb, f, r, ptr, col, val, a = engine._eliminate(ptr, col, val, a, h)
            f_dense = np.zeros((dense.shape[0], h.size))
            f_dense[nb, np.repeat(np.arange(h.size), np.diff(hptr))] = f
            w_new = sp.csr_matrix((val, col, ptr), shape=(r.size, r.size))
            assert w_new.has_canonical_format and (val > 0.0).all()
            got = d, f_dense[r], w_new.toarray(), a
            for x, y in zip(got, expected):
                assert (x >= 0.0).all()
                if exact:
                    np.testing.assert_array_equal(x, y)
                else:
                    np.testing.assert_allclose(x, y, rtol=1e-14, atol=0)
            # The GTH form is the Schur complement of M.
            m_hr = m[np.ix_(h, r)]
            schur = m[np.ix_(r, r)] - m_hr.T @ (m_hr / np.diag(m)[h, None])
            np.testing.assert_allclose(np.diag(a + got[2].sum(axis=1)) - got[2], schur,
                                       rtol=0, atol=1e-13 * np.abs(m).max())
            levels += 1
            fills += int(np.count_nonzero((got[2] > 0) & (dense[np.ix_(r, r)] == 0)))

    def test_path(self):
        levels, fills = self.check(generate_line(200), [0], exact=True)
        assert levels >= 5 and fills > 0

    def test_star_wider_than_a_chunk(self):
        assert engine._TAIL_BLOCK < 599
        assert self.check(star_graph(599), [5], exact=True) == (1, 0)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_seeded_trees(self, seed):
        assert self.check(random_tree(300, np.random.default_rng(seed)), [0, 7], exact=True)[0]
        assert self.check(sample_sized_tree(9.0, 300, seed, 0), [0], exact=True)[0]

    def test_er_graph_with_fill(self):
        g = random_connected_graph(120, 0.05, np.random.default_rng(99))
        levels, fills = self.check(g, [3, 7, 40], exact=False)
        assert levels >= 3 and fills > 0

    def test_zero_pivot_raises_before_dividing(self):
        # Node 49 has no edge and no grounding, so its pivot is 0; no 1/0
        # may be taken on the way to the error.
        w = Graph(50, [(i, i + 1) for i in range(48)]).adjacency_csr()
        a = np.zeros(50)
        a[0] = 1.0
        h = engine._level(w.indptr, w.indices, np.arange(50), 0)
        assert 49 in h
        with np.errstate(all="raise"), pytest.raises(SolverConvergenceError, match="pivot"):
            engine._eliminate(w.indptr, w.indices, w.data, a, h)


class TestDenseInverse:
    """The dense ``M^-1`` by LAPACK Cholesky (``dpotrf``, ``dpotri``)."""

    def test_matches_lu_inverse(self, backends):
        dense, _ = backends
        inv = engine._dense_inverse(dense._adj, dense.base_diag)
        expected = np.linalg.inv(np.diag(dense.base_diag) - dense._adj.toarray())
        np.testing.assert_allclose(inv, expected, rtol=1e-12, atol=0)
        assert np.array_equal(inv, inv.T)

    def test_mirror_is_the_full_transpose_pass(self):
        # The blocked copy of the upper triangle gives the same bits as
        # adding the transpose to the zeroed lower triangle and halving the
        # diagonal; n = 300 is not a multiple of the block.
        g = random_connected_graph(300, 0.03, np.random.default_rng(8))
        solver = OpinionSolver(g, (3, 40), (7,))
        m = np.diag(solver.base_diag) - solver._adj.toarray()
        c, _ = engine.lapack.dpotrf(m)
        expected, _ = engine.lapack.dpotri(c)
        expected += expected.T
        expected.ravel(order="F")[::g.node_count + 1] *= 0.5
        assert np.array_equal(engine._dense_inverse(solver._adj, solver.base_diag), expected)

    def test_failed_factorization_raises(self, base_graph, monkeypatch):
        monkeypatch.setattr(engine.lapack, "dpotrf", lambda a, **kwargs: (a, 3))
        with pytest.raises(SolverConvergenceError, match="Cholesky"):
            pinned_solver(base_graph, (3, 40), (7,), "dense")

    @pytest.mark.parametrize("backend", ["dense", "sparse"])
    def test_failed_inverse_raises_on_construction(self, base_graph, monkeypatch, backend):
        # Both backends invert their dense part when they are built, so a
        # failed dpotri raises there, not at the first gain sweep.
        monkeypatch.setattr(engine.lapack, "dpotri", lambda c, **kwargs: (c, 2))
        with pytest.raises(SolverConvergenceError, match="Cholesky"):
            pinned_solver(base_graph, (3, 40), (7,), backend)


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

    @pytest.mark.parametrize("backend", ["dense", "sparse"])
    def test_gain_sweeps_are_fresh_arrays(self, base_graph, backend):
        # Writing into one sweep must not change the next sweep of the same
        # committed set.
        solver = pinned_solver(base_graph, (3, 40), (7,), backend)
        for committed in [(), (5,), (5, 31)]:
            first = solver.gains(committed)
            expected = first.copy()
            first[:] = 5.0
            assert np.array_equal(solver.gains(committed), expected)

    @pytest.mark.parametrize("backend", ["dense", "sparse"])
    def test_solve_equilibrium_objective_is_the_solver_objective(self, base_graph, backend):
        g = base_graph
        inst = Instance(g, frozenset({3, 40}), frozenset({7}), budget=3)
        inst.__dict__["solver"] = pinned_solver(g, (3, 40), (7,), backend)
        for extra in [(), (5,), (0, 11), (2, 50, 90)]:
            assert solve_equilibrium(inst, extra).objective == inst.solver.objective(extra)

    def test_residuals_check_out(self, backends):
        _, sparse = backends
        idx = sparse._extra_index((4, 17))
        x = sparse.profile((4, 17))
        assert np.abs(sparse._residual(idx, x)).max() <= sparse._residual_tolerance(idx)


class TestSparseDiagonalPass:
    @pytest.fixture
    def sparse(self, base_graph):
        return pinned_solver(base_graph, (3, 40), (7,), "sparse")

    def test_matches_dense_inverse(self, backends, sparse):
        dense, _ = backends
        sparse.gains(())
        np.testing.assert_allclose(sparse._g0, dense._inv.diagonal(), rtol=1e-12, atol=0)

    def test_matches_refined_columns(self, sparse):
        # The per-entry correction against one full refinement step of
        # every column, the diagonal pass it replaces.
        sparse.gains(())
        eye = np.eye(sparse.n)
        cols = sparse._inv.solve(eye)
        cols += sparse._inv.solve(eye - (sparse.base_diag[:, None] * cols - sparse._adj @ cols))
        np.testing.assert_allclose(sparse._g0, np.diag(cols), rtol=1e-12, atol=0)

    def test_first_sweep_solves_only_the_probe(self, monkeypatch):
        # Selected inversion reads the factor itself; the one solve is the
        # block of probe columns, however many nodes there are.
        g = random_connected_graph(600, 0.01, np.random.default_rng(6))
        solver = pinned_solver(g, (3, 40), (7,), "sparse")
        widths = record_solves(monkeypatch, solver._inv)
        solver.gains(())
        assert len(widths) == 1

    @pytest.mark.parametrize("chunk", [256, 32])
    def test_one_solve_per_chunk(self, sparse, monkeypatch, chunk):
        # The probe is one block of min(chunk, n) unit columns, solved at
        # once, whether or not it covers every node.
        monkeypatch.setattr(engine, "_DIAG_PROBE", chunk)
        widths = record_solves(monkeypatch, sparse._inv)
        sparse.gains(())
        assert widths == [min(chunk, sparse.n)]

    def test_non_positive_pivot_raises(self, sparse, monkeypatch):
        d = sparse._inv.d.copy()
        d[d.size // 2] *= -1.0
        monkeypatch.setattr(sparse._inv, "d", d)
        with pytest.raises(SolverConvergenceError, match="pivot"):
            sparse.gains(())

    def test_wrong_factor_fails_the_probe(self, sparse, monkeypatch):
        # Pivots that are positive but wrong give a wrong selected diagonal,
        # which the probe columns, solved with the true factor, do not confirm.
        selected = engine._selected_diagonal
        monkeypatch.setattr(engine, "_selected_diagonal",
                            lambda blocks, d, *rest: selected(blocks, 1.5 * d, *rest))
        with pytest.raises(SolverConvergenceError, match="selected inversion probe"):
            sparse.gains(())

    def test_first_sweep_allocates_less_than_one_tail_array(self):
        # The kept tail inverse is read in place: the first sweep's peak
        # stays below one t x t array. A complete graph would not do, as the
        # probe's longdouble M x upcasts a CSR as large as that array.
        g = generate_erdos_renyi(1200, 12 / 1199, seed=4)
        solver = pinned_solver(g, (3, 40), (7,), "sparse")
        t = g.node_count - solver._inv.bounds[-1]
        tracemalloc.start()
        try:
            solver.gains(())
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < t * t * 8

    def test_failed_tail_factorization_raises(self, base_graph, monkeypatch):
        monkeypatch.setattr(engine.lapack, "dpotrf", lambda a, **kwargs: (a, 3))
        with pytest.raises(SolverConvergenceError, match="Cholesky"):
            pinned_solver(base_graph, (3, 40), (7,), "sparse")

    @pytest.mark.parametrize("n, error", [(5, "Cholesky"), (400, "pivot")])
    def test_unanchored_node_raises(self, n, error):
        # The last node has no edge and no attachment, so M is singular. On
        # 400 nodes the first level takes it with the pivot 0; 5 nodes are
        # left whole to the dense tail.
        g = Graph(n, [(i, i + 1) for i in range(n - 2)])
        with pytest.raises(SolverConvergenceError, match=error):
            pinned_solver(g, (0,), (), "sparse")

    @pytest.mark.parametrize("n", [3000, 10_000])
    def test_probe_tolerance_on_a_long_path(self, n):
        # Anchored at an end, a path has the exact diagonal i + 1, up to n:
        # the probe's residual must be exact enough for entries that large.
        solver = pinned_solver(generate_line(n), (0,), (), "sparse")
        solver.gains(())
        np.testing.assert_allclose(solver._g0, np.arange(n) + 1.0, rtol=1e-12, atol=0)

    def test_residual_over_tolerance_raises(self, sparse, monkeypatch):
        monkeypatch.setattr(engine, "RESIDUAL_RTOL", 0.0)
        with pytest.raises(SolverConvergenceError, match="diagonal solve residual"):
            sparse.gains(())

    def test_sweep_does_not_depend_on_earlier_profiles(self):
        # Column solves for profiles used to seed the diagonal, which moved
        # the batches of the diagonal pass and the last bits of the gains.
        n = 300
        g = generate_erdos_renyi(n, 3 * math.log(n) / n, seed=5)
        fresh = pinned_solver(g, (1, 2), (), "sparse")
        used = pinned_solver(g, (1, 2), (), "sparse")
        for extra in [(5,), (77,), (150,)]:
            used.profile(extra)
        assert np.array_equal(used.gains(()), fresh.gains(()))


class TestLevelPass:
    """Selected inversion one elimination-tree level at a time, against the
    diagonal of the dense inverse, or the exact one where that is known."""

    @staticmethod
    def check(g, minus=(0,), expected=None):
        solver = pinned_solver(g, minus, (), "sparse")
        if expected is None:
            expected = np.diag(engine._dense_inverse(solver._adj, solver.base_diag))
        np.testing.assert_allclose(solver._inv.diagonal(), expected, rtol=1e-12, atol=0)
        return solver

    def test_long_path_takes_few_levels(self):
        # Every node of a path is within the slack of the minimum degree, so
        # a level takes the local minima of the hash, about a third of the
        # nodes left, and eliminating them leaves a path: about log_1.5(n)
        # levels. The dense inverse misses by 3e-12 here, so the check is the
        # exact diagonal: node i's resistance to the anchor at node 1500, plus 1.
        solver = self.check(generate_line(3000), minus=(1500,),
                            expected=np.abs(np.arange(3000) - 1500) + 1.0)
        assert len(solver._inv.bounds) - 1 <= math.log(3000, 1.5)

    def test_entry_keys_beyond_int32(self):
        # Above n = 46340 a key column * n + row no longer fits the factor's
        # int32 indices, and a wrapped key reads the wrong entry of Z.
        n = 50_000
        solver = pinned_solver(generate_line(n), (n // 2,), (), "sparse")
        np.testing.assert_allclose(solver._inv.diagonal(), np.abs(np.arange(n) - n // 2) + 1.0,
                                   rtol=1e-12, atol=0)

    def test_star_level_wider_than_a_chunk(self):
        # Every leaf is eliminated before the center, so all of them form
        # one level of 599 columns, more than _TAIL_BLOCK. The exact diagonal
        # is the resistance to the anchor at leaf 5, plus 1: 2 at the center,
        # 1 at leaf 5 and 3 at every other leaf.
        assert engine._TAIL_BLOCK < 599
        expected = np.full(600, 3.0)
        expected[[0, 5]] = 2.0, 1.0
        solver = self.check(star_graph(599), minus=(5,), expected=expected)
        assert solver._inv.bounds == [0, 599]

    def test_complete_graph_has_no_head(self):
        # With no level the tail is all of M, and its inverse comes from the
        # dense backend's kernel: the 0/1 row sums give the same integer
        # pivots, so the bits are the same.
        solver = self.check(generate_complete(30))
        factor = solver._inv
        assert factor.bounds == [0]
        assert np.array_equal(factor.z_tail,
                              engine._dense_inverse(solver._adj, solver.base_diag))

    def test_small_chunks(self, monkeypatch):
        monkeypatch.setattr(engine, "_TAIL_BLOCK", 3)
        self.check(random_connected_graph(120, 0.05, np.random.default_rng(99)), minus=(3, 40))
        self.check(random_tree(500, np.random.default_rng(2)))

    def test_unsorted_rows_give_the_same_diagonal(self):
        solver = self.check(random_connected_graph(300, 0.02, np.random.default_rng(4)))
        factor = solver._inv
        blocks = [f.sorted_indices() for f in factor.blocks]
        shuffled = [f.copy() for f in blocks]
        rng = np.random.default_rng(0)
        for f, g in zip(blocks, shuffled):
            for j in range(f.shape[1]):
                lo, hi = f.indptr[j], f.indptr[j + 1]
                order = lo + rng.permutation(hi - lo)
                g.indices[lo:hi] = f.indices[order]
                g.data[lo:hi] = f.data[order]
            g.has_sorted_indices = False
        assert any(not np.array_equal(f.indices, g.indices) for f, g in zip(blocks, shuffled))
        args = factor.d, factor.bounds, factor.z_tail
        assert np.array_equal(engine._selected_diagonal(shuffled, *args),
                              engine._selected_diagonal(blocks, *args))


@pytest.mark.parametrize("backend", ["dense", "sparse"])
class TestTargetIds:
    """Ids outside ``[0, n)`` or repeated are rejected, not scored."""

    @pytest.fixture
    def solver(self, base_graph, backend):
        return pinned_solver(base_graph, (3, 40), (7,), backend)

    @pytest.mark.parametrize("extra", [(-1,), (120,), (5, 5)],
                             ids=["negative", "n", "repeated"])
    def test_evaluations_reject(self, solver, extra):
        for call in (solver.objective, solver.profile, solver.gains):
            with pytest.raises(ValueError, match="node ids"):
                call(extra)

    def test_pre_placed_targets_are_rejected(self, backend):
        # Scoring a second plus link on a pre-placed node is not a target set.
        g = random_connected_graph(30, 0.1, np.random.default_rng(1))
        solver = pinned_solver(g, (3,), (7,), backend)
        for call in (solver.objective, solver.profile, solver.gains):
            for extra in [(7,), (2, 7)]:
                with pytest.raises(ValueError, match=r"targets \[7\] already hold a plus link"):
                    call(extra)

    @pytest.mark.parametrize("minus", [(120,), (3, 3)], ids=["n", "repeated"])
    def test_base_rejects(self, base_graph, backend, minus):
        with pytest.raises(ValueError, match="node ids"):
            pinned_solver(base_graph, minus, (7,), backend)


@pytest.mark.parametrize("backend", ["dense", "sparse"])
class TestResidualRule:
    """With a zero tolerance every residual check fails, so each one is seen
    to run."""

    def test_base_solve(self, base_graph, backend, monkeypatch):
        monkeypatch.setattr(engine, "RESIDUAL_RTOL", 0.0)
        with pytest.raises(SolverConvergenceError, match="base solve residual"):
            pinned_solver(base_graph, (3, 40), (7,), backend)

    def test_equilibrium(self, base_graph, backend, monkeypatch):
        inst = Instance(base_graph, frozenset({3, 40}), frozenset({7}), budget=2)
        inst.__dict__["solver"] = pinned_solver(
            base_graph, (3, 40), (7,), backend)
        solve_equilibrium(inst, {5, 60})
        monkeypatch.setattr(engine, "RESIDUAL_RTOL", 0.0)
        with pytest.raises(SolverConvergenceError, match="equilibrium residual"):
            solve_equilibrium(inst, {5, 60})

    def test_objective(self, base_graph, backend, monkeypatch):
        # The objective is the mean of a checked profile, never a value the
        # residual rule has not seen.
        solver = pinned_solver(base_graph, (3, 40), (7,), backend)
        solver.objective((4,))
        monkeypatch.setattr(engine, "RESIDUAL_RTOL", 0.0)
        with pytest.raises(SolverConvergenceError, match="equilibrium residual"):
            solver.objective((4,))


class TestLargeInstances:
    def test_ten_thousand_node_tree_sweep_matches_closed_form(self):
        # One sparse gain sweep over a 10^4-node tree scores every single
        # target: F({v}) = F(empty) + gains(())[v], against the path formula.
        n = 10_000
        g = random_tree(n, np.random.default_rng(10_000))
        solver = pinned_solver(g, (0,), (), "sparse")
        scores = solver.objective(()) + solver.gains(())
        t = tree_view(g, 0)
        expected = [tree_path_objective(t, v) for v in range(n)]
        np.testing.assert_allclose(scores, expected, rtol=0, atol=1e-12)

    def test_tree_descent_on_a_large_random_recursive_tree(self):
        # 2 * 10^4 nodes: at 10^5 the descent alone takes about a second.
        n = 20_000
        rng = np.random.default_rng(100_000)
        child = np.arange(1, n)
        g = Graph(n, np.column_stack((rng.integers(0, child), child)))
        root = n - 1
        out = tree_descent(Instance(g, frozenset({root}), budget=1))
        t = tree_view(g, root)
        scores = [tree_path_objective(t, k) for k in range(n)]
        best = max(scores)
        assert [k for k in range(n) if scores[k] >= best - 1e-12] == [1]
        assert out.chosen_set == {1}
        assert out.objective == pytest.approx(best, abs=1e-12)

    def test_long_line_uses_sparse_solver_end_to_end(self):
        # A long path takes levels, so this covers the sparse factorization
        # inside the equilibrium API, and the electrical cross-check at
        # 2600 nodes.
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


@pytest.mark.parametrize("backend", ["dense", "sparse"])
class TestNoAttachment:
    """With no attachment, any plus target drives every opinion to +1."""

    @pytest.fixture
    def solver(self, backend):
        g = random_connected_graph(30, 0.1, np.random.default_rng(8))
        return pinned_solver(g, (), (), backend)

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
