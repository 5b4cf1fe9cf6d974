import math
import tracemalloc
from collections import deque

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from optarget import (
    EdgeListError,
    Graph,
    Instance,
    NotATreeError,
    degrees,
    generate_complete,
    generate_erdos_renyi,
    generate_line,
    generate_poisson_tree,
    hill_climb,
    hill_climb_multi,
    is_connected,
    load_edge_list,
    tree_descent,
    tree_view,
    write_edge_list,
)
import optarget.experiments as experiments
import optarget.graphs as graphs
from conftest import random_tree, star_graph


def reference_poisson_tree(lam: float, max_nodes: int, seed: int) -> Graph:
    """The one-node-at-a-time loop ``generate_poisson_tree`` replaced: pop
    nodes in id order and give each ``rng.poisson(lam)`` children until the
    queue empties or ``max_nodes`` nodes exist."""
    rng = np.random.default_rng(seed)
    edges: list[tuple[int, int]] = []
    count = 1
    queue = deque([0])
    while queue and count < max_nodes:
        u = queue.popleft()
        for _ in range(int(rng.poisson(lam))):
            if count >= max_nodes:
                break
            v = count
            count += 1
            edges.append((u, v))
            queue.append(v)
    return Graph(count, edges)


class TestGraphConstruction:
    def test_rejects_self_loops(self):
        with pytest.raises(ValueError, match="self-loop"):
            Graph(3, [(1, 1)])

    def test_rejects_out_of_range_ids(self):
        with pytest.raises(ValueError, match="outside"):
            Graph(3, [(0, 3)])
        with pytest.raises(ValueError, match="node_count must be >= 1"):
            Graph(0, [])
        with pytest.raises(ValueError, match=r"edges must be \(u, v\) pairs"):
            Graph(3, [(0, 1, 2)])

    @pytest.mark.parametrize("edge", [(0, 1.7), (0.5, 2), (0, math.nan), (0, math.inf)])
    def test_rejects_non_integer_ids(self, edge):
        # int64 casting used to truncate them: (0, 1.7) became (0, 1).
        with pytest.raises(ValueError, match="non-integer node id"):
            Graph(3, [edge, (1, 2)])

    def test_integral_float_ids_are_accepted(self):
        assert Graph(3, [(0.0, 1.0), (1, 2)]).edges == ((0, 1), (1, 2))

    def test_first_bad_edge_is_reported(self):
        with pytest.raises(ValueError, match="self-loop on node 1"):
            Graph(3, [(1, 1), (0, 1.5)])
        with pytest.raises(ValueError, match="non-integer"):
            Graph(3, [(0, 1.5), (1, 1), (0, 3)])
        with pytest.raises(ValueError, match=r"edge \(0, 3\) outside"):
            Graph(3, [(0, 3), (0, 1.5)])

    def test_deduplicates_reversed_edges(self):
        g = Graph(3, [(0, 1), (1, 0), (2, 1)])
        assert g.edge_count == 2
        assert g.adjacency == ((1,), (0, 2), (1,))

    def test_adjacency_is_symmetric_and_sorted(self):
        g = Graph(4, [(2, 0), (3, 1), (3, 0)])
        for i in range(4):
            for j in g.adjacency[i]:
                assert i in g.adjacency[j]
            assert list(g.adjacency[i]) == sorted(g.adjacency[i])

    def test_immutable(self):
        g = generate_line(3)
        with pytest.raises(AttributeError):
            g.node_count = 5


class TestErdosRenyi:
    def test_p_zero_empty(self):
        assert generate_erdos_renyi(5, 0.0, seed=1).edge_count == 0

    def test_p_one_complete(self):
        g = generate_erdos_renyi(5, 1.0, seed=1)
        assert g.edge_count == 10

    def test_rejects_bad_probability(self):
        with pytest.raises(ValueError):
            generate_erdos_renyi(5, 1.5, seed=1)
        # The other generator parameters are checked the same way.
        for make, message in [(lambda: generate_erdos_renyi(0, 0.5, seed=1), "n must be >= 1"),
                              (lambda: generate_complete(0), "n must be >= 1"),
                              (lambda: generate_line(0), "n must be >= 1"),
                              (lambda: generate_poisson_tree(0.0, 10, seed=1), "lam must be > 0"),
                              (lambda: generate_poisson_tree(math.nan, 10, seed=1),
                               "lam must be > 0"),
                              (lambda: generate_poisson_tree(math.inf, 10, seed=1),
                               "lam must be > 0"),
                              (lambda: generate_poisson_tree(3.0, 0, seed=1),
                               "max_nodes must be >= 1")]:
            with pytest.raises(ValueError, match=message):
                make()

    def test_same_seed_same_graph(self):
        a = generate_erdos_renyi(40, 0.2, seed=99)
        b = generate_erdos_renyi(40, 0.2, seed=99)
        assert a.edges == b.edges

    def test_different_seed_usually_differs(self):
        a = generate_erdos_renyi(40, 0.2, seed=1)
        b = generate_erdos_renyi(40, 0.2, seed=2)
        assert a.edges != b.edges

    # Every block size on every n whose draw takes at most 20,000 blocks: a
    # draw of 499,500 blocks of one uniform takes seconds.
    @pytest.mark.parametrize("n, block", [
        pytest.param(n, block, id=f"{n}" if block is None else f"{n}-block{block}")
        for n in (1, 2, 60, 400, 1000) for block in (1, 7, 4096, None)
        if n * (n - 1) // 2 <= 20_000 * (block or graphs._ER_BLOCK)])
    @pytest.mark.parametrize("p", [0.0, 1.0, 0.05])
    def test_edges_match_the_triu_reference(self, monkeypatch, n, p, block):
        # The kept flat indices are decoded into the same (i, j) pairs, in
        # the same order, as masking np.triu_indices with one draw of the
        # whole stream, at any block size. n = 1000 spans two default blocks.
        if block is not None:
            monkeypatch.setattr(graphs, "_ER_BLOCK", block)
        drawn = []
        monkeypatch.setattr(graphs, "Graph", lambda n, edges: drawn.append(edges))
        for seed in range(4):
            generate_erdos_renyi(n, p, seed)
            rng = np.random.default_rng(seed)
            iu, ju = np.triu_indices(n, k=1)
            mask = rng.random(iu.shape[0]) < p
            assert np.array_equal(drawn.pop(), np.column_stack((iu[mask], ju[mask])))

    def test_supercritical_regime_is_almost_always_connected(self):
        # a = 6 is well above the log(n)/n connectivity threshold, so the
        # empirical connectivity rate over many seeds must be essentially 1.
        n, a = 400, 6.0
        p = a * math.log(n) / n
        connected = sum(
            is_connected(generate_erdos_renyi(n, p, seed)) for seed in range(1000)
        )
        assert connected / 1000 > 0.99


class TestFixedFamilies:
    def test_complete_sizes(self):
        assert generate_complete(1).edge_count == 0
        assert generate_complete(10).edge_count == 45
        assert all(d == 3 for d in degrees(generate_complete(4)))

    def test_line_shape(self):
        assert generate_line(1).edge_count == 0
        assert generate_line(2).edges == ((0, 1),)
        g = generate_line(10)
        assert g.edge_count == 9
        deg = degrees(g)
        assert deg[0] == deg[9] == 1
        assert all(deg[i] == 2 for i in range(1, 9))

    def test_line4_degrees(self):
        assert list(degrees(generate_line(4))) == [1, 2, 2, 1]

    def test_star_and_complete_degrees(self):
        g = star_graph(5)
        assert degrees(g)[0] == 5
        assert all(d == 1 for d in degrees(g)[1:])
        assert all(d == 9 for d in degrees(generate_complete(10)))


class TestPoissonTree:
    def test_every_sample_is_a_tree(self):
        for seed in range(30):
            g = generate_poisson_tree(3.0, max_nodes=120, seed=seed)
            assert g.edge_count == g.node_count - 1
            assert is_connected(g)

    def test_tiny_rate_dies_at_the_root(self):
        sizes = [generate_poisson_tree(1e-9, 50, seed).node_count for seed in range(50)]
        assert sizes == [1] * 50

    def test_same_seed_same_tree(self):
        a = generate_poisson_tree(3.0, 200, seed=5)
        b = generate_poisson_tree(3.0, 200, seed=5)
        assert a.edges == b.edges

    @pytest.mark.parametrize("lam", [0.3, 1.0, 3.0, 9.0])
    @pytest.mark.parametrize("max_nodes", [1, 2, 3, 50, 400])
    def test_trees_match_the_loop_reference(self, lam, max_nodes):
        for seed in range(100):
            assert (generate_poisson_tree(lam, max_nodes, seed)
                    == reference_poisson_tree(lam, max_nodes, seed))

    def test_huge_rate_fills_the_cap_from_the_root(self):
        # The root's one draw exceeds the cap: every node is its child.
        for lam in (1e15, 1e18):
            assert generate_poisson_tree(lam, 6, seed=2) == star_graph(5)

    @pytest.mark.parametrize("lam, n", [(3.0, 200), (3.0, 400), (9.0, 200), (9.0, 400)])
    def test_sized_tree_resamples_as_the_loop_did(self, monkeypatch, lam, n):
        # The random-trees cells of the benchmark, at its first master seeds:
        # sample_sized_tree tries the same seeds and accepts the first one
        # whose loop-grown tree reaches n nodes.
        tried = []

        def counted(lam, max_nodes, seed):
            tried.append(seed)
            return generate_poisson_tree(lam, max_nodes, seed)

        monkeypatch.setattr(experiments, "generate_poisson_tree", counted)
        for master in range(16):
            tried.clear()
            parts = ("random-trees", lam, n, 0)
            g = experiments.sample_sized_tree(lam, n, master, *parts)
            derived = [experiments.derive_seed(master, *parts, a) for a in range(len(tried))]
            sizes = [reference_poisson_tree(lam, n, seed).node_count for seed in derived]
            assert tried == derived and sizes.index(n) == len(tried) - 1
            assert g == reference_poisson_tree(lam, n, tried[-1])

    def test_mean_offspring_of_internal_nodes(self):
        # Internal (non-leaf) nodes of a Poisson(3) process should average
        # about three children; truncation pulls slightly against the
        # zero-conditioning, keeping the mean near the rate.
        total_children = 0
        total_internal = 0
        for seed in range(1000):
            g = generate_poisson_tree(3.0, max_nodes=500, seed=seed)
            deg = degrees(g)
            child_counts = deg.copy()
            child_counts[1:] -= 1  # every non-root node has one parent edge
            internal = child_counts > 0
            total_children += int(child_counts[internal].sum())
            total_internal += int(internal.sum())
        mean = total_children / total_internal
        assert abs(mean - 3.0) <= 0.2


class TestMemoryBudget:
    """Peak traced bytes of the generators and the loader stay within
    ``128 (n + m)``, plus one block of uniforms for G(n, p)."""

    @staticmethod
    def peak_bytes(make):
        tracemalloc.start()
        try:
            g = make()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return g, peak

    def test_erdos_renyi_draws_in_blocks(self):
        g, peak = self.peak_bytes(lambda: generate_erdos_renyi(5000, 0.002, seed=3))
        assert peak <= 8 * graphs._ER_BLOCK + 128 * (g.node_count + g.edge_count)

    def test_tree_line_and_load_are_linear(self, tmp_path):
        path = tmp_path / "line.txt"
        write_edge_list(generate_line(10**5), path)
        for make in (lambda: generate_poisson_tree(3.0, 10**5, seed=3),
                     lambda: generate_line(10**5),
                     lambda: load_edge_list(path)):
            g, peak = self.peak_bytes(make)
            assert g.node_count == 10**5
            assert peak <= 128 * (g.node_count + g.edge_count)


class TestEdgeList:
    def test_basic_load(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("0 1\n1 2\n")
        g = load_edge_list(path)
        assert g.node_count == 3
        assert g.edge_count == 2

    def test_reversed_duplicates_collapse(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("0 1\n1 0\n")
        assert load_edge_list(path).edge_count == 1

    def test_comments_and_crlf(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_bytes(b"# header\r\n0 1\r\n2 3\r\n")
        g = load_edge_list(path)
        assert g.node_count == 4
        assert g.edge_count == 2

    def test_node_count_from_max_id(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("0 5\n")
        assert load_edge_list(path).node_count == 6

    def test_self_loops_dropped_with_warning(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("0 0\n0 1\n1 1\n")
        with pytest.warns(UserWarning, match="2 self-loop"):
            g = load_edge_list(path)
        assert g.edge_count == 1

    def test_malformed_line_reports_number(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("0 1\n0 1 2\n")
        with pytest.raises(EdgeListError, match=":2:"):
            load_edge_list(path)

    def test_non_integer_rejected(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("0 x\n")
        with pytest.raises(EdgeListError):
            load_edge_list(path)

    @pytest.mark.parametrize("last, message", [
        ("7 x", "non-integer node id"),
        ("7 -8", "negative node id"),
        ("7 8 9", "expected 'u v', got '7 8 9'"),
    ])
    def test_error_on_the_last_line_of_a_long_file(self, tmp_path, last, message):
        # 5,000 good lines after a comment and a blank line: the error
        # names line 5,003 of the file, the first bad one.
        path = tmp_path / "g.txt"
        path.write_text("# header\n\n" + "".join(f"{i} {i + 1}\n" for i in range(5000))
                        + last + "\n")
        with pytest.raises(EdgeListError, match=f"g.txt:5003: {message}"):
            load_edge_list(path)

    def test_first_error_in_file_order(self, tmp_path):
        # A negative id on line 2 is reported before a malformed line 3.
        path = tmp_path / "g.txt"
        path.write_text("0 1\n-1 2\n3\n")
        with pytest.raises(EdgeListError, match=":2: negative node id"):
            load_edge_list(path)

    def test_non_utf8_byte_is_a_bad_id(self, tmp_path):
        # In a comment a stray byte is ignored; in a data line it is no id.
        path = tmp_path / "g.txt"
        path.write_bytes(b"# caf\xe9\n0 1\n1 2\xff\n")
        with pytest.raises(EdgeListError, match="g.txt:3: non-integer node id"):
            load_edge_list(path)
        path.write_bytes(b"# caf\xe9\n0 1\n")
        assert load_edge_list(path) == Graph(2, [(0, 1)])

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("# nothing\n")
        with pytest.raises(EdgeListError, match="no edges"):
            load_edge_list(path)

    def test_duplicates_in_any_order_load_the_deduplicated_graph(self, tmp_path):
        lines = ["0 1", "1 2", "2 3", "0 3", "1 0", "0 1", "3 2", "2 1", "3 0"]
        order = np.random.default_rng(3).permutation(len(lines))
        path = tmp_path / "g.txt"
        path.write_text("".join(lines[i] + "\n" for i in order))
        assert load_edge_list(path) == Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])

    def test_write_read_round_trip(self, tmp_path):
        g = generate_erdos_renyi(25, 0.2, seed=4)
        path = tmp_path / "g.txt"
        write_edge_list(g, path)
        assert load_edge_list(path) == g


class TestConnectivity:
    def test_complete_connected(self):
        assert is_connected(generate_complete(5))

    def test_isolated_nodes_disconnected(self):
        assert not is_connected(Graph(2, []))

    def test_line_connected(self):
        assert is_connected(generate_line(10))

    @pytest.mark.parametrize("edges, connected", [([(0, 1), (1, 2)], True),
                                                  ([(0, 1)], False)])
    def test_answer_is_cached_on_the_graph(self, edges, connected, monkeypatch):
        roots = []
        bfs = graphs.breadth_first_order
        monkeypatch.setattr(graphs, "breadth_first_order",
                            lambda csr, root, **kw: roots.append(root) or bfs(csr, root, **kw))
        g = Graph(3, edges)
        assert is_connected(g) is connected
        assert is_connected(g) is connected
        assert roots == [0]


class TestTreeView:
    def test_line_subtree_sizes(self):
        t = tree_view(generate_line(5), root=0)
        assert list(t.subtree_size) == [5, 4, 3, 2, 1]

    def test_star_subtree_sizes(self):
        t = tree_view(star_graph(4), root=0)
        assert t.subtree_size[0] == 5
        assert all(t.subtree_size[v] == 1 for v in range(1, 5))

    def test_rejects_cycle(self):
        with pytest.raises(NotATreeError):
            tree_view(Graph(3, [(0, 1), (1, 2), (0, 2)]), root=0)

    def test_rejects_disconnected(self):
        with pytest.raises(NotATreeError):
            tree_view(Graph(4, [(0, 1), (2, 3), (1, 2), (0, 2)]), root=0)
        with pytest.raises(NotATreeError):
            tree_view(Graph(4, [(0, 1), (2, 3), (1, 2), (0, 2)][:2]), root=0)
        for root in (-1, 3):
            with pytest.raises(ValueError, match=rf"root {root} outside \[0, 3\)"):
                tree_view(generate_line(3), root=root)

    @pytest.mark.parametrize("root", [0, 1500])
    def test_long_path(self, root):
        n = 3000
        t = tree_view(generate_line(n), root)
        toward_root = [v + (v < root) - (v > root) for v in range(n)]
        assert t.parent == tuple(toward_root)
        assert t.depth == tuple(abs(v - root) for v in range(n))
        assert t.children == tuple(
            tuple(c for c in (v - 1, v + 1) if 0 <= c < n and toward_root[c] == v)
            for v in range(n))
        assert t.subtree_size == tuple(
            n if v == root else v + 1 if v < root else n - v for v in range(n))

    def test_star_from_center_and_from_a_leaf(self):
        t = tree_view(star_graph(5), root=0)
        assert t.parent == (0,) * 6
        assert t.depth == (0,) + (1,) * 5
        assert t.children == ((1, 2, 3, 4, 5),) + ((),) * 5
        assert t.subtree_size == (6,) + (1,) * 5
        t = tree_view(star_graph(5), root=3)
        assert t.parent == (3, 0, 0, 3, 0, 0)
        assert t.depth == (1, 2, 2, 0, 2, 2)
        assert t.children == ((1, 2, 4, 5), (), (), (0,), (), ())
        assert t.subtree_size == (5, 1, 1, 6, 1, 1)

    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(2, 40), seed=st.integers(0, 10_000), root=st.integers(0, 39))
    def test_subtree_sum_identity(self, n, seed, root):
        root = root % n
        t = tree_view(random_tree(n, np.random.default_rng(seed)), root)
        for v in range(n):
            assert t.subtree_size[v] == 1 + sum(
                t.subtree_size[c] for c in t.children[v]
            )
        assert t.subtree_size[root] == n


def _raw_edges(n, m, rng):
    """m random non-loop pairs on n nodes, duplicates and reversals included."""
    u = rng.integers(0, n, size=m)
    v = (u + rng.integers(1, n, size=m)) % n
    return list(zip(u.tolist(), v.tolist()))


def _nx_graph(n, edges):
    h = nx.Graph()
    h.add_nodes_from(range(n))
    h.add_edges_from(edges)
    return h


# (n, m): sparse draws are usually disconnected, dense ones connected.
GRAPH_CASES = [(n, m, seed) for seed in range(4)
               for n, m in ((2, 1), (7, 4), (30, 20), (30, 90), (120, 150), (120, 600))]


class TestNetworkxOracle:
    @pytest.mark.parametrize("n,m,seed", GRAPH_CASES)
    def test_graph_views_match_networkx(self, n, m, seed):
        raw = _raw_edges(n, m, np.random.default_rng(seed))
        g, h = Graph(n, raw), _nx_graph(n, raw)
        assert g.edges == tuple(sorted(tuple(sorted(e)) for e in h.edges()))
        assert g.edge_count == h.number_of_edges()
        assert g.adjacency == tuple(tuple(sorted(h.neighbors(v))) for v in range(n))
        deg = degrees(g)
        assert deg.dtype == np.int64
        assert deg.tolist() == [h.degree(v) for v in range(n)]
        assert is_connected(g) == nx.is_connected(h)

    def test_cases_cover_connected_and_disconnected(self):
        outcomes = {is_connected(Graph(n, _raw_edges(n, m, np.random.default_rng(seed))))
                    for n, m, seed in GRAPH_CASES}
        assert outcomes == {True, False}

    def test_single_node_and_edgeless_graphs(self):
        assert is_connected(Graph(1, [])) == nx.is_connected(_nx_graph(1, []))
        g = Graph(5, np.empty((0, 2), dtype=np.int64))
        assert g.edges == () and g.adjacency == ((),) * 5
        assert degrees(g).dtype == np.int64 and not degrees(g).any()
        assert not is_connected(g)

    @pytest.mark.parametrize("seed", range(8))
    def test_tree_view_matches_networkx_bfs_tree(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 60))
        # Random attachment under a random relabeling, so parents do not
        # always carry smaller ids than their children.
        label = rng.permutation(n)
        edges = [(int(label[rng.integers(0, i)]), int(label[i])) for i in range(1, n)]
        root = int(rng.integers(0, n))
        t = tree_view(Graph(n, edges), root)
        bfs = nx.bfs_tree(_nx_graph(n, edges), root)
        parent = dict(nx.bfs_predecessors(bfs, root))
        depth = nx.single_source_shortest_path_length(bfs, root)
        for v in range(n):
            assert t.parent[v] == parent.get(v, root)
            assert t.depth[v] == depth[v]
            assert t.subtree_size[v] == 1 + len(nx.descendants(bfs, v))
            assert t.children[v] == tuple(sorted(bfs.successors(v)))

    def test_tree_view_rejects_a_non_tree_with_n_minus_1_edges(self):
        edges = [(0, 1), (2, 3), (3, 4), (4, 2), (4, 5)]
        assert not nx.is_tree(_nx_graph(6, edges))
        with pytest.raises(NotATreeError, match="disconnected"):
            tree_view(Graph(6, edges), root=0)


class TestRepresentation:
    def test_array_input_equals_pair_list_input(self):
        raw = _raw_edges(40, 120, np.random.default_rng(3))
        from_list = Graph(40, raw)
        from_array = Graph(40, np.array(raw))
        assert from_array == from_list
        assert hash(from_array) == hash(from_list)

    def test_equal_graphs_hash_equal(self):
        a = Graph(5, [(0, 1), (3, 2), (1, 4)])
        b = Graph(5, [(4, 1), (2, 3), (1, 0), (0, 1)])
        assert a == b and hash(a) == hash(b)
        assert a != Graph(6, [(0, 1), (3, 2), (1, 4)])
        assert a != Graph(5, [(0, 1), (3, 2), (1, 3)])

    def test_first_bad_edge_in_input_order_is_reported(self):
        with pytest.raises(ValueError, match=r"edge \(5, 6\) outside \[0, 3\)"):
            Graph(3, [(0, 1), (5, 6), (2, 2)])
        with pytest.raises(ValueError, match="self-loop on node 2"):
            Graph(3, [(0, 1), (2, 2), (5, 6)])
        with pytest.raises(ValueError, match="self-loop on node 7"):
            Graph(3, np.array([(7, 7), (0, -1)]))

    def test_no_library_layer_builds_the_python_adjacency(self, tmp_path):
        g = generate_poisson_tree(3.0, 200, seed=1)
        inst = Instance(g, frozenset({5}), budget=1)
        assert g._adjacency is None
        for solve in (hill_climb, hill_climb_multi, tree_descent):
            solve(inst)
            assert g._adjacency is None, solve.__name__
        write_edge_list(g, tmp_path / "g.txt")
        assert g._adjacency is None

    def test_adjacency_csr_is_the_stored_symmetric_matrix(self):
        g = generate_erdos_renyi(50, 0.1, seed=2)
        csr = g.adjacency_csr()
        assert csr is g.adjacency_csr()
        assert csr.has_sorted_indices
        assert (csr != csr.T).nnz == 0
        assert csr.nnz == 2 * g.edge_count
        assert g.adjacency is g.adjacency
