"""Acceptance gate: one test per numbered delivery criterion.

Each test prints a PASS/FAIL line with the measured quantity, so running

    pytest tests/test_acceptance.py -v -s

doubles as the acceptance report. Two reproductions are long: the success
table (criterion 9) runs its n <= 300 fast gate by default and the full
32-cell grid when OPTARGET_ACCEPT_FULL=1; the real-network check
(criterion 11) is skipped with a notice unless the dataset file is present
(OPTARGET_FACEBOOK_EDGES or data/facebook_combined.txt).
"""

import itertools
import math
import os
import time
from pathlib import Path

import numpy as np
import pytest

from optarget import (
    CompleteConfig,
    Graph,
    Instance,
    LineConfig,
    brute_force,
    complete_objective,
    complete_otp,
    default_config,
    derive_seed,
    generate_complete,
    generate_erdos_renyi,
    generate_line,
    generate_poisson_tree,
    greedy,
    hill_climb,
    is_connected,
    line_objective,
    line_optimal_k,
    load_edge_list,
    objective,
    rows_to_csv,
    run_experiment,
    solve_equilibrium,
    success,
    tree_descent,
    tree_view,
    verify_electrical,
)
from optarget.experiments import sample_connected_er

ACCEPT_SEED = 2024  # instance sampling for the property criteria
TABLE_SEED = 3      # pinned reproduction seed for the success-rate table
ORDERING_SEED = 1   # pinned reproduction seed for the blocking comparison
FULL = os.environ.get("OPTARGET_ACCEPT_FULL") == "1"

# Published success-rate table being reproduced (rows n, columns a).
EXPECTED_SUCCESS = {
    (100, 1.5): 0.900, (100, 3.0): 0.960, (100, 4.5): 0.980, (100, 6.0): 1.000,
    (200, 1.5): 0.940, (200, 3.0): 0.960, (200, 4.5): 0.940, (200, 6.0): 0.980,
    (300, 1.5): 0.840, (300, 3.0): 0.940, (300, 4.5): 0.960, (300, 6.0): 0.960,
    (400, 1.5): 0.840, (400, 3.0): 0.920, (400, 4.5): 0.880, (400, 6.0): 0.940,
    (500, 1.5): 0.840, (500, 3.0): 0.960, (500, 4.5): 0.960, (500, 6.0): 0.940,
    (600, 1.5): 0.800, (600, 3.0): 0.900, (600, 4.5): 0.940, (600, 6.0): 0.980,
    (700, 1.5): 0.920, (700, 3.0): 0.940, (700, 4.5): 0.880, (700, 6.0): 0.960,
    (800, 1.5): 0.860, (800, 3.0): 0.860, (800, 4.5): 0.900, (800, 6.0): 0.880,
}


def _report(ok: bool, label: str, detail: str, started: float):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] {label}: {detail} ({time.perf_counter() - started:.1f} s)")
    assert ok, f"{label}: {detail}"


def _complete_instance(n, p, q, r, budget=0):
    plus = frozenset(range(p)) | frozenset(range(p + q, p + q + r))
    minus = frozenset(range(p, p + q + r))
    return Instance(generate_complete(n), minus, plus, budget=budget)


def _tree_corpus():
    """100 seeded branching trees (offspring means 3, 6, 9, 12; up to 500
    nodes) plus every minus position on lines up to 50 nodes."""
    instances = []
    lams = (3.0, 6.0, 9.0, 12.0)
    i = 0
    attempt = 0
    while i < 100:
        lam = lams[i % 4]
        rng = np.random.default_rng(derive_seed(ACCEPT_SEED, "tree-corpus", i, attempt))
        cap = int(rng.integers(50, 501))
        g = generate_poisson_tree(lam, max_nodes=cap,
                                  seed=derive_seed(ACCEPT_SEED, "tree", i, attempt))
        attempt += 1
        if g.node_count < 3:
            continue
        root = int(rng.integers(0, g.node_count))
        instances.append(Instance(g, frozenset({root}), budget=1))
        i += 1
    for n in range(2, 51):
        g = generate_line(n)
        for ell in range(n):
            instances.append(Instance(g, frozenset({ell}), budget=1))
    return instances


def test_criterion_01_complete_graph_closed_form():
    t0 = time.perf_counter()
    worst = 0.0
    count = 0
    for n in range(1, 13):
        for p, q, r in itertools.product(range(n + 1), repeat=3):
            if not 1 <= p + q + r <= n:
                continue
            inst = _complete_instance(n, p, q, r)
            got = solve_equilibrium(inst).objective
            want = complete_objective(CompleteConfig(n, p, q, r))
            worst = max(worst, abs(got - want))
            count += 1
    _report(worst <= 1e-9, "criterion 1 (complete-graph closed form)",
            f"max |formula - solver| = {worst:.2e} over {count} configurations", t0)


def test_criterion_02_complete_graph_optimizer():
    t0 = time.perf_counter()
    worst = 0.0
    count = 0
    for n in range(1, 11):
        for p0, q0, r0 in itertools.product(range(n + 1), repeat=3):
            if not 0 <= p0 + q0 + r0 <= n:
                continue
            free = n - p0 - q0 - r0
            for k in range(0, 5):
                if k > free + q0:
                    with pytest.raises(ValueError):
                        complete_otp(n, p0, q0, r0, k)
                    continue
                if p0 + q0 + r0 + k == 0:
                    continue  # no attachment at all: objective undefined
                p1, r1, f_star = complete_otp(n, p0, q0, r0, k)
                inst = _complete_instance(n, p0, q0, r0, budget=k)
                exact = brute_force(inst)
                worst = max(worst, abs(f_star - exact.objective))
                # the reported split must itself achieve the optimum
                ids = sorted(inst.candidates)
                free_ids = [v for v in ids if v >= p0 + q0 + r0][:p1]
                minus_only = [v for v in ids if p0 <= v < p0 + q0][:r1]
                achieved = objective(inst, free_ids + minus_only)
                worst = max(worst, abs(achieved - exact.objective))
                count += 1
    _report(worst <= 1e-12, "criterion 2 (complete-graph optimizer)",
            f"max deviation from enumeration = {worst:.2e} over {count} cells", t0)


def test_criterion_03_line_closed_form_and_optimizer():
    t0 = time.perf_counter()
    worst = 0.0
    argmax_mismatch = 0
    for n in range(2, 51):
        g = generate_line(n)
        for ell in range(1, n + 1):
            cfg = LineConfig(n, ell)
            inst = Instance(g, frozenset({ell - 1}), budget=1)
            gains = inst.solver.gains(())
            base = inst.solver.objective(())
            best_k, best_f = None, -math.inf
            for k in range(1, n + 1):
                want = line_objective(cfg, k)
                got = base + float(gains[k - 1])
                worst = max(worst, abs(got - want))
                if want > best_f:
                    best_k, best_f = k, want
            if line_optimal_k(cfg) != (best_k, best_f):
                argmax_mismatch += 1
    ok = worst <= 1e-9 and argmax_mismatch == 0
    _report(ok, "criterion 3 (line closed form and optimizer)",
            f"max |formula - solver| = {worst:.2e}, "
            f"argmax mismatches = {argmax_mismatch}", t0)


@pytest.fixture(scope="module")
def tree_corpus():
    return _tree_corpus()


def test_criterion_04_tree_descent_exactness(tree_corpus):
    t0 = time.perf_counter()
    failures = 0
    for inst in tree_corpus:
        exact = brute_force(inst)
        walk = tree_descent(inst)
        optimal_value = abs(walk.objective - exact.objective) <= 1e-12
        if not optimal_value:
            failures += 1
    _report(failures == 0, "criterion 4 (tree descent exactness)",
            f"{len(tree_corpus)} instances, {failures} non-optimal results", t0)


def test_criterion_05_tree_structural_properties(tree_corpus):
    t0 = time.perf_counter()
    unimodality_violations = 0
    improving_child_violations = 0
    branches = 0
    for inst in tree_corpus:
        root = next(iter(inst.minus_set))
        t = tree_view(inst.graph, root)
        gains = inst.solver.gains(())
        n = inst.graph.node_count
        for v in range(n):
            improving = [c for c in t.children[v] if gains[c] > gains[v] + 1e-12]
            if len(improving) > 1:
                improving_child_violations += 1
        parent_of = t.parent
        for leaf in (v for v in range(n) if not t.children[v]):
            path = [leaf]
            while path[-1] != root:
                path.append(parent_of[path[-1]])
            scores = [gains[v] for v in reversed(path)]
            branches += 1
            dropped = False
            for a, b in zip(scores, scores[1:]):
                if b < a - 1e-12:
                    dropped = True
                elif dropped and b > a + 1e-12:
                    unimodality_violations += 1
                    break
    ok = unimodality_violations == 0 and improving_child_violations == 0
    _report(ok, "criterion 5 (tree structural properties)",
            f"{branches} branches: {unimodality_violations} unimodality and "
            f"{improving_child_violations} improving-child violations", t0)


def _connected_graphs_up_to(n_max):
    for n in range(1, n_max + 1):
        pairs = list(itertools.combinations(range(n), 2))
        for mask in range(1 << len(pairs)):
            edges = [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
            g = Graph(n, edges)
            if is_connected(g):
                yield g


def test_criterion_06_diminishing_returns_exhaustive():
    t0 = time.perf_counter()
    monotone_violations = 0
    submodular_violations = 0
    graphs = 0
    for g in _connected_graphs_up_to(5):
        graphs += 1
        n = g.node_count
        for m in range(n):
            inst = Instance(g, frozenset({m}), budget=n)
            solver = inst.solver
            values = [solver.objective(tuple(v for v in range(n) if mask >> v & 1))
                      for mask in range(1 << n)]
            for b_mask in range(1 << n):
                vb = values[b_mask]
                for v in range(n):
                    if b_mask >> v & 1:
                        continue
                    bit = 1 << v
                    delta_b = values[b_mask | bit] - vb
                    if delta_b < -1e-9:
                        monotone_violations += 1
                    a_mask = b_mask
                    while True:  # every submask of b_mask
                        delta_a = values[a_mask | bit] - values[a_mask]
                        if delta_a < delta_b - 1e-9:
                            submodular_violations += 1
                        if a_mask == 0:
                            break
                        a_mask = (a_mask - 1) & b_mask
    ok = monotone_violations == 0 and submodular_violations == 0
    _report(ok, "criterion 6 (monotone and submodular objective)",
            f"{graphs} connected graphs up to n=5: "
            f"{monotone_violations} monotonicity and "
            f"{submodular_violations} submodularity violations", t0)


def test_criterion_07_greedy_guarantee():
    t0 = time.perf_counter()
    bound = 1 - 1 / math.e
    violations = 0
    checked = 0
    attempt = 0
    while checked < 200:
        attempt += 1
        rng = np.random.default_rng(derive_seed(ACCEPT_SEED, "greedy", attempt))
        n = int(rng.integers(3, 9))
        g = generate_erdos_renyi(n, float(rng.uniform(0.3, 0.9)),
                                 derive_seed(ACCEPT_SEED, "greedy-g", attempt))
        if not is_connected(g):
            continue
        minus = frozenset(int(v) for v in rng.choice(n, int(rng.integers(1, 3)),
                                                     replace=False))
        k = int(rng.integers(1, 4))
        if k > n:
            continue
        inst = Instance(g, minus, budget=k)
        f_star = brute_force(inst).objective
        if f_star <= 0:
            continue
        checked += 1
        if greedy(inst).objective < bound * f_star - 1e-9:
            violations += 1
    _report(violations == 0, "criterion 7 (greedy approximation bound)",
            f"200 instances with positive optimum, {violations} below "
            f"(1 - 1/e) of optimal", t0)


def test_greedy_guarantee_normalized_companion():
    """Companion to criterion 7: the textbook guarantee for an objective that
    is not zero on the empty set is F(greedy) - F(empty) >= (1 - 1/e) *
    (F_opt - F(empty)). With every opinion at -1 before any link is placed,
    F(empty) is negative here, so the unnormalized form asserted by
    criterion 7 can fail even though greedy is implemented exactly; this test
    shows the normalized form holds with zero violations on the same draws.
    """
    t0 = time.perf_counter()
    factor = 1 - 1 / math.e
    violations = 0
    checked = 0
    attempt = 0
    while checked < 200:
        attempt += 1
        rng = np.random.default_rng(derive_seed(ACCEPT_SEED, "greedy", attempt))
        n = int(rng.integers(3, 9))
        g = generate_erdos_renyi(n, float(rng.uniform(0.3, 0.9)),
                                 derive_seed(ACCEPT_SEED, "greedy-g", attempt))
        if not is_connected(g):
            continue
        minus = frozenset(int(v) for v in rng.choice(n, int(rng.integers(1, 3)),
                                                     replace=False))
        k = int(rng.integers(1, 4))
        if k > n:
            continue
        inst = Instance(g, minus, budget=k)
        f_star = brute_force(inst).objective
        if f_star <= 0:
            continue
        checked += 1
        f_empty = objective(inst, ())
        want = f_empty + factor * (f_star - f_empty)
        if greedy(inst).objective < want - 1e-9:
            violations += 1
    _report(violations == 0, "criterion 7 companion (normalized greedy bound)",
            f"200 instances, {violations} below the normalized guarantee", t0)


def test_criterion_08_blocking_ordering_reproduction():
    t0 = time.perf_counter()
    cfg = default_config("er-blocking", seed=ORDERING_SEED)
    rows = run_experiment(cfg)
    means = {}
    for r in rows:
        means.setdefault((r.a, r.algorithm), []).append(r.f_plus)
    holds = 0
    for a in cfg.a:
        bl = np.mean(means[(a, "blocking")])
        gr = np.mean(means[(a, "greedy")])
        dg = np.mean(means[(a, "degree")])
        holds += bl >= gr >= dg
    needed = math.ceil(0.9 * len(cfg.a))
    _report(holds >= needed, "criterion 8 (blocking >= greedy >= degree)",
            f"ordering holds at {holds}/{len(cfg.a)} grid points "
            f"(needed {needed})", t0)


def test_criterion_09_hill_climb_success_table():
    t0 = time.perf_counter()
    cells = [(n, a) for (n, a) in EXPECTED_SUCCESS if FULL or n <= 300]
    worst = 0.0
    lowest = 1.0
    for n, a in sorted(cells):
        cfg = default_config("er-treelike", n=(n,), a=(a,), trials=50,
                             seed=TABLE_SEED)
        rows = run_experiment(cfg)
        rate = float(np.mean([r.success for r in rows if r.algorithm == "climb"]))
        worst = max(worst, abs(rate - EXPECTED_SUCCESS[(n, a)]))
        lowest = min(lowest, rate)
    scope = "all 32 cells" if FULL else "fast gate (n <= 300, 12 cells)"
    ok = worst <= 0.1 and lowest >= 0.78
    _report(ok, "criterion 9 (success-rate table)",
            f"{scope}: max |rate - published| = {worst:.3f}, "
            f"lowest rate = {lowest:.3f}", t0)


def test_criterion_10_budgeted_climb_vs_greedy():
    t0 = time.perf_counter()
    cfg = default_config("treelike-otp", seed=ACCEPT_SEED)
    rows = run_experiment(cfg)
    climb = [r for r in rows if r.algorithm == "climb-multi"]
    gr = [r for r in rows if r.algorithm == "greedy"]
    gap = abs(np.mean([r.f_plus for r in climb]) - np.mean([r.f_plus for r in gr]))
    fraction = float(np.mean([r.visited_fraction for r in climb]))
    ok = gap <= 0.02 and 0.15 <= fraction <= 0.45
    _report(ok, "criterion 10 (budgeted climb vs greedy)",
            f"mean objective gap = {gap:.4f}, "
            f"mean per-step visited fraction = {fraction:.3f}", t0)


def _facebook_path():
    env = os.environ.get("OPTARGET_FACEBOOK_EDGES")
    if env:
        return Path(env)
    return Path(__file__).resolve().parent.parent / "data" / "facebook_combined.txt"


def test_criterion_11_facebook_network():
    path = _facebook_path()
    if not path.exists():
        pytest.skip(f"dataset not present at {path}; place the SNAP ego-network "
                    "edge list there or set OPTARGET_FACEBOOK_EDGES")
    t0 = time.perf_counter()
    g = load_edge_list(path)
    assert (g.node_count, g.edge_count) == (4039, 88234)
    cfg = default_config("facebook", graph_path=str(path), seed=ACCEPT_SEED)
    rows = run_experiment(cfg)
    climb = [r for r in rows if r.algorithm == "climb"]
    brute = [r for r in rows if r.algorithm == "brute"]
    fraction = float(np.mean([r.visited_fraction for r in climb]))
    optima = sum(abs(c.f_plus - b.f_plus) <= 1e-12 for c, b in zip(climb, brute))
    ok = 0.2 <= fraction <= 0.4 and optima >= 8
    _report(ok, "criterion 11 (real network)",
            f"load 4039/88234 exact, mean visited fraction = {fraction:.3f}, "
            f"optimum reached in {optima}/10 trials", t0)


def test_criterion_12_electrical_equivalence_sweep():
    t0 = time.perf_counter()
    failures = 0
    count = 0
    i = 0
    while count < 500:
        i += 1
        rng = np.random.default_rng(derive_seed(ACCEPT_SEED, "electrical", i))
        kind = count % 4
        if kind == 0:
            g = sample_connected_er(int(rng.integers(5, 61)),
                                    float(rng.uniform(0.1, 0.5)),
                                    ACCEPT_SEED, "elec-er", i)
        elif kind == 1:
            g = generate_complete(int(rng.integers(2, 41)))
        elif kind == 2:
            g = generate_line(int(rng.integers(2, 61)))
        else:
            g = generate_poisson_tree(float(rng.choice([1.5, 3.0, 6.0])), 80,
                                      derive_seed(ACCEPT_SEED, "elec-tree", i))
            if g.node_count < 2:
                continue
        n = g.node_count
        minus = frozenset(int(v) for v in
                          rng.choice(n, int(rng.integers(1, min(4, n + 1))),
                                     replace=False))
        plus = frozenset(int(v) for v in
                         rng.choice(n, int(rng.integers(0, min(3, n + 1))),
                                    replace=False))
        pool = [v for v in range(n) if v not in plus]
        extra = frozenset(int(v) for v in
                          rng.choice(pool, min(len(pool), int(rng.integers(0, 3))),
                                     replace=False))
        inst = Instance(g, minus, plus, budget=len(extra))
        prof = solve_equilibrium(inst, extra)
        if not verify_electrical(inst, extra, prof):
            failures += 1
        count += 1
    _report(failures == 0, "criterion 12 (electrical equivalence)",
            f"500 instances across all generators, {failures} mismatches", t0)


def test_criterion_13_csv_determinism():
    t0 = time.perf_counter()
    configs = [
        default_config("er-blocking", n=(60,), a=(2.0, 4.0), trials=3, seed=ACCEPT_SEED),
        default_config("random-trees", n=(40,), lam=(3.0,), trials=3, seed=ACCEPT_SEED),
        default_config("er-treelike", n=(60,), a=(3.0,), trials=3, seed=ACCEPT_SEED),
        default_config("treelike-otp", n=(50,), trials=2, seed=ACCEPT_SEED),
    ]
    identical = True
    for cfg in configs:
        def stripped():
            return "\n".join(
                ",".join(line.split(",")[:-1])
                for line in rows_to_csv(run_experiment(cfg)).splitlines()
            )
        identical &= stripped() == stripped()
    _report(identical, "criterion 13 (reproducibility)",
            "re-run of every experiment family is byte-identical "
            "outside the wall-time column", t0)
