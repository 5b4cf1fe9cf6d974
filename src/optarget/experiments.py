"""Reproducible batch experiments emitting CSV result rows.

Every trial's randomness derives from the master seed through a published
mixing function (:func:`derive_seed`), so re-running a configuration
reproduces every column except wall-clock time bit for bit, and cells are
independent of execution order.
"""

from __future__ import annotations

import hashlib
import math
import time
from dataclasses import dataclass, field
from typing import Callable, Iterable

import numpy as np

from .equilibrium import Instance
from .graphs import (
    Graph,
    generate_erdos_renyi,
    generate_poisson_tree,
    is_connected,
    load_edge_list,
)
from .heuristics import (
    StrategyOutcome,
    blocking,
    brute_force,
    degree_heuristic,
    greedy,
    hill_climb,
    hill_climb_multi,
    success,
    tree_descent,
)

EXPERIMENTS = ("er-blocking", "random-trees", "er-treelike", "treelike-otp", "facebook")

EXACTNESS_TOL = 1e-12

CSV_COLUMNS = (
    "experiment", "n", "a", "lambda", "k_plus", "minus_count", "trial",
    "algorithm", "f_plus", "visited_fraction", "evaluations", "success",
    "wall_time_ms",
)

_MAX_RESAMPLE = 10_000


def derive_seed(master: int, *parts) -> int:
    """Deterministic 64-bit seed from a master seed plus labels and indices.

    The mix is blake2b over the canonical repr of the argument tuple, so any
    cell/trial seed can be reproduced independently of execution order.
    """
    payload = repr((int(master),) + tuple(parts)).encode("ascii")
    return int.from_bytes(hashlib.blake2b(payload, digest_size=8).digest(), "big")


@dataclass(frozen=True)
class ExperimentConfig:
    """Seeded parameters for one batch experiment.

    Grids not used by an experiment are ignored (e.g. ``lam`` outside the
    random-tree study). ``edge_p``, when set, fixes the edge probability
    directly instead of the ``a * log(n) / n`` rule. ``graph``, when set, is
    the graph already loaded from ``graph_path``; the facebook runner uses it
    instead of reading the file again.
    """

    experiment: str
    n: tuple[int, ...]
    a: tuple[float, ...] = ()
    lam: tuple[float, ...] = ()
    trials: int = 50
    k_plus: int = 1
    minus_count: int = 1
    seed: int = 0
    edge_p: float | None = None
    graph_path: str | None = None
    out: str | None = None
    graph: Graph | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise ValueError(
                f"unknown experiment {self.experiment!r}; pick one of {EXPERIMENTS}"
            )
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        object.__setattr__(self, "n", tuple(int(v) for v in self.n))
        object.__setattr__(self, "a", tuple(float(v) for v in self.a))
        object.__setattr__(self, "lam", tuple(float(v) for v in self.lam))


def default_config(experiment: str, **overrides) -> ExperimentConfig:
    """Paper-scale defaults for each experiment, overridable field by field."""
    presets = {
        "er-blocking": dict(
            n=(400,), a=tuple(x / 2 for x in range(3, 21)), trials=50,
            k_plus=5, minus_count=3,
        ),
        "random-trees": dict(
            n=(50, 100, 200, 300, 400, 500), lam=(3.0, 6.0, 9.0, 12.0),
            trials=50, k_plus=1, minus_count=1,
        ),
        "er-treelike": dict(
            n=(100, 200, 300, 400, 500, 600, 700, 800), a=(1.5, 3.0, 4.5, 6.0),
            trials=50, k_plus=1, minus_count=1,
        ),
        "treelike-otp": dict(
            n=(200,), edge_p=0.1, trials=15, k_plus=3, minus_count=3,
        ),
        "facebook": dict(n=(), trials=10, k_plus=1, minus_count=1),
    }
    base = dict(presets[experiment])
    base.update(overrides)
    return ExperimentConfig(experiment=experiment, **base)


@dataclass(frozen=True)
class ResultRow:
    """One algorithm run on one trial instance."""

    experiment: str
    n: int
    a: float | None
    lam: float | None
    k_plus: int
    minus_count: int
    trial: int
    algorithm: str
    f_plus: float
    visited_fraction: float
    evaluations: int
    success: bool | None
    wall_time_ms: float


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def rows_to_csv(rows: Iterable[ResultRow]) -> str:
    lines = [",".join(CSV_COLUMNS)]
    for r in rows:
        lines.append(",".join(_fmt(getattr(r, col if col != "lambda" else "lam"))
                              for col in CSV_COLUMNS))
    return "\n".join(lines) + "\n"


def write_csv(rows: Iterable[ResultRow], path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(rows_to_csv(rows))


def _timed(fn: Callable[[Instance], StrategyOutcome], inst: Instance):
    start = time.perf_counter()
    out = fn(inst)
    return out, (time.perf_counter() - start) * 1000.0


def sample_connected_er(n: int, p: float, master: int, *parts) -> Graph:
    """Connected G(n, p) sample; resamples with fresh derived seeds so the
    node count stays fixed."""
    for attempt in range(_MAX_RESAMPLE):
        g = generate_erdos_renyi(n, p, derive_seed(master, *parts, attempt))
        if is_connected(g):
            return g
    raise RuntimeError(f"no connected G({n}, {p}) sample in {_MAX_RESAMPLE} draws")


def sample_sized_tree(lam: float, n: int, master: int, *parts) -> Graph:
    """Branching tree with exactly n nodes; resamples extinct processes."""
    for attempt in range(_MAX_RESAMPLE):
        g = generate_poisson_tree(lam, max_nodes=n, seed=derive_seed(master, *parts, attempt))
        if g.node_count == n:
            return g
    raise RuntimeError(f"no size-{n} Poisson({lam}) tree in {_MAX_RESAMPLE} draws")


def _pick_nodes(n: int, count: int, seed: int) -> frozenset[int]:
    rng = np.random.default_rng(seed)
    return frozenset(int(v) for v in rng.choice(n, size=count, replace=False))


def run_er_blocking(cfg: ExperimentConfig) -> list[ResultRow]:
    """Degree vs greedy vs blocking on connected G(n, a log n / n) graphs."""
    rows = []
    for n in cfg.n:
        for ai, a in enumerate(cfg.a):
            p = a * math.log(n) / n
            for trial in range(cfg.trials):
                g = sample_connected_er(n, p, cfg.seed, "er-blocking", n, ai, trial)
                minus = _pick_nodes(
                    n, cfg.minus_count,
                    derive_seed(cfg.seed, "er-blocking-minus", n, ai, trial),
                )
                inst = Instance(g, minus, frozenset(), cfg.k_plus)
                for name, fn in (("degree", degree_heuristic),
                                 ("greedy", greedy),
                                 ("blocking", blocking)):
                    out, ms = _timed(fn, inst)
                    rows.append(ResultRow(
                        cfg.experiment, n, a, None, cfg.k_plus, cfg.minus_count,
                        trial, name, out.objective,
                        out.visited_nodes / n, out.equilibrium_evaluations,
                        None, ms,
                    ))
    return rows


def run_random_trees(cfg: ExperimentConfig) -> list[ResultRow]:
    """Tree descent vs exhaustive search on Poisson branching trees."""
    rows = []
    for lam in cfg.lam:
        for n in cfg.n:
            for trial in range(cfg.trials):
                g = sample_sized_tree(lam, n, cfg.seed, "random-trees", lam, n, trial)
                minus = _pick_nodes(
                    n, 1, derive_seed(cfg.seed, "random-trees-minus", lam, n, trial))
                inst = Instance(g, minus, frozenset(), 1)
                exact, ms_b = _timed(brute_force, inst)
                walk, ms_d = _timed(tree_descent, inst)
                found = abs(exact.objective - walk.objective) <= EXACTNESS_TOL
                rows.append(ResultRow(
                    cfg.experiment, n, None, lam, 1, 1, trial, "descent",
                    walk.objective, walk.visited_nodes / n,
                    walk.equilibrium_evaluations, found, ms_d,
                ))
                rows.append(ResultRow(
                    cfg.experiment, n, None, lam, 1, 1, trial, "brute",
                    exact.objective, exact.visited_nodes / n,
                    exact.equilibrium_evaluations, None, ms_b,
                ))
    return rows


def _single_target_instance(cfg: ExperimentConfig, n: int, p: float, ai,
                            trial: int) -> tuple[Instance, StrategyOutcome, float]:
    """Connected ER instance for single-target studies; resamples the rare
    configurations whose optimum is exactly zero (the relative success
    criterion is undefined there). Returns the instance with its exact
    outcome and the milliseconds the exact search took."""
    for attempt in range(_MAX_RESAMPLE):
        g = sample_connected_er(n, p, cfg.seed, cfg.experiment, n, ai, trial, attempt)
        minus = _pick_nodes(
            n, cfg.minus_count,
            derive_seed(cfg.seed, cfg.experiment + "-minus", n, ai, trial, attempt),
        )
        inst = Instance(g, minus, frozenset(), 1)
        exact, ms = _timed(brute_force, inst)
        if abs(exact.objective) > EXACTNESS_TOL:
            return inst, exact, ms
    raise RuntimeError("could not sample an instance with a nonzero optimum")


def run_er_treelike(cfg: ExperimentConfig) -> list[ResultRow]:
    """Hill climb vs exhaustive single-target search on ER graphs."""
    rows = []
    for n in cfg.n:
        for ai, a in enumerate(cfg.a):
            p = a * math.log(n) / n
            for trial in range(cfg.trials):
                inst, exact, ms_b = _single_target_instance(cfg, n, p, ai, trial)
                walk, ms_w = _timed(hill_climb, inst)
                rows.append(ResultRow(
                    cfg.experiment, n, a, None, 1, cfg.minus_count, trial, "climb",
                    walk.objective, walk.visited_nodes / n,
                    walk.equilibrium_evaluations,
                    success(exact.objective, walk.objective), ms_w,
                ))
                rows.append(ResultRow(
                    cfg.experiment, n, a, None, 1, cfg.minus_count, trial, "brute",
                    exact.objective, exact.visited_nodes / n,
                    exact.equilibrium_evaluations, None, ms_b,
                ))
    return rows


def run_facebook(cfg: ExperimentConfig) -> list[ResultRow]:
    """Hill climb vs exhaustive single-target search on a loaded edge list."""
    if cfg.graph is not None:
        g = cfg.graph
    elif cfg.graph_path:
        g = load_edge_list(cfg.graph_path)
    else:
        raise ValueError("facebook experiment needs graph_path")
    n = g.node_count
    rows = []
    for trial in range(cfg.trials):
        minus = _pick_nodes(n, 1, derive_seed(cfg.seed, "facebook-minus", trial))
        inst = Instance(g, minus, frozenset(), 1)
        exact, ms_b = _timed(brute_force, inst)
        walk, ms_w = _timed(hill_climb, inst)
        rows.append(ResultRow(
            cfg.experiment, n, None, None, 1, 1, trial, "climb",
            walk.objective, walk.visited_nodes / n,
            walk.equilibrium_evaluations,
            success(exact.objective, walk.objective), ms_w,
        ))
        rows.append(ResultRow(
            cfg.experiment, n, None, None, 1, 1, trial, "brute",
            exact.objective, exact.visited_nodes / n,
            exact.equilibrium_evaluations, None, ms_b,
        ))
    return rows


def run_treelike_otp(cfg: ExperimentConfig) -> list[ResultRow]:
    """Budgeted hill climbing vs greedy on moderately dense ER graphs.

    Greedy's visited fraction is 1.0 by definition (it scores every available
    candidate at every step); the climb's fraction is per step: visited nodes
    divided by budget times node count.
    """
    p = cfg.edge_p if cfg.edge_p is not None else 0.1
    rows = []
    for n in cfg.n:
        for trial in range(cfg.trials):
            g = sample_connected_er(n, p, cfg.seed, "treelike-otp", n, trial)
            minus = _pick_nodes(
                n, cfg.minus_count,
                derive_seed(cfg.seed, "treelike-otp-minus", n, trial))
            inst = Instance(g, minus, frozenset(), cfg.k_plus)
            gr, ms_g = _timed(greedy, inst)
            hc, ms_h = _timed(hill_climb_multi, inst)
            rows.append(ResultRow(
                cfg.experiment, n, None, None, cfg.k_plus, cfg.minus_count,
                trial, "climb-multi", hc.objective,
                hc.visited_nodes / (cfg.k_plus * n),
                hc.equilibrium_evaluations, None, ms_h,
            ))
            rows.append(ResultRow(
                cfg.experiment, n, None, None, cfg.k_plus, cfg.minus_count,
                trial, "greedy", gr.objective, 1.0,
                gr.equilibrium_evaluations, None, ms_g,
            ))
    return rows


_RUNNERS = {
    "er-blocking": run_er_blocking,
    "random-trees": run_random_trees,
    "er-treelike": run_er_treelike,
    "treelike-otp": run_treelike_otp,
    "facebook": run_facebook,
}


def run_experiment(cfg: ExperimentConfig) -> list[ResultRow]:
    """Dispatch a configuration to its runner and return the result rows."""
    return _RUNNERS[cfg.experiment](cfg)
