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

from .engine import _as_int
from .equilibrium import Instance
from .graphs import (
    Graph,
    generate_erdos_renyi,
    generate_poisson_tree,
    is_connected,
    load_edge_list,
)
from .heuristics import (  # noqa: F401 - solvers are looked up via SOLVERS
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

EXACTNESS_TOL = 1e-12

CSV_COLUMNS = (
    "experiment", "n", "a", "lambda", "k_plus", "minus_count", "trial",
    "algorithm", "f_plus", "visited_fraction", "evaluations", "success",
    "wall_time_ms",
)

_MAX_RESAMPLE = 10_000


class ResampleError(RuntimeError):
    """Raised when a resampling loop rejected all ``_MAX_RESAMPLE`` draws."""


# Algorithm label (the CSV ``algorithm`` column, ``optarget solve
# --algorithm``) -> the solver's name in this module, looked up at call time.
SOLVERS = {
    "brute": "brute_force", "degree": "degree_heuristic", "greedy": "greedy",
    "blocking": "blocking", "descent": "tree_descent", "climb": "hill_climb",
    "climb-multi": "hill_climb_multi",
}


def derive_seed(master: int, *parts) -> int:
    """Deterministic 64-bit seed from a master seed plus labels and indices.

    The mix is blake2b over the canonical repr of the argument tuple, so any
    cell/trial seed can be reproduced independently of execution order.
    """
    payload = repr((_as_int(master, "seed"),) + tuple(parts)).encode("ascii")
    return int.from_bytes(hashlib.blake2b(payload, digest_size=8).digest(), "big")


@dataclass(frozen=True)
class ExperimentConfig:
    """Seeded parameters for one batch experiment.

    The ``n``, ``a`` and ``lam`` grids an experiment does not use are ignored
    (e.g. ``lam`` outside the random-tree study). Every other field it
    cannot honour is rejected with ``ValueError``:

    - ``edge_p`` is the fixed edge probability of treelike-otp (the other ER
      studies use :func:`er_edge_probability`);
    - ``graph_path``, and ``graph`` (that file already loaded, so it is not
      read again), belong to facebook;
    - the single-target studies (random-trees, er-treelike, facebook) need
      ``k_plus == 1``, and random-trees also ``minus_count == 1``.
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
    graph: Graph | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        fam = _family(self.experiment)
        for name in ("trials", "k_plus", "minus_count", "seed"):
            object.__setattr__(self, name, _as_int(getattr(self, name), name))
        object.__setattr__(self, "n", tuple(_as_int(v, "n") for v in self.n))
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.minus_count < 0:
            raise ValueError("minus_count must be >= 0")
        for name in ("edge_p", "graph_path", "graph"):
            if getattr(self, name) is not None and name not in fam.uses:
                raise ValueError(f"{self.experiment} does not use {name}")
        for name in fam.fixed_at_one:
            if getattr(self, name) != 1:
                raise ValueError(f"{self.experiment} needs {name} = 1")
        for name in ("a", "lam"):
            values = tuple(float(v) for v in getattr(self, name))
            if not all(map(math.isfinite, values)):
                raise ValueError(f"{name} must be finite, got {values}")
            object.__setattr__(self, name, values)


def default_config(experiment: str, **overrides) -> ExperimentConfig:
    """Paper-scale defaults for each experiment, overridable field by field."""
    return ExperimentConfig(experiment=experiment,
                            **{**_family(experiment).preset, **overrides})


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


def _attempts(error: str):
    """Attempt numbers 0, 1, ... for a resampling loop; raises
    ``ResampleError(error)`` once ``_MAX_RESAMPLE`` draws were all rejected."""
    yield from range(_MAX_RESAMPLE)
    raise ResampleError(error)


def sample_connected_er(n: int, p: float, master: int, *parts) -> Graph:
    """Connected G(n, p) sample; resamples with fresh derived seeds so the
    node count stays fixed."""
    for attempt in _attempts(f"no connected G({n}, {p}) sample in {_MAX_RESAMPLE} draws"):
        g = generate_erdos_renyi(n, p, derive_seed(master, *parts, attempt))
        if is_connected(g):
            return g


def sample_sized_tree(lam: float, n: int, master: int, *parts) -> Graph:
    """Branching tree with exactly n nodes; resamples extinct processes."""
    for attempt in _attempts(f"no size-{n} Poisson({lam}) tree in {_MAX_RESAMPLE} draws"):
        g = generate_poisson_tree(lam, max_nodes=n, seed=derive_seed(master, *parts, attempt))
        if g.node_count == n:
            return g


def er_edge_probability(n: int, a: float) -> float:
    """Edge probability ``min(1, a ln(n) / n)`` of the ER families and of
    ``optarget generate --kind er``; ``a`` must be finite."""
    if not math.isfinite(a):
        raise ValueError(f"a must be finite, got {a}")
    return min(1.0, a * math.log(n) / n) if n > 1 else 0.0


def _er_cells(cfg: ExperimentConfig):
    """(n, a) grid, n outermost, with edge probability ``er_edge_probability``."""
    for n in cfg.n:
        for ai, a in enumerate(cfg.a):
            yield n, a, None, er_edge_probability(n, a), (n, ai)


def _graph_cells(cfg: ExperimentConfig):
    """The single cell of a loaded graph; its sampler input is the graph."""
    if cfg.graph is None and not cfg.graph_path:
        raise ValueError(f"{cfg.experiment} experiment needs graph_path")
    g = cfg.graph or load_edge_list(cfg.graph_path)
    return [(g.node_count, None, None, g, ())]


@dataclass(frozen=True)
class _Family:
    """One experiment family: its preset, how a trial is drawn, what runs on
    it, and how each heuristic row is scored.

    ``cells(cfg)`` yields the grid cells in row order as ``(n, a, lam, x,
    key)``: the row's n, a and lambda, the sampler input and the seed key.
    ``sample(n, x, master, *parts)`` draws one graph. Algorithms are named by
    their ``SOLVERS`` label. The ``reference`` runs first and its row comes
    last; ``success(best, found)`` compares each heuristic with it (blank
    when ``None``).
    """

    preset: dict
    cells: Callable[[ExperimentConfig], Iterable[tuple]]
    sample: Callable[..., Graph]
    heuristics: tuple[str, ...]
    reference: str | None = None
    success: Callable[[float, float], bool] | None = None
    nonzero_optimum: bool = False  # redraw while the reference optimum is zero
    uses: tuple[str, ...] = ()  # which of edge_p, graph_path, graph it reads
    fixed_at_one: tuple[str, ...] = ()  # of k_plus, minus_count


_OTP_EDGE_P = 0.1

_FAMILIES = {
    # Degree vs greedy vs blocking on connected G(n, a log n / n) graphs.
    "er-blocking": _Family(
        preset=dict(n=(400,), a=tuple(x / 2 for x in range(3, 21)), trials=50,
                    k_plus=5, minus_count=3),
        cells=_er_cells,
        sample=sample_connected_er,
        heuristics=("degree", "greedy", "blocking"),
    ),
    # Tree descent vs exhaustive search on Poisson branching trees.
    "random-trees": _Family(
        preset=dict(n=(50, 100, 200, 300, 400, 500), lam=(3.0, 6.0, 9.0, 12.0),
                    trials=50, k_plus=1, minus_count=1),
        cells=lambda cfg: ((n, None, lam, lam, (lam, n))
                           for lam in cfg.lam for n in cfg.n),
        sample=lambda n, lam, *seed: sample_sized_tree(lam, n, *seed),
        heuristics=("descent",),
        reference="brute",
        success=lambda best, found: abs(best - found) <= EXACTNESS_TOL,
        fixed_at_one=("k_plus", "minus_count"),
    ),
    # Hill climb vs exhaustive single-target search on ER graphs; instances
    # whose optimum is exactly zero are redrawn (relative success is
    # undefined there).
    "er-treelike": _Family(
        preset=dict(n=(100, 200, 300, 400, 500, 600, 700, 800),
                    a=(1.5, 3.0, 4.5, 6.0), trials=50, k_plus=1, minus_count=1),
        cells=_er_cells,
        sample=sample_connected_er,
        heuristics=("climb",),
        reference="brute",
        success=success,
        nonzero_optimum=True,
        fixed_at_one=("k_plus",),
    ),
    # Budgeted hill climbing vs greedy on moderately dense ER graphs. The
    # climb's visited fraction is per step: visited / (k_plus * n).
    "treelike-otp": _Family(
        preset=dict(n=(200,), edge_p=_OTP_EDGE_P, trials=15, k_plus=3, minus_count=3),
        cells=lambda cfg: (
            (n, None, None, _OTP_EDGE_P if cfg.edge_p is None else cfg.edge_p, (n,))
            for n in cfg.n),
        sample=sample_connected_er,
        heuristics=("climb-multi",),
        reference="greedy",
        uses=("edge_p",),
    ),
    # Hill climb vs exhaustive single-target search on a loaded edge list.
    "facebook": _Family(
        preset=dict(n=(), trials=10, k_plus=1, minus_count=1),
        cells=_graph_cells,
        sample=lambda n, g, *seed: g,
        heuristics=("climb",),
        reference="brute",
        success=success,
        uses=("graph_path", "graph"),
        fixed_at_one=("k_plus",),
    ),
}

EXPERIMENTS = tuple(_FAMILIES)


def _family(experiment: str) -> _Family:
    if experiment not in _FAMILIES:
        raise ValueError(f"unknown experiment {experiment!r}; pick one of {EXPERIMENTS}")
    return _FAMILIES[experiment]


def _draw(cfg: ExperimentConfig, fam: _Family, n: int, x, parts: tuple):
    """One trial's instance, with its reference outcome and the milliseconds
    the reference took (``None, 0.0`` without one). Seed parts are
    ``(experiment, *parts)``, plus the redraw attempt where the family needs
    a nonzero optimum."""
    if cfg.minus_count > n:
        raise ValueError(f"minus_count {cfg.minus_count} exceeds the {n} nodes "
                         f"of the {cfg.experiment} graph")
    error = "could not sample an instance with a nonzero optimum"
    attempts = ((i,) for i in _attempts(error)) if fam.nonzero_optimum else [()]
    for attempt in attempts:
        seed_parts = (*parts, *attempt)
        g = fam.sample(n, x, cfg.seed, cfg.experiment, *seed_parts)
        rng = np.random.default_rng(
            derive_seed(cfg.seed, cfg.experiment + "-minus", *seed_parts))
        minus = frozenset(int(v) for v in rng.choice(n, cfg.minus_count, replace=False))
        inst = Instance(g, minus, frozenset(), cfg.k_plus)
        if fam.reference is None:
            return inst, None, 0.0
        ref, ms = _timed(globals()[SOLVERS[fam.reference]], inst)
        if not fam.nonzero_optimum or abs(ref.objective) > EXACTNESS_TOL:
            return inst, ref, ms


def run_experiment(cfg: ExperimentConfig) -> list[ResultRow]:
    """Run every trial of every grid cell and return the result rows."""
    fam = _FAMILIES[cfg.experiment]
    rows = []
    for n, a, lam, x, key in fam.cells(cfg):
        for trial in range(cfg.trials):
            inst, ref, ref_ms = _draw(cfg, fam, n, x, (*key, trial))
            runs = []
            for algorithm in fam.heuristics:
                out, ms = _timed(globals()[SOLVERS[algorithm]], inst)
                found = fam.success(ref.objective, out.objective) if fam.success else None
                runs.append((algorithm, out, ms, found))
            if ref is not None:
                runs.append((fam.reference, ref, ref_ms, None))
            for algorithm, out, ms, found in runs:
                scale = cfg.k_plus * n if algorithm == "climb-multi" else n
                rows.append(ResultRow(
                    cfg.experiment, n, a, lam, cfg.k_plus, cfg.minus_count, trial,
                    algorithm, out.objective, out.visited_nodes / scale,
                    out.equilibrium_evaluations, found, ms,
                ))
    return rows
