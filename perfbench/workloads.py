"""The benchmark's workloads: inputs made from a seed, one trial, row checks.

A trial is one ``run_experiment`` (or ``cli.main``) call for one grid cell
with ``trials=1``, CSV emission included. The library sees only the
generated configs and edge-list files.

Why these three: ``er-blocking`` is dominated by graph build, the dense
inverse and Woodbury gain sweeps, and calls no point ``objective``;
``random-trees`` is dominated by ~n ``objective`` calls with graph build a
few percent; ``sparse-standin`` runs above the dense cutoff, so sparse LU,
refined column solves and the column cache do nearly all the work. Each
optimisation thus has a workload that exercises it and one that bypasses it.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
from pathlib import Path

import numpy as np

from optarget import cli, experiments, graphs

DEFAULT_SEED = 0
BRUTE_TOL = 1e-12


def trial_seed(seed: int, i: int) -> int:
    """Master seed of trial i; distinct workload seeds never share one."""
    return seed * 1_000_003 + i


def parse_rows(text: str) -> list[dict[str, str]]:
    reader = csv.DictReader(io.StringIO(text))
    if tuple(reader.fieldnames or ()) != experiments.CSV_COLUMNS:
        raise ValueError(f"unexpected CSV header {reader.fieldnames}")
    return list(reader)


def csv_digest(texts) -> str:
    """sha256 over the CSVs with the wall_time_ms column stripped."""
    h = hashlib.sha256()
    for text in texts:
        for line in text.splitlines():
            h.update(line.rsplit(",", 1)[0].encode("utf-8") + b"\n")
    return h.hexdigest()


class Workload:
    """One trial schedule. ``cells`` cycle with the trial index."""

    name: str
    algorithms: tuple[str, ...]
    warmup: int

    def setup(self, seed: int, workdir: Path) -> None:
        """Build every input the run needs (its seed and the default seed)."""

    def cell(self, i: int) -> str:
        raise NotImplementedError

    def prepare(self, seed: int, i: int):
        """Untimed: the input of trial i."""
        raise NotImplementedError

    def run(self, prepared) -> str:
        """Timed: run one trial, return its CSV text."""
        raise NotImplementedError

    def check(self, text: str) -> list[str]:
        """Problems found in one trial's rows; empty when they are correct."""
        rows = parse_rows(text)
        algs = [r["algorithm"] for r in rows]
        problems = []
        if sorted(algs) != sorted(self.algorithms):
            problems.append(f"algorithms {algs}, expected one row each of {self.algorithms}")
        f = {}
        for r in rows:
            value = float(r["f_plus"])
            f[r["algorithm"]] = value
            if not -1.0 <= value <= 1.0:
                problems.append(f"{r['algorithm']}: f_plus {value} outside [-1, 1]")
            if r["algorithm"] == "descent" and r["success"] != "true":
                problems.append("descent did not find the optimum")
        if "brute" in f:
            for alg, value in f.items():
                if value > f["brute"] + BRUTE_TOL:
                    problems.append(f"{alg} beats brute force: {value} > {f['brute']}")
        return problems


class ErBlocking(Workload):
    name = "er-blocking"
    algorithms = ("degree", "greedy", "blocking")
    warmup = 8

    def __init__(self, n=400, a=(1.5, 3.0, 6.0, 10.0), k_plus=5, minus_count=3):
        self.n, self.a, self.k_plus, self.minus_count = n, a, k_plus, minus_count

    def cell(self, i):
        return f"a={self.a[i % len(self.a)]}"

    def prepare(self, seed, i):
        return experiments.ExperimentConfig(
            "er-blocking", n=(self.n,), a=(self.a[i % len(self.a)],), trials=1,
            k_plus=self.k_plus, minus_count=self.minus_count, seed=trial_seed(seed, i))

    def run(self, cfg):
        return experiments.rows_to_csv(experiments.run_experiment(cfg))


class RandomTrees(Workload):
    name = "random-trees"
    algorithms = ("brute", "descent")
    warmup = 8

    def __init__(self, lams=(3.0, 9.0), ns=(200, 400)):
        self.cells = [(lam, n) for lam in lams for n in ns]

    def cell(self, i):
        lam, n = self.cells[i % len(self.cells)]
        return f"lambda={lam},n={n}"

    def prepare(self, seed, i):
        lam, n = self.cells[i % len(self.cells)]
        return experiments.ExperimentConfig(
            "random-trees", n=(n,), lam=(lam,), trials=1, seed=trial_seed(seed, i))

    def run(self, cfg):
        return experiments.rows_to_csv(experiments.run_experiment(cfg))


class SparseStandin(Workload):
    """Connected ER graph just above the dense cutoff, driven through the CLI.

    A G(n, d/(n-1)) draw at mean degree d ~ 6 has a few small components;
    each is bridged to the giant one by a single seeded edge, so the graph
    keeps n nodes and its degree profile.
    """

    name = "sparse-standin"
    algorithms = ("brute", "climb")
    warmup = 1

    def __init__(self, n=2100, mean_degree=6.0):
        self.n, self.mean_degree = n, mean_degree
        self.workdir = None

    def _graph_path(self, seed):
        return self.workdir / f"graph-{seed}.txt"

    def _build(self, seed):
        g = graphs.generate_erdos_renyi(self.n, self.mean_degree / (self.n - 1), seed)
        comp = np.full(self.n, -1)
        members = []
        for start in range(self.n):
            if comp[start] >= 0:
                continue
            comp[start] = len(members)
            stack, found = [start], [start]
            while stack:
                for v in g.adjacency[stack.pop()]:
                    if comp[v] < 0:
                        comp[v] = len(members)
                        stack.append(v)
                        found.append(v)
            members.append(found)
        members.sort(key=len, reverse=True)
        rng = np.random.default_rng(seed)
        bridges = [(int(rng.choice(c)), int(rng.choice(members[0]))) for c in members[1:]]
        graphs.write_edge_list(graphs.Graph(self.n, list(g.edges) + bridges),
                               self._graph_path(seed))

    def setup(self, seed, workdir):
        self.workdir = workdir
        for s in {seed, DEFAULT_SEED}:
            self._build(s)

    def cell(self, i):
        return f"n={self.n}"

    def prepare(self, seed, i):
        out = self.workdir / "trial.csv"
        return out, ["experiment", "--experiment", "facebook",
                     "--graph", str(self._graph_path(seed)), "--trials", "1",
                     "--seed", str(trial_seed(seed, i)), "--out", str(out)]

    def run(self, prepared):
        out, argv = prepared
        with contextlib.redirect_stderr(io.StringIO()) as err:
            code = cli.main(argv)
        if code != 0:
            raise RuntimeError(f"optarget exited {code}: {err.getvalue().strip()}")
        return out.read_text(encoding="utf-8")


WORKLOADS = {w.name: w for w in (ErBlocking, RandomTrees, SparseStandin)}

