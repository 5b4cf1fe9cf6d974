"""Golden outputs: small seeded experiments and CLI solves, byte for byte.

The fixtures in ``tests/golden/`` are the CSVs of small seed-7
configurations, one or more per experiment family (``wall_time_ms`` column
stripped), and the ``optarget solve`` output of every algorithm on one small
edge list (``solve.txt``). Runs on the dense backend and runs with the solver
forced onto the sparse backend must both reproduce them exactly, and every
printed objective must equal, to its 12 printed digits, an extended-precision
reference solve of the chosen set. After an intended behaviour change,
regenerate the fixtures with

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import functools
import io
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import scipy.linalg as la

from optarget import cli, equilibrium, experiments, heuristics
from conftest import pinned_solver

GOLDEN = Path(__file__).parent / "golden"
GRAPH = GOLDEN / "graph.txt"
SEED = 7

# Fixture name -> (experiment family, config overrides).
EXPERIMENT_CONFIGS = {
    "er-blocking": ("er-blocking",
                    dict(n=(60,), a=(1.5, 3.0), trials=3, k_plus=3, minus_count=2)),
    "random-trees": ("random-trees", dict(n=(30, 60), lam=(3.0, 9.0), trials=3)),
    "er-treelike": ("er-treelike", dict(n=(40, 80), a=(1.5, 3.0), trials=3)),
    # Tiny graphs: several trials resample an instance whose optimum is zero.
    "er-treelike-resample": ("er-treelike", dict(n=(10,), a=(3.0,), trials=10)),
    "treelike-otp": ("treelike-otp",
                     dict(n=(50,), edge_p=0.1, trials=3, k_plus=3, minus_count=3)),
    "facebook": ("facebook", dict(graph_path=str(GRAPH), trials=3)),
}

_BUDGETED = ("--minus", "0,7,12", "--plus-base", "3", "--k-plus", "4")
SOLVE_ARGS = {
    "brute": ("--minus", "0,7,12", "--plus-base", "3", "--k-plus", "2"),
    "degree": _BUDGETED,
    "greedy": _BUDGETED,
    "blocking": _BUDGETED,
    "climb-multi": _BUDGETED,
    "descent": ("--minus", "5", "--k-plus", "1"),
    "climb": ("--minus", "5", "--k-plus", "1"),
}


def experiment_csv(name: str) -> str:
    """CSV of one small configuration with the wall_time_ms column stripped."""
    family, overrides = EXPERIMENT_CONFIGS[name]
    cfg = experiments.default_config(family, seed=SEED, **overrides)
    text = experiments.rows_to_csv(experiments.run_experiment(cfg))
    return "".join(line.rsplit(",", 1)[0] + "\n" for line in text.splitlines())


@contextlib.contextmanager
def forced_sparse():
    """Every ``Instance.solver`` built inside uses the sparse backend."""
    sparse = functools.partial(pinned_solver, backend="sparse")
    with mock.patch.object(equilibrium, "OpinionSolver", sparse):
        yield


def sparse_experiment_csv(name: str) -> str:
    with forced_sparse():
        return experiment_csv(name)


def reference_objective(inst, extra) -> np.longdouble:
    """Mean opinion of ``inst`` with the plus targets ``extra`` by a dense LU
    of ``M_A`` and three steps of iterative refinement, each residual and the
    iterate in ``np.longdouble``; assembled from the graph, not the engine."""
    n = inst.graph.node_count
    adj = inst.graph.adjacency_csr().toarray()
    plus = np.bincount(sorted(inst.plus_base | set(extra)), minlength=n)
    minus = np.bincount(sorted(inst.minus_set), minlength=n)
    m = np.diag(adj.sum(axis=1) + plus + minus) - adj
    s = (plus - minus).astype(np.float64)
    lu = la.lu_factor(m)
    x = la.lu_solve(lu, s).astype(np.longdouble)
    m = m.astype(np.longdouble)
    for _ in range(3):
        x += la.lu_solve(lu, (s - m @ x).astype(np.float64))
    return x.sum() / n


def solve_transcript() -> str:
    """Each algorithm's ``optarget solve`` command line and its stdout."""
    parts = []
    for algorithm, args in SOLVE_ARGS.items():
        argv = ["solve", "--graph", str(GRAPH), "--algorithm", algorithm, *args]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        assert code == cli.EXIT_OK, argv
        shown = " ".join(["solve", "--graph", GRAPH.name, *argv[3:]])
        parts.append(f"$ optarget {shown}\n{out.getvalue()}")
    return "".join(parts)


def _fixture(name: str) -> str:
    return (GOLDEN / name).read_text(encoding="utf-8")


@pytest.mark.parametrize("name", sorted(EXPERIMENT_CONFIGS))
def test_experiment_csv_matches_golden(name):
    assert experiment_csv(name) == _fixture(f"{name}.csv")


@pytest.mark.parametrize("name", sorted(EXPERIMENT_CONFIGS))
def test_sparse_experiment_csv_matches_golden(name):
    assert sparse_experiment_csv(name) == _fixture(f"{name}.csv")


def test_solve_outputs_match_golden():
    assert solve_transcript() == _fixture("solve.txt")


def test_sparse_solve_outputs_match_golden():
    with forced_sparse():
        assert solve_transcript() == _fixture("solve.txt")


@pytest.mark.parametrize("sparse", [False, True], ids=["dense", "sparse"])
def test_printed_objectives_match_extended_precision_reference(sparse):
    # Every printed objective is a solver's final solve_equilibrium; record
    # each one over all golden runs and compare its printed digits.
    solved = []
    solve = heuristics.solve_equilibrium

    def recording(inst, extra=()):
        prof = solve(inst, extra)
        solved.append((inst, prof.target_set, prof.objective))
        return prof

    backend = forced_sparse() if sparse else contextlib.nullcontext()
    with backend, mock.patch.object(heuristics, "solve_equilibrium", recording):
        for name in EXPERIMENT_CONFIGS:
            experiment_csv(name)
        solve_transcript()
    assert len(solved) > 100
    printed = [(sorted(targets), f"{f:.12g}", f"{float(reference_objective(inst, targets)):.12g}")
               for inst, targets, f in solved]
    assert [row for row in printed if row[1] != row[2]] == []


def _write_fixtures() -> None:
    for name in EXPERIMENT_CONFIGS:
        (GOLDEN / f"{name}.csv").write_text(experiment_csv(name), encoding="utf-8")
    (GOLDEN / "solve.txt").write_text(solve_transcript(), encoding="utf-8")


if __name__ == "__main__":
    _write_fixtures()
