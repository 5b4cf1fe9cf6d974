"""Golden outputs: small seeded experiments and CLI solves, byte for byte.

The fixtures in ``tests/golden/`` are the CSVs of small seed-7
configurations, one or more per experiment family (``wall_time_ms`` column
stripped), each on the dense backend and again with the solver forced onto
the sparse backend (``*-sparse.csv``), and the ``optarget solve`` output of
every algorithm on one small edge list, on each backend (``solve.txt`` and
``solve-sparse.txt``). A refactor must reproduce them exactly. After an
intended behaviour change, regenerate them with

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import functools
import io
from pathlib import Path
from unittest import mock

import pytest

from optarget import cli, engine, equilibrium, experiments

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
    sparse = functools.partial(engine.OpinionSolver, dense_cutoff=0)
    with mock.patch.object(equilibrium, "OpinionSolver", sparse):
        yield


def sparse_experiment_csv(name: str) -> str:
    with forced_sparse():
        return experiment_csv(name)


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
    assert sparse_experiment_csv(name) == _fixture(f"{name}-sparse.csv")


def test_solve_outputs_match_golden():
    assert solve_transcript() == _fixture("solve.txt")


def test_sparse_solve_outputs_match_golden():
    with forced_sparse():
        assert solve_transcript() == _fixture("solve-sparse.txt")


def _write_fixtures() -> None:
    for name in EXPERIMENT_CONFIGS:
        (GOLDEN / f"{name}.csv").write_text(experiment_csv(name), encoding="utf-8")
        (GOLDEN / f"{name}-sparse.csv").write_text(
            sparse_experiment_csv(name), encoding="utf-8")
    (GOLDEN / "solve.txt").write_text(solve_transcript(), encoding="utf-8")
    with forced_sparse():
        (GOLDEN / "solve-sparse.txt").write_text(solve_transcript(), encoding="utf-8")


if __name__ == "__main__":
    _write_fixtures()
