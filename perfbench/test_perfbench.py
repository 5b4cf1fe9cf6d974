"""Self-tests of the benchmark on tiny workload configurations.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def tiny(name):
    return {
        "er-blocking": lambda: workloads.ErBlocking(n=40, a=(3.0, 6.0)),
        "random-trees": lambda: workloads.RandomTrees(lams=(3.0,), ns=(20, 30)),
        "sparse-standin": lambda: workloads.SparseStandin(n=60),
    }[name]()


def test_workload_names_match_the_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert sorted(run.WORKLOADS) == sorted(workloads.WORKLOADS)


@pytest.mark.parametrize("name", run.WORKLOADS)
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_run_prints_every_metric_with_its_unit(name, trace, tmp_path):
    wl = tiny(name)
    wl.setup(1, tmp_path)
    res = worker.measure(wl, 1, 0.05, trace, reference=None)
    lines, result = run.render(res, [0.1, 0.2], trace, worker.environment(1))
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert result["correct"] and result["failed"] == 0, res["problems"]
    assert set(result["metrics"]) == {m["name"] for m in spec}
    for m in spec:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert any(line.startswith(f"{m['name']} = ") and line.endswith(f" {m['unit']}")
                   for line in lines), m["name"]
    assert any(line.startswith("failed_frac = 0 ratio") for line in lines)
    env = json.loads(lines[0].removeprefix("# env "))
    assert {"python", "numpy", "scipy", "blas", "blas_threads", "seed"} <= set(env)


def _good_tree_trial(tmp_path):
    wl = tiny("random-trees")
    wl.setup(1, tmp_path)
    text = wl.run(wl.prepare(1, 0))
    assert wl.check(text) == []
    return wl, text


def _replace_field(text, algorithm, column, value):
    lines = text.splitlines()
    header = lines[0].split(",")
    for k, line in enumerate(lines[1:], start=1):
        fields = line.split(",")
        if fields[header.index("algorithm")] == algorithm:
            fields[header.index(column)] = value
            lines[k] = ",".join(fields)
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("algorithm,column,value", [
    ("descent", "f_plus", "1.5"),
    ("descent", "success", "false"),
    ("brute", "f_plus", "-1"),
    ("brute", "algorithm", "descent"),
])
def test_checker_rejects_a_corrupted_row(tmp_path, algorithm, column, value):
    wl, text = _good_tree_trial(tmp_path)
    assert wl.check(_replace_field(text, algorithm, column, value))


def test_checker_rejects_a_missing_row(tmp_path):
    wl, text = _good_tree_trial(tmp_path)
    assert wl.check("\n".join(text.splitlines()[:-1]) + "\n")


def test_corrupted_output_counts_as_failed(tmp_path):
    class Corrupted(workloads.RandomTrees):
        def run(self, cfg):
            return _replace_field(super().run(cfg), "descent", "success", "false")

    wl = Corrupted(lams=(3.0,), ns=(20,))
    res = worker.measure(wl, 1, 0.05, False, reference=None)
    assert res["failed"] == res["attempted"] > 0
    _, result = run.render(res, [0.1], False, {})
    assert result["correct"] is False


def test_digest_mismatch_counts_as_failed(tmp_path):
    wl = tiny("er-blocking")
    res = worker.measure(wl, 1, 0.05, False, reference="0" * 64)
    assert res["failed"] == wl.warmup
    assert any("digest" in p for p in res["problems"])


def test_digest_ignores_wall_time_only():
    a = "h1,h2,wall_time_ms\nx,1,0.5\n"
    assert workloads.csv_digest([a]) == workloads.csv_digest(["h1,h2,wall_time_ms\nx,1,9\n"])
    assert workloads.csv_digest([a]) != workloads.csv_digest(["h1,h2,wall_time_ms\nx,2,0.5\n"])


def _bindings():
    return [(owner, attr, vars(owner)[attr]) for owner, attr, _ in spans.PATCH_POINTS]


@pytest.mark.parametrize("fail", [False, True])
def test_tracing_restores_the_original_functions(tmp_path, fail):
    before = _bindings()
    wl = tiny("sparse-standin")
    wl.setup(1, tmp_path)
    tracer = spans.Tracer()
    with pytest.raises(RuntimeError) if fail else contextlib.nullcontext():
        with tracer.installed():
            assert all(vars(o)[a] is not f for o, a, f in before)
            with tracer.trial(0):
                wl.run(wl.prepare(1, 0))
            if fail:
                raise RuntimeError("interrupted traced run")
    assert all(vars(o)[a] is f for o, a, f in before)
    names = {rec[spans.NAME] for rec in tracer.spans}
    assert {"trial", "cli.main", "graphs.load", "engine.factorize.dense",
            "engine.objective", "heuristics.brute_force"} <= names


def test_self_time_subtracts_child_spans():
    tracer = spans.Tracer()
    tracer.spans = [["trial", 0.0, 10.0, None, 0], ["a", 1.0, 6.0, 0, 0],
                    ["b", 2.0, 3.0, 1, 0], ["b", 4.0, 5.5, 1, 0]]
    st = tracer.self_times()
    assert st["trial"] == (1, 5.0)
    assert st["a"] == (1, 2.5)
    assert st["b"] == (2, 2.5)


def test_negative_seed_is_a_usage_error():
    assert run.seed_value("7") == 7
    with pytest.raises(argparse.ArgumentTypeError):
        run.seed_value("-1")
