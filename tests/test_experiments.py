import inspect
import math
import re
import subprocess
import sys
from collections import Counter

import numpy as np
import pytest

import optarget.cli as cli
import optarget.experiments as experiments
from optarget import (
    derive_seed,
    default_config,
    generate_complete,
    generate_line,
    load_edge_list,
    rows_to_csv,
    run_experiment,
    write_csv,
    write_edge_list,
)
from optarget.experiments import (
    CSV_COLUMNS,
    ExperimentConfig,
    StrategyOutcome,
    sample_connected_er,
    sample_sized_tree,
)


def strip_wall_time(csv_text: str) -> str:
    lines = csv_text.splitlines()
    return "\n".join(",".join(line.split(",")[:-1]) for line in lines)


class TestSeeds:
    def test_derive_seed_is_stable(self):
        # Frozen value: the mixing function is part of the reproducibility
        # contract, so any change to it must be deliberate and visible.
        assert derive_seed(1, "er-blocking", 400, 0, 0) == 14801023103936366833

    def test_derive_seed_takes_integral_seeds_only(self):
        assert derive_seed(7.0, "x", 1) == derive_seed(7, "x", 1)
        with pytest.raises(ValueError, match="seed must be an integer: got 7.5"):
            derive_seed(7.5, "x", 1)

    def test_derive_seed_sensitivity(self):
        base = derive_seed(7, "x", 1)
        assert derive_seed(7, "x", 2) != base
        assert derive_seed(8, "x", 1) != base
        assert derive_seed(7, "y", 1) != base

    def test_connected_sampler_is_connected_and_deterministic(self):
        g1 = sample_connected_er(50, 0.08, 3, "cell", 0)
        g2 = sample_connected_er(50, 0.08, 3, "cell", 0)
        assert g1 == g2
        from optarget import is_connected
        assert is_connected(g1)

    def test_sized_tree_sampler(self):
        g = sample_sized_tree(3.0, 70, 3, "tree", 0)
        assert g.node_count == 70
        assert g.edge_count == 69

    def test_samplers_give_up_after_the_resample_cap(self, monkeypatch):
        monkeypatch.setattr(experiments, "_MAX_RESAMPLE", 3)
        with pytest.raises(RuntimeError, match=r"no connected G\(20, 0.0\) sample in 3"):
            sample_connected_er(20, 0.0, 1, "er", 0)
        with pytest.raises(RuntimeError, match="no size-70 Poisson"):
            sample_sized_tree(0.01, 70, 1, "tree", 0)

    def test_zero_optimum_redraw_gives_up_after_the_resample_cap(self, monkeypatch):
        monkeypatch.setattr(experiments, "_MAX_RESAMPLE", 2)
        calls = []

        def zero(inst):
            calls.append(inst)
            return StrategyOutcome(frozenset({0}), 0.0, 1, 1)

        monkeypatch.setattr(experiments, "brute_force", zero)
        cfg = default_config("er-treelike", n=(20,), a=(3.0,), trials=1)
        with pytest.raises(RuntimeError, match="nonzero optimum"):
            experiments.run_experiment(cfg)
        assert len(calls) == 2


class TestConfig:
    def test_unknown_experiment_rejected(self):
        with pytest.raises(ValueError, match="unknown experiment"):
            ExperimentConfig(experiment="nope", n=(10,))

    def test_unknown_experiment_has_no_defaults(self):
        with pytest.raises(ValueError, match="unknown experiment 'nope'; pick one of"):
            default_config("nope")

    def test_defaults_match_study_scales(self):
        cfg = default_config("er-blocking")
        assert cfg.n == (400,)
        assert cfg.k_plus == 5 and cfg.minus_count == 3 and cfg.trials == 50
        assert cfg.a[0] == 1.5 and cfg.a[-1] == 10.0 and len(cfg.a) == 18
        cfg = default_config("er-treelike")
        assert cfg.n == (100, 200, 300, 400, 500, 600, 700, 800)
        assert cfg.a == (1.5, 3.0, 4.5, 6.0)
        cfg = default_config("random-trees")
        assert cfg.lam == (3.0, 6.0, 9.0, 12.0)
        cfg = default_config("treelike-otp")
        assert cfg.edge_p == 0.1 and cfg.trials == 15 and cfg.k_plus == 3

    def test_overrides(self):
        cfg = default_config("er-blocking", n=(40,), trials=2, seed=5)
        assert cfg.n == (40,) and cfg.trials == 2 and cfg.seed == 5

    def test_preloaded_graph_outside_facebook_rejected(self):
        # The CLI cases of this rule are in TestCli; ``graph`` has no flag.
        with pytest.raises(ValueError, match="treelike-otp does not use graph"):
            default_config("treelike-otp", graph=generate_line(5))

    def test_integral_fields_become_ints(self):
        cfg = default_config("er-blocking", n=(30.0,), a=(3.0,), trials=2.0,
                             k_plus=np.int64(2), minus_count=1.0, seed=3.0)
        fields = (*cfg.n, cfg.trials, cfg.k_plus, cfg.minus_count, cfg.seed)
        assert fields == (30, 2, 2, 1, 3) and all(type(v) is int for v in fields)
        as_ints = default_config("er-blocking", n=(30,), a=(3.0,), trials=2, k_plus=2,
                                 minus_count=1, seed=3)
        assert strip_wall_time(rows_to_csv(run_experiment(cfg))) == strip_wall_time(
            rows_to_csv(run_experiment(as_ints)))

    @pytest.mark.parametrize("field, value", [
        ("n", (30.7,)), ("trials", 1.5), ("k_plus", float("nan")),
        ("minus_count", float("inf")), ("seed", 1.9)])
    def test_fractional_fields_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            default_config("er-blocking", **{field: value})

    @pytest.mark.parametrize("experiment, field, value", [
        ("er-blocking", "a", math.nan), ("er-blocking", "a", math.inf),
        ("random-trees", "lam", math.nan), ("random-trees", "lam", -math.inf)])
    def test_non_finite_grid_rejected(self, experiment, field, value):
        # min(1, nan) is 1: a NaN a used to run on the complete graph.
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            default_config(experiment, **{field: (3.0, value)})

    def test_negative_minus_count_rejected(self):
        with pytest.raises(ValueError, match="minus_count must be >= 0"):
            default_config("er-blocking", minus_count=-1)
        with pytest.raises(ValueError, match="trials must be >= 1"):
            default_config("er-blocking", trials=0)


class TestErEdgeProbability:
    def test_one_rule_capped_at_one(self):
        assert experiments.er_edge_probability(400, 6.0) == 6.0 * math.log(400) / 400
        assert experiments.er_edge_probability(20, 10.0) == 1.0
        assert experiments.er_edge_probability(1, 3.0) == 0.0

    def test_dense_cell_runs_on_the_complete_graph(self, monkeypatch):
        # a * ln(n) / n = 1.498 for n = 20, a = 10: the family used to pass it
        # to the generator uncapped, which rejected it.
        drawn = []
        generate = experiments.generate_erdos_renyi

        def record(*args):
            drawn.append(generate(*args))
            return drawn[-1]

        monkeypatch.setattr(experiments, "generate_erdos_renyi", record)
        rows = run_experiment(default_config("er-blocking", n=(20,), a=(10.0,), trials=1))
        assert [r.algorithm for r in rows] == ["degree", "greedy", "blocking"]
        assert drawn[0] == generate_complete(20)

    @pytest.mark.parametrize("n", [1, 30])
    def test_non_finite_a_rejected(self, n):
        for a in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="a must be finite"):
                experiments.er_edge_probability(n, a)

    @pytest.mark.parametrize("kind, flag, value, message", [
        ("er", "--a", "nan", "a must be finite, got nan"),
        ("er", "--a", "inf", "a must be finite, got inf"),
        ("tree", "--lambda", "nan", "lam must be > 0 and finite, got nan")])
    def test_cli_generate_rejects_non_finite(self, tmp_path, capsys, kind, flag, value,
                                             message):
        path = tmp_path / "g.txt"
        assert cli.main(["generate", "--kind", kind, "--n", "30", flag, value,
                         "--out", str(path)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not path.exists()

    def test_cli_generate_uses_the_same_rule(self, tmp_path):
        path = tmp_path / "er.txt"
        assert cli.main(["generate", "--kind", "er", "--n", "20", "--a", "10",
                         "--out", str(path)]) == 0
        assert load_edge_list(path) == generate_complete(20)


class TestRunners:
    def test_er_blocking_rows(self):
        cfg = default_config("er-blocking", n=(40,), a=(3.0,), trials=2, seed=11)
        rows = run_experiment(cfg)
        assert len(rows) == 2 * 3
        assert [r.algorithm for r in rows[:3]] == ["degree", "greedy", "blocking"]
        for r in rows:
            assert abs(r.f_plus) <= 1.0
            assert 0.0 <= r.visited_fraction <= 1.0

    def test_random_trees_rows_flag_exactness(self):
        cfg = default_config("random-trees", n=(30,), lam=(3.0,), trials=3, seed=11)
        rows = run_experiment(cfg)
        descent = [r for r in rows if r.algorithm == "descent"]
        assert len(descent) == 3
        assert all(r.success for r in descent)
        assert all(r.visited_fraction <= 1.0 for r in rows)

    def test_er_treelike_rows(self):
        cfg = default_config("er-treelike", n=(40,), a=(3.0,), trials=2, seed=11)
        rows = run_experiment(cfg)
        climb = [r for r in rows if r.algorithm == "climb"]
        assert len(climb) == 2
        assert all(r.success is not None for r in climb)

    @pytest.mark.parametrize("experiment, overrides", [
        ("er-blocking", dict(n=(40,), a=(3.0,))),
        ("random-trees", dict(n=(30,), lam=(3.0,))),
        ("er-treelike", dict(n=(40,), a=(3.0,))),  # no zero optimum to redraw
        ("treelike-otp", dict(n=(40,))),
        ("facebook", dict()),
    ])
    def test_solvers_run_once_per_trial_through_module_bindings(
            self, experiment, overrides, monkeypatch, tmp_path):
        # perfbench traces solvers by patching these bindings, so the runner
        # must look them up at call time.
        calls = Counter()
        for solver in set(experiments.SOLVERS.values()):
            real = getattr(experiments, solver)
            monkeypatch.setattr(experiments, solver, lambda inst, real=real, solver=solver:
                                calls.update([solver]) or real(inst))
        if experiment == "facebook":
            overrides["graph_path"] = str(tmp_path / "edges.txt")
            write_edge_list(sample_connected_er(30, 0.15, 1, "synthetic"),
                            overrides["graph_path"])
        rows = run_experiment(default_config(experiment, trials=2, seed=11, **overrides))
        ran = {experiments.SOLVERS[r.algorithm] for r in rows}
        assert len(rows) == 2 * len(ran)  # one row per solver and trial
        assert calls == {solver: 2 for solver in ran}

    @pytest.mark.parametrize("label", sorted(experiments.SOLVERS))
    def test_every_solver_takes_only_the_instance(self, label):
        # The CLI and the runner call each solver as solver(inst): a knob on
        # that surface could be set by no caller but a test.
        solver = getattr(experiments, experiments.SOLVERS[label])
        assert list(inspect.signature(solver).parameters) == ["inst"]

    def test_treelike_otp_rows(self):
        cfg = default_config("treelike-otp", n=(40,), trials=2, k_plus=2,
                             minus_count=2, seed=11)
        rows = run_experiment(cfg)
        greedy_rows = [r for r in rows if r.algorithm == "greedy"]
        assert all(r.visited_fraction == 1.0 for r in greedy_rows)

    def test_facebook_requires_path(self):
        with pytest.raises(ValueError, match="graph_path"):
            run_experiment(default_config("facebook"))

    def test_facebook_runner_on_synthetic_file(self, tmp_path):
        g = sample_connected_er(30, 0.15, 1, "synthetic")
        path = tmp_path / "edges.txt"
        write_edge_list(g, path)
        cfg = default_config("facebook", trials=2, graph_path=str(path), seed=11)
        rows = run_experiment(cfg)
        assert len(rows) == 4
        assert {r.algorithm for r in rows} == {"climb", "brute"}

    @pytest.mark.parametrize("experiment, extra", [
        ("er-blocking", dict(n=(20,), a=(3.0,))),
        ("facebook", dict(graph_path="edges.txt", graph=generate_line(20))),
    ], ids=["er-blocking", "facebook"])
    def test_minus_count_above_n_rejected(self, experiment, extra):
        # Accepted by the config, whose grid may hold larger cells; the
        # trial draw rejects it for the cell (or loaded graph) at hand.
        cfg = default_config(experiment, trials=1, minus_count=21, **extra)
        with pytest.raises(ValueError, match="minus_count 21 exceeds the 20 nodes"):
            run_experiment(cfg)

    def test_rerun_reproduces_everything_but_wall_time(self):
        cfg = default_config("er-treelike", n=(35,), a=(3.0,), trials=2, seed=4)
        first = strip_wall_time(rows_to_csv(run_experiment(cfg)))
        second = strip_wall_time(rows_to_csv(run_experiment(cfg)))
        assert first == second


class TestCsv:
    def test_header_and_shape(self, tmp_path):
        cfg = default_config("er-blocking", n=(30,), a=(2.0,), trials=1, seed=2)
        rows = run_experiment(cfg)
        text = rows_to_csv(rows)
        lines = text.splitlines()
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert len(lines) == 1 + len(rows)
        assert text.endswith("\n")
        assert "\r" not in text
        out = tmp_path / "rows.csv"
        write_csv(rows, out)
        assert out.read_bytes().decode("utf-8") == text

    def test_float_formatting_significant_digits(self):
        cfg = default_config("er-blocking", n=(30,), a=(2.0,), trials=1, seed=2)
        text = rows_to_csv(run_experiment(cfg))
        value = text.splitlines()[1].split(",")[8]
        assert re.fullmatch(r"-?\d+(\.\d+)?(e-?\d+)?", value)
        assert len(value.replace("-", "").replace(".", "").lstrip("0")) <= 13


class TestCli:
    def run(self, *argv):
        return cli.main(list(argv))

    def test_generate_and_solve_line(self, tmp_path, capsys):
        path = tmp_path / "line.txt"
        assert self.run("generate", "--kind", "line", "--n", "10",
                        "--out", str(path)) == 0
        capsys.readouterr()
        assert self.run("solve", "--graph", str(path), "--minus", "0",
                        "--k-plus", "1", "--algorithm", "brute") == 0
        out = capsys.readouterr().out
        assert '"3"' in out and "0.36" in out

    def test_generate_er_and_tree(self, tmp_path, capsys):
        er = tmp_path / "er.txt"
        assert self.run("generate", "--kind", "er", "--n", "50", "--a", "4",
                        "--seed", "3", "--out", str(er)) == 0
        assert load_edge_list(er).node_count == 50
        tree = tmp_path / "tree.txt"
        assert self.run("generate", "--kind", "tree", "--n", "40", "--lambda",
                        "3", "--seed", "3", "--out", str(tree)) == 0
        g = load_edge_list(tree)
        assert g.edge_count == g.node_count - 1
        complete = tmp_path / "complete.txt"
        assert self.run("generate", "--kind", "complete", "--n", "6",
                        "--out", str(complete)) == 0
        assert load_edge_list(complete) == generate_complete(6)
        capsys.readouterr()
        for kind, missing in [("er", "--a"), ("tree", "--lambda")]:
            assert self.run("generate", "--kind", kind, "--n", "10",
                            "--out", str(tmp_path / "none.txt")) == 1
            assert capsys.readouterr().err == f"error: --kind {kind} needs {missing}\n"
        assert not (tmp_path / "none.txt").exists()

    def test_solve_degree_on_star(self, tmp_path, capsys):
        star = tmp_path / "star.txt"
        write_edge_list( __import__("conftest").star_graph(5), star)
        assert self.run("solve", "--graph", str(star), "--minus", "2",
                        "--algorithm", "degree") == 0
        assert '"0"' in capsys.readouterr().out

    @pytest.mark.parametrize("argv", [
        ("--experiment", "er-blocking", "--edge-p", "0.2"),
        ("--experiment", "er-treelike", "--edge-p", "0.2"),
        ("--experiment", "er-blocking", "--graph", "edges.txt"),
        ("--experiment", "random-trees", "--k-plus", "3"),
        ("--experiment", "random-trees", "--minus-count", "2"),
        ("--experiment", "er-treelike", "--k-plus", "3"),
        ("--experiment", "facebook", "--graph", "edges.txt", "--k-plus", "3"),
    ])
    def test_ignored_override_is_usage_error(self, argv, capsys):
        assert self.run("experiment", *argv, "--n", "20", "--trials", "1") == 1
        assert re.search(r"does not use|needs", capsys.readouterr().err)

    def test_facebook_honors_minus_count(self, tmp_path):
        path = tmp_path / "edges.txt"
        write_edge_list(sample_connected_er(25, 0.2, 1, "minus"), path)
        out = tmp_path / "rows.csv"
        assert self.run("experiment", "--experiment", "facebook", "--graph", str(path),
                        "--minus-count", "2", "--trials", "1", "--out", str(out)) == 0
        rows = out.read_text().splitlines()[1:]
        assert len(rows) == 2
        assert all(line.split(",")[5] == "2" for line in rows)

    def test_experiment_to_file(self, tmp_path, capsys):
        out = tmp_path / "rows.csv"
        argv = ("experiment", "--experiment", "er-treelike", "--n", "30", "--a", "3",
                "--trials", "1", "--seed", "5")
        code = self.run(*argv, "--out", str(out))
        assert code == 0
        assert out.read_text().startswith("experiment,")
        capsys.readouterr()
        # Without --out the same CSV goes to stdout.
        assert self.run(*argv) == 0
        assert strip_wall_time(capsys.readouterr().out) == strip_wall_time(out.read_text())

    def test_missing_file_is_io_error(self, capsys):
        assert self.run("solve", "--graph", "no-such-file.txt", "--minus", "0",
                        "--algorithm", "brute") == 3

    def test_non_utf8_file_is_io_error(self, tmp_path, capsys):
        path = tmp_path / "g.txt"
        path.write_bytes(b"0 1\n\xff 2\n")
        assert self.run("solve", "--graph", str(path), "--minus", "0",
                        "--algorithm", "brute") == 3
        assert capsys.readouterr().err == f"i/o error: {path}:2: non-integer node id\n"

    def test_excess_budget_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "line.txt"
        write_edge_list(generate_line(5), path)
        assert self.run("solve", "--graph", str(path), "--minus", "0",
                        "--k-plus", "9", "--algorithm", "brute") == 1

    def test_brute_without_attachment_or_budget_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "line.txt"
        write_edge_list(generate_line(5), path)
        assert self.run("solve", "--graph", str(path), "--minus", "", "--k-plus", "0",
                        "--algorithm", "brute") == 1
        assert capsys.readouterr().err == (
            "error: no strategic attachment: objective undefined\n")

    @pytest.mark.parametrize("count, message", [
        ("25", "error: minus_count 25 exceeds the 20 nodes of the er-blocking graph\n"),
        ("-1", "error: minus_count must be >= 0\n"),
    ])
    def test_out_of_range_minus_count_is_usage_error(self, count, message, capsys):
        assert self.run("experiment", "--experiment", "er-blocking", "--n", "20",
                        "--a", "3", "--trials", "1", "--minus-count", count) == 1
        assert capsys.readouterr().err == message

    def test_resample_exhaustion_is_usage_error(self, monkeypatch, capsys):
        monkeypatch.setattr(experiments, "_MAX_RESAMPLE", 3)
        assert self.run("experiment", "--experiment", "random-trees", "--lambda", "0.5",
                        "--n", "400", "--trials", "1") == 1
        assert capsys.readouterr().err == (
            "error: no size-400 Poisson(0.5) tree in 3 draws\n")

    def test_bad_flag_is_usage_error(self):
        with pytest.raises(SystemExit) as err:
            self.run("experiment", "--experiment", "bogus")
        assert err.value.code == 1

    def test_out_of_memory_is_usage_error(self, tmp_path, monkeypatch, capsys):
        # Raised, never allocated: a real allocation of that size could take
        # the machine down.
        def oom(*args, **kwargs):
            raise MemoryError("Unable to allocate 74.5 GiB")

        path = tmp_path / "line.txt"
        write_edge_list(generate_line(5), path)
        monkeypatch.setattr(cli, "load_edge_list", oom)
        monkeypatch.setattr(cli, "generate_line", oom)
        for argv in [("solve", "--graph", str(path), "--minus", "0", "--algorithm", "climb"),
                     ("generate", "--kind", "line", "--n", "10000000000",
                      "--out", str(tmp_path / "big.txt"))]:
            assert self.run(*argv) == 1
            assert capsys.readouterr().err == (
                "error: out of memory: Unable to allocate 74.5 GiB\n")

    def test_solver_failure_is_exit_code_2(self, tmp_path, monkeypatch, capsys):
        from optarget.engine import SolverConvergenceError

        def boom(inst):
            raise SolverConvergenceError("forced")

        monkeypatch.setitem(cli.ALGORITHMS, "greedy", boom)
        path = tmp_path / "line.txt"
        write_edge_list(generate_line(5), path)
        assert self.run("solve", "--graph", str(path), "--minus", "0",
                        "--algorithm", "greedy") == 2

    def test_facebook_experiment_reports_density_header(self, tmp_path, capsys,
                                                        monkeypatch):
        from optarget.experiments import sample_connected_er

        loads = []
        for module in (cli, experiments):
            monkeypatch.setattr(module, "load_edge_list",
                                lambda path: loads.append(path) or load_edge_list(path))
        path = tmp_path / "edges.txt"
        write_edge_list(sample_connected_er(25, 0.2, 1, "density"), path)
        out = tmp_path / "rows.csv"
        assert self.run("experiment", "--experiment", "facebook",
                        "--graph", str(path), "--trials", "1",
                        "--seed", "1", "--out", str(out)) == 0
        assert "density" in capsys.readouterr().err
        assert loads == [str(path)]

    def test_console_entry_point(self, tmp_path):
        path = tmp_path / "line.txt"
        write_edge_list(generate_line(10), path)
        res = subprocess.run(
            [sys.executable, "-m", "optarget.cli", "solve", "--graph", str(path),
             "--minus", "0", "--algorithm", "descent"],
            capture_output=True, text=True,
        )
        assert res.returncode == 0
        assert '"3"' in res.stdout
