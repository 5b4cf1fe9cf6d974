"""Span tracing of optarget from outside the library.

The tracer replaces, for the duration of a ``with tracer.installed():``
block, the public functions and methods each optarget module calls into,
exactly as they are bound in the calling module (``experiments.Instance``,
``heuristics.solve_equilibrium``, ``OpinionSolver.objective``, ...). Each
wrapped call inside a trial records a span ``[name, start, end, parent,
trial]``; a layer's self time is its spans' durations minus the time their
child spans cover. The library itself is never edited.
"""

from __future__ import annotations

import contextlib
import time
from collections import defaultdict

from optarget import cli, engine, equilibrium, experiments, heuristics

SOLVERS = ("degree_heuristic", "greedy", "blocking", "brute_force",
           "tree_descent", "hill_climb")

# (owner, attribute, span name). The owner is the module or class whose
# binding the library looks up at call time.
PATCH_POINTS = (
    (cli, "main", "cli.main"),
    (cli, "load_edge_list", "graphs.load"),
    (experiments, "run_experiment", "experiments.run_experiment"),
    (experiments, "rows_to_csv", "experiments.rows_to_csv"),
    (experiments, "generate_erdos_renyi", "graphs.generate"),
    (experiments, "generate_poisson_tree", "graphs.generate"),
    (experiments, "is_connected", "graphs.is_connected"),
    (experiments, "load_edge_list", "graphs.load"),
    (experiments, "Instance", "equilibrium.instance"),
    *((experiments, s, f"heuristics.{s}") for s in SOLVERS),
    (equilibrium, "is_connected", "graphs.is_connected"),
    (equilibrium, "OpinionSolver", "engine.factorize"),
    (heuristics, "solve_equilibrium", "equilibrium.solve"),
    (heuristics, "tree_view", "graphs.tree_view"),
    (engine.OpinionSolver, "objective", "engine.objective"),
    (engine.OpinionSolver, "gains", "engine.gains"),
)

NAME, START, END, PARENT, TRIAL = range(5)


class Tracer:
    """In-memory span recorder. Calls outside a trial pass through unrecorded.

    Solver outcomes are captured with their instance, so that they can be
    re-verified between trials, outside every timed span.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.outcomes: list[tuple] = []
        self.evaluations: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._trial: int | None = None

    @contextlib.contextmanager
    def trial(self, trial_id: int):
        """Root span of one trial; every wrapped call inside it is recorded."""
        self._trial = trial_id
        try:
            with self._span("trial"):
                yield
        finally:
            self._trial = None

    @contextlib.contextmanager
    def _span(self, name: str):
        rec = [name, time.perf_counter(), None,
               self._stack[-1] if self._stack else None, self._trial]
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        try:
            yield rec
        finally:
            rec[END] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, fn, name: str):
        tracer = self

        def traced(*args, **kwargs):
            if tracer._trial is None:
                return fn(*args, **kwargs)
            with tracer._span(name) as rec:
                result = fn(*args, **kwargs)
            if name == "engine.factorize":
                rec[NAME] = "engine.factorize." + ("dense" if result.dense else "sparse")
            elif name.startswith("heuristics."):
                tracer.evaluations[name] += result.equilibrium_evaluations
                tracer.outcomes.append((args[0], result))
            return result

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Install every wrapper; the originals are restored on exit."""
        saved = []
        try:
            for owner, attr, name in PATCH_POINTS:
                original = vars(owner)[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(original, name))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def take_outcomes(self) -> list[tuple]:
        out, self.outcomes = self.outcomes, []
        return out

    def self_times(self) -> dict[str, tuple[int, float]]:
        """Per span name: (call count, total self seconds)."""
        child = [0.0] * len(self.spans)
        for rec in self.spans:
            if rec[PARENT] is not None:
                child[rec[PARENT]] += rec[END] - rec[START]
        totals: dict[str, list] = defaultdict(lambda: [0, 0.0])
        for rec, covered in zip(self.spans, child):
            entry = totals[rec[NAME]]
            entry[0] += 1
            entry[1] += rec[END] - rec[START] - covered
        return {name: (calls, secs) for name, (calls, secs) in totals.items()}


def layer_metrics(tracer: Tracer, trials: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics normalised per traced trial, as name -> (value, unit)."""
    st = tracer.self_times()

    def calls(*names):
        return sum(st.get(n, (0, 0.0))[0] for n in names)

    def secs(*names):
        return sum(st.get(n, (0, 0.0))[1] for n in names)

    def ms(*names):
        return 1000.0 * secs(*names) / trials

    factorize = ("engine.factorize.dense", "engine.factorize.sparse")
    objective_calls = calls("engine.objective")
    out = {
        "graphs.generate_ms": (ms("graphs.generate"), "ms/trial"),
        "graphs.draws_per_graph": (
            calls("graphs.generate") / max(1, calls("equilibrium.instance")), "ratio"),
        "graphs.is_connected_ms": (ms("graphs.is_connected"), "ms/trial"),
        "graphs.tree_view_ms": (ms("graphs.tree_view"), "ms/trial"),
        "graphs.load_ms": (ms("graphs.load"), "ms/trial"),
        "graphs.load_calls": (calls("graphs.load") / trials, "calls/trial"),
        "equilibrium.instance_ms": (ms("equilibrium.instance"), "ms/trial"),
        "equilibrium.solve_ms": (ms("equilibrium.solve"), "ms/trial"),
        "equilibrium.solve_calls": (calls("equilibrium.solve") / trials, "calls/trial"),
        "engine.factorize_ms": (ms(*factorize), "ms/trial"),
        "engine.factorize_calls": (calls(*factorize) / trials, "calls/trial"),
        "engine.factorize.dense_ms": (ms("engine.factorize.dense"), "ms/trial"),
        "engine.factorize.sparse_ms": (ms("engine.factorize.sparse"), "ms/trial"),
        "engine.objective_us": (
            1e6 * secs("engine.objective") / max(1, objective_calls), "us/call"),
        "engine.objective_calls": (objective_calls / trials, "calls/trial"),
        "engine.gains_ms": (ms("engine.gains"), "ms/trial"),
        "engine.gains_calls": (calls("engine.gains") / trials, "calls/trial"),
    }
    for s in SOLVERS:
        name = f"heuristics.{s}"
        out[f"{name}.self_ms"] = (ms(name), "ms/trial")
        out[f"{name}.evaluations"] = (tracer.evaluations[name] / trials, "evals/trial")
    out["experiments.self_ms"] = (
        ms("experiments.run_experiment", "experiments.rows_to_csv"), "ms/trial")
    out["cli.self_ms"] = (ms("cli.main"), "ms/trial")
    return out
