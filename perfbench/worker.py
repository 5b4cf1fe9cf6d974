"""One workload in a fresh interpreter: set up, warm up, measure, report JSON.

    python3 perfbench/worker.py --workload NAME --seed S --seconds T --trace 0|1
    python3 perfbench/worker.py --workload NAME --seed S --setup-only

The last stdout line is a JSON object. ``--setup-only`` times ``import
optarget`` plus building the workload's inputs and stops there; run.py
starts several such processes to take the median set-up time.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

RESOLVE_TOL = 1e-12
WINDOWS = 10


def verify_outcomes(outcomes) -> list[str]:
    """Re-solve and electrically cross-check captured solver outcomes."""
    from optarget.equilibrium import solve_equilibrium, verify_electrical

    problems = []
    for inst, out in outcomes:
        prof = solve_equilibrium(inst, out.chosen_set)
        if abs(prof.objective - out.objective) > RESOLVE_TOL:
            problems.append(f"re-solve gives {prof.objective}, solver said {out.objective}")
        if not verify_electrical(inst, out.chosen_set, prof):
            problems.append(f"electrical check failed for {sorted(out.chosen_set)}")
    return problems


def timed_loop(wl, seed: int, seconds: float, tracer=None) -> dict:
    """Closed loop: trials back to back until ``seconds`` of timed wall time.

    Timed wall time covers each trial and its row check; re-verification of
    traced outcomes runs between trials and is not timed. Throughput is the
    median over ``WINDOWS`` consecutive windows of the timed wall time, so a
    few seconds of a slowed or sped-up host move it little.
    """
    by_cell: dict[str, list[float]] = defaultdict(list)
    windows: list[float] = []
    wall = window_wall = 0.0
    window_trials = completed = failed = 0
    problems: list[str] = []
    i = 0
    while i == 0 or wall < seconds:
        prepared = wl.prepare(seed, i)
        scope = tracer.trial(i) if tracer else contextlib.nullcontext()
        start = time.perf_counter()
        try:
            with scope:
                text = wl.run(prepared)
            by_cell[wl.cell(i)].append(1000.0 * (time.perf_counter() - start))
            completed += 1
            window_trials += 1
            errs = wl.check(text)
        except Exception as exc:  # a failed trial is counted, not fatal
            errs = [f"{type(exc).__name__}: {exc}"]
        elapsed = time.perf_counter() - start
        wall += elapsed
        window_wall += elapsed
        if tracer:
            errs += verify_outcomes(tracer.take_outcomes())
        if errs:
            failed += 1
            problems += [f"trial {i}: {e}" for e in errs]
        i += 1
        if window_wall >= seconds / WINDOWS or wall >= seconds:
            if window_trials:
                windows.append(window_trials / window_wall)
            window_trials, window_wall = 0, 0.0
    return {"by_cell": dict(by_cell), "trials_per_s": statistics.median(windows) if windows else 0.0,
            "attempted": i, "completed": completed, "failed": failed,
            "problems": problems}


def measure(wl, seed: int, seconds: float, trace: bool, reference: str | None) -> dict:
    """Warm up on the default seed (checked against ``reference``), then time."""
    from workloads import DEFAULT_SEED, csv_digest

    warm = [wl.run(wl.prepare(DEFAULT_SEED, i)) for i in range(wl.warmup)]
    problems = [f"warm-up: {p}" for text in warm for p in wl.check(text)]
    digest = csv_digest(warm)
    if reference is not None and digest != reference:
        problems.append(f"warm-up CSV digest {digest} differs from the reference {reference}")
    warm_failed = wl.warmup if problems else 0

    plain = timed_loop(wl, seed, seconds / 2 if trace else seconds)
    result = {
        "by_cell": plain["by_cell"],
        "trials_per_s": plain["trials_per_s"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": wl.warmup + plain["attempted"],
        "failed": warm_failed + plain["failed"],
        "problems": problems + plain["problems"],
        "digest": digest,
    }
    if trace:
        from spans import Tracer, layer_metrics

        tracer = Tracer()
        with tracer.installed():
            traced = timed_loop(wl, seed, seconds / 2, tracer)
        layers = layer_metrics(tracer, max(1, traced["completed"]))
        overhead = 1.0 - traced["trials_per_s"] / result["trials_per_s"]
        layers["trace.overhead_frac"] = (overhead, "ratio")
        result["layers"] = layers
        result["attempted"] += traced["attempted"]
        result["failed"] += traced["failed"]
        result["problems"] += traced["problems"]
    return result


def environment(seed: int) -> dict:
    """Interpreter, numpy/scipy and BLAS facts of this process."""
    import platform

    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": openblas_threads(),
        "seed": seed,
    }


def openblas_threads() -> int | None:
    """Thread count reported by the OpenBLAS that numpy loaded, if any."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    (HERE / ".work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=HERE / ".work"))
    try:
        start = time.perf_counter()
        import workloads  # imports optarget, numpy and scipy

        wl = workloads.WORKLOADS[args.workload]()
        wl.setup(args.seed, workdir)
        setup_s = time.perf_counter() - start
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        reference = json.loads((HERE / "reference.json").read_text())[args.workload]
        result = measure(wl, args.seed, args.seconds, bool(args.trace), reference)
        result["setup_s"] = setup_s
        result["env"] = environment(args.seed)
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    raise SystemExit(main())
