"""optarget benchmark: per-trial latency of three experiment workloads.

    python3 perfbench/run.py --workload er-blocking --seed 1 --seconds 30 --trace 0

Each workload runs in a fresh interpreter (worker.py), so its set-up time and
peak RSS belong to it alone. With ``--trace 0`` the last stdout line carries
the end-to-end metrics; with ``--trace 1`` half the time is measured
untraced and half traced, and it carries the per-layer metrics. The lines
before it list every metric with its unit, and the environment. The exit code
is 0 only when every trial passed its checks. See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("er-blocking", "random-trees", "sparse-standin")
SETUP_PROBES = 4
RUN_LIMIT_S = 175.0
BLAS_THREADS = 1
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def child_env() -> dict[str, str]:
    """Environment with BLAS pinned to one thread (see README.md)."""
    return dict(os.environ, **{var: str(BLAS_THREADS) for var in BLAS_THREAD_VARS})


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip()


def worker(args, extra: list[str], deadline: float) -> dict:
    """Run worker.py in a fresh interpreter and return its JSON result."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), *extra]
    proc = subprocess.run(cmd, capture_output=True, text=True, env=child_env(),
                          timeout=max(1.0, deadline - time.monotonic()))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker exited {proc.returncode}: {' '.join(cmd)}")
    return json.loads(lines[-1])


def latency_stats(by_cell: dict[str, list[float]]) -> dict:
    """Per-trial latency. The p50 is the mean over grid cells of each cell's
    median: the cells are cycled in equal shares and their costs differ by up
    to 2x, so a pooled median would fall in a gap between cells. The p90 is
    pooled, and reported only with at least ten samples beyond it."""
    pooled = [ms for samples in by_cell.values() for ms in samples]
    medians = [statistics.median(s) for s in by_cell.values()]
    out = {"p50": statistics.fmean(medians) if medians else 0.0,
           "samples": len(pooled), "p90": None}
    if len(pooled) // 10 >= 10:
        out["p90"] = statistics.quantiles(pooled, n=10, method="inclusive")[8]
    return out


def render(res: dict, setup: list[float], trace: bool, env: dict) -> tuple[list[str], dict]:
    """Report lines (every metric with its unit) and the final result object."""
    lat = latency_stats(res["by_cell"])
    e2e = {
        "trial_ms_p50": (lat["p50"], "ms"),
        "trials_per_s": (res["trials_per_s"], "1/s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
    }
    lines = ["# env " + json.dumps(env, sort_keys=True), f"# warm-up CSV digest {res['digest']}"]
    lines += [f"# FAILED {problem}" for problem in res["problems"][:20]]
    lines += [f"{name} = {value:.6g} {unit}" for name, (value, unit) in e2e.items()]
    lines.append(f"trial_ms_p50 samples = {lat['samples']}; setup_s samples = {len(setup)}")
    if lat["p90"] is not None:
        lines.append(f"trial_ms_p90 = {lat['p90']:.6g} ms")
    lines.append(f"failed_frac = {res['failed'] / res['attempted']:.6g} ratio "
                 f"({res['failed']} of {res['attempted']} trials)")
    metrics = e2e
    if trace:
        metrics = res["layers"]
        lines += [f"{name} = {value:.6g} {unit}" for name, (value, unit) in metrics.items()]
    return lines, {
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def seed_value(text: str) -> int:
    """A non-negative integer: numpy's generators reject negative seeds."""
    seed = int(text)
    if seed < 0:
        raise argparse.ArgumentTypeError(f"seed must be >= 0, got {seed}")
    return seed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="optarget benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=seed_value, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_LIMIT_S
    if not (ROOT / "src" / "optarget" / "__init__.py").is_file():
        print(f"error: no optarget sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    try:
        setup = [] if args.trace else [
            worker(args, ["--setup-only"], deadline)["setup_s"] for _ in range(SETUP_PROBES)]
        res = worker(args, ["--seconds", str(args.seconds), "--trace", str(args.trace)],
                     deadline)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        try:
            (HERE / ".work").rmdir()
        except OSError:
            pass
    setup.append(res["setup_s"])

    env = dict(res["env"], nproc=nproc(), git_commit=git_commit(), workload=args.workload)
    lines, result = render(res, setup, bool(args.trace), env)
    print("\n".join(lines))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
