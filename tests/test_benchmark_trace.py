"""The benchmark's traced ``sparse-standin`` path on its full-size stand-in.

The benchmark's own self-tests use a 60-node stand-in, which runs on the
dense backend. This runs the default 2,100-node graph on the sparse one:
its warm-up must match the reference digest, the span tracer must install,
and every traced trial must pass the untimed re-verification.
"""

import json
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import worker  # noqa: E402
import workloads  # noqa: E402


def test_traced_sparse_standin_matches_the_reference(tmp_path):
    reference = json.loads((PERFBENCH / "reference.json").read_text())["sparse-standin"]
    wl = workloads.SparseStandin()
    wl.setup(0, tmp_path)
    res = worker.measure(wl, 0, 0.2, True, reference)
    assert res["failed"] == 0, res["problems"]
    assert res["digest"] == reference
    sparse_ms, _ = res["layers"]["engine.factorize.sparse_ms"]
    assert sparse_ms > 0
