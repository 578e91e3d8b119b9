"""Smoke test of the benchmark itself, at one-second runs.

    python3 -m pytest -q bench/test_smoke.py

It checks that every metric BENCHMARK.json names is printed with its
unit, that a tampered reference digest shows up as failed realizations,
that a traced run writes spans for every layer and that every per-layer
metric is backed by spans some workload wrote, that the work counts
repeat exactly across seeds, and that without src/ the benchmark exits
non-zero without a result.  About two minutes on a 2-core host.
"""

import functools
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH_DIR]

from workloads import NAMES  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)

# span names each workload must reach
LAYER_SPANS = {
    "scaling_fit": {"spectral_noise.sample", "mc_harness.scaling_fit"},
    "mc_campaign": {
        "cli.main", "config.parse", "mc_harness.campaign", "spectral_noise.sample",
        "solver.solve", "nonlinearity.flux", "hoelder.dyadic", "hoelder.c1alpha", "hoelder.gradient",
    },
    "solve_norms": {
        "cli.main", "config.parse", "spectral_noise.sample", "spectral_noise.evaluate",
        "spectral_noise.qspd_io", "solver.solve", "nonlinearity.flux", "hoelder.dyadic",
        "hoelder.c1alpha", "hoelder.gradient",
    },
}
COUNTS = ("calls", "streams", "mode_rows", "steps", "node_updates", "samples", "lag_pairs", "bytes",
          "realizations", "failures")


def _run(args, cwd=ROOT, script=os.path.join(BENCH_DIR, "run.py")):
    return subprocess.run([sys.executable, script, *args], cwd=cwd, capture_output=True, text=True, timeout=170)


@functools.lru_cache(maxsize=None)
def bench(workload, seed, trace):
    proc = _run(["--workload", workload, "--seed", str(seed), "--seconds", "1", "--trace", str(trace)])
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1]), proc


def _seen_spans(workload):
    """Span names in the trace file of the seed-0 traced run."""
    with np.load(os.path.join(ROOT, ".bench_out", f"trace-{workload}-seed0.npz")) as z:
        meta = json.loads(str(z["meta"]))
        assert np.all(z["end"] >= z["start"])
        names = np.unique(z["name"])
    assert meta["workload"] == workload and meta["run_id"]
    return {meta["names"][i] for i in names}


@pytest.mark.parametrize("workload", NAMES)
def test_every_end_to_end_metric_printed_with_unit(workload):
    out, proc = bench(workload, 0, 0)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in out["metrics"].items()} == want
    assert all(v["value"] > 0 for v in out["metrics"].values())
    for name, unit in want.items():
        assert f"  {name} = " in proc.stdout and proc.stdout.count(f" {unit}\n") >= 1


def test_tampered_reference_raises_failed_frac():
    import run

    with open(os.path.join(BENCH_DIR, "reference.json")) as fh:
        ref = json.load(fh)
    for digests in ref["workloads"]["scaling_fit"]["dev"].values():
        digests["fit.json"] = "0" * 64
    r = run.Run("scaling_fit", 0, "dev", ref)
    try:
        assert [r.unit() for _ in range(3)] == [None] * 3
    finally:
        r.close()
    assert r.attempted > 0 and r.failed == r.attempted


@pytest.mark.parametrize("workload", NAMES)
def test_traced_run_writes_spans_for_every_layer(workload):
    out, _ = bench(workload, 0, 1)
    assert out["correct"]
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in out["metrics"].items()} == want
    assert LAYER_SPANS[workload] <= _seen_spans(workload)


def test_every_per_layer_metric_is_backed_by_spans():
    seen = set()
    for workload in NAMES:
        bench(workload, 0, 1)
        seen |= _seen_spans(workload)
    for m in SPEC["per_layer"]:
        prefix = m["name"].rsplit(".", 1)[0]
        if prefix in ("unit", "tracing"):  # from unit times, not from spans
            continue
        assert any(s == prefix or s.startswith(prefix + ".") for s in seen), m["name"]


@pytest.mark.parametrize("workload", NAMES)
def test_work_counts_repeat_across_seeds(workload):
    a, pa = bench(workload, 0, 1)
    b, pb = bench(workload, 1, 1)
    assert "work counts repeat" in pa.stdout and "work counts repeat" in pb.stdout
    counts = [k for k in a["metrics"] if k.rsplit(".", 1)[-1] in COUNTS]
    assert counts
    assert {k: a["metrics"][k]["value"] for k in counts} == {k: b["metrics"][k]["value"] for k in counts}


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(["--workload", "mc_campaign", "--seed", "0", "--seconds", "1", "--trace", "0"],
                cwd=tmp_path, script=str(tmp_path / "bench" / "run.py"))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
