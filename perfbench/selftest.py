"""Tests of the benchmark itself (not collected by the repository's suite).

    python3 -m pytest -q perfbench/selftest.py
"""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

import run

run.use_checkout_source()

import harness  # noqa: E402  (needs the checkout's stabindex on sys.path)
import layers  # noqa: E402
from stabindex import models, montecarlo  # noqa: E402
from tracing import Span, Tracer, self_times  # noqa: E402


@pytest.mark.parametrize(
    "kind, n, samples, shards",
    [("cont-eq", 4, 40_000, 1), ("disc-eq", 2, 35_000, 3), ("cont-sys", 3, 3_000, 2),
     ("disc-sys", 2, 20_000, 2), ("cont-sys", 6, 20_000, 2)],
)
def test_replay_reproduces_histogram(kind, n, samples, shards):
    cfg = montecarlo.EstimationConfig(models.ModelFamily(kind, n), samples, 7, shards=shards)
    counts = np.zeros(n + 1, dtype=np.int64)
    indeterminate = 0
    for shard in range(shards):
        for block in layers.replay_blocks(cfg, shard):
            codes = models.batch_indices(cfg.family, block, cfg.method, cfg.tol)
            counts += np.bincount(codes[codes >= 0], minlength=n + 1)
            indeterminate += int((codes < 0).sum())
    hist = montecarlo.run_estimation(cfg)
    assert counts.tolist() == hist.counts.tolist()
    assert indeterminate == hist.indeterminate


def test_wrapped_attributes_are_restored():
    originals = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in layers.BOUNDARIES]
    job = harness.Job("estimate", "cont-sys", 2, 20_000, shards=2)
    with pytest.raises(RuntimeError):
        with Tracer() as tracer:
            layers.install(tracer)
            assert all(getattr(o, a) is not f for o, a, f in originals)
            rc, _ = layers.traced_invoke(tracer, job.argv(3))
            assert rc == 0
            raise RuntimeError("leave the block early")
    assert not tracer.missing
    assert all(getattr(o, a) is f for o, a, f in originals)
    names = {span.name for span in tracer.spans}
    assert {"cli.main", "montecarlo.run_shard", "models.batch_indices",
            "refine.least_squares_refine", "kernels.batch_matrix_halfplane"} <= names


def test_self_times_split_concurrent_spans():
    root = Span("cli.main", 0.0, 10.0)
    est = Span("montecarlo.run_estimation", 1.0, 9.0, parent=root)
    a = Span("montecarlo.run_shard", 2.0, 8.0, parent=est)
    b = Span("montecarlo.run_shard", 2.0, 6.0, parent=est)
    k = Span("models.batch_indices", 3.0, 5.0, parent=a)
    own = self_times([root, est, a, b, k])
    assert sum(own.values()) == pytest.approx(10.0)
    assert own[id(root)] == pytest.approx(2.0)
    assert own[id(est)] == pytest.approx(2.0)
    assert own[id(k)] == pytest.approx(1.0)
    assert own[id(b)] == pytest.approx(2.0)
    assert own[id(a)] == pytest.approx(3.0)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_emitted_metrics_are_declared(trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(run.HERE, "run.py"), "--workload", "convergence",
         "--seed", "5", "--seconds", "0.1", "--trace", trace],
        cwd=run.ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    section = bench["per_layer" if trace == "1" else "end_to_end"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {m["name"]: m["unit"] for m in section} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    if trace == "1":
        grid = harness.WORKLOADS["convergence"][0].grid
        assert result["metrics"]["montecarlo.reuse_ratio"]["value"] == max(grid) / sum(grid)
