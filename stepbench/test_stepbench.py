"""Self-tests of the step benchmark.

Run with ``python3 -m pytest -q stepbench``.  They pin the metric names,
the correctness check, and the tie between the traced lockstep runner and
the backend run it stands in for.
"""

from __future__ import annotations

import json
import os
import pathlib
import re
import shutil
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

from repro.exec import get_backend
from repro.exec.result import TrainResult
from repro.metrics.curves import Curve

from stepbench import run as bench
from stepbench.checks import check_run
from stepbench.tracing import PER_LAYER_METRICS, LockstepRunner, SpanLog, layer_metrics, run_lockstep
from stepbench.workloads import WORKLOADS, get_workload

ROOT = pathlib.Path(__file__).resolve().parent.parent
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_metric_names_are_well_formed_and_declared():
    spec = _spec()
    declared_e2e = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
    declared_layer = [(m["name"], m["unit"]) for m in spec["per_layer"]]
    assert declared_e2e == list(bench.END_TO_END)
    assert declared_layer == list(PER_LAYER_METRICS)
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS.values()
    ]
    names = [n for n, _u in declared_e2e + declared_layer] + list(WORKLOADS)
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name


def _fabricated(steps: int = 10, **overrides) -> TrainResult:
    curve = Curve("loss_vs_step")
    for i in range(steps):
        curve.add(i + 1, 2.0 / (i + 1))
    fields = dict(
        method="dgs",
        backend="process",
        num_workers=2,
        total_iterations=steps,
        samples_processed=8 * steps,
        final_accuracy=0.9,
        final_loss=0.3,
        loss_vs_step=curve,
        upload_bytes=1000,
        download_bytes=1000,
    )
    fields.update(overrides)
    return TrainResult(**fields)


def test_check_accepts_a_clean_result():
    check = check_run(_fabricated(), steps=10, min_accuracy=0.5)
    assert check.ok and check.attempted == 10 and check.failed == 0


def test_check_rejects_a_nan_loss():
    result = _fabricated()
    result.loss_vs_step.add(11, float("nan"))
    result.total_iterations = 11
    check = check_run(result, steps=11, min_accuracy=0.5)
    assert not check.ok and check.failed == 1


def test_check_rejects_a_short_step_budget():
    check = check_run(_fabricated(steps=7), steps=10, min_accuracy=0.5)
    assert not check.ok and check.failed == 3


def test_check_rejects_an_error_and_fails_the_whole_run():
    check = check_run(_fabricated(errors=["worker 1: crashed"]), steps=10, min_accuracy=0.5)
    assert not check.ok and check.failed == 10


@pytest.mark.parametrize(
    "overrides",
    [{"final_accuracy": 0.2}, {"final_accuracy": float("nan")}, {"upload_bytes": 0}],
    ids=["below-floor", "nan-accuracy", "no-bytes"],
)
def test_check_rejects_run_level_faults(overrides):
    check = check_run(_fabricated(**overrides), steps=10, min_accuracy=0.5)
    assert not check.ok and check.failed == 10


def test_measure_pools_timed_runs_and_counts_the_warm_up(monkeypatch):
    """Throughput and CPU per sample are pooled over the timed runs, which
    stop at the boundary nearest the budget; the warm-up is checked but
    not timed."""
    workload = get_workload("wide-dgs-process")
    walls = iter([99.0, 4.0, 6.0, 4.0, 6.0])  # warm-up first, then timed runs

    def fake_run(w, seed):
        return _fabricated(steps=w.steps), 0.01, next(walls), 2.0

    monkeypatch.setattr(bench, "_backend_run", fake_run)
    monkeypatch.setattr(bench, "_time_setups", lambda w, seed, n: [0.02] * n)
    metrics, attempted, failed, problems, detail = bench.measure(workload, 0, seconds=13.5)
    # After 10 s, a run as long as the last one (6 s) would end nearer
    # 13.5 s than 10 s does, so a third runs; after it (14 s) none would.
    assert detail["runs"] == 3 and detail["measured_s"] == 14.0
    samples = 3 * 8 * workload.steps
    assert metrics["samples_per_s"] == samples / 14.0
    assert metrics["cpu_ms_per_sample"] == 1000.0 * 6.0 / samples
    warm_steps = workload.steps // bench.WARMUP_DIVISOR
    assert attempted == 3 * workload.steps + warm_steps and failed == 0 and not problems


@pytest.mark.parametrize("name", ["resnet-sim", "wide-dgs-process"])
def test_traced_step_equals_worker_compute_step(tmp_path, name):
    """The runner's decomposed step is ``WorkerNode.compute_step``, bitwise."""
    workload = get_workload(name)
    traced = LockstepRunner(workload, 3, str(tmp_path), SpanLog(True))
    plain = LockstepRunner(workload, 3, str(tmp_path), SpanLog(False))
    try:
        for _ in range(2):
            a = traced.compute(traced.workers[0])
            b = plain.workers[0].compute_step()
            assert a.payload.keys() == b.payload.keys()
            for key in a.payload:
                x, y = a.payload[key], b.payload[key]
                if hasattr(x, "indices"):
                    np.testing.assert_array_equal(x.indices, y.indices)
                    x, y = x.values, y.values
                np.testing.assert_array_equal(np.asarray(x), np.asarray(y))
    finally:
        traced.close()
        plain.close()


def test_traced_upload_bytes_match_the_backend_run(tmp_path):
    """Fixed-k top-k makes codec-level upload bytes per step exact, so the
    traced runner and the process backend must agree to the byte."""
    workload = replace(get_workload("wide-dgs-process"), steps=16)
    dataset = workload.make_dataset(5)
    result = get_backend(workload.backend).run(workload.config(dataset, 5, str(tmp_path)))
    assert check_run(result, workload.steps, 0.0).ok
    run = run_lockstep(workload, 5, str(tmp_path), traced=True)
    per_step = {c[1] for c in run.counts}
    assert per_step == {result.upload_bytes // workload.steps}
    assert result.upload_bytes % workload.steps == 0
    assert layer_metrics([run], run.wall_s)["ps.codec.up_bytes"] == result.upload_bytes / workload.steps
    # Real pipe bytes also carry frame headers and control frames.
    assert result.wire_bytes_up > result.upload_bytes


def test_refuses_to_run_without_the_program(tmp_path):
    """A directory with only BENCHMARK.json and the benchmark must fail
    without printing a result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "stepbench", tmp_path / "stepbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "stepbench/run.py", "--workload", "resnet-sim", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
