#!/usr/bin/env python3
"""Step-level training benchmark: end-to-end metrics, or a traced layer budget.

    python3 stepbench/run.py                      # every workload, untraced
    python3 stepbench/run.py --workload wide-dgs-process --seed 3 --seconds 10 --trace 0
    python3 stepbench/run.py --workload resnet-sim --trace 1   # per-layer budget

The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the exit code is
non-zero when a correctness check failed.  See stepbench/README.md.
"""

import os

# Pin BLAS/OpenMP to one thread before numpy loads; forked workers inherit it.
_THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in _THREAD_ENV:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import pathlib  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import replace  # noqa: E402

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

try:
    import numpy as np

    import repro  # noqa: F401
except ImportError as exc:  # run outside a checkout of the program
    print(f"stepbench: cannot import the program under test: {exc}", file=sys.stderr)
    sys.exit(2)

from repro.exec import get_backend  # noqa: E402
from repro.obs.metrics import quantile_from_counts  # noqa: E402
from repro.obs.names import METRIC_SERVER_LOCK_WAIT_S  # noqa: E402

from stepbench.checks import RunCheck, check_run, wire_bytes  # noqa: E402
from stepbench.tracing import (  # noqa: E402
    PER_LAYER_METRICS,
    layer_metrics,
    run_lockstep,
    write_chrome_trace,
)
from stepbench.workloads import WORKLOADS, get_workload  # noqa: E402

#: (name, unit) of every end-to-end metric an untraced run reports
END_TO_END = (
    ("samples_per_s", "1/s"),
    ("setup_s", "s"),
    ("cpu_ms_per_sample", "ms"),
    ("wire_bytes_per_sample", "B"),
    ("val_accuracy", "ratio"),
    ("peak_rss_mib", "MiB"),
)

#: the untimed warm-up run applies this fraction (1/n) of the step budget
WARMUP_DIVISOR = 8

#: extra set-ups timed before and after the training runs; setup_s is the
#: median of these and the one each training run does
SETUPS_EACH_SIDE = 10

WORKDIR = ROOT / ".stepbench"


def fingerprint() -> "dict[str, object]":
    """The machine and build every result was measured on."""
    blas = {}
    try:
        blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    except (TypeError, AttributeError):  # numpy < 1.25 has no dict mode
        pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "thread_env": {var: os.environ.get(var) for var in _THREAD_ENV},
        "machine": platform.machine(),
    }


def _cpu_s() -> float:
    """CPU seconds of this process plus its reaped children."""
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return me.ru_utime + me.ru_stime + kids.ru_utime + kids.ru_stime


def _peak_rss_mib() -> float:
    """Peak RSS of this process plus that of its largest reaped child."""
    me = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (me + kids) / 1024.0  # ru_maxrss is KiB on Linux


def _build(workload, seed: int):
    """Dataset, model replicas, server and backend engine: the set-up."""
    dataset = workload.make_dataset(seed)
    config = workload.config(dataset, seed, str(WORKDIR))
    return get_backend(workload.backend).create(config), config


def _cleanup(config) -> None:
    if config.checkpoint_path and os.path.exists(config.checkpoint_path):
        os.remove(config.checkpoint_path)


def _backend_run(workload, seed: int):
    """One untraced, timed training run of the step budget."""
    t0 = time.perf_counter()
    engine, config = _build(workload, seed)
    setup = time.perf_counter() - t0
    cpu0 = _cpu_s()
    t1 = time.perf_counter()
    try:
        result = engine.run()
    finally:
        _cleanup(config)
    return result, setup, time.perf_counter() - t1, _cpu_s() - cpu0


def _time_setups(workload, seed: int, n: int) -> "list[float]":
    times = []
    for _ in range(n):
        t0 = time.perf_counter()
        _build(workload, seed)
        times.append(time.perf_counter() - t0)
    return times


def _warm_up(workload, seed: int) -> RunCheck:
    """One short untimed training run, so lazy imports, allocator pools and
    the worker start-up path are warm before timing.  It is checked like a
    timed run, except for the accuracy floor: a short run has not trained."""
    short = replace(workload, steps=max(workload.num_workers, workload.steps // WARMUP_DIVISOR))
    result, _setup, _wall, _cpu = _backend_run(short, seed)
    return check_run(result, short.steps, 0.0)


def _keep_going(elapsed: float, last: float, seconds: float) -> bool:
    """Whether one more unit of ``last`` seconds brings ``elapsed`` closer
    to ``seconds``: runs stop at the boundary nearest the time budget."""
    return elapsed + last / 2 < seconds


def measure(workload, seed: int, seconds: float):
    """Untraced end-to-end run: training runs back to back for ``seconds``.

    Throughput and CPU per sample are pooled over every timed run (total
    samples over total wall or CPU time), so each second of the run weighs
    the same and a slow phase of a shared host moves them only by its share
    of the run."""
    # Set-ups before and after the training runs, so their median spans
    # the run's time rather than one moment of the machine's load.
    setups = _time_setups(workload, seed, SETUPS_EACH_SIDE)
    warm = _warm_up(workload, seed)
    attempted, failed, problems = warm.attempted, warm.failed, list(warm.problems)
    per_run: "dict[str, list[float]]" = {
        name: [] for name in ("samples_per_s", "cpu_ms_per_sample", "wire_bytes_per_sample", "val_accuracy")
    }
    samples = 0
    measured = cpu_s = wall = 0.0
    while not per_run["samples_per_s"] or _keep_going(measured, wall, seconds):
        result, setup, wall, cpu = _backend_run(workload, seed)
        setups.append(setup)
        measured += wall
        cpu_s += cpu
        samples += result.samples_processed
        check = check_run(result, workload.steps, workload.min_accuracy)
        attempted += check.attempted
        failed += check.failed
        problems += check.problems
        run_samples = max(1, result.samples_processed)
        up, down = wire_bytes(result)
        per_run["samples_per_s"].append(result.samples_processed / wall)
        per_run["cpu_ms_per_sample"].append(1000.0 * cpu / run_samples)
        per_run["wire_bytes_per_sample"].append((up + down) / run_samples)
        per_run["val_accuracy"].append(float(result.final_accuracy))
    setups += _time_setups(workload, seed, SETUPS_EACH_SIDE)
    metrics = {
        "samples_per_s": samples / measured,
        "cpu_ms_per_sample": 1000.0 * cpu_s / max(1, samples),
        "wire_bytes_per_sample": statistics.median(per_run["wire_bytes_per_sample"]),
        "val_accuracy": statistics.median(per_run["val_accuracy"]),
        "setup_s": statistics.median(setups),
        "peak_rss_mib": _peak_rss_mib(),
    }
    detail = {"runs": len(per_run["samples_per_s"]), "measured_s": measured,
              "per_run": per_run, "setups_s": setups}
    return metrics, attempted, failed, problems, detail


def _lock_wait_ms_p99(result) -> float:
    """p99 server lock wait over every worker's series, merged."""
    merged_counts, buckets = None, None
    for m in result.metrics or ():
        if m.get("name") != METRIC_SERVER_LOCK_WAIT_S or "counts" not in m:
            continue
        if merged_counts is None:
            buckets, merged_counts = m["buckets"], list(m["counts"])
        elif m["buckets"] == buckets:
            merged_counts = [a + b for a, b in zip(merged_counts, m["counts"])]
    if merged_counts is None:
        return 0.0
    value = quantile_from_counts(buckets, merged_counts, 0.99)
    return 0.0 if np.isnan(value) else 1000.0 * value


def measure_traced(workload, seed: int, seconds: float, trace_path: str):
    """Traced run: per-layer budget of the lockstep runner, plus the series
    the untraced backend run records (lock wait, staleness)."""
    t0 = time.perf_counter()
    result, _setup, _wall, _cpu = _backend_run(workload, seed)
    check = check_run(result, workload.steps, workload.min_accuracy)
    attempted, failed, problems = check.attempted, check.failed, list(check.problems)
    traced, twin_wall, pair_s = [], 0.0, 0.0
    # Pairs of traced runs and their untraced twins fill the measuring time.
    while not traced or _keep_going(time.perf_counter() - t0, pair_s, seconds):
        pair_t0 = time.perf_counter()
        # Alternate which twin runs first so drift hits both equally.
        pair = [False, True] if len(traced) % 2 == 0 else [True, False]
        for on in pair:
            run = run_lockstep(workload, seed, str(WORKDIR), traced=on)
            attempted += run.steps
            bad = (run.steps - run.applied) + run.nonfinite_losses
            failed += min(run.steps, bad)
            if bad:
                problems.append(f"lockstep run: {run.applied}/{run.steps} applied, "
                                f"{run.nonfinite_losses} non-finite losses")
            if on:
                traced.append(run)
            else:
                twin_wall += run.wall_s
        pair_s = time.perf_counter() - pair_t0
    metrics = layer_metrics(traced, twin_wall)
    metrics["ps.server.lock_wait_ms_p99"] = _lock_wait_ms_p99(result)
    staleness = result.staleness_p99
    metrics["ps.server.staleness_p99"] = 0.0 if np.isnan(staleness) else float(staleness)
    write_chrome_trace(trace_path, traced)
    detail = {"traced_runs": len(traced), "trace_file": trace_path}
    return metrics, attempted, failed, problems, detail


def run_one(name: str, seed: int, seconds: float, trace: bool):
    workload = get_workload(name)
    WORKDIR.mkdir(exist_ok=True)
    if trace:
        trace_path = str(WORKDIR / f"trace-{name}-seed{seed}.json")
        metrics, attempted, failed, problems, detail = measure_traced(
            workload, seed, seconds, trace_path
        )
        units = dict(PER_LAYER_METRICS)
    else:
        metrics, attempted, failed, problems, detail = measure(workload, seed, seconds)
        units = dict(END_TO_END)
    return {
        "correct": failed == 0 and not problems,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {k: {"value": float(metrics[k]), "unit": u} for k, u in units.items()},
    }, problems, detail


def _print_metrics(name: str, out) -> None:
    for metric, m in out["metrics"].items():
        print(f"{name:18s} {metric:32s} {m['value']:14.6g} {m['unit']}")
    verdict = "ok" if out["correct"] else "FAILED"
    print(f"{name:18s} correctness: {verdict} ({out['failed']}/{out['attempted']} steps failed)")


def run_all(args) -> int:
    """Every workload, each in its own process (peak RSS and CPU time are
    per process); prints their output and one combined result line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        lines = subprocess.run(cmd, stdout=subprocess.PIPE, text=True).stdout.splitlines()
        try:
            out = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"{name}: no result (the run crashed)", file=sys.stderr)
            combined["correct"] = False
            continue
        print("\n".join(lines[:-1]))
        combined["correct"] = combined["correct"] and out["correct"]
        combined["attempted"] += out["attempted"]
        combined["failed"] += out["failed"]
        combined["metrics"].update({f"{name}.{k}": v for k, v in out["metrics"].items()})
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", help=f"one of {list(WORKLOADS)} or 'all'")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; known: {list(WORKLOADS)}")

    name = args.workload
    print("fingerprint: " + json.dumps(fingerprint(), sort_keys=True))
    out, problems, detail = run_one(name, args.seed, args.seconds, bool(args.trace))
    for problem in problems:
        print(f"{name}: check failed: {problem}", file=sys.stderr)
    print(f"{name} detail: " + json.dumps(detail, sort_keys=True))
    _print_metrics(name, out)
    print(json.dumps(out))
    return 0 if out["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
