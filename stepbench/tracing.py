"""The traced run: a lockstep runner that times each layer of a DGS step.

The runner builds the workload's server and workers through the same
``repro.exec.common`` helpers the backends use, with the same seed, and
round-robins the workers in one process.  It records a span around each
call into a layer's public entry point — name, start, end and the step it
belongs to — from this file only; nothing inside ``src/`` is patched.
Frames cross a real pipe or TCP pair whose server end is one helper thread,
so ``comm.transfer`` is measured on the transport the backend uses.

Spans stay in memory and are written out (Chrome trace JSON) at the end.
The same runner with tracing off is the untraced twin that
``trace.overhead_pct`` is measured against.
"""

from __future__ import annotations

import json
import math
import multiprocessing as mp
import os
import queue
import threading
import time
from dataclasses import dataclass

import numpy as np

from repro.autograd import Tensor
from repro.comm.channel import ChannelClosed
from repro.comm.frames import GradientFrame, decode_frame, encode_frame, reply_frame
from repro.comm.pipe import PipeChannel
from repro.comm.socket import SocketChannel, SocketListener
from repro.core.layerops import gradients_of, parameters_of
from repro.data.loader import DataLoader
from repro.exec.common import build_server, build_workers, resolve_method
from repro.ps.checkpoint import save_checkpoint
from repro.ps.messages import GradientMessage

from .workloads import Workload

__all__ = [
    "LAYERS",
    "PER_LAYER_METRICS",
    "SpanLog",
    "LockstepRunner",
    "LockstepRun",
    "run_lockstep",
    "layer_metrics",
    "write_chrome_trace",
]

#: the layers a step is broken into, in step order (README.md has the map
#: from each to the public call it times)
LAYERS = (
    "data.batch",
    "nn.forward",
    "autograd.backward",
    "core.prepare",
    "ps.codec.encode_up",
    "comm.transfer",
    "ps.codec.decode_up",
    "ps.server.handle",
    "ps.codec.encode_down",
    "ps.checkpoint.save",
    "ps.codec.decode_down",
    "ps.worker.apply",
)

#: (name, unit) of every per-layer metric a traced run reports
PER_LAYER_METRICS = tuple(
    [
        m
        for layer in LAYERS
        for m in (
            (f"{layer}_ms", "ms"),
            (f"{layer}_ms_p99", "ms"),
            (f"{layer}_calls", "count"),
            (f"{layer}_share_pct", "%"),
        )
    ]
    + [
        ("core.up_density", "ratio"),
        ("core.worker_state_mib", "MiB"),
        ("ps.codec.up_bytes", "B"),
        ("ps.codec.down_bytes", "B"),
        ("ps.server.down_density", "ratio"),
        ("ps.server.state_mib", "MiB"),
        ("ps.server.lock_wait_ms_p99", "ms"),
        ("ps.server.staleness_p99", "count"),
        ("trace.step_ms", "ms"),
        ("trace.unattributed_ms", "ms"),
        ("trace.overhead_pct", "%"),
    ]
)

_STEP = "step"


class SpanLog:
    """In-memory spans ``(name, start_ns, end_ns, step)``; off ⇒ plain calls."""

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: "list[tuple[str, int, int, int]]" = []
        self.step = -1

    def call(self, name: str, fn, *args):
        if not self.enabled:
            return fn(*args)
        t0 = time.perf_counter_ns()
        out = fn(*args)
        self.spans.append((name, t0, time.perf_counter_ns(), self.step))
        return out


class _Link:
    """Frame bytes across a real pipe or TCP pair; the server end is one
    helper thread that hands received frames to the runner and sends the
    replies it is given."""

    def __init__(self, kind: str) -> None:
        if kind == "pipe":
            a, b = mp.Pipe()
            self.worker_end, server_end = PipeChannel(a), PipeChannel(b)
        elif kind == "tcp":
            listener = SocketListener("127.0.0.1", 0)
            try:
                self.worker_end = SocketChannel.connect(*listener.address)
                server_end = listener.accept()
            finally:
                listener.close()
        else:
            raise ValueError(f"unknown transport {kind!r}")
        self._received: "queue.SimpleQueue[bytes]" = queue.SimpleQueue()
        self._replies: "queue.SimpleQueue[bytes]" = queue.SimpleQueue()
        self._thread = threading.Thread(
            target=self._serve, args=(server_end,), name="stepbench-link", daemon=True
        )
        self._thread.start()

    def _serve(self, end) -> None:
        try:
            while True:
                self._received.put(end.recv_raw())
                end.send_raw(self._replies.get())
        except (EOFError, OSError, ChannelClosed):
            pass  # the runner closed its end: run over
        finally:
            end.close()

    def up(self, raw: bytes) -> bytes:
        self.worker_end.send_raw(raw)
        return self._received.get()

    def down(self, raw: bytes) -> bytes:
        self._replies.put(raw)
        return self.worker_end.recv_raw()

    def close(self) -> None:
        self.worker_end.close()
        self._thread.join(timeout=10)
        if self._thread.is_alive():
            raise RuntimeError("link helper thread did not stop")


def _nnz(payload) -> int:
    """Values a payload carries: ``nnz`` of encoded layers, size of dense ones."""
    return sum(int(layer.nnz if hasattr(layer, "nnz") else layer.size) for layer in payload.values())


@dataclass
class LockstepRun:
    """What one lockstep run of the step budget measured."""

    wall_s: float
    steps: int
    applied: int
    nonfinite_losses: int
    spans: "list[tuple[str, int, int, int]]"
    #: per step: (upload nnz, upload bytes, download nnz, download bytes)
    counts: "list[tuple[int, int, int, int]]"
    num_params: int
    server_state_bytes: int
    worker_state_bytes: int


class LockstepRunner:
    """The workload's server and workers, stepped round-robin in one process."""

    def __init__(self, workload: Workload, seed: int, workdir: str, log: SpanLog) -> None:
        self.workload = workload
        self.log = log
        dataset = workload.make_dataset(seed)
        method = resolve_method(workload.method)
        theta0 = parameters_of(workload.make_model(seed))
        self.num_params = sum(int(v.size) for v in theta0.values())
        self.server = build_server(
            method,
            theta0,
            workload.num_workers,
            workload.hyper,
            secondary_compression=workload.secondary_compression,
            arena=True,
            num_shards=workload.num_shards,
        )
        self.workers = build_workers(
            workload.num_workers,
            lambda: workload.make_model(seed),
            DataLoader(dataset, workload.batch_size, seed=seed),
            method,
            workload.hyper,
            workload.schedule(dataset),
            theta0,
            arena=True,
        )
        self.checkpoint_path = os.path.join(workdir, f"trace-ckpt-{os.getpid()}.dgsc")
        self.link = _Link(workload.transport) if workload.transport != "none" else None
        self.counts: "list[tuple[int, int, int, int]]" = []

    def compute(self, node) -> GradientMessage:
        """``WorkerNode.compute_step`` with a span around each layer call."""
        log = self.log
        x, y = log.call("data.batch", node.batches.next_batch)
        loss = log.call("nn.forward", lambda: node.loss_fn(node.model(Tensor(x)), y))
        node.model.zero_grad()
        log.call("autograd.backward", loss.backward)
        node.last_loss = float(loss.data)
        node.samples_processed += len(x)
        grads = gradients_of(node.model)
        payload = log.call("core.prepare", node.strategy.prepare, grads, node.current_lr())
        node.strategy.on_iteration()
        msg = GradientMessage(node.worker_id, payload, node.iteration)
        node.iteration += 1
        return msg

    def step(self, i: int) -> None:
        log = self.log
        log.step = i
        node = self.workers[i % len(self.workers)]
        t0 = time.perf_counter_ns()
        msg = self.compute(node)
        if self.link is None:
            reply = log.call("ps.server.handle", self.server.handle, msg)
        else:
            raw = log.call("ps.codec.encode_up", encode_frame, GradientFrame(msg, node.last_loss))
            raw = log.call("comm.transfer", self.link.up, raw)
            frame = log.call("ps.codec.decode_up", decode_frame, raw)
            reply = log.call("ps.server.handle", self.server.handle, frame.message)
            raw = log.call("ps.codec.encode_down", encode_frame, reply_frame(reply))
            raw = log.call("comm.transfer", self.link.down, raw)
            every = self.workload.checkpoint_every
            if every is not None and (i + 1) % every == 0:
                log.call("ps.checkpoint.save", save_checkpoint, self.server, self.checkpoint_path)
            reply = log.call("ps.codec.decode_down", decode_frame, raw).message
        log.call("ps.worker.apply", node.apply_reply, reply)
        if log.enabled:
            log.spans.append((_STEP, t0, time.perf_counter_ns(), i))
            self.counts.append((_nnz(msg.payload), msg.nbytes(), _nnz(reply.payload), reply.nbytes()))

    def close(self) -> None:
        if self.link is not None:
            self.link.close()
        if os.path.exists(self.checkpoint_path):
            os.remove(self.checkpoint_path)


def run_lockstep(workload: Workload, seed: int, workdir: str, traced: bool) -> LockstepRun:
    """Build a fresh runner and run the workload's full step budget."""
    log = SpanLog(traced)
    runner = LockstepRunner(workload, seed, workdir, log)
    nonfinite = 0
    try:
        t0 = time.perf_counter()
        for i in range(workload.steps):
            runner.step(i)
            nonfinite += not math.isfinite(runner.workers[i % len(runner.workers)].last_loss)
        wall = time.perf_counter() - t0
    finally:
        runner.close()
    return LockstepRun(
        wall_s=wall,
        steps=workload.steps,
        applied=int(runner.server.timestamp),
        nonfinite_losses=nonfinite,
        spans=log.spans,
        counts=runner.counts,
        num_params=runner.num_params,
        server_state_bytes=int(runner.server.server_state_bytes()),
        worker_state_bytes=sum(int(w.worker_state_bytes()) for w in runner.workers),
    )


def _p99(values: "list[float]") -> float:
    return float(np.percentile(values, 99)) if values else 0.0


def _median(values: "list[float]") -> float:
    return float(np.median(values)) if values else 0.0


def layer_metrics(traced: "list[LockstepRun]", twin_wall_s: float) -> "dict[str, float]":
    """Per-layer median/p99 per step, call counts, shares and budget counts.

    A layer's per-step value is the sum of its spans in that step; median
    and p99 are taken over the steps that called the layer, so a layer
    that runs every N steps (checkpoints) reports the cost of one call.
    """
    per_step: "dict[tuple[int, int], dict[str, float]]" = {}
    calls = {layer: 0 for layer in LAYERS}
    step_ms: "dict[tuple[int, int], float]" = {}
    for r, run in enumerate(traced):
        for name, t0, t1, step in run.spans:
            ms = (t1 - t0) / 1e6
            if name == _STEP:
                step_ms[(r, step)] = ms
                continue
            bucket = per_step.setdefault((r, step), {})
            bucket[name] = bucket.get(name, 0.0) + ms
            calls[name] += 1
    total_step_ms = sum(step_ms.values())
    out: "dict[str, float]" = {}
    for layer in LAYERS:
        values = [b[layer] for b in per_step.values() if layer in b]
        out[f"{layer}_ms"] = _median(values)
        out[f"{layer}_ms_p99"] = _p99(values)
        out[f"{layer}_calls"] = float(calls[layer])
        out[f"{layer}_share_pct"] = 100.0 * sum(values) / total_step_ms if total_step_ms else 0.0
    unattributed = [ms - sum(per_step.get(key, {}).values()) for key, ms in step_ms.items()]
    counts = [c for run in traced for c in run.counts]
    params = traced[0].num_params
    out.update(
        {
            "core.up_density": _median([c[0] / params for c in counts]),
            "core.worker_state_mib": traced[0].worker_state_bytes / 2**20,
            "ps.codec.up_bytes": _median([c[1] for c in counts]),
            "ps.codec.down_bytes": _median([c[3] for c in counts]),
            "ps.server.down_density": _median([c[2] / params for c in counts]),
            "ps.server.state_mib": traced[0].server_state_bytes / 2**20,
            "trace.step_ms": _median(list(step_ms.values())),
            "trace.unattributed_ms": _median(unattributed),
        }
    )
    traced_wall = sum(run.wall_s for run in traced)
    out["trace.overhead_pct"] = 100.0 * (traced_wall - twin_wall_s) / twin_wall_s
    return out


def write_chrome_trace(path: str, traced: "list[LockstepRun]") -> None:
    """Spans as Chrome trace JSON (open in Perfetto or chrome://tracing):
    one process lane per traced run, step spans enclosing layer spans."""
    events = []
    for r, run in enumerate(traced):
        base = min((t0 for _n, t0, _t1, _s in run.spans), default=0)
        for name, t0, t1, step in run.spans:
            events.append(
                {
                    "name": name,
                    "ph": "X",
                    "ts": (t0 - base) / 1e3,
                    "dur": (t1 - t0) / 1e3,
                    "pid": r,
                    "tid": 0,
                    "args": {"step": step},
                }
            )
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)
