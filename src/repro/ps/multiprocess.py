"""Multi-process parameter-server trainer over pipes or TCP.

The closest offline stand-in for the paper's multi-machine deployment
(§4, Algorithms 1–3): workers are separate OS processes (true parallel
gradient computation, no GIL sharing), and every exchange travels as
*actual bytes* in the typed frame format of :mod:`repro.comm.frames` —
the same ``encode()``/``decode()`` path the paper's gloo transport
performs.  One engine, two transports; the transport must not change the
math, and the two differ only in how a worker reaches the server:

* ``transport="pipe"`` (the "process" backend) — each worker is pre-wired
  to the server through its own OS pipe and starts from a pre-seeded θ0,
  so it sends no join frame.
* ``transport="tcp"`` (the "socket" backend) — the server binds a real
  listener; workers *connect* and register through the elastic-membership
  handshake (:class:`~repro.comm.frames.ControlFrame` join → full-model
  bootstrap of the live θ_t).  TCP adds the deployment machinery a
  pre-wired pipe cannot express: mid-run joins (``join_delay_s``),
  straggler eviction (``evict_after_s``), a chosen endpoint (``bind``),
  and server checkpoints (``checkpoint_every``/``restore_from``; a
  restored run fast-forwards each worker's data stream by its recorded
  update count).

Everything else is one code path: the forked worker entry
(:func:`_worker_main`, with its ``fail_at`` hard-crash hook), the serve
loop (:func:`serve`, which ``python -m repro.ps serve`` also runs), the
telemetry merge and the result.  Workers end their stream with a close
frame carrying their final accounting; a channel that dies *without* one
is a crash, which the serve loop reports as a partial result.

Notes
-----
* Requires the ``fork`` start method (Linux default): workers inherit the
  model factory and dataset by address-space copy, so no pickling of
  closures is needed.
* Values cross the wire as float32 (as on the paper's testbed), so worker
  replicas drift from the server model at float32 resolution.
* BatchNorm running statistics stay local to each worker process; the
  final evaluation uses a fresh replica's statistics (prefer BN-free
  models for exact numbers here, e.g. MLP).

Prefer the unified front-end (``repro.exec.Trainer`` with
``backend="process"`` or ``backend="socket"``).
"""

from __future__ import annotations

import functools
import multiprocessing as mp
import os
import time
from typing import TYPE_CHECKING, Callable, Mapping

from ..core.layerops import parameters_of
from ..core.methods import Hyper, MethodSpec
from ..data.loader import DataLoader
from ..data.synthetic import Dataset
from ..exec.common import (
    build_server,
    build_worker,
    resolve_hyper,
    resolve_method,
    resolve_schedule,
    server_result,
)
from ..exec.result import TrainResult
from ..metrics.curves import Curve
from ..metrics.evaluation import evaluate_params
from ..nn.module import Module
from ..obs.span import relabel_records
from ..obs.tracer import Tracer, current_tracer, use_tracer
from ..optim.schedules import Schedule
from .membership import WorkerDirectory

if TYPE_CHECKING:
    from ..comm.service import ServeReport
    from .server import ParameterServer
    from .worker import WorkerNode

__all__ = ["MultiprocessTrainer", "TRANSPORTS", "run_worker", "serve"]

#: transports a :class:`MultiprocessTrainer` runs over
TRANSPORTS = ("pipe", "tcp")

#: exit code of a hard-crashed (fail_at) worker — never a normal exit
_CRASH_EXIT_CODE = 17


def run_worker(
    connect: Callable[[], object],
    worker_id: int,
    num_workers: int,
    model_factory: Callable[[], Module],
    dataset: Dataset,
    batch_size: int,
    iterations: int,
    method: MethodSpec,
    hyper: Hyper,
    schedule: Schedule,
    seed: int,
    theta0=None,
    fast_forward: int = 0,
    on_iteration: "Callable[[int], None] | None" = None,
    trace: bool = False,
) -> "WorkerNode":
    """One worker's whole life: build its replica, connect, train, close.

    ``theta0`` pre-seeds the replica (pipe workers); without it the worker
    registers, and the join handshake installs the live θ_t (which at t=0
    is θ_0 after the float32 wire round-trip) — the state a late or
    reconnecting worker on any host receives.  ``fast_forward`` burns the
    batches a restored run's pre-checkpoint workers consumed, so the
    continued stream picks up exactly where the original left off.
    """
    from ..comm.protocol import run_worker_loop  # lazy: comm imports ps

    loader = DataLoader(dataset, batch_size, seed=seed)
    node = build_worker(
        worker_id,
        num_workers,
        model_factory(),
        loader,
        method,
        hyper,
        schedule,
        theta0=theta0,
    )
    for _ in range(fast_forward):
        node.batches.next_batch()
    node.iteration = fast_forward
    loop = functools.partial(
        run_worker_loop,
        node,
        connect(),
        iterations,
        on_iteration=on_iteration,
        register=theta0 is None,
    )
    if trace:
        # The parent's tracer object is unreachable across the fork (its
        # buffers land in this process's copy), so the child records into
        # its own tracer and ships the spans back as a TelemetryFrame.
        with use_tracer(Tracer()):
            loop(ship_telemetry=True)
    else:
        loop()
    return node


def _worker_main(
    connect: Callable[[], object],
    worker_id: int,
    trainer: "MultiprocessTrainer",
    theta0,
    fast_forward: int,
    trace: bool,
) -> None:
    """Entry point of one forked worker process."""
    fail_at = trainer.fail_at.get(worker_id)
    join_delay_s = trainer.join_delay_s.get(worker_id, 0.0)
    if join_delay_s > 0:
        time.sleep(join_delay_s)  # mid-run joiner: everyone else is training

    def crash_hook(i: int) -> None:
        if fail_at is not None and i >= fail_at:
            # Hard crash: no leave, no close frame, no cleanup — the server
            # must survive on the EOF it sees when the channel drops.
            os._exit(_CRASH_EXIT_CODE)

    run_worker(
        connect,
        worker_id,
        trainer.num_workers,
        trainer.model_factory,
        trainer.dataset,
        trainer.batch_size,
        trainer.iterations_per_worker,
        trainer.method,
        trainer.hyper,
        trainer.schedule,
        trainer.seed,
        theta0=theta0,
        fast_forward=fast_forward,
        on_iteration=crash_hook,
        trace=trace,
    )


def serve(
    server: "ParameterServer",
    channels: "list",
    membership: "WorkerDirectory | None" = None,
    listener: "object | None" = None,
    expected_closes: "int | None" = None,
    evict_after_s: "float | None" = None,
    checkpoint_every: "int | None" = None,
    checkpoint_path: "str | None" = None,
    on_loss: "Callable[[float], None] | None" = None,
) -> "ServeReport":
    """Serve ``server`` to its workers until every one has terminated.

    The server side of a multi-process run: the transport-agnostic serve
    loop (:func:`~repro.comm.service.serve_channels`) over pre-wired
    ``channels`` and/or channels accepted from ``listener``, with the
    membership directory, straggler eviction after ``evict_after_s``
    seconds of silence, and a checkpoint every ``checkpoint_every``
    applied updates plus a final one, so a restore picks up from the very
    end rather than the last cadence boundary.
    """
    from ..comm.service import ServerService, serve_channels  # lazy: comm imports ps
    from .checkpoint import save_checkpoint

    def on_update(updates: int) -> None:
        if updates % checkpoint_every == 0:
            save_checkpoint(server, checkpoint_path)

    report = serve_channels(
        channels,
        ServerService(server, membership=membership),
        stats=server.stats,
        on_loss=on_loss,
        on_update=on_update if checkpoint_every is not None else None,
        listener=listener,
        expected_closes=expected_closes,
        straggler_timeout_s=evict_after_s,
    )
    if checkpoint_every is not None:
        save_checkpoint(server, checkpoint_path)
    return report


class MultiprocessTrainer:
    """PS training with one OS process per worker, bytes on a real transport."""

    def __init__(
        self,
        method: "MethodSpec | str",
        model_factory: Callable[[], Module],
        dataset: Dataset,
        num_workers: int,
        batch_size: int,
        iterations_per_worker: int,
        hyper: Hyper | None = None,
        schedule: Schedule | None = None,
        secondary_compression: bool | None = None,
        staleness_damping: bool = False,
        num_shards: int = 1,
        seed: int = 0,
        fail_at: "Mapping[int, int] | None" = None,
        tracer: "object | None" = None,
        transport: str = "pipe",
        join_delay_s: "Mapping[int, float] | None" = None,
        evict_after_s: "float | None" = None,
        checkpoint_every: "int | None" = None,
        checkpoint_path: "str | None" = None,
        restore_from: "str | None" = None,
        bind: "tuple[str, int] | None" = None,
    ) -> None:
        if transport not in TRANSPORTS:
            raise ValueError(f"transport must be one of {TRANSPORTS}, got {transport!r}")
        if transport == "pipe":
            tcp_only = {
                "bind": bind,
                "join_delay_s": join_delay_s,
                "evict_after_s": evict_after_s,
                "checkpoint_every": checkpoint_every,
                "checkpoint_path": checkpoint_path,
                "restore_from": restore_from,
            }
            given = sorted(name for name, value in tcp_only.items() if value is not None)
            if given:
                raise ValueError(f"{', '.join(given)}: TCP-only, not available over 'pipe'")
        if checkpoint_every is not None and checkpoint_path is None:
            raise ValueError("checkpoint_every requires checkpoint_path")
        self.method = resolve_method(method)
        self.transport = transport
        #: explicit tracer; None ⇒ the ambient repro.obs tracer at run time
        self.tracer = tracer
        self.hyper = resolve_hyper(hyper)
        self.schedule = resolve_schedule(schedule, self.hyper)
        self.model_factory = model_factory
        self.dataset = dataset
        self.num_workers = num_workers
        self.batch_size = batch_size
        self.iterations_per_worker = iterations_per_worker
        self.seed = seed
        #: worker id → local iteration at which that worker hard-crashes
        self.fail_at = dict(fail_at) if fail_at else {}
        #: worker id → seconds to hold back before connecting (mid-run join)
        self.join_delay_s = dict(join_delay_s) if join_delay_s else {}
        #: serve-loop silence budget; also the per-channel read deadline
        self.evict_after_s = evict_after_s
        self.checkpoint_every = checkpoint_every
        self.checkpoint_path = checkpoint_path
        self.restore_from = restore_from
        #: (host, port) to bind; None ⇒ loopback-ephemeral (CI default)
        self.bind = bind

        self.eval_model = model_factory()
        self.theta0 = parameters_of(self.eval_model)
        self.server = build_server(
            self.method,
            self.theta0,
            num_workers,
            self.hyper,
            secondary_compression=secondary_compression,
            staleness_damping=staleness_damping,
            num_shards=num_shards,
        )
        self.membership = WorkerDirectory(self.server)

    def run(self) -> TrainResult:
        from ..comm.pipe import PipeChannel  # lazy: comm imports ps
        from ..comm.socket import SocketChannel, SocketListener
        from .checkpoint import load_checkpoint

        fast_forward = {}
        if self.restore_from is not None:
            header = load_checkpoint(self.server, self.restore_from)
            fast_forward = {int(w): int(c) for w, c in header["shards"][0]["updates"].items()}

        tracer = self.tracer if self.tracer is not None else current_tracer()
        trace = bool(getattr(tracer, "enabled", False))
        t_start = time.perf_counter()
        ctx = mp.get_context("fork")
        procs: "list[mp.Process]" = []

        def spawn(w: int, connect, theta0) -> None:
            proc = ctx.Process(
                target=_worker_main,
                args=(connect, w, self, theta0, fast_forward.get(w, 0), trace),
                daemon=True,
            )
            proc.start()
            procs.append(proc)

        # The transport is chosen here and nowhere else: the server-side
        # channels (pre-wired pipes, or a listener that accepts them) and
        # each child's connect.
        channels: "list" = []
        listener = None
        if self.transport == "pipe":
            for w in range(self.num_workers):
                parent_end, child_end = ctx.Pipe()
                spawn(w, functools.partial(PipeChannel, child_end), self.theta0)
                child_end.close()  # the child holds the only copy: its exit is our EOF
                channels.append(PipeChannel(parent_end, tracer=tracer))
        else:
            host, port = self.bind if self.bind is not None else ("127.0.0.1", 0)
            listener = SocketListener(host, port, tracer=tracer, read_timeout_s=self.evict_after_s)
            connect = functools.partial(SocketChannel.connect, *listener.address)
            for w in range(self.num_workers):
                spawn(w, connect, None)

        loss_curve = Curve("loss_vs_server_step")
        try:
            report = serve(
                self.server,
                channels,
                membership=self.membership,
                listener=listener,
                expected_closes=self.num_workers,
                evict_after_s=self.evict_after_s,
                checkpoint_every=self.checkpoint_every,
                checkpoint_path=self.checkpoint_path,
                on_loss=lambda loss: loss_curve.add(len(loss_curve) + 1, loss),
            )
        finally:
            if listener is not None:
                listener.close()
            for proc in procs:
                proc.join(timeout=30)
                if proc.is_alive():
                    proc.terminate()
        elapsed = time.perf_counter() - t_start

        acc, loss = evaluate_params(
            self.eval_model, self.server.global_model(), self.dataset.x_val, self.dataset.y_val
        )
        result = server_result(
            self.server,
            method=self.method.name,
            backend="process" if self.transport == "pipe" else "socket",
            num_workers=self.num_workers,
            final_accuracy=acc,
            final_loss=loss,
            loss_vs_step=loss_curve,
            samples_processed=report.samples_processed,
            wire_bytes_up=report.wire_bytes_up,
            wire_bytes_down=report.wire_bytes_down,
            makespan_s=elapsed,
            clock="wall",
            worker_state_bytes=report.worker_state_bytes,
            errors=list(report.errors),
        )
        # Merge each worker's shipped telemetry: spans join the parent
        # tracer on a per-process lane (proc="worker-N"), metric snapshots
        # join the result's metrics alongside the server's series.
        for wid, frame in sorted(report.telemetry.items()):
            result.metrics.extend(dict(m) for m in frame.metrics)
            if trace:
                tracer.absorb(relabel_records(frame.spans, f"worker-{wid}"))
        return result
