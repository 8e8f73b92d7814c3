"""The transport-agnostic server side of every channel.

Every transport shares one accept/route/reply loop — in-process
dispatch, pipes and TCP sockets alike.  This module owns it once:

* :class:`ServerService` — apply one frame, build the reply.  Shared by
  every transport; also the home of the optional membership layer (join /
  leave control frames), so elastic workers behave identically whether
  they arrive over a thread, a pipe, or a socket.
* :func:`serve_channels` — the multiplexing serve loop, written against
  the :class:`~repro.comm.channel.Channel` contract plus one transport
  hook (``waitable`` — the object ``multiprocessing.connection.wait``
  blocks on, which accepts both pipe connections and sockets).  It
  handles gradient dispatch, telemetry absorption, membership control
  frames, close accounting, crash detection (EOF without a close frame),
  straggler eviction, and elastic accept from a listener.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from multiprocessing.connection import wait
from typing import TYPE_CHECKING, Callable

from ..compression.stats import CompressionStats
from .frames import CloseFrame, ControlFrame, GradientFrame, TelemetryFrame, reply_frame

if TYPE_CHECKING:
    from ..ps.server import ParameterServer

__all__ = ["ServerService", "ServeReport", "serve_channels"]


class ServerService:
    """The server side of every channel: apply one frame, build the reply.

    One instance per run, shared by all of that run's channels; thread
    safety is the job of the :class:`~repro.ps.server.ParameterServer`
    shard locks, so concurrent callers (the threaded backend) contend on
    them directly.

    ``membership`` is the optional elastic-worker directory (e.g.
    :class:`~repro.ps.membership.WorkerDirectory`): when present,
    :meth:`control` routes join/leave frames through it; when absent,
    joins bootstrap directly against the server (same state transition,
    no bookkeeping).
    """

    def __init__(self, server: "ParameterServer", membership: "object | None" = None) -> None:
        self.server = server
        self.membership = membership

    def __call__(self, frame: GradientFrame):
        """Dispatch one gradient frame; returns the reply frame."""
        return reply_frame(self.server.handle(frame.message))

    def control(self, frame: ControlFrame):
        """Apply one membership control frame.

        ``join`` bootstraps the worker's ``v_k`` from ``M_t`` under each
        shard lock and returns the :class:`ModelFrame` reply
        carrying θ_t; ``leave`` deregisters and returns ``None`` (one-way).
        """
        if frame.op == "join":
            if self.membership is not None:
                msg = self.membership.register(frame.worker_id)
            else:
                msg = self.server.bootstrap_worker(frame.worker_id)
            return reply_frame(msg)
        if self.membership is not None:
            self.membership.deregister(frame.worker_id)
        return None

    def register_locks(self, registry) -> None:
        """Enroll every lock this service can acquire in a lock-order
        :class:`~repro.analysis.concurrency.LockRegistry`: one entry per
        server shard (:meth:`~repro.ps.server.ParameterServer.register_lock`)
        plus the membership directory's lock."""
        self.server.register_lock(registry)
        if self.membership is not None and hasattr(self.membership, "register_lock"):
            self.membership.register_lock(registry)


@dataclass
class ServeReport:
    """What the serving loop observed across all worker channels."""

    #: summed final accounting from clean close frames
    samples_processed: int = 0
    worker_state_bytes: int = 0
    #: human-readable crash/error descriptions, one per failed worker
    errors: "list[str]" = field(default_factory=list)
    clean_closes: int = 0
    crashes: int = 0
    #: worker_id → TelemetryFrame shipped before that worker's close
    telemetry: "dict[int, TelemetryFrame]" = field(default_factory=dict)
    #: membership traffic observed by the loop
    joins: int = 0
    leaves: int = 0
    evictions: int = 0
    #: gradient frames applied (drives checkpoint cadence)
    updates: int = 0
    #: frame bytes through every channel the loop served, summed from each
    #: channel's transport counters once, when the loop drops it (0 for
    #: channels without counters, e.g. in-process dispatch)
    wire_bytes_up: int = 0
    wire_bytes_down: int = 0


def serve_channels(
    channels: "list",
    service: ServerService,
    stats: "CompressionStats | None" = None,
    on_loss: "Callable[[float], None] | None" = None,
    on_update: "Callable[[int], None] | None" = None,
    listener: "object | None" = None,
    expected_closes: "int | None" = None,
    straggler_timeout_s: "float | None" = None,
) -> ServeReport:
    """Serve every channel until ``expected_closes`` workers terminate.

    The one accept/route/reply loop under the process and socket backends
    (and, via the synchronous :class:`~repro.comm.channel.InProcChannel`
    dispatch, semantically under the threaded one too):

    * **gradient** frames are dispatched through ``service`` and answered
      on the same channel; ``stats`` records the analytic byte accounting,
      and ``on_loss`` / ``on_update`` see each frame's training loss and
      the running update count after the reply ships.
    * **close** frames settle a worker's final accounting; a channel that
      dies *without* one (EOF / EPIPE) is a crash and becomes an error on
      the report — a graceful partial result, never a hang.
    * **telemetry** frames are absorbed onto the report (no reply).
    * **control** frames run the membership handshake via
      :meth:`ServerService.control`; a join's ModelFrame reply ships back
      on the worker's channel.
    * ``listener`` (optional) is polled alongside the channels; accepted
      connections join the serve set — elastic workers connect mid-run.
    * ``straggler_timeout_s`` (optional) evicts a channel that has been
      silent for that long: the channel is closed, the eviction recorded
      as an error (partial-result semantics, same as a crash), and the
      membership layer notified.

    ``expected_closes`` defaults to ``len(channels)``; pass the total
    worker count when a listener will deliver some of them later.
    """
    report = ServeReport()
    # Duck-typed service: plain callables (tests, adapters) lack the
    # membership/control surface.
    membership = getattr(service, "membership", None)
    open_channels = {ch.waitable: ch for ch in channels}
    worker_ids: "dict[object, int]" = {}  # waitable → last known worker id
    last_seen = {w: time.monotonic() for w in open_channels}
    expected = len(channels) if expected_closes is None else expected_closes
    terminated = 0
    poll = None if straggler_timeout_s is None else max(straggler_timeout_s / 4.0, 0.01)

    def _drop(waitable, channel) -> None:
        open_channels.pop(waitable, None)
        last_seen.pop(waitable, None)
        report.wire_bytes_up += getattr(channel, "wire_bytes_received", 0)
        report.wire_bytes_down += getattr(channel, "wire_bytes_sent", 0)
        try:
            channel.close()
        except OSError:
            pass

    while terminated < expected:
        waitables = list(open_channels)
        if listener is not None:
            waitables.append(listener.waitable)
        if not waitables:
            break  # nothing left to wait on; remaining workers never arrived
        ready = wait(waitables, timeout=poll)
        now = time.monotonic()
        for obj in ready:
            if listener is not None and obj is listener.waitable:
                accepted = listener.accept()
                open_channels[accepted.waitable] = accepted
                last_seen[accepted.waitable] = now
                continue
            channel = open_channels[obj]
            last_seen[obj] = now
            try:
                frame = channel.recv()
            except (EOFError, OSError):
                report.crashes += 1
                who = worker_ids.get(obj)
                label = f"worker {who}" if who is not None else "worker"
                report.errors.append(f"{label} channel closed without a close frame (crash)")
                if who is not None and membership is not None:
                    membership.deregister(who, reason="crash")
                _drop(obj, channel)
                terminated += 1
                continue
            if isinstance(frame, CloseFrame):
                worker_ids[obj] = frame.worker_id
                if frame.samples_processed is not None:
                    report.samples_processed += frame.samples_processed
                if frame.worker_state_bytes is not None:
                    report.worker_state_bytes += frame.worker_state_bytes
                if frame.error is not None:
                    report.crashes += 1
                    report.errors.append(f"worker {frame.worker_id}: {frame.error}")
                else:
                    report.clean_closes += 1
                _drop(obj, channel)
                terminated += 1
                continue
            if isinstance(frame, TelemetryFrame):
                report.telemetry[frame.worker_id] = frame
                continue  # diagnostic side channel: no reply, channel stays open
            if isinstance(frame, ControlFrame):
                worker_ids[obj] = frame.worker_id
                reply = service.control(frame)
                if frame.op == "join":
                    report.joins += 1
                    try:
                        channel.send(reply)
                    except (BrokenPipeError, OSError):
                        report.crashes += 1
                        report.errors.append(
                            f"worker {frame.worker_id}: channel broke during join (crash)"
                        )
                        _drop(obj, channel)
                        terminated += 1
                else:
                    report.leaves += 1
                continue
            if not isinstance(frame, GradientFrame):
                report.errors.append(f"unexpected {type(frame).__name__} from worker channel")
                _drop(obj, channel)
                terminated += 1
                continue
            worker_ids[obj] = frame.worker_id
            if stats is not None:
                stats.record_upload(frame.nbytes(), frame.dense_nbytes())
            reply = service(frame)
            if stats is not None:
                stats.record_download(reply.nbytes(), reply.dense_nbytes())
            try:
                channel.send(reply)
            except (BrokenPipeError, OSError):
                report.crashes += 1
                report.errors.append(
                    f"worker {frame.worker_id}: channel broke while sending the reply (crash)"
                )
                _drop(obj, channel)
                terminated += 1
                continue
            report.updates += 1
            if on_loss is not None:
                on_loss(frame.loss)
            if on_update is not None:
                on_update(report.updates)
        if straggler_timeout_s is not None:
            cutoff = time.monotonic() - straggler_timeout_s
            for obj in [w for w, seen in last_seen.items() if seen < cutoff]:
                channel = open_channels[obj]
                who = worker_ids.get(obj)
                label = f"worker {who}" if who is not None else "worker"
                report.evictions += 1
                report.crashes += 1
                report.errors.append(
                    f"{label} evicted as straggler (silent > {straggler_timeout_s:g}s)"
                )
                if who is not None and membership is not None:
                    membership.deregister(who, reason="evicted")
                _drop(obj, channel)
                terminated += 1
    for obj, channel in list(open_channels.items()):
        _drop(obj, channel)  # connected beyond ``expected``: count, close
    return report
