"""serve_channels semantics over real socket channels.

The trainers exercise the happy path end-to-end; these tests drive the
loop directly from a fake worker thread so each branch is pinned in
isolation: elastic accept through the listener, the join/leave control
handshake, crash-on-EOF, straggler eviction, and close accounting.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.comm import (
    CONTROL_JOIN,
    CONTROL_LEAVE,
    CloseFrame,
    ControlFrame,
    GradientFrame,
    ModelFrame,
    TelemetryFrame,
    serve_channels,
)
from repro.comm.service import ServerService
from repro.comm.socket import SocketChannel, SocketListener
from repro.core.methods import Hyper, get_method
from repro.exec.common import build_server
from repro.nn import MLP
from repro.ps.membership import WorkerDirectory
from repro.ps.messages import GradientMessage


def _make_service(num_workers: int = 2, with_membership: bool = True, num_shards: int = 1):
    from repro.core.layerops import parameters_of

    model = MLP(6, (8,), 3, seed=2)
    server = build_server(
        get_method("asgd"),
        parameters_of(model),
        num_workers,
        Hyper(lr=0.1, momentum=0.0),
        num_shards=num_shards,
    )
    membership = WorkerDirectory(server) if with_membership else None
    return ServerService(server, membership=membership), server, membership


def _grad_for(server, worker_id: int, scale: float = 0.01):
    payload = {
        name: np.full_like(buf, scale, dtype=np.float64)
        for name, buf in server.global_model().items()
    }
    return GradientFrame(GradientMessage(worker_id, payload, 0), loss=0.5)


def _serve(service, server, listener, n_workers, **kwargs):
    return serve_channels(
        [],
        service,
        stats=server.stats,
        listener=listener,
        expected_closes=n_workers,
        **kwargs,
    )


class TestElasticServe:
    def test_join_train_leave_close_accounting(self):
        service, server, membership = _make_service(num_workers=1)
        listener = SocketListener()
        host, port = listener.address

        def worker():
            ch = SocketChannel.connect(host, port)
            ch.send(ControlFrame(0, CONTROL_JOIN))
            reply = ch.recv()
            assert isinstance(reply, ModelFrame)
            ch.send(_grad_for(server, 0))
            assert ch.recv() is not None
            ch.send(ControlFrame(0, CONTROL_LEAVE))
            ch.send(CloseFrame(worker_id=0, samples_processed=16, worker_state_bytes=64))
            ch.close()

        t = threading.Thread(target=worker)
        t.start()
        try:
            report = _serve(service, server, listener, 1)
        finally:
            listener.close()
            t.join(timeout=10)
        assert (report.joins, report.leaves) == (1, 1)
        assert report.clean_closes == 1 and report.crashes == 0
        assert report.updates == 1
        assert report.samples_processed == 16
        assert report.worker_state_bytes == 64
        assert membership.members == {0: "left"}

    def test_wire_bytes_are_the_dropped_channels_counters(self):
        """The report sums each channel's transport counters when the loop
        drops it: crashed and cleanly closed channels alike."""
        service, server, _ = _make_service(num_workers=2)
        listener = SocketListener()
        host, port = listener.address
        sides = []

        def worker(worker_id, crash):
            ch = SocketChannel.connect(host, port)
            sides.append(ch)
            ch.send(ControlFrame(worker_id, CONTROL_JOIN))
            ch.recv()
            ch.send(_grad_for(server, worker_id))
            ch.recv()
            if not crash:
                ch.send(CloseFrame(worker_id=worker_id, samples_processed=16))
            ch.close()

        try:
            threads = [threading.Thread(target=worker, args=(w, w == 1)) for w in range(2)]
            for t in threads:
                t.start()
            report = _serve(service, server, listener, 2)
        finally:
            listener.close()
            for t in threads:
                t.join(timeout=10)
        assert report.crashes == 1 and report.clean_closes == 1
        assert report.wire_bytes_up == sum(ch.wire_bytes_sent for ch in sides) > 0
        assert report.wire_bytes_down == sum(ch.wire_bytes_received for ch in sides) > 0

    def test_join_bootstraps_vk_to_current_model(self):
        """Eq. 5's elastic extension: a joiner starts with v_k == M_t."""
        service, server, _ = _make_service(num_workers=1)
        listener = SocketListener()
        host, port = listener.address
        done = threading.Event()

        def worker():
            ch = SocketChannel.connect(host, port)
            ch.send(ControlFrame(0, CONTROL_JOIN))
            ch.recv()
            for _ in range(3):
                ch.send(_grad_for(server, 0))
                ch.recv()
            # second worker joins mid-run, against a moved M_t
            late = SocketChannel.connect(host, port)
            late.send(ControlFrame(1, CONTROL_JOIN))
            reply = late.recv()
            assert isinstance(reply, ModelFrame)
            done.set()
            late.send(CloseFrame(worker_id=1))
            ch.send(CloseFrame(worker_id=0))
            late.close()
            ch.close()

        t = threading.Thread(target=worker)
        t.start()
        try:
            report = _serve(service, server, listener, 2)
        finally:
            listener.close()
            t.join(timeout=10)
        assert done.is_set() and report.joins == 2
        # after bootstrap, the joiner's reference model equals θ_t exactly
        joined = server.worker_model(1)
        current = server.global_model()
        for name in current:
            np.testing.assert_array_equal(joined[name], current[name])

    def test_crash_without_close_frame_is_reported(self):
        service, server, membership = _make_service(num_workers=1)
        listener = SocketListener()
        host, port = listener.address

        def worker():
            ch = SocketChannel.connect(host, port)
            ch.send(ControlFrame(0, CONTROL_JOIN))
            ch.recv()
            ch.close()  # vanish: no leave, no close frame

        t = threading.Thread(target=worker)
        t.start()
        try:
            report = _serve(service, server, listener, 1)
        finally:
            listener.close()
            t.join(timeout=10)
        assert report.crashes == 1 and report.clean_closes == 0
        assert any("without a close frame" in e for e in report.errors)
        assert membership.members == {0: "crash"}

    def test_straggler_eviction(self):
        service, server, membership = _make_service(num_workers=1)
        listener = SocketListener()
        host, port = listener.address
        release = threading.Event()

        def worker():
            ch = SocketChannel.connect(host, port)
            ch.send(ControlFrame(0, CONTROL_JOIN))
            ch.recv()
            release.wait(timeout=30)  # go silent until the server evicts us
            ch.close()

        t = threading.Thread(target=worker)
        t.start()
        try:
            report = _serve(
                service, server, listener, 1, straggler_timeout_s=0.4
            )
        finally:
            release.set()
            listener.close()
            t.join(timeout=10)
        assert report.evictions == 1
        assert any("straggler" in e for e in report.errors)
        assert membership.members == {0: "evicted"}
        assert membership.snapshot()["evictions"] == 1

    def test_telemetry_absorbed_without_reply(self):
        service, server, _ = _make_service(num_workers=1)
        listener = SocketListener()
        host, port = listener.address
        spans = ({"type": "span", "name": "worker.step", "ts": 0.0, "dur": 1.0},)

        def worker():
            ch = SocketChannel.connect(host, port)
            ch.send(TelemetryFrame(worker_id=0, spans=spans))
            ch.send(CloseFrame(worker_id=0))
            ch.close()

        t = threading.Thread(target=worker)
        t.start()
        try:
            report = _serve(service, server, listener, 1)
        finally:
            listener.close()
            t.join(timeout=10)
        assert 0 in report.telemetry
        assert list(report.telemetry[0].spans) == list(spans)

    def test_join_without_membership_still_bootstraps(self):
        """membership=None: the control plane works, minus the bookkeeping."""
        service, server, membership = _make_service(num_workers=1, with_membership=False)
        assert membership is None
        listener = SocketListener()
        host, port = listener.address

        def worker():
            ch = SocketChannel.connect(host, port)
            ch.send(ControlFrame(0, CONTROL_JOIN))
            assert isinstance(ch.recv(), ModelFrame)
            ch.send(CloseFrame(worker_id=0))
            ch.close()

        t = threading.Thread(target=worker)
        t.start()
        try:
            report = _serve(service, server, listener, 1)
        finally:
            listener.close()
            t.join(timeout=10)
        assert report.joins == 1


class TestConcurrentIngress:
    """Five socket workers against a 4-shard server (MLP(6, (8,), 3) has
    exactly 4 tensors) with the whole control plane interleaved: joins, a
    mid-run join against a moved M_t, a crash during the burst, telemetry,
    leaves and closes."""

    ROUNDS = 6
    BASE_WORKERS = 4  # workers 0..3 join up front; worker 4 joins mid-run

    def test_membership_audit_trail(self):
        service, server, membership = _make_service(num_workers=5, num_shards=4)
        assert server.num_shards == 4
        listener = SocketListener()
        host, port = listener.address
        failures: "list[BaseException]" = []

        def driver():
            channels: "dict[int, SocketChannel]" = {}

            def join(worker_id: int):
                ch = SocketChannel.connect(host, port)
                ch.send(ControlFrame(worker_id, CONTROL_JOIN))
                assert isinstance(ch.recv(), ModelFrame)
                channels[worker_id] = ch

            for w in range(self.BASE_WORKERS):
                join(w)
            for r in range(self.ROUNDS):
                if r == 2:
                    join(4)
                for w in sorted(channels):
                    if w == 2 and r == 4:
                        # crash at a step boundary: no leave, no close frame
                        channels.pop(w).close()
                        continue
                    channels[w].send(_grad_for(server, w, scale=0.01 * (w + 1)))
                    assert channels[w].recv() is not None
            channels[0].send(
                TelemetryFrame(
                    worker_id=0,
                    spans=({"type": "span", "name": "worker.step", "ts": 0.0, "dur": 1.0},),
                )
            )
            for w in sorted(channels):
                ch = channels[w]
                ch.send(ControlFrame(w, CONTROL_LEAVE))
                ch.send(CloseFrame(worker_id=w, samples_processed=10))
                ch.close()

        def wrapped():
            try:
                driver()
            except BaseException as exc:  # noqa: BLE001 - surfaced below
                failures.append(exc)

        t = threading.Thread(target=wrapped)
        t.start()
        try:
            report = _serve(service, server, listener, 5)
        finally:
            t.join(timeout=30)
            listener.close()
        assert not t.is_alive(), "driver thread wedged"
        if failures:
            raise failures[0]
        assert membership.members == {0: "left", 1: "left", 2: "crash", 3: "left", 4: "left"}
        snap = membership.snapshot()
        assert (snap["joins"], snap["leaves"], snap["crashes"], snap["evictions"]) == (5, 4, 1, 0)
        assert (report.joins, report.leaves) == (5, 4)
        assert report.clean_closes == 4 and report.crashes == 1
        assert any("without a close frame" in e for e in report.errors)
        assert 0 in report.telemetry
        assert report.samples_processed == 4 * 10
        # workers 0,1,3: 6 rounds; worker 2: rounds 0-3; worker 4: rounds 2-5
        assert report.updates == server.timestamp == 3 * 6 + 4 + 4


class TestWorkerDirectory:
    def test_snapshot_counts_every_event_kind(self):
        service, server, membership = _make_service(num_workers=4)
        membership.register(0)
        membership.register(1)
        membership.register(2)
        membership.deregister(0)  # default reason: left
        membership.deregister(1, reason="crash")
        membership.deregister(2, reason="evicted")
        snap = membership.snapshot()
        assert snap["joins"] == 3
        assert snap["leaves"] == 1
        assert snap["crashes"] == 1
        assert snap["evictions"] == 1
        assert membership.active() == []

    def test_register_is_visible_as_active(self):
        _, _, membership = _make_service(num_workers=2)
        membership.register(1)
        assert membership.active() == [1]

    def test_join_events_carry_server_timestamp(self):
        _, server, membership = _make_service(num_workers=2)
        membership.register(0)
        [(worker, kind, ts)] = membership.events
        assert (worker, kind) == (0, "join")
        assert ts == server.timestamp
