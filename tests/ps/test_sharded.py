"""Partition invariance of the one parameter server class.

``ParameterServer(theta0, num_workers, num_shards=N)`` partitions the
layers across N independently locked shards.  Partitioning splits state,
never changes it: a deterministic update sequence produces the same global
model, the same replies in original layer order, the same staleness
location statistics and the same checkpoint round trip for every shard
count — all pinned bitwise against the bare Algorithm 2 tracker.  The
accounting surfaces compose per the documented semantics (staleness
counts sum across shards, state bytes sum back to the whole model).
"""

from collections import OrderedDict

import numpy as np
import pytest

from repro.analysis.concurrency import LockRegistry
from repro.comm.frames import DiffFrame, GradientFrame
from repro.comm.service import ServerService
from repro.core.arena import LayerArena
from repro.core.tracker import ModelDifferenceTracker
from repro.obs import names as obs_names
from repro.obs.tracer import Tracer, use_tracer
from repro.ps.messages import GradientMessage
from repro.ps.server import ParameterServer, summarize_staleness

SHAPES = OrderedDict([("w1", (6, 4)), ("b1", (4,)), ("w2", (4, 3)), ("b2", (3,))])
SHARD_COUNTS = [1, 2, 4]
DOWNSTREAMS = ["difference", "model"]


def _theta0(seed=0):
    rng = np.random.default_rng(seed)
    return OrderedDict((k, rng.normal(size=s)) for k, s in SHAPES.items())


def _updates(num_workers=2, steps=12, seed=3):
    """Deterministic single-threaded schedule: (worker, payload) pairs."""
    rng = np.random.default_rng(seed)
    return [
        (i % num_workers, OrderedDict((k, rng.normal(size=s)) for k, s in SHAPES.items()))
        for i in range(steps)
    ]


def _drive(server, schedule):
    return [server.handle(GradientMessage(w, payload, i)) for i, (w, payload) in enumerate(schedule)]


def _oracle(schedule, num_workers=2, downstream="difference"):
    """The bare tracker driven through the same schedule: the reference
    every partition must reproduce.  Returns (θ_t, [(payload, t, staleness)])."""
    theta0 = LayerArena.from_layers(_theta0())
    tracker = ModelDifferenceTracker(
        SHAPES, num_workers, track_differences=(downstream == "difference")
    )
    replies = []
    for w, payload in schedule:
        staleness = tracker.staleness(w)
        t = tracker.apply_update(payload)
        if downstream == "difference":
            reply = tracker.model_difference(w)
        else:
            reply = tracker.global_model(theta0)
            tracker.prev[w] = t
        replies.append((reply, t, staleness))
    return tracker.global_model(theta0), replies


def _dense(layer):
    return layer if isinstance(layer, np.ndarray) else layer.to_dense()


def _assert_models_equal(a, b):
    assert list(a) == list(b)  # original layer order preserved
    for name in a:
        np.testing.assert_array_equal(_dense(a[name]), _dense(b[name]))


class TestShardedEquivalence:
    """Every partition reproduces the bare tracker: global model, replies in
    original layer order, timestamps and staleness — bitwise."""

    @pytest.mark.parametrize("num_shards", [1, 2, 3, 4])
    def test_global_model_bitwise_matches_unsharded(self, num_shards):
        schedule = _updates()
        for downstream in DOWNSTREAMS:
            server = ParameterServer(_theta0(), 2, num_shards=num_shards, downstream=downstream)
            _drive(server, schedule)
            want, _ = _oracle(schedule, downstream=downstream)
            _assert_models_equal(server.global_model(), want)
            assert server.timestamp == len(schedule)
            assert server.server_state_bytes() == ParameterServer(
                _theta0(), 2, downstream=downstream
            ).server_state_bytes()

    def test_replies_merge_in_original_layer_order(self):
        schedule = _updates()
        _, want = _oracle(schedule)
        for num_shards in SHARD_COUNTS:
            server = ParameterServer(_theta0(), 2, num_shards=num_shards)
            for reply, (payload, _, _) in zip(_drive(server, schedule), want):
                assert list(reply.payload) == list(SHAPES)
                _assert_models_equal(reply.payload, payload)

    def test_model_downstream_mode(self):
        schedule = _updates()
        _, want = _oracle(schedule, downstream="model")
        for num_shards in SHARD_COUNTS:
            server = ParameterServer(_theta0(), 2, num_shards=num_shards, downstream="model")
            for reply, (payload, _, _) in zip(_drive(server, schedule), want):
                _assert_models_equal(reply.payload, payload)

    def test_staleness_matches_unsharded_on_deterministic_schedule(self):
        schedule = _updates()
        _, want = _oracle(schedule)
        for num_shards in SHARD_COUNTS:
            got = _drive(ParameterServer(_theta0(), 2, num_shards=num_shards), schedule)
            assert [(r.server_timestamp, r.staleness) for r in got] == [
                (t, staleness) for _, t, staleness in want
            ]

    def test_num_shards_clamped_to_layer_count(self):
        server = ParameterServer(_theta0(), 1, num_shards=32)
        assert server.num_shards == len(SHAPES)
        assert all(shard.tracker.shapes for shard in server.shards)

    @pytest.mark.parametrize("num_shards", SHARD_COUNTS)
    def test_checkpoint_round_trip_continues_bitwise(self, num_shards):
        schedule = _updates(steps=16)
        uninterrupted = ParameterServer(_theta0(), 2, num_shards=num_shards)
        _drive(uninterrupted, schedule)

        first = ParameterServer(_theta0(), 2, num_shards=num_shards)
        _drive(first, schedule[:8])
        state = first.checkpoint_state()
        assert len(state["shards"]) == first.num_shards
        resumed = ParameterServer(_theta0(), 2, num_shards=num_shards)
        resumed.restore_state(state)
        assert resumed.timestamp == 8
        for i, (w, payload) in enumerate(schedule[8:], start=8):
            resumed.handle(GradientMessage(w, payload, i))
        _assert_models_equal(resumed.global_model(), uninterrupted.global_model())
        assert resumed.timestamp == uninterrupted.timestamp


class TestShardedAccounting:
    def test_staleness_counts_sum_across_shards(self):
        """Per-worker counts are updates × num_shards; mean and percentiles
        equal the unpartitioned observations'."""
        schedule = _updates()
        _, replies = _oracle(schedule)
        observed: "dict[int, list[int]]" = {}
        for (w, _), (_, _, staleness) in zip(schedule, replies):
            observed.setdefault(w, []).append(staleness)
        want = summarize_staleness(observed)
        for num_shards in SHARD_COUNTS:
            server = ParameterServer(_theta0(), 2, num_shards=num_shards)
            _drive(server, schedule)
            got = server.staleness_summary()
            for key in ("mean", "p50", "p99"):
                assert got[key] == want[key]
            for w, summary in want["per_worker"].items():
                merged = got["per_worker"][w]
                assert merged["count"] == summary["count"] * server.num_shards
                for key in ("mean", "p50", "p99"):
                    assert merged[key] == summary[key]

    def test_metrics_snapshot_concatenates_shard_labeled_series(self):
        server = ParameterServer(_theta0(), 2, num_shards=2)
        _drive(server, _updates())
        records = server.metrics.snapshot()
        lock_waits = [r for r in records if r["name"] == obs_names.METRIC_SERVER_LOCK_WAIT_S]
        assert {r["labels"]["shard"] for r in lock_waits} == {"0", "1"}
        # every series from a shard carries its shard label
        assert all("shard" in r["labels"] for r in records)

    def test_unsharded_series_carry_no_shard_label(self):
        server = ParameterServer(_theta0(), 1)
        _drive(server, _updates(num_workers=1, steps=2))
        records = server.metrics.snapshot()
        assert records
        for record in records:
            assert "shard" not in record["labels"]

    def test_state_bytes_cached_and_partitioned(self):
        whole = ParameterServer(_theta0(), 2).server_state_bytes()
        for num_shards in SHARD_COUNTS:
            server = ParameterServer(_theta0(), 2, num_shards=num_shards)
            _drive(server, _updates())
            assert server.server_state_bytes() == whole
            # per-shard figures are proper partitions, not copies
            assert sum(s.server_state_bytes() for s in server.shards) == whole


class TestShardRoutingAndLocks:
    def test_register_lock_enrolls_one_lock_per_shard(self):
        for num_shards, names in [(1, ("ps",)), (3, ("ps.shard0", "ps.shard1", "ps.shard2"))]:
            server = ParameterServer(_theta0(), 1, num_shards=num_shards)
            registry = LockRegistry()
            server.register_lock(registry)
            assert registry.names == names
            # sequential fan-out never nests shard locks
            _drive(server, _updates(num_workers=1, steps=4))
            assert registry.inversions() == []

    def test_server_service_routes_shard_frames(self):
        """A whole-server gradient frame reaches every shard; the reply
        frame carries every layer in original order."""
        server = ParameterServer(_theta0(), 1, num_shards=2)
        service = ServerService(server)
        ((w, payload),) = _updates(num_workers=1, steps=1)
        reply = service(GradientFrame(GradientMessage(w, payload, 0), loss=0.0))
        assert isinstance(reply, DiffFrame)
        assert list(reply.message.payload) == list(SHAPES)
        assert [shard.timestamp for shard in server.shards] == [1, 1]

    def test_each_shard_owns_a_distinct_workspace(self):
        server = ParameterServer(_theta0(), 1, num_shards=4)
        workspaces = [shard.tracker.workspace for shard in server.shards]
        assert all(ws is not None for ws in workspaces)
        assert len({id(ws) for ws in workspaces}) == len(workspaces)

    def test_shard_arena_views_never_alias(self):
        server = ParameterServer(_theta0(), 1, num_shards=4)
        shard_layers = [
            [np.asarray(shard.theta0[name]) for name in shard.tracker.shapes]
            for shard in server.shards
        ]
        for i in range(len(shard_layers)):
            for j in range(i + 1, len(shard_layers)):
                for a in shard_layers[i]:
                    for b in shard_layers[j]:
                        assert not np.shares_memory(a, b)


class TestShardedTelemetry:
    def test_shard_spans_land_on_shard_lanes(self):
        tracer = Tracer()
        server = ParameterServer(_theta0(), 1, num_shards=2)
        with use_tracer(tracer):
            _drive(server, _updates(num_workers=1, steps=2))
        records = tracer.records()
        handle_tids = {r["tid"] for r in records if r["name"] == obs_names.SERVER_HANDLE}
        assert handle_tids == {"shard-0", "shard-1"}
        fanouts = [r for r in records if r["name"] == obs_names.SERVER_FANOUT]
        assert len(fanouts) == 2
        assert all(r["args"]["shards"] == 2 for r in fanouts)

    def test_one_shard_spans_stay_on_the_caller_lane(self):
        tracer = Tracer()
        server = ParameterServer(_theta0(), 1)
        with use_tracer(tracer):
            _drive(server, _updates(num_workers=1, steps=2))
        handles = [r for r in tracer.records() if r["name"] == obs_names.SERVER_HANDLE]
        assert len(handles) == 2
        assert all(not str(r["tid"]).startswith("shard-") for r in handles)
