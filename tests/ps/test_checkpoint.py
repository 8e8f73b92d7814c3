"""Checkpoint format + restore semantics, and the bitwise-continuation pin.

The flat-buffer file (``b"DGSC"`` + JSON header + raw buffers) must
round-trip the *exact* server state — M, every v_k, t, prev — so a run
restored from a checkpoint and continued is bitwise-identical to the
uninterrupted run. That end-to-end property is pinned here on the
threaded engine (socket parity has its own integration module).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.layerops import parameters_of
from repro.core.methods import Hyper, get_method
from repro.exec.common import build_server
from repro.nn import MLP
from repro.ps.checkpoint import CHECKPOINT_MAGIC, load_checkpoint, save_checkpoint
from repro.ps.messages import GradientMessage
from repro.ps.threaded import ThreadedTrainer


def _server(num_workers=2, num_shards=1, method="dgs", out_dim=3, dtype=np.float32):
    """A server on a small MLP; its state is held in the model's ``dtype``."""
    model = MLP(8, (12,), out_dim, seed=4).to(dtype)
    return build_server(
        get_method(method),
        parameters_of(model),
        num_workers,
        Hyper(lr=0.1, momentum=0.7, ratio=0.25, min_sparse_size=0),
        num_shards=num_shards,
    )


def _advance(server, steps=3, worker=0):
    rng = np.random.default_rng(7)
    for i in range(steps):
        payload = {
            name: rng.normal(size=np.shape(buf)).astype(np.float64)
            for name, buf in server.global_model().items()
        }
        server.handle(GradientMessage(worker, payload, i))


def _flat_state(server):
    return [b.copy() for s in server.checkpoint_state()["shards"] for b in s["buffers"]]


@pytest.mark.parametrize("num_shards", [1, 2])
def test_roundtrip_restores_state_bitwise(tmp_path, num_shards):
    source = _server(num_shards=num_shards)
    _advance(source, steps=4)
    path = tmp_path / "state.ckpt"
    header = save_checkpoint(source, path)
    assert header["num_shards"] == num_shards

    target = _server(num_shards=num_shards)
    load_checkpoint(target, path)
    assert target.timestamp == source.timestamp
    for got, want in zip(_flat_state(target), _flat_state(source)):
        np.testing.assert_array_equal(got, want)
    got_model, want_model = target.global_model(), source.global_model()
    for name in want_model:
        np.testing.assert_array_equal(got_model[name], want_model[name])


def test_header_records_per_worker_update_counts(tmp_path):
    server = _server()
    _advance(server, steps=3, worker=0)
    _advance(server, steps=2, worker=1)
    header = save_checkpoint(server, tmp_path / "c.ckpt")
    assert header["shards"][0]["updates"] == {"0": 3, "1": 2}


def test_restore_into_fresh_server_grows_worker_set(tmp_path):
    """A checkpoint taken after elastic joins restores into a server built
    with the original (smaller) worker count."""
    source = _server(num_workers=1)
    _advance(source)
    source.bootstrap_worker(2)  # elastic join grew v to 3 workers
    save_checkpoint(source, tmp_path / "c.ckpt")
    target = _server(num_workers=1)
    load_checkpoint(target, tmp_path / "c.ckpt")
    assert target.shards[0].tracker.num_workers == 3
    for got, want in zip(_flat_state(target), _flat_state(source)):
        np.testing.assert_array_equal(got, want)


class TestValidation:
    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(ValueError, match="bad magic"):
            load_checkpoint(_server(), path)

    def test_truncated_body_rejected(self, tmp_path):
        path = tmp_path / "c.ckpt"
        server = _server()
        _advance(server)
        save_checkpoint(server, path)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) - 16])
        with pytest.raises(ValueError, match="truncated"):
            load_checkpoint(_server(), path)

    def test_shard_count_mismatch_rejected(self, tmp_path):
        path = tmp_path / "c.ckpt"
        save_checkpoint(_server(num_shards=2), path)
        with pytest.raises(ValueError, match="shard"):
            load_checkpoint(_server(num_shards=1), path)

    def test_wrong_model_rejected(self, tmp_path):
        path = tmp_path / "c.ckpt"
        save_checkpoint(_server(), path)
        other = build_server(
            get_method("dgs"),
            parameters_of(MLP(8, (20,), 3, seed=4)),  # different hidden width
            2,
            Hyper(ratio=0.25, min_sparse_size=0),
        )
        with pytest.raises(ValueError):
            load_checkpoint(other, path)

    @pytest.mark.parametrize("num_shards", [1, 2])
    @pytest.mark.parametrize("mismatch", ["width", "dtype"])
    def test_rejected_load_leaves_state_untouched(self, tmp_path, mismatch, num_shards):
        """A checkpoint of a model with a different output width, or of
        float64 state loaded into a float32 server (which would otherwise
        be rounded in silently), is refused before any shard is written:
        θ_t, M / v_k and t stay bitwise."""
        path = tmp_path / "c.ckpt"
        if mismatch == "width":
            save_checkpoint(_server(num_shards=num_shards), path)
            target = _server(num_shards=num_shards, out_dim=5)
        else:
            source = _server(num_shards=num_shards, dtype=np.float64)
            _advance(source, steps=2)
            save_checkpoint(source, path)
            target = _server(num_shards=num_shards)
        _advance(target, steps=2)
        model_before = {k: v.copy() for k, v in target.global_model().items()}
        state_before = _flat_state(target)
        t_before = target.timestamp
        with pytest.raises(ValueError):
            load_checkpoint(target, path)
        assert target.timestamp == t_before
        model_after = target.global_model()
        assert list(model_after) == list(model_before)
        for name, want in model_before.items():
            np.testing.assert_array_equal(model_after[name], want)
        for got, want in zip(_flat_state(target), state_before, strict=True):
            np.testing.assert_array_equal(got, want)

    def test_no_tmp_file_left_behind(self, tmp_path):
        path = tmp_path / "c.ckpt"
        save_checkpoint(_server(), path)
        assert [p.name for p in tmp_path.iterdir()] == ["c.ckpt"]


def _trainer(tiny_dataset, tiny_model_factory, iterations, **kwargs):
    return ThreadedTrainer(
        "asgd",  # momentum=0: worker optimiser state is not checkpointed
        tiny_model_factory,
        tiny_dataset,
        num_workers=1,
        batch_size=16,
        iterations_per_worker=iterations,
        hyper=Hyper(lr=0.1, momentum=0.0),
        seed=0,
        **kwargs,
    )


def test_restore_continue_is_bitwise_equal_to_uninterrupted(
    tmp_path, tiny_dataset, tiny_model_factory
):
    """checkpoint → restore → continue == one uninterrupted run, bitwise."""
    full = _trainer(tiny_dataset, tiny_model_factory, 20).run()

    path = tmp_path / "mid.ckpt"
    first = _trainer(
        tiny_dataset, tiny_model_factory, 10, checkpoint_every=10, checkpoint_path=path
    ).run()
    resumed = _trainer(tiny_dataset, tiny_model_factory, 10, restore_from=path).run()

    # the continuation's losses are exactly the tail of the full run
    assert list(first.loss_vs_step.ys) == list(full.loss_vs_step.ys)[:10]
    assert list(resumed.loss_vs_step.ys) == list(full.loss_vs_step.ys)[10:]
    assert resumed.final_loss == full.final_loss
    assert resumed.final_accuracy == full.final_accuracy
