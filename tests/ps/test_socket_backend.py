"""The multi-process trainer over TCP: elastic workers on real loopback.

Each test forks real worker processes that connect to an ephemeral
loopback listener; the paper's training loop runs unchanged on top —
what is under test here is the deployment machinery: membership
accounting, mid-run joins, checkpoint cadence (crash → partial result is
pinned for both transports in ``tests/comm/test_process_crash.py``).
"""

from __future__ import annotations

import pytest

from repro.core.methods import Hyper
from repro.ps.multiprocess import MultiprocessTrainer


def _trainer(tiny_dataset, tiny_model_factory, **kwargs):
    defaults = dict(
        num_workers=2,
        batch_size=16,
        iterations_per_worker=20,
        hyper=Hyper(lr=0.1, momentum=0.7, ratio=0.1, min_sparse_size=0),
        seed=0,
        transport="tcp",
    )
    defaults.update(kwargs)
    return MultiprocessTrainer("dgs", tiny_model_factory, tiny_dataset, **defaults)


def test_two_workers_learn_over_tcp(tiny_dataset, tiny_model_factory):
    trainer = _trainer(tiny_dataset, tiny_model_factory)
    result = trainer.run()
    assert result.backend == "socket"
    assert result.errors == []
    assert result.final_accuracy > 0.9
    assert result.total_iterations == 40
    assert result.samples_processed == 40 * 16
    # every frame crossed a real socket: transport counters are live
    assert result.wire_bytes_up > 0 and result.wire_bytes_down > 0
    snap = trainer.membership.snapshot()
    assert snap["joins"] == 2 and snap["leaves"] == 2
    assert snap["crashes"] == 0 and snap["evictions"] == 0


def test_mid_run_join_completes_with_correct_accounting(
    tiny_dataset, tiny_model_factory
):
    trainer = _trainer(tiny_dataset, tiny_model_factory, join_delay_s={1: 0.3})
    result = trainer.run()
    assert result.errors == []
    assert result.total_iterations == 40
    snap = trainer.membership.snapshot()
    assert snap["joins"] == 2 and snap["leaves"] == 2
    # the delayed worker joined against a server that had already moved
    join_ts = {w: ts for (w, kind, ts) in trainer.membership.events if kind == "join"}
    assert join_ts[0] == 0
    assert join_ts[1] > 0


def test_checkpoint_cadence_writes_file(tmp_path, tiny_dataset, tiny_model_factory):
    path = tmp_path / "run.ckpt"
    result = _trainer(
        tiny_dataset,
        tiny_model_factory,
        checkpoint_every=10,
        checkpoint_path=path,
    ).run()
    assert result.errors == []
    assert path.exists()
    from repro.ps.checkpoint import load_checkpoint
    from repro.core.layerops import parameters_of
    from repro.exec.common import build_server
    from repro.core.methods import get_method

    server = build_server(
        get_method("dgs"),
        parameters_of(tiny_model_factory()),
        2,
        Hyper(lr=0.1, momentum=0.7, ratio=0.1, min_sparse_size=0),
    )
    header = load_checkpoint(server, path)
    # the final checkpoint covers the whole run's updates
    assert sum(header["shards"][0]["updates"].values()) == 40
    assert server.timestamp == 40


def test_checkpoint_every_requires_path(tiny_dataset, tiny_model_factory):
    with pytest.raises(ValueError, match="checkpoint_path"):
        _trainer(tiny_dataset, tiny_model_factory, checkpoint_every=5)
