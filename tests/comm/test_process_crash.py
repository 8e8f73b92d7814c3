"""Multi-process crash handling: a dying worker yields a partial result,
over either transport."""

from __future__ import annotations

import pytest

from repro.core import Hyper
from repro.ps.multiprocess import TRANSPORTS, MultiprocessTrainer

HYPER = Hyper(lr=0.1, momentum=0.7, ratio=0.2, min_sparse_size=0)


def make_trainer(dataset, model_factory, transport="pipe", fail_at=None, iters=6):
    return MultiprocessTrainer(
        "dgs",
        model_factory,
        dataset,
        num_workers=2,
        batch_size=16,
        iterations_per_worker=iters,
        hyper=HYPER,
        seed=0,
        fail_at=fail_at,
        transport=transport,
    )


@pytest.mark.parametrize("transport", TRANSPORTS)
def test_worker_hard_crash_yields_partial_result(transport, tiny_dataset, tiny_model_factory):
    """A worker hard-killed mid-run (no close frame) must not hang the run."""
    trainer = make_trainer(tiny_dataset, tiny_model_factory, transport, fail_at={1: 2})
    result = trainer.run()
    assert len(result.errors) == 1, "the crash must surface in TrainResult.errors"
    assert "without a close frame" in result.errors[0]
    # the survivor finished: more steps than the crashed worker managed,
    # fewer than a clean two-worker run
    assert 6 <= result.total_iterations < 12
    # accounting comes from the surviving worker's close frame only
    assert result.samples_processed == 6 * 16
    assert 0.0 <= result.final_accuracy <= 1.0
    # the membership directory records the crash on both transports; only
    # TCP workers register, so only they leave
    assert trainer.membership.members[1] == "crash"
    assert trainer.membership.members.get(0) == ("left" if transport == "tcp" else None)


def test_clean_run_reports_no_errors(tiny_dataset, tiny_model_factory):
    trainer = make_trainer(tiny_dataset, tiny_model_factory, iters=4)
    result = trainer.run()
    assert result.errors == []
    assert result.total_iterations == 2 * 4
    assert result.samples_processed == 2 * 4 * 16
