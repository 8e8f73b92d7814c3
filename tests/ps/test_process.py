"""Multi-process PS trainer over pipes (real OS processes + binary wire codec)."""

import sys

import numpy as np
import pytest

from repro.core import Hyper
from repro.ps.multiprocess import TRANSPORTS, MultiprocessTrainer

pytestmark = pytest.mark.skipif(
    sys.platform != "linux", reason="fork start method required"
)

HYPER = Hyper(lr=0.1, momentum=0.7, ratio=0.1, min_sparse_size=0)


def test_process_training_learns(tiny_dataset, tiny_model_factory):
    trainer = MultiprocessTrainer(
        "dgs", tiny_model_factory, tiny_dataset,
        num_workers=2, batch_size=16, iterations_per_worker=30,
        hyper=HYPER, seed=0,
    )
    r = trainer.run()
    assert r.total_iterations == 60
    assert r.final_accuracy > 0.7
    assert len(r.loss_vs_step) == 60
    assert r.wire_bytes_up > 0 and r.wire_bytes_down > 0


def test_process_asgd_model_download(tiny_dataset, tiny_model_factory):
    trainer = MultiprocessTrainer(
        "asgd", tiny_model_factory, tiny_dataset,
        num_workers=2, batch_size=16, iterations_per_worker=15,
        hyper=HYPER, seed=0,
    )
    r = trainer.run()
    assert r.final_accuracy > 0.6
    # dense downloads dominate the wire
    assert r.wire_bytes_down > r.wire_bytes_up * 0.5


def test_sparse_method_ships_fewer_bytes(tiny_dataset, tiny_model_factory):
    def run(method):
        return MultiprocessTrainer(
            method, tiny_model_factory, tiny_dataset,
            num_workers=2, batch_size=16, iterations_per_worker=10,
            hyper=Hyper(lr=0.1, momentum=0.7, ratio=0.02, min_sparse_size=0),
            seed=0,
        ).run()

    dense = run("asgd")
    sparse = run("dgs")
    assert sparse.wire_bytes_up < dense.wire_bytes_up / 5


@pytest.mark.parametrize("transport", TRANSPORTS)
def test_msgd_rejected(transport, tiny_dataset, tiny_model_factory):
    with pytest.raises(ValueError, match="single-node"):
        MultiprocessTrainer(
            "msgd", tiny_model_factory, tiny_dataset, 2, 16, 5, transport=transport
        )
