"""Pipe ≡ TCP: the multi-process trainer's transport must not change the math.

With one worker there is no scheduling freedom, so a run over pre-wired
pipes and a run over TCP (join handshake installing the wire-rounded θ0)
must produce the same loss curve and final loss bitwise, for dense ASGD
and for DGS alike.  Each transport's frame sequence is pinned by its wire
totals: TCP ships a join and a leave control frame up and one full-model
frame down more than a pipe, and nothing else differs.
"""

from __future__ import annotations

import pytest

from repro.core.methods import Hyper
from repro.ps.multiprocess import TRANSPORTS, MultiprocessTrainer

HYPERS = {
    "asgd": Hyper(lr=0.1, momentum=0.0),
    "dgs": Hyper(lr=0.1, momentum=0.7, ratio=0.1, min_sparse_size=0),
}

#: (wire_bytes_up, wire_bytes_down) of a 1-worker, 25-iteration run on the
#: tiny MLP, per method and transport
WIRE_TOTALS = {
    ("asgd", "pipe"): (44024, 43900),
    ("asgd", "tcp"): (44038, 45656),
    ("dgs", "pipe"): (11824, 8700),
    ("dgs", "tcp"): (11838, 10456),
}


def _run(method, transport, tiny_dataset, tiny_model_factory, **kwargs):
    return MultiprocessTrainer(
        method,
        tiny_model_factory,
        tiny_dataset,
        num_workers=1,
        batch_size=16,
        iterations_per_worker=25,
        hyper=HYPERS[method],
        seed=0,
        transport=transport,
        **kwargs,
    ).run()


@pytest.mark.parametrize("method", sorted(HYPERS))
def test_one_worker_pipe_bitwise_equal_to_tcp(method, tiny_dataset, tiny_model_factory):
    runs = {t: _run(method, t, tiny_dataset, tiny_model_factory) for t in TRANSPORTS}
    pipe, tcp = runs["pipe"], runs["tcp"]
    assert list(pipe.loss_vs_step.ys) == list(tcp.loss_vs_step.ys)
    assert pipe.final_loss == tcp.final_loss
    assert pipe.total_iterations == tcp.total_iterations == 25
    assert (pipe.backend, tcp.backend) == ("process", "socket")
    for transport, result in runs.items():
        assert result.errors == []
        assert (result.wire_bytes_up, result.wire_bytes_down) == WIRE_TOTALS[method, transport]


@pytest.mark.parametrize(
    "option,value",
    [
        ("bind", ("127.0.0.1", 0)),
        ("join_delay_s", {0: 0.1}),
        ("evict_after_s", 5.0),
        ("checkpoint_every", 5),
        ("checkpoint_path", "run.ckpt"),
        ("restore_from", "run.ckpt"),
    ],
)
def test_tcp_only_options_rejected_over_pipe(option, value, tiny_dataset, tiny_model_factory):
    with pytest.raises(ValueError, match="pipe"):
        MultiprocessTrainer(
            "asgd", tiny_model_factory, tiny_dataset, 1, 16, 5, **{option: value}
        )


def test_unknown_transport_rejected(tiny_dataset, tiny_model_factory):
    with pytest.raises(ValueError, match="transport"):
        MultiprocessTrainer(
            "asgd", tiny_model_factory, tiny_dataset, 1, 16, 5, transport="udp"
        )
