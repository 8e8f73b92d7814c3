"""Float32 end to end: a DGS step never widens the value stream to float64.

The model, the data, the strategy state, the server state and the wire are
all float32, so every array the sanitizer sees — tensor op outputs,
gradients, sparsifier inputs, codec ``to_dense``/``add_into`` results —
must be float32 too.  One float64 scalar or buffer anywhere on the path
promotes everything downstream of it (NEP 50), which this pins.
"""

import numpy as np
import pytest

from repro.analysis import sanitize
from repro.core.layerops import parameters_of
from repro.core.methods import Hyper
from repro.data import DataLoader, make_blobs, synthetic_cifar10
from repro.exec.common import build_server, build_worker, resolve_method
from repro.nn import MLP, MicroResNet
from repro.optim import ConstantLR
from repro.ps import decode_message, encode_message

CASES = {
    "resnet-bn": (
        lambda: MicroResNet(3, 10, widths=(4, 8), seed=0),
        lambda: synthetic_cifar10(n_samples=64, size=8, seed=0),
    ),
    "mlp": (
        lambda: MLP(10, (16,), 3, seed=0),
        lambda: make_blobs(n_samples=64, num_classes=3, dim=10, seed=0),
    ),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_dgs_step_stays_float32(case):
    make_model, make_data = CASES[case]
    method = resolve_method("dgs")
    hyper = Hyper(lr=0.1, momentum=0.7, ratio=0.1, secondary_ratio=0.1)
    model = make_model()
    server = build_server(
        method, parameters_of(model), 1, hyper, secondary_compression=True, arena=True
    )
    node = build_worker(
        0, 1, model, DataLoader(make_data(), 16, seed=0), method, hyper, ConstantLR(0.1), arena=True
    )
    with sanitize(expected_dtype=np.float32):  # raises NumericFault at the first drift
        for _ in range(2):
            msg = node.compute_step()  # forward, backward, prepare
            reply = server.handle(decode_message(encode_message(msg)))
            node.apply_reply(decode_message(encode_message(reply)))
    assert {p.dtype for p in model.parameters()} == {np.dtype(np.float32)}
