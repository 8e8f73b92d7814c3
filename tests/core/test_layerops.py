"""Per-layer vector helpers."""

import numpy as np
import pytest

from repro.core.layerops import (
    add_scaled,
    assign_parameters,
    clone_layers,
    flatten_layers,
    gradients_of,
    layer_shapes,
    parameters_of,
    total_nbytes,
    total_size,
    zeros_like_layers,
)
from repro.nn import MLP, cross_entropy
from repro.autograd import Tensor


@pytest.fixture
def model():
    return MLP(6, (8,), 3, seed=0)


class TestLayerOps:
    def test_layer_shapes(self, model):
        shapes = layer_shapes(model)
        assert shapes["net.0.weight"] == (8, 6)

    def test_zeros_like(self, model):
        z = zeros_like_layers(layer_shapes(model))
        assert all((arr == 0).all() for arr in z.values())

    def test_parameters_of_copies(self, model):
        params = parameters_of(model)
        params["net.0.weight"][...] = 99.0
        assert not np.allclose(model.net.layers[0].weight.data, 99.0)

    def test_assign_roundtrip(self, model):
        params = parameters_of(model)
        other = MLP(6, (8,), 3, seed=5)
        assign_parameters(other, params)
        np.testing.assert_array_equal(
            other.net.layers[0].weight.data, model.net.layers[0].weight.data
        )

    def test_gradients_of_with_missing(self, model, rng):
        loss = cross_entropy(model(Tensor(rng.normal(size=(4, 6)))), np.array([0, 1, 2, 0]))
        loss.backward()
        grads = gradients_of(model)
        assert set(grads) == set(dict(model.named_parameters()))

    def test_gradients_of_zero_when_no_backward(self, model):
        grads = gradients_of(model)
        assert all((g == 0).all() for g in grads.values())

    def test_add_scaled(self):
        dest = {"a": np.ones(3)}
        add_scaled(dest, {"a": np.ones(3)}, scale=2.0)
        np.testing.assert_allclose(dest["a"], 3.0)

    def test_totals(self, model):
        params = parameters_of(model)
        assert total_size(params) == model.num_parameters()
        assert total_nbytes(params) == model.num_parameters() * np.dtype(np.float32).itemsize

    def test_flatten(self):
        flat = flatten_layers({"a": np.ones((2, 2)), "b": np.zeros(3)})
        assert flat.shape == (7,)
        np.testing.assert_allclose(flat, [1, 1, 1, 1, 0, 0, 0])

    def test_flatten_empty(self):
        assert flatten_layers({}).shape == (0,)

    def test_clone_is_deep(self):
        src = {"a": np.ones(2)}
        dst = clone_layers(src)
        dst["a"][0] = 5
        assert src["a"][0] == 1
