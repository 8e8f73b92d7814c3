"""Evaluation helpers."""

import numpy as np
import pytest

from repro.core.layerops import parameters_of
from repro.metrics.evaluation import evaluate_model, evaluate_params
from repro.nn import MLP


class TestEvaluateModel:
    def test_returns_accuracy_and_loss(self, tiny_dataset, tiny_model_factory):
        model = tiny_model_factory()
        acc, loss = evaluate_model(model, tiny_dataset.x_val, tiny_dataset.y_val)
        assert 0.0 <= acc <= 1.0
        assert loss > 0

    def test_restores_training_mode(self, tiny_dataset, tiny_model_factory):
        model = tiny_model_factory()
        model.train()
        evaluate_model(model, tiny_dataset.x_val, tiny_dataset.y_val)
        assert model.training

    def test_batching_equals_full_pass(self, tiny_dataset, tiny_model_factory):
        model = tiny_model_factory().to(np.float64)  # batching-exact at float64
        a1 = evaluate_model(model, tiny_dataset.x_val, tiny_dataset.y_val, batch_size=7)
        a2 = evaluate_model(model, tiny_dataset.x_val, tiny_dataset.y_val, batch_size=1000)
        assert a1[0] == pytest.approx(a2[0])
        assert a1[1] == pytest.approx(a2[1], rel=1e-9)


class TestEvaluateParams:
    def test_restores_original_params(self, tiny_dataset, tiny_model_factory):
        model = tiny_model_factory()
        before = parameters_of(model)
        other = {n: np.zeros_like(a) for n, a in before.items()}
        evaluate_params(model, other, tiny_dataset.x_val, tiny_dataset.y_val)
        after = parameters_of(model)
        for n in before:
            np.testing.assert_array_equal(before[n], after[n])

    def test_evaluates_given_params_not_own(self, tiny_dataset, tiny_model_factory):
        model = tiny_model_factory()
        zeros = {n: np.zeros_like(a) for n, a in parameters_of(model).items()}
        acc_zero, _ = evaluate_params(model, zeros, tiny_dataset.x_val, tiny_dataset.y_val)
        # all-zero MLP outputs uniform logits -> accuracy ≈ chance
        assert acc_zero < 0.6
