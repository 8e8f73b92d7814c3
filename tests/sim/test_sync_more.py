"""Additional synchronous-trainer checks: Eq. (7) semantics and wire costs."""

from collections import OrderedDict

import numpy as np
import pytest

from repro.core import Hyper
from repro.sim import ClusterConfig, ComputeModel, LinkModel, SynchronousTrainer


def cluster(n=2, gbps=10, mean=0.05, het=0.0):
    return ClusterConfig(
        num_workers=n,
        compute=ComputeModel(mean_s=mean, jitter=0.0, heterogeneity=het),
        uplink=LinkModel.gbps(gbps),
        downlink=LinkModel.gbps(gbps),
        seed=0,
    )


class TestEq7Semantics:
    def test_one_round_applies_sum_of_updates(self, tiny_dataset, tiny_model_factory):
        """θ₁ = θ₀ − Σ_k η∇_k exactly (dense ASGD strategy, Eq. 7)."""
        from repro.core.layerops import parameters_of

        def f64_model_factory():  # exact at float64, the reference dtype
            return tiny_model_factory().to(np.float64)

        trainer = SynchronousTrainer(
            "asgd", f64_model_factory, tiny_dataset, cluster(n=2),
            batch_size=16, rounds=1, hyper=Hyper(lr=0.1), seed=0,
        )
        theta0 = parameters_of(trainer.model)

        # Capture what each worker would send by replaying their loaders.
        from repro.data import DataLoader
        from repro.autograd import Tensor
        from repro.nn import cross_entropy
        from repro.core.layerops import gradients_of

        ref_model = f64_model_factory()
        for name, p in ref_model.named_parameters():
            np.copyto(p.data, theta0[name])
        loader = DataLoader(tiny_dataset, 16, seed=0)
        expected_delta = {n: np.zeros_like(a) for n, a in theta0.items()}
        for w in range(2):
            it = loader.worker_iterator(w, 2)
            x, y = it.next_batch()
            loss = cross_entropy(ref_model(Tensor(x)), y)
            ref_model.zero_grad()
            loss.backward()
            for n, g in gradients_of(ref_model).items():
                expected_delta[n] += 0.1 * g

        trainer.run()
        theta1 = parameters_of(trainer.model)
        for n in theta0:
            np.testing.assert_allclose(theta1[n], theta0[n] - expected_delta[n], atol=1e-10)


class TestSyncWire:
    def test_upload_download_accounting(self, tiny_dataset, tiny_model_factory):
        trainer = SynchronousTrainer(
            "asgd", tiny_model_factory, tiny_dataset, cluster(n=3),
            batch_size=16, rounds=5, hyper=Hyper(lr=0.1), seed=0,
        )
        r = trainer.run()
        assert r.upload_bytes > 0
        # broadcast: one dense aggregate per worker per round
        assert r.download_bytes >= r.upload_bytes

    def test_low_bandwidth_slows_rounds(self, tiny_dataset, tiny_model_factory):
        fast = SynchronousTrainer(
            "asgd", tiny_model_factory, tiny_dataset, cluster(gbps=10, mean=0.01),
            batch_size=16, rounds=5, hyper=Hyper(lr=0.1), seed=0,
        ).run()
        slow = SynchronousTrainer(
            "asgd", tiny_model_factory, tiny_dataset, cluster(gbps=0.0001, mean=0.01),
            batch_size=16, rounds=5, hyper=Hyper(lr=0.1), seed=0,
        ).run()
        assert slow.makespan_s > fast.makespan_s

    def test_sparse_strategy_cheaper_upload(self, tiny_dataset, tiny_model_factory):
        h = Hyper(lr=0.1, momentum=0.7, ratio=0.02, min_sparse_size=0)
        dense = SynchronousTrainer(
            "asgd", tiny_model_factory, tiny_dataset, cluster(),
            batch_size=16, rounds=5, hyper=h, seed=0,
        ).run()
        sparse = SynchronousTrainer(
            "gd_async", tiny_model_factory, tiny_dataset, cluster(),
            batch_size=16, rounds=5, hyper=h, seed=0,
        ).run()
        assert sparse.upload_bytes < dense.upload_bytes / 5
