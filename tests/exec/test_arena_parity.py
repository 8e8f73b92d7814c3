"""Exec-level arena parity: the state dtype follows the model.

A float64 model (``Module.to(np.float64)``) holds float64 arena state on
every node, and its run must reproduce, *bitwise*, the same run with the
worker strategies and the server trackers swapped for the dict-of-float64
oracle (``tests/dict_oracle.py``) — identical loss curves, not just close —
on a deterministic backend.  The default float32 model holds float32 state
and must still train to an equivalent result.
"""

import numpy as np
import pytest

from repro.compression import TopKSparsifier
from repro.core.layerops import parameters_of
from repro.core.methods import Hyper, get_method
from repro.data import DataLoader, make_blobs
from repro.exec import RunConfig, Trainer
from repro.exec.common import build_server, build_worker, build_workers
from repro.nn import MLP
from repro.optim import ConstantLR

from dict_oracle import DictDense, DictSAMomentum, DictTracker


@pytest.fixture(scope="module")
def ds():
    return make_blobs(n_samples=240, num_classes=3, dim=10, seed=3)


def factory():
    return MLP(10, (14,), 3, seed=5)


def factory64():
    return factory().to(np.float64)


def _trainer(ds, backend="simulated", model_factory=factory, **kwargs):
    config = RunConfig(
        kwargs.pop("method", "asgd"),
        model_factory,
        ds,
        num_workers=kwargs.pop("num_workers", 1),
        batch_size=16,
        total_iterations=kwargs.pop("total_iterations", 40),
        seed=0,
        **kwargs,
    )
    return Trainer(config, backend=backend)


def _run(ds, backend="simulated", **kwargs):
    return _trainer(ds, backend, **kwargs).run()


def _run_on_dict_oracle(ds, backend="simulated", **kwargs):
    """The same float64 run with every strategy and tracker on dict state."""
    engine = _trainer(ds, backend, model_factory=factory64, **kwargs).engine
    hyper = Hyper()
    for node in engine.workers:
        shapes = node.strategy.shapes
        if node.strategy.sparse_output:
            sparsifier = TopKSparsifier(hyper.ratio, min_sparse_size=hyper.min_sparse_size)
            node.strategy = DictSAMomentum(shapes, sparsifier, hyper.momentum)
        else:
            node.strategy = DictDense(shapes)
    for shard in getattr(getattr(engine, "server", None), "shards", ()):
        tracker = shard.tracker
        shard.tracker = DictTracker(
            tracker.shapes, tracker.num_workers, tracker.secondary, tracker.track_differences
        )
    return engine.run()


class TestFloat64Parity:
    def test_dense_asgd_identical_loss_curve(self, ds):
        """The headline gate: float64 arena state == dict oracle, bit for bit."""
        opt = _run(ds, model_factory=factory64)
        ref = _run_on_dict_oracle(ds)
        assert opt.final_loss == ref.final_loss
        assert list(opt.loss_vs_step.ys) == list(ref.loss_vs_step.ys)

    def test_dgs_identical_loss_curve(self, ds):
        """Sparsified path (SAMomentum top-k + tracker) through the same gate."""
        opt = _run(ds, method="dgs", model_factory=factory64)
        ref = _run_on_dict_oracle(ds, method="dgs")
        assert opt.final_loss == ref.final_loss
        assert list(opt.loss_vs_step.ys) == list(ref.loss_vs_step.ys)

    def test_sync_backend_identical(self, ds):
        opt = _run(ds, backend="sync", num_workers=2, model_factory=factory64)
        ref = _run_on_dict_oracle(ds, backend="sync", num_workers=2)
        assert opt.final_loss == ref.final_loss


class TestFloat32Default:
    def test_default_arena_trains_equivalently(self, ds):
        """float32 state: same training outcome as float64 within f32 rounding."""
        opt = _run(ds, total_iterations=60)
        ref = _run(ds, total_iterations=60, model_factory=factory64)
        assert np.isfinite(opt.final_loss)
        assert opt.final_loss == pytest.approx(ref.final_loss, rel=1e-3, abs=1e-6)

    def test_multi_worker_multi_method(self, ds):
        for method in ("dgs", "dgc_async", "gd_async"):
            r = _run(ds, method=method, num_workers=3, total_iterations=45)
            assert np.isfinite(r.final_loss), method


class TestBuildersFollowTheta0:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["float32", "float64"])
    def test_default_builders_hold_state_in_theta0_dtype(self, ds, dtype):
        model = factory().to(dtype)
        method, hyper = get_method("dgs"), Hyper()
        server = build_server(method, parameters_of(model), 2, hyper, num_shards=2)
        node = build_worker(0, 2, model, DataLoader(ds, 16), method, hyper, ConstantLR(0.1))
        for shard in server.shards:
            tracker = shard.tracker
            buffers = [shard.theta0, tracker.M, *tracker.v]
            assert {buf.dtype for buf in buffers} == {np.dtype(dtype)}
        assert node.strategy.u.dtype == dtype

    def test_arena_false_is_rejected(self, ds):
        method, hyper = get_method("asgd"), Hyper()
        theta0 = parameters_of(factory())
        with pytest.raises(ValueError, match="arena"):
            build_server(method, theta0, 1, hyper, arena=False)
        with pytest.raises(ValueError, match="arena"):
            build_workers(
                1, factory, DataLoader(ds, 16), method, hyper, ConstantLR(0.1), theta0,
                arena=False,
            )
