"""The benchmark's workloads: inputs made from a seed, plus the run recipe.

Each workload loads a different layer of the DGS step (see README.md for
the predicted shares).  The benchmark generates the dataset and the model
replicas from ``--seed``; the program under test only receives them.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable

from repro.core.methods import Hyper
from repro.data.synthetic import Dataset, synthetic_cifar10
from repro.exec import RunConfig
from repro.nn.models import MLP, MicroResNet
from repro.nn.module import Module
from repro.optim.schedules import ConstantLR, Schedule, StepDecay

__all__ = ["Workload", "WORKLOADS", "get_workload"]


def _cifar(seed: int) -> Dataset:
    """Synthetic CIFAR-10 stand-in (3×8×8 images, 3200 train / 800 val)."""
    return synthetic_cifar10(n_samples=4000, size=8, difficulty=3.0, seed=seed)


def _flat_cifar(seed: int) -> Dataset:
    """The same images flattened to 192 features for the wide MLP."""
    ds = _cifar(seed)
    return Dataset(
        ds.x_train.reshape(len(ds.x_train), -1),
        ds.y_train,
        ds.x_val.reshape(len(ds.x_val), -1),
        ds.y_val,
        ds.num_classes,
        name="synthetic-cifar10-flat",
    )


def _resnet(seed: int) -> Module:
    return MicroResNet(3, 10, widths=(12, 24), blocks_per_stage=1, seed=seed)


def _wide_mlp(seed: int) -> Module:
    # 192→1024→1024→10: ~1.26M parameters and no BatchNorm, so the
    # exchange (not the model) is what a step spends its time on.
    return MLP(192, (1024, 1024), 10, seed=seed)


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: a fixed step budget on one backend."""

    name: str
    why: str
    backend: str
    method: str
    num_workers: int
    batch_size: int
    #: global step budget of one training run (worker steps applied)
    steps: int
    make_dataset: Callable[[int], Dataset]
    make_model: Callable[[int], Module]
    hyper: Hyper
    #: the correctness check's quality floor on the final global model
    min_accuracy: float
    #: transport the traced lockstep runner puts frames across:
    #: "none" (in-process, codec bypassed), "pipe" or "tcp"
    transport: str
    secondary_compression: "bool | None" = None
    num_shards: int = 1
    checkpoint_every: "int | None" = None
    #: the paper's step decay at 60%/80% of the run, else a constant LR
    step_decay: bool = False

    def schedule(self, dataset: Dataset) -> Schedule:
        if not self.step_decay:
            return ConstantLR(self.hyper.lr)
        shard = dataset.n_train // self.num_workers
        local_epochs = (self.steps / self.num_workers) / max(1, shard // self.batch_size)
        return StepDecay(
            self.hyper.lr, milestones=(0.6 * local_epochs, 0.8 * local_epochs), factor=0.1
        )

    def config(self, dataset: Dataset, seed: int, workdir: str) -> RunConfig:
        """The backend run configuration for ``seed``'s inputs."""
        checkpoint_path = None
        if self.checkpoint_every is not None:
            checkpoint_path = os.path.join(workdir, f"ckpt-{self.name}-{os.getpid()}.dgsc")
        return RunConfig(
            self.method,
            lambda: self.make_model(seed),
            dataset,
            num_workers=self.num_workers,
            batch_size=self.batch_size,
            total_iterations=self.steps,
            hyper=self.hyper,
            schedule=self.schedule(dataset),
            secondary_compression=self.secondary_compression,
            num_shards=self.num_shards,
            seed=seed,
            checkpoint_every=self.checkpoint_every,
            checkpoint_path=checkpoint_path,
        )


WORKLOADS: "dict[str, Workload]" = {
    w.name: w
    for w in (
        Workload(
            name="resnet-sim",
            why="DGS on the cifar10-resnet preset: MicroResNet+BN, compute-bound, codec and "
            "transport bypassed. Simulated: process/socket eval ignores trained BN stats "
            "(known defect, see README)",
            backend="simulated",
            method="dgs",
            num_workers=4,
            batch_size=32,
            steps=480,
            make_dataset=_cifar,
            make_model=_resnet,
            hyper=Hyper(lr=0.1, momentum=0.7, ratio=0.05, secondary_ratio=0.05),
            secondary_compression=True,
            step_decay=True,
            min_accuracy=0.7,
            transport="none",
        ),
        Workload(
            name="wide-dgs-process",
            why="BN-free 1.26M-param MLP, DGS R=1% over real pipes with 2 worker processes, "
            "sparse frames: bound by SAMomentum prepare and server handle",
            backend="process",
            method="dgs",
            num_workers=2,
            batch_size=8,
            steps=240,
            make_dataset=_flat_cifar,
            make_model=_wide_mlp,
            hyper=Hyper(lr=0.01, momentum=0.7, ratio=0.01, secondary_ratio=0.01),
            min_accuracy=0.75,
            transport="pipe",
        ),
        Workload(
            name="wide-asgd-socket",
            why="same model and data with dense ASGD over TCP, 2 shards and periodic "
            "checkpoints: the dense path through codec, transport and sharded server",
            backend="socket",
            method="asgd",
            num_workers=2,
            batch_size=8,
            steps=240,
            make_dataset=_flat_cifar,
            make_model=_wide_mlp,
            hyper=Hyper(lr=0.01, momentum=0.7, ratio=0.01, secondary_ratio=0.01),
            num_shards=2,
            checkpoint_every=100,
            min_accuracy=0.75,
            transport="tcp",
        ),
    )
}


def get_workload(name: str) -> Workload:
    try:
        return WORKLOADS[name]
    except KeyError:
        raise KeyError(f"unknown workload {name!r}; known: {sorted(WORKLOADS)}") from None
