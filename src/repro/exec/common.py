"""Construction and evaluation steps shared by every execution backend.

Before the unified execution layer, each of the four trainers carried its
own copy of the same lifecycle plumbing: resolve the method spec, default
the hyper-parameters and LR schedule, decide the server-side secondary
compression, build a :class:`~repro.ps.server.ParameterServer` seeded with
θ0, stamp out per-worker :class:`~repro.ps.worker.WorkerNode` replicas, and
evaluate θ0 + M on the validation split.  These helpers are that plumbing,
written once; the trainers are now thin scheduling loops on top.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Mapping

import numpy as np

from ..core.layerops import assign_parameters, layer_shapes, parameter_dtype
from ..core.methods import Hyper, MethodSpec, get_method
from ..data.loader import DataLoader
from ..data.synthetic import Dataset
from ..metrics.evaluation import evaluate_params
from ..nn.module import Module
from ..optim.schedules import ConstantLR, Schedule
from .result import TrainResult

if TYPE_CHECKING:  # imported lazily at call time: repro.ps imports this module
    from ..ps.server import ParameterServer
    from ..ps.worker import WorkerNode

__all__ = [
    "resolve_method",
    "resolve_hyper",
    "resolve_schedule",
    "secondary_ratio_for",
    "build_server",
    "build_worker",
    "build_workers",
    "evaluate_global",
    "server_result",
]


def resolve_method(method: "MethodSpec | str", require_distributed: bool = True) -> MethodSpec:
    """Look up ``method`` in the registry and reject single-node specs."""
    spec = get_method(method) if isinstance(method, str) else method
    if require_distributed and not spec.distributed:
        raise ValueError(f"method {spec.name!r} is single-node; use LocalTrainer")
    return spec


def resolve_hyper(hyper: "Hyper | None") -> Hyper:
    return hyper if hyper is not None else Hyper()


def resolve_schedule(schedule: "Schedule | None", hyper: Hyper) -> Schedule:
    return schedule if schedule is not None else ConstantLR(hyper.lr)


def secondary_ratio_for(
    method: MethodSpec, hyper: Hyper, secondary_compression: "bool | None"
) -> "float | None":
    """Server-side secondary compression ratio, or None when disabled.

    Secondary compression only exists in the ``difference`` downstream mode
    (Algorithm 2 / Eq. 6); ``secondary_compression=None`` defers to the
    method's default flag.
    """
    use_secondary = (
        method.secondary_default if secondary_compression is None else secondary_compression
    )
    if method.downstream == "difference" and use_secondary:
        return hyper.secondary_ratio
    return None


def build_server(
    method: MethodSpec,
    theta0: "Mapping[str, np.ndarray]",
    num_workers: int,
    hyper: Hyper,
    secondary_compression: "bool | None" = None,
    staleness_damping: bool = False,
    num_shards: int = 1,
    arena: bool = True,
) -> "ParameterServer":
    """A parameter server configured for ``method``'s downstream mode,
    its layers partitioned across ``num_shards`` independently locked
    shards (one by default).  Its state is held in θ0's dtype."""
    from ..ps.server import ParameterServer

    _require_arena(arena)
    return ParameterServer(
        theta0,
        num_workers,
        num_shards=num_shards,
        downstream=method.downstream,
        secondary_ratio=secondary_ratio_for(method, hyper, secondary_compression),
        secondary_min_sparse_size=hyper.min_sparse_size,
        staleness_damping=staleness_damping,
    )


def _require_arena(arena: bool) -> None:
    # ``arena`` survives on build_server/build_workers only because the
    # step benchmark's lockstep runner (stepbench/tracing.py) still passes
    # ``arena=True``; LayerArena is the only state type, so False is an
    # error rather than a silent no-op.
    if not arena:
        raise ValueError("arena=False is gone: LayerArena is the only layer-state type")


def build_worker(
    worker_id: int,
    num_workers: int,
    model: Module,
    loader: DataLoader,
    method: MethodSpec,
    hyper: Hyper,
    schedule: Schedule,
    theta0: "Mapping[str, np.ndarray] | None" = None,
) -> "WorkerNode":
    """One worker node on ``model``, optionally re-seeded to θ0; its
    strategy state is held in the model's parameter dtype."""
    from ..ps.worker import WorkerNode

    if theta0 is not None:
        # All replicas start from the same θ0.
        assign_parameters(model, theta0)
    shapes = layer_shapes(model)
    return WorkerNode(
        worker_id,
        model,
        loader.worker_iterator(worker_id, num_workers),
        method.make_strategy(shapes, hyper, dtype=parameter_dtype(model)),
        schedule=schedule,
    )


def build_workers(
    num_workers: int,
    model_factory: Callable[[], Module],
    loader: DataLoader,
    method: MethodSpec,
    hyper: Hyper,
    schedule: Schedule,
    theta0: "Mapping[str, np.ndarray]",
    first_model: "Module | None" = None,
    arena: bool = True,
) -> "list[WorkerNode]":
    """Stamp out ``num_workers`` replicas, all starting from θ0.

    ``first_model`` lets a caller donate an already-built model as worker
    0's replica (the simulator reuses its reference model this way).
    """
    _require_arena(arena)
    workers: list[WorkerNode] = []
    for w in range(num_workers):
        model = first_model if (w == 0 and first_model is not None) else model_factory()
        workers.append(
            build_worker(
                w,
                num_workers,
                model,
                loader,
                method,
                hyper,
                schedule,
                theta0=theta0,
            )
        )
    return workers


def evaluate_global(model: Module, server: ParameterServer, dataset: Dataset) -> "tuple[float, float]":
    """(accuracy, loss) of the server's θ0 + M on the validation split.

    ``model`` supplies BatchNorm running statistics — they are trained
    locally and are not part of the PS exchange, so callers pass worker 0's
    replica (its statistics reflect actual training data).
    """
    return evaluate_params(model, server.global_model(), dataset.x_val, dataset.y_val)


def server_result(server: "ParameterServer", **fields: object) -> TrainResult:
    """A :class:`TrainResult` with every field read off ``server`` filled in.

    The server is the one place the parameter-server backends observe
    staleness, applied updates, byte accounting and state memory, so those
    fields are written here once; ``fields`` carries what only the calling
    trainer knows (method, backend, accuracy, curves, clock, ...).
    """
    stats = server.stats
    staleness = server.staleness_summary()
    return TrainResult(
        num_shards=server.num_shards,
        total_iterations=server.timestamp,
        mean_staleness=staleness["mean"],
        staleness_p50=staleness["p50"],
        staleness_p99=staleness["p99"],
        worker_staleness=staleness["per_worker"],
        metrics=server.metrics.snapshot(),
        upload_bytes=stats.upload_bytes,
        download_bytes=stats.download_bytes,
        upload_dense_bytes=stats.upload_dense_bytes,
        download_dense_bytes=stats.download_dense_bytes,
        server_state_bytes=server.server_state_bytes(),
        **fields,
    )
