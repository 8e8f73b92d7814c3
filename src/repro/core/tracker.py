"""Model Difference Tracking — the server side of DGS (§4.2, Algorithm 2).

The server never materialises per-worker models.  It keeps:

* ``M`` — the accumulation of all applied updates, ``M_t = θ_t − θ_0``
  (Eq. 2).  Updates arrive as per-layer values ``g`` already scaled by η,
  and are applied as ``M ← M − g`` (Eq. 1).
* ``v_k`` — per worker, the accumulation of everything already shipped to
  worker ``k`` (Eq. 3/6b).

On each exchange with worker ``k`` the server answers with the *model
difference* ``G = M − v_k`` (Eq. 3), optionally secondary-compressed
(Eq. 6a), then advances ``v_k ← v_k + G``.  Without secondary compression
``v_k == M`` after every exchange, which makes DGS exactly equivalent to
download-the-whole-model ASGD (Eq. 5) — the headline invariant of §4.2.1.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Mapping

import numpy as np

from ..compression.base import Sparsifier
from ..compression.coding import SparseTensor, encode_best, encode_mask
from ..compression.workspace import KernelWorkspace
from .arena import LayerArena, check_snapshot

__all__ = ["ModelDifferenceTracker"]


class ModelDifferenceTracker:
    """Server state for dual-way sparsification (M, per-worker v_k).

    M and every v_k are :class:`~repro.core.arena.LayerArena` buffers of
    ``dtype``: applying an update or advancing v_k is one fused op over the
    flat buffer — shortening the server's lock hold — and the
    model-difference encode draws scratch from a tracker-owned
    :class:`KernelWorkspace`.  The server passes θ0's dtype; direct
    construction defaults to float64, the reference the exactness tests
    compare against.
    """

    def __init__(
        self,
        shapes: Mapping[str, tuple[int, ...]],
        num_workers: int,
        secondary: Sparsifier | None = None,
        track_differences: bool = True,
        dtype: "np.dtype | type | str" = np.float64,
    ) -> None:
        if num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        self.shapes = OrderedDict(shapes)
        self.num_workers = num_workers
        self.secondary = secondary
        self.track_differences = track_differences
        #: state dtype of M and every v_k (a late joiner's v_k matches it)
        self.dtype = np.dtype(dtype)
        self.workspace = KernelWorkspace()
        self.M = LayerArena(self.shapes, dtype=self.dtype)
        # v_k buffers exist only under difference tracking — vanilla ASGD
        # downloads the whole model and pays no per-worker server memory.
        self.v = [
            LayerArena(self.shapes, dtype=self.dtype)
            for _ in range(num_workers if track_differences else 0)
        ]
        # Reused scratch arena for M − v_k (overwritten on every
        # model_difference call, never escapes the tracker).
        self._diff = LayerArena(self.shapes, dtype=self.dtype)
        #: server timestamp t — incremented once per applied update (Table 1)
        self.t = 0
        #: prev(k): server timestamp of worker k's last download (Table 1)
        self.prev = [0] * num_workers

    # ------------------------------------------------------------------
    def apply_update(self, update: "Mapping[str, SparseTensor] | Mapping[str, np.ndarray]") -> int:
        """``M ← M − g`` (Eq. 1).  Returns the new server timestamp."""
        # One fused op for same-layout dense arenas; COO scatter /
        # to_dense per layer otherwise — same arithmetic either way.
        self.M.add_payload(update, scale=-1.0)
        self.t += 1
        return self.t

    def model_difference(self, worker: int) -> "OrderedDict[str, SparseTensor]":
        """Compute, record, and return ``G_k`` for ``worker`` (Eq. 3/6).

        Side effects: ``v_k ← v_k + G`` and ``prev(k) ← t``.
        """
        if not self.track_differences:
            raise RuntimeError("model_difference() requires track_differences=True")
        vk = self.v[worker]
        out: OrderedDict[str, SparseTensor] = OrderedDict()
        # One fused subtraction for the whole difference, then per-layer
        # encode out of the scratch arena's views.
        diff = self._diff
        np.subtract(self.M.flat, vk.flat, out=diff.flat)
        for name in self.M:
            d = diff[name]
            if self.secondary is not None:
                sent = self.secondary.select(d, self.workspace)
                if sent is None:
                    sent = encode_mask(d, self.secondary.mask(d), self.workspace)
                # v_k advances only by what was actually sent (Eq. 6b) —
                # the remainder is implicitly accumulated for later.
                sent.add_into(vk[name])
            else:
                # G densifies with staleness; pick the cheapest wire format
                # per layer (COO / bitmap / dense — see encode_best).
                sent = encode_best(d, self.workspace)
            out[name] = sent
        if self.secondary is None:
            vk.copy_(self.M)  # v_k == M (Eq. 3), one memcpy
        self.prev[worker] = self.t
        return out

    def staleness(self, worker: int) -> int:
        """Updates applied at the server since this worker last synced."""
        return self.t - self.prev[worker]

    # ------------------------------------------------------------------
    def bootstrap_worker(self, worker: int) -> None:
        """Admit ``worker`` (growing state if it is new): ``v_k ← M_t``,
        ``prev(k) ← t``.

        The elastic-membership state transition (a late joiner downloads
        θ_t, so everything ever applied has by definition been shipped to
        it — ``v_k == M_t`` is exactly the Eq. 5 invariant at join time).
        Idempotent for existing workers: re-bootstrapping just refreshes
        their ``v_k`` to the current ``M``, which is what a reconnect
        after a full-model download means.
        """
        if worker < 0:
            raise ValueError(f"worker id must be >= 0, got {worker}")
        if worker >= self.num_workers:
            if self.track_differences:
                self.v.extend(
                    LayerArena(self.shapes, dtype=self.dtype)
                    for _ in range(worker + 1 - self.num_workers)
                )
            self.prev.extend([0] * (worker + 1 - self.num_workers))
            self.num_workers = worker + 1
        if self.track_differences:
            self.v[worker].copy_(self.M)
        self.prev[worker] = self.t

    def worker_model(self, theta0: LayerArena, worker: int) -> LayerArena:
        """Materialise the model worker ``k`` holds: θ_0 + v_k (Eq. 3 view).

        Without difference tracking (vanilla ASGD) the worker holds the
        full global model from its last download, which — under the strict
        request→reply cycle — is θ_t.
        """
        if not self.track_differences:
            return self.global_model(theta0)
        return theta0.clone().add_(self.v[worker])

    # ------------------------------------------------------------------
    def global_model(self, theta0: LayerArena) -> LayerArena:
        """Materialise θ_t = θ_0 + M_t (Eq. 2) — used for evaluation."""
        return theta0.clone().add_(self.M)  # one fused θ0 + M

    def state_dict(self) -> "dict[str, np.ndarray]":
        """Snapshot M, every v_k, t, and prev(k) for checkpointing."""
        state: dict[str, np.ndarray] = {"t": np.array(self.t), "prev": np.array(self.prev)}
        for name, arr in self.M.items():
            state[f"M/{name}"] = arr.copy()
        for k, vk in enumerate(self.v):
            for name, arr in vk.items():
                state[f"v{k}/{name}"] = arr.copy()
        return state

    def load_state_dict(self, state: "Mapping[str, np.ndarray]") -> None:
        """Restore a snapshot produced by :meth:`state_dict`.

        The worker count, keys, shapes and dtypes are all checked before
        the first write, so a rejected snapshot leaves the tracker untouched.
        """
        t = int(state["t"])
        prev = [int(x) for x in np.asarray(state["prev"]).reshape(-1)]
        if len(prev) != self.num_workers:
            raise ValueError(
                f"checkpoint has {len(prev)} workers, tracker expects {self.num_workers}"
            )
        targets = {f"M/{name}": arr for name, arr in self.M.items()}
        for k, vk in enumerate(self.v):
            targets.update((f"v{k}/{name}", arr) for name, arr in vk.items())
        check_snapshot({key: state[key] for key in state if key not in ("t", "prev")}, targets)
        self.t = t
        self.prev = prev
        for key, arr in targets.items():
            np.copyto(arr, state[key])

    # ------------------------------------------------------------------
    def flat_state(self) -> "list[np.ndarray]":
        """``[M, v_0, …, v_{K-1}]``, each as one contiguous 1-D array.

        The checkpoint payload: zero-copy views of the flat backing buffers
        (the caller copies if it needs isolation), in ``self.shapes`` layer
        order.
        """
        return [self.M.flat] + [vk.flat for vk in self.v]

    def check_flat_state(self, buffers: "list[np.ndarray]") -> None:
        """Raise ``ValueError`` unless :meth:`load_flat_state` accepts
        ``buffers``: a buffer count this tracker can hold and, for every
        buffer, exactly the element count and dtype of :meth:`flat_state`'s
        (a float64 checkpoint is not rounded into float32 state, nor the
        reverse).  Reads state only, so a caller can validate every shard
        before writing any.
        """
        if not buffers:
            raise ValueError("flat state needs at least the M buffer")
        n_v = len(buffers) - 1
        if not self.track_differences and n_v != 0:
            raise ValueError("checkpoint has v_k buffers but tracking is off")
        if self.track_differences and n_v < len(self.v):
            raise ValueError(
                f"checkpoint has {n_v} v_k buffers, tracker has {len(self.v)} workers"
            )
        size = self.M.size
        for buf in buffers:
            if buf.size != size:
                raise ValueError(f"flat buffer has {buf.size} elements, layers hold {size}")
            if buf.dtype != self.dtype:
                raise ValueError(f"flat buffer is {buf.dtype}, server state is {self.dtype}")

    def load_flat_state(self, buffers: "list[np.ndarray]") -> None:
        """Restore :meth:`flat_state` output (``M`` first, then each v_k).

        Validated by :meth:`check_flat_state` before anything is written.
        Grows the worker set if the checkpoint carries more v_k buffers
        than this tracker currently has (a checkpoint taken after elastic
        joins restores into a tracker built at the original size).
        """
        self.check_flat_state(buffers)
        if self.track_differences and len(buffers) - 1 > len(self.v):
            self.bootstrap_worker(len(buffers) - 2)  # grow v/prev to checkpoint size
        np.copyto(self.M.flat, buffers[0])
        for vk, buf in zip(self.v, buffers[1:]):
            np.copyto(vk.flat, buf)

    def server_state_bytes(self) -> int:
        """Memory held by M plus every v_k (the §5.6.2 accounting:
        ``NumOfWorkers × ParameterMemOfModel`` for the v's, + one M)."""
        return self.M.nbytes + sum(vk.nbytes for vk in self.v)

