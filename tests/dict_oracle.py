"""Dict-of-float64 layer state: the test-only oracle for the arena kernels.

``repro`` holds every piece of layer state in a
:class:`~repro.core.arena.LayerArena`.  The classes below keep the
per-layer dict implementation the arena replaced (independent float64
arrays, ``mask`` + ``encode_mask``, ``np.divide(where=~mask)``), so the
parity suites compare the fused arena kernels against an independent
reference, bitwise, at float64.  Each oracle subclasses the production
class and overrides only its state buffers and the per-layer kernel.
"""

from collections import OrderedDict

import numpy as np

from repro.compression.coding import SparseTensor, encode_best, encode_mask
from repro.core.strategies import (
    DenseStrategy,
    DGCStrategy,
    GradientDroppingStrategy,
    SAMomentumStrategy,
)
from repro.core.tracker import ModelDifferenceTracker
from repro.optim.clip import clip_by_global_norm


def zeros(shapes):
    """Zeroed float64 per-layer state, one independent array per layer."""
    return OrderedDict((name, np.zeros(shape)) for name, shape in shapes.items())


class DictDense(DenseStrategy):
    def prepare(self, grads, lr):
        return OrderedDict((name, lr * g) for name, g in grads.items())


class DictDropping(GradientDroppingStrategy):
    def __init__(self, shapes, sparsifier):
        super().__init__(shapes, sparsifier)
        self.residual = zeros(self.shapes)

    def prepare(self, grads, lr):
        out = OrderedDict()
        for name, g in grads.items():
            r = self.residual[name]
            r += lr * g
            mask = self.sparsifier.mask(r)
            out[name] = encode_mask(r, mask)
            r[mask] = 0.0
        return out


class DictDGC(DGCStrategy):
    def __init__(self, shapes, *args, **kwargs):
        super().__init__(shapes, *args, **kwargs)
        self.u, self.v = zeros(self.shapes), zeros(self.shapes)

    def prepare(self, grads, lr):
        if self.clip_norm is not None:
            grads = OrderedDict((name, g.copy()) for name, g in grads.items())
            clip_by_global_norm(list(grads.values()), self.clip_norm)
        sparsifier = self._current_sparsifier()
        out = OrderedDict()
        for name, g in grads.items():
            u, v = self.u[name], self.v[name]
            u *= self.momentum
            u += lr * g  # momentum correction: velocity, not raw gradient
            v += u
            mask = sparsifier.mask(v)
            out[name] = encode_mask(v, mask)
            v[mask] = 0.0
            u[mask] = 0.0  # momentum factor masking
        self.iteration += 1
        return out


class DictSAMomentum(SAMomentumStrategy):
    def __init__(self, shapes, sparsifier, momentum):
        super().__init__(shapes, sparsifier, momentum)
        self.u = zeros(self.shapes)

    def prepare(self, grads, lr):
        m = self.momentum
        out = OrderedDict()
        for name, g in grads.items():
            u = self.u[name]
            u *= m
            u += lr * g
            mask = self.sparsifier.mask(u)
            out[name] = encode_mask(u, mask)
            # Rescale the unsent remainder by 1/m (Eq. 15, lower branch).
            np.divide(u, m, out=u, where=~mask)
        return out


class DictTracker(ModelDifferenceTracker):
    """M / v_k as float64 dicts; apply_update and model_difference per layer."""

    def __init__(self, shapes, num_workers, secondary=None, track_differences=True):
        super().__init__(shapes, num_workers, secondary, track_differences)
        self.M = zeros(self.shapes)
        self.v = [zeros(self.shapes) for _ in range(num_workers if track_differences else 0)]

    def apply_update(self, update):
        for name, g in update.items():
            dest = self.M[name]
            if isinstance(g, SparseTensor):
                dest.reshape(-1)[g.indices] -= g.values
            elif hasattr(g, "to_dense"):  # quantised payloads (extensions)
                dest -= g.to_dense()
            else:
                dest -= g
        self.t += 1
        return self.t

    def model_difference(self, worker):
        vk = self.v[worker]
        out = OrderedDict()
        for name, m_layer in self.M.items():
            diff = m_layer - vk[name]
            if self.secondary is not None:
                mask = self.secondary.mask(diff)
                sent = encode_mask(diff, mask)
                # v_k advances only by what was actually sent (Eq. 6b).
                sent.add_into(vk[name])
            else:
                sent = encode_best(diff)
                np.copyto(vk[name], m_layer)  # v_k == M (Eq. 3)
            out[name] = sent
        self.prev[worker] = self.t
        return out
