"""Batch normalisation (1-D and 2-D) with running statistics."""

from __future__ import annotations

import numpy as np

from ..autograd import Tensor
from . import init
from .module import Module, Parameter

__all__ = ["BatchNorm1d", "BatchNorm2d", "LayerNorm", "GroupNorm"]


class _BatchNorm(Module):
    """Shared batchnorm core; subclasses define the reduction axes."""

    _axes: tuple[int, ...] = (0,)

    def __init__(self, num_features: int, eps: float = 1e-5, momentum: float = 0.1) -> None:
        super().__init__()
        self.num_features = num_features
        self.eps = eps
        self.momentum = momentum
        self.weight = Parameter(init.ones((num_features,)))
        self.bias = Parameter(init.zeros((num_features,)))
        self.register_buffer("running_mean", init.zeros((num_features,)))
        self.register_buffer("running_var", init.ones((num_features,)))

    def _reshape_stats(self, arr: np.ndarray, ndim: int) -> np.ndarray:
        shape = [1] * ndim
        shape[1] = self.num_features
        return arr.reshape(shape)

    def forward(self, x: Tensor) -> Tensor:
        axes = self._axes
        if self.training:
            mean = x.mean(axis=axes, keepdims=True)
            var = ((x - mean) ** 2).mean(axis=axes, keepdims=True)
            # Update running stats (outside the tape).
            m = self.momentum
            n = int(np.prod([x.shape[a] for a in axes]))
            unbias = n / max(n - 1, 1)
            new_mean = (1 - m) * self._buffers["running_mean"] + m * mean.data.reshape(-1)
            new_var = (1 - m) * self._buffers["running_var"] + m * unbias * var.data.reshape(-1)
            self.set_buffer("running_mean", new_mean)
            self.set_buffer("running_var", new_var)
            xhat = (x - mean) / (var + self.eps) ** 0.5
        else:
            mean = Tensor(self._reshape_stats(self._buffers["running_mean"], x.ndim))
            var = Tensor(self._reshape_stats(self._buffers["running_var"], x.ndim))
            xhat = (x - mean) / (var + self.eps) ** 0.5
        stat_shape = [1] * x.ndim
        stat_shape[1] = self.num_features
        w = self.weight.reshape(*stat_shape)
        b = self.bias.reshape(*stat_shape)
        return xhat * w + b


class BatchNorm1d(_BatchNorm):
    """Normalise (N, C) activations over the batch axis."""

    _axes = (0,)

    def forward(self, x: Tensor) -> Tensor:
        if x.ndim != 2:
            raise ValueError(f"BatchNorm1d expects (N, C), got shape {x.shape}")
        return super().forward(x)


class BatchNorm2d(_BatchNorm):
    """Normalise (N, C, H, W) activations over batch and spatial axes."""

    _axes = (0, 2, 3)

    def forward(self, x: Tensor) -> Tensor:
        if x.ndim != 4:
            raise ValueError(f"BatchNorm2d expects (N, C, H, W), got shape {x.shape}")
        return super().forward(x)


class LayerNorm(Module):
    """Normalise over the trailing feature axis — batch-size independent.

    Unlike BatchNorm it carries no running statistics, so it behaves
    identically in train and eval mode and is robust to the tiny per-worker
    batches of high-worker-count experiments.
    """

    def __init__(self, num_features: int, eps: float = 1e-5) -> None:
        super().__init__()
        self.num_features = num_features
        self.eps = eps
        self.weight = Parameter(init.ones((num_features,)))
        self.bias = Parameter(init.zeros((num_features,)))

    def forward(self, x: Tensor) -> Tensor:
        if x.shape[-1] != self.num_features:
            raise ValueError(
                f"LayerNorm({self.num_features}) got trailing dim {x.shape[-1]}"
            )
        mean = x.mean(axis=-1, keepdims=True)
        var = ((x - mean) ** 2).mean(axis=-1, keepdims=True)
        xhat = (x - mean) / (var + self.eps) ** 0.5
        return xhat * self.weight + self.bias


class GroupNorm(Module):
    """Normalise (N, C, H, W) within channel groups (Wu & He 2018)."""

    def __init__(self, num_groups: int, num_channels: int, eps: float = 1e-5) -> None:
        super().__init__()
        if num_channels % num_groups != 0:
            raise ValueError(f"{num_channels} channels not divisible by {num_groups} groups")
        self.num_groups = num_groups
        self.num_channels = num_channels
        self.eps = eps
        self.weight = Parameter(init.ones((num_channels,)))
        self.bias = Parameter(init.zeros((num_channels,)))

    def forward(self, x: Tensor) -> Tensor:
        if x.ndim != 4 or x.shape[1] != self.num_channels:
            raise ValueError(
                f"GroupNorm expects (N, {self.num_channels}, H, W), got {x.shape}"
            )
        n, c, h, w = x.shape
        g = self.num_groups
        grouped = x.reshape(n, g, (c // g) * h * w)
        mean = grouped.mean(axis=2, keepdims=True)
        var = ((grouped - mean) ** 2).mean(axis=2, keepdims=True)
        xhat = ((grouped - mean) / (var + self.eps) ** 0.5).reshape(n, c, h, w)
        return xhat * self.weight.reshape(1, c, 1, 1) + self.bias.reshape(1, c, 1, 1)
