"""Weight initialisation schemes.

Every scheme returns float32, the engine and wire dtype.  Random draws are
made in float64 and then rounded, so a seed's draw sequence does not
depend on the dtype.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["kaiming_uniform", "kaiming_normal", "xavier_uniform", "zeros", "ones"]


def _fan_in_out(shape: tuple[int, ...]) -> tuple[int, int]:
    if len(shape) == 2:  # Linear: (out, in)
        fan_out, fan_in = shape
    elif len(shape) == 4:  # Conv: (F, C, kh, kw)
        receptive = shape[2] * shape[3]
        fan_in = shape[1] * receptive
        fan_out = shape[0] * receptive
    else:
        fan_in = fan_out = int(np.prod(shape))
    return fan_in, fan_out


def kaiming_uniform(shape: tuple[int, ...], rng: np.random.Generator, gain: float = math.sqrt(2.0)) -> np.ndarray:
    """He/Kaiming uniform init (the ResNet default)."""
    fan_in, _ = _fan_in_out(shape)
    bound = gain * math.sqrt(3.0 / fan_in)
    return rng.uniform(-bound, bound, size=shape).astype(np.float32)


def kaiming_normal(shape: tuple[int, ...], rng: np.random.Generator, gain: float = math.sqrt(2.0)) -> np.ndarray:
    fan_in, _ = _fan_in_out(shape)
    std = gain / math.sqrt(fan_in)
    return rng.normal(0.0, std, size=shape).astype(np.float32)


def xavier_uniform(shape: tuple[int, ...], rng: np.random.Generator, gain: float = 1.0) -> np.ndarray:
    fan_in, fan_out = _fan_in_out(shape)
    bound = gain * math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=shape).astype(np.float32)


def zeros(shape: tuple[int, ...]) -> np.ndarray:
    return np.zeros(shape, dtype=np.float32)


def ones(shape: tuple[int, ...]) -> np.ndarray:
    return np.ones(shape, dtype=np.float32)
