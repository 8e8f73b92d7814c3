"""Synthetic dataset generators.

The paper evaluates on CIFAR-10 and ImageNet, neither of which is available
offline.  Per DESIGN.md §2 we substitute procedurally generated,
class-structured datasets that exercise the identical training pipeline:
multi-class image-shaped inputs, per-worker shards, train/validation split,
and a top-1 accuracy metric whose ordering across methods is meaningful.

Generation model for image datasets: each class draws a smooth random
"template" image; each sample is the template under a random affine-ish
deformation (shift + channel gain) plus Gaussian pixel noise.  The
``difficulty`` knob scales noise relative to template separation so that
reaching high accuracy requires genuine optimisation, not memorisation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Dataset",
    "make_blobs",
    "make_spirals",
    "make_image_classes",
    "synthetic_cifar10",
    "synthetic_imagenet",
]


@dataclass
class Dataset:
    """An in-memory supervised dataset with a held-out validation split."""

    x_train: np.ndarray
    y_train: np.ndarray
    x_val: np.ndarray
    y_val: np.ndarray
    num_classes: int
    name: str = "dataset"

    def __post_init__(self) -> None:
        if len(self.x_train) != len(self.y_train):
            raise ValueError("train inputs/targets length mismatch")
        if len(self.x_val) != len(self.y_val):
            raise ValueError("val inputs/targets length mismatch")

    @property
    def n_train(self) -> int:
        return len(self.x_train)

    @property
    def n_val(self) -> int:
        return len(self.x_val)

    @property
    def input_shape(self) -> tuple[int, ...]:
        return self.x_train.shape[1:]

    def shard(self, num_shards: int, shard_id: int) -> "Dataset":
        """Return the ``shard_id``-th of ``num_shards`` disjoint training shards.

        Validation data is shared by all shards (evaluation is global).
        """
        if not 0 <= shard_id < num_shards:
            raise ValueError(f"shard_id {shard_id} out of range for {num_shards} shards")
        idx = np.arange(self.n_train)[shard_id::num_shards]
        return Dataset(
            self.x_train[idx],
            self.y_train[idx],
            self.x_val,
            self.y_val,
            self.num_classes,
            name=f"{self.name}[shard {shard_id}/{num_shards}]",
        )


def _split(
    x: np.ndarray, y: np.ndarray, val_fraction: float, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Shuffle into train/val; inputs come out float32, the engine dtype."""
    x = x.astype(np.float32)
    n = len(x)
    perm = rng.permutation(n)
    n_val = max(1, int(round(n * val_fraction)))
    val, train = perm[:n_val], perm[n_val:]
    return x[train], y[train], x[val], y[val]


def make_blobs(
    n_samples: int = 1000,
    num_classes: int = 10,
    dim: int = 20,
    sep: float = 2.0,
    noise: float = 1.0,
    val_fraction: float = 0.2,
    seed: int = 0,
) -> Dataset:
    """Gaussian class clusters — the fastest dataset, used in unit tests."""
    rng = np.random.default_rng(seed)
    centers = rng.normal(0.0, sep, size=(num_classes, dim))
    y = rng.integers(0, num_classes, size=n_samples)
    x = centers[y] + rng.normal(0.0, noise, size=(n_samples, dim))
    xtr, ytr, xv, yv = _split(x, y, val_fraction, rng)
    return Dataset(xtr, ytr, xv, yv, num_classes, name="blobs")


def make_spirals(
    n_samples: int = 1000,
    num_classes: int = 3,
    noise: float = 0.1,
    turns: float = 1.5,
    val_fraction: float = 0.2,
    seed: int = 0,
) -> Dataset:
    """Interleaved 2-D spirals — a nonlinearly separable benchmark."""
    rng = np.random.default_rng(seed)
    y = rng.integers(0, num_classes, size=n_samples)
    t = rng.random(n_samples)
    radius = 0.2 + 0.8 * t
    angle = 2 * np.pi * (turns * t + y / num_classes)
    x = np.stack([radius * np.cos(angle), radius * np.sin(angle)], axis=1)
    x += rng.normal(0.0, noise, size=x.shape)
    xtr, ytr, xv, yv = _split(x, y, val_fraction, rng)
    return Dataset(xtr, ytr, xv, yv, num_classes, name="spirals")


def _smooth_template(
    rng: np.random.Generator, channels: int, size: int, smoothness: int = 3
) -> np.ndarray:
    """Draw a smooth random image by upsampling low-frequency noise."""
    coarse = rng.normal(0.0, 1.0, size=(channels, smoothness, smoothness))
    # Bilinear upsample via separable linear interpolation (vectorised).
    grid = np.linspace(0, smoothness - 1, size)
    lo = np.floor(grid).astype(int)
    hi = np.minimum(lo + 1, smoothness - 1)
    frac = grid - lo
    rows = coarse[:, lo, :] * (1 - frac)[None, :, None] + coarse[:, hi, :] * frac[None, :, None]
    img = rows[:, :, lo] * (1 - frac)[None, None, :] + rows[:, :, hi] * frac[None, None, :]
    return img


def make_image_classes(
    n_samples: int = 2000,
    num_classes: int = 10,
    channels: int = 3,
    size: int = 8,
    difficulty: float = 1.0,
    val_fraction: float = 0.2,
    seed: int = 0,
    name: str = "images",
) -> Dataset:
    """Class-template image dataset (the CIFAR/ImageNet stand-in)."""
    rng = np.random.default_rng(seed)
    templates = np.stack([_smooth_template(rng, channels, size) for _ in range(num_classes)])
    y = rng.integers(0, num_classes, size=n_samples)

    x = templates[y].copy()
    # Random spatial shift by up to 1 pixel (np.roll per-sample, vectorised
    # by grouping the nine possible shifts).
    shifts = rng.integers(-1, 2, size=(n_samples, 2))
    for dy in (-1, 0, 1):
        for dx in (-1, 0, 1):
            mask = (shifts[:, 0] == dy) & (shifts[:, 1] == dx)
            if mask.any() and (dy or dx):
                x[mask] = np.roll(x[mask], shift=(dy, dx), axis=(2, 3))
    # Per-sample channel gain and additive noise.
    gain = 1.0 + 0.1 * rng.normal(size=(n_samples, channels, 1, 1))
    x = x * gain + rng.normal(0.0, 0.35 * difficulty, size=x.shape)

    xtr, ytr, xv, yv = _split(x, y, val_fraction, rng)
    return Dataset(xtr, ytr, xv, yv, num_classes, name=name)


def synthetic_cifar10(
    n_samples: int = 2000, size: int = 8, difficulty: float = 1.0, seed: int = 0
) -> Dataset:
    """10-class RGB image dataset, the CIFAR-10 substitute (DESIGN.md §2)."""
    return make_image_classes(
        n_samples=n_samples,
        num_classes=10,
        channels=3,
        size=size,
        difficulty=difficulty,
        seed=seed,
        name="synthetic-cifar10",
    )


def synthetic_imagenet(
    n_samples: int = 6000,
    num_classes: int = 50,
    size: int = 8,
    difficulty: float = 1.0,
    seed: int = 0,
) -> Dataset:
    """Larger many-class image dataset, the ImageNet substitute (DESIGN.md §2)."""
    return make_image_classes(
        n_samples=n_samples,
        num_classes=num_classes,
        channels=3,
        size=size,
        difficulty=difficulty,
        seed=seed,
        name="synthetic-imagenet",
    )
