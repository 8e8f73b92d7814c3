"""Sparse/dense wire encoding with byte-accurate size accounting.

The paper's ``encode()`` packs nonzero gradients into coordinate (COO)
format; ``decode()`` unpacks them.  Wire sizes follow the deployment the
paper measures: 32-bit float values and 32-bit flat indices, so a sparse
layer costs ``nnz * 8`` bytes against ``n * 4`` dense — sparsification wins
whenever density < 50%.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .workspace import KernelWorkspace

__all__ = [
    "VALUE_BYTES",
    "VALUE_DTYPE",
    "INDEX_BYTES",
    "HEADER_BYTES",
    "SparseTensor",
    "DenseTensor",
    "BitmapTensor",
    "QuantizedSparseTensor",
    "encode_sparse",
    "encode_mask",
    "encode_indices",
    "encode_best",
    "dense_nbytes",
    "sparse_nbytes",
    "bitmap_nbytes",
]

VALUE_BYTES = 4  # float32 on the wire
VALUE_DTYPE = np.dtype(np.float32)  # the dtype those 4 bytes hold
INDEX_BYTES = 4  # uint32 flat index
HEADER_BYTES = 16  # layer id, nnz, shape descriptor, dtype tag


@dataclass(frozen=True)
class SparseTensor:
    """COO encoding of one layer's update: flat indices + values + shape.

    Values produced by the ``encode_*`` functions are float32 — the wire
    dtype the ``VALUE_BYTES = 4`` accounting (and the byte codec) assume —
    so what a worker decodes is exactly what the byte counts claim.
    Hand-constructed instances may carry any float dtype.
    """

    indices: np.ndarray  # (nnz,) intp flat indices, strictly increasing
    values: np.ndarray  # (nnz,) float32 from the encoders (VALUE_DTYPE)
    shape: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.indices.ndim != 1 or self.values.ndim != 1:
            raise ValueError("indices and values must be 1-D")
        if len(self.indices) != len(self.values):
            raise ValueError("indices/values length mismatch")

    @property
    def nnz(self) -> int:
        return len(self.indices)

    @property
    def density(self) -> float:
        n = int(np.prod(self.shape))
        return self.nnz / n if n else 0.0

    def nbytes(self) -> int:
        """Bytes on the wire for this layer (COO payload + header)."""
        return HEADER_BYTES + self.nnz * (VALUE_BYTES + INDEX_BYTES)

    def to_dense(self) -> np.ndarray:
        out = np.zeros(int(np.prod(self.shape)), dtype=self.values.dtype)
        out[self.indices] = self.values
        return out.reshape(self.shape)

    def add_into(self, dest: np.ndarray) -> None:
        """Accumulate this sparse update into ``dest`` in place."""
        if dest.shape != self.shape:
            raise ValueError(f"shape mismatch: {dest.shape} vs {self.shape}")
        dest.reshape(-1)[self.indices] += self.values


@dataclass(frozen=True)
class DenseTensor:
    """Dense fallback with the same payload interface as the sparse codecs.

    Returned by :func:`encode_best` when a layer is too dense for either
    sparse format — e.g. a model difference after very long staleness."""

    data: np.ndarray

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def nnz(self) -> int:
        return int(np.count_nonzero(self.data))

    @property
    def density(self) -> float:
        return self.nnz / self.data.size if self.data.size else 0.0

    def nbytes(self) -> int:
        return dense_nbytes(self.data.size)

    def to_dense(self) -> np.ndarray:
        return self.data.copy()

    def add_into(self, dest: np.ndarray) -> None:
        if dest.shape != self.data.shape:
            raise ValueError(f"shape mismatch: {dest.shape} vs {self.data.shape}")
        dest += self.data


@dataclass(frozen=True)
class BitmapTensor:
    """Bitmap-coded sparse layer: one presence bit per element + values.

    COO pays 8 bytes per nonzero; a bitmap pays n/8 bytes up front and 4
    per nonzero, so it wins above ~3% density.  The server's model
    difference ``G_k`` *densifies* with staleness (it accumulates other
    workers' updates), which is exactly the regime where this matters —
    :func:`encode_best` picks the cheaper of the two per layer.
    """

    bitmap: np.ndarray  # packed uint8, ceil(n/8) bytes
    values: np.ndarray  # (nnz,) float32 from the encoders, in flat index order
    shape: tuple[int, ...]

    def __post_init__(self) -> None:
        n = int(np.prod(self.shape))
        if len(self.bitmap) != (n + 7) // 8:
            raise ValueError("bitmap length does not match shape")

    @property
    def nnz(self) -> int:
        return len(self.values)

    @property
    def density(self) -> float:
        n = int(np.prod(self.shape))
        return self.nnz / n if n else 0.0

    def nbytes(self) -> int:
        return bitmap_nbytes(int(np.prod(self.shape)), self.nnz)

    def _flat_indices(self) -> np.ndarray:
        bits = np.unpackbits(self.bitmap, bitorder="little")
        return np.flatnonzero(bits[: int(np.prod(self.shape))])

    def to_dense(self) -> np.ndarray:
        out = np.zeros(int(np.prod(self.shape)), dtype=self.values.dtype)
        out[self._flat_indices()] = self.values
        return out.reshape(self.shape)

    def add_into(self, dest: np.ndarray) -> None:
        if dest.shape != self.shape:
            raise ValueError(f"shape mismatch: {dest.shape} vs {self.shape}")
        dest.reshape(-1)[self._flat_indices()] += self.values

    @staticmethod
    def from_mask(arr: np.ndarray, mask: np.ndarray) -> "BitmapTensor":
        flat_mask = mask.reshape(-1)
        packed = np.packbits(flat_mask.astype(np.uint8), bitorder="little")
        return BitmapTensor(packed, arr.reshape(-1)[flat_mask].astype(VALUE_DTYPE), arr.shape)


@dataclass(frozen=True)
class QuantizedSparseTensor:
    """Ternary-quantised sparse layer: COO indices + 2-bit signs + one scale.

    The §6 future-work combination of DGS and TernGrad: values at the
    selected coordinates are reduced to {−1, 0, +1}·scale, shrinking the
    per-element value cost from 32 bits to 2.
    """

    indices: np.ndarray  # (nnz,) flat indices
    signs: np.ndarray  # (nnz,) int8 in {-1, 0, 1}
    scale: float
    shape: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.indices) != len(self.signs):
            raise ValueError("indices/signs length mismatch")

    @property
    def nnz(self) -> int:
        return len(self.indices)

    def nbytes(self) -> int:
        return HEADER_BYTES + VALUE_BYTES + self.nnz * INDEX_BYTES + (2 * self.nnz + 7) // 8

    def to_dense(self) -> np.ndarray:
        values = self.signs * self.scale
        out = np.zeros(int(np.prod(self.shape)), dtype=values.dtype)
        out[self.indices] = values
        return out.reshape(self.shape)

    def add_into(self, dest: np.ndarray) -> None:
        if dest.shape != self.shape:
            raise ValueError(f"shape mismatch: {dest.shape} vs {self.shape}")
        dest.reshape(-1)[self.indices] += self.signs * self.scale


def _gather_values(
    flat: np.ndarray, idx: np.ndarray, workspace: "KernelWorkspace | None"
) -> np.ndarray:
    """``flat[idx]`` as a fresh float32 wire-value array.

    With a workspace, the pre-cast gather lands in reusable scratch so
    only the returned float32 array is allocated.
    """
    if workspace is None or flat.dtype == VALUE_DTYPE:
        return flat[idx].astype(VALUE_DTYPE)
    staged = workspace.scratch("enc.gather", idx.size, flat.dtype)
    np.take(flat, idx, out=staged)
    return staged.astype(VALUE_DTYPE)


def encode_sparse(arr: np.ndarray, workspace: "KernelWorkspace | None" = None) -> SparseTensor:
    """COO-encode the nonzeros of ``arr`` (the paper's ``encode()``).

    Values are cast to float32 — the wire dtype the byte accounting
    assumes — at encode time.
    """
    flat = arr.reshape(-1)
    idx = np.flatnonzero(flat)
    return SparseTensor(idx, _gather_values(flat, idx, workspace), arr.shape)


def encode_mask(
    arr: np.ndarray, mask: np.ndarray, workspace: "KernelWorkspace | None" = None
) -> SparseTensor:
    """COO-encode ``arr`` at the positions selected by boolean ``mask``."""
    if mask.shape != arr.shape:
        raise ValueError("mask shape must match array shape")
    flat = arr.reshape(-1)
    idx = np.flatnonzero(mask.reshape(-1))
    return SparseTensor(idx, _gather_values(flat, idx, workspace), arr.shape)


def encode_indices(
    arr: np.ndarray,
    indices: np.ndarray,
    workspace: "KernelWorkspace | None" = None,
    assume_sorted: bool = False,
) -> SparseTensor:
    """COO-encode ``arr`` at the given flat ``indices`` (fused-select extract).

    The extract half of ``topk_select``: when a selection kernel already
    holds the chosen flat indices (e.g. straight out of ``argpartition``),
    this builds the wire tensor in O(nnz·log nnz) — no boolean mask, no
    O(n) ``flatnonzero`` scan.  Indices are sorted ascending to match
    :func:`encode_mask` output exactly; pass ``assume_sorted=True`` to
    skip the sort (the array is then used as-is, not copied).
    """
    flat = arr.reshape(-1)
    idx = np.asarray(indices)
    if not assume_sorted:
        idx = np.sort(idx)
    return SparseTensor(idx, _gather_values(flat, idx, workspace), arr.shape)


def encode_best(
    arr: np.ndarray, workspace: "KernelWorkspace | None" = None
) -> "SparseTensor | BitmapTensor | DenseTensor":
    """Encode with the cheapest of COO / bitmap / dense for this density.

    Used for the downstream model difference, whose density grows with
    staleness; the per-layer break-evens are nnz·8 (COO) vs n/8 + nnz·4
    (bitmap) vs n·4 (dense).
    """
    flat = arr.reshape(-1)
    n = flat.size
    if workspace is None:
        mask = flat != 0
    else:
        mask = np.not_equal(flat, 0, out=workspace.scratch("enc.nzmask", n, bool))
    nnz = int(mask.sum())
    coo = sparse_nbytes(nnz)
    bmp = bitmap_nbytes(n, nnz)
    dense = dense_nbytes(n)
    best = min(coo, bmp, dense)
    if best == coo:
        idx = np.flatnonzero(mask)
        return SparseTensor(idx, _gather_values(flat, idx, workspace), arr.shape)
    if best == bmp:
        return BitmapTensor.from_mask(arr, mask.reshape(arr.shape))
    return DenseTensor(arr.astype(VALUE_DTYPE))


def dense_nbytes(shape_or_size) -> int:
    """Wire bytes for a dense float32 tensor (+ header)."""
    n = int(np.prod(shape_or_size)) if not np.isscalar(shape_or_size) else int(shape_or_size)
    return HEADER_BYTES + n * VALUE_BYTES


def sparse_nbytes(nnz: int) -> int:
    """Wire bytes for a COO tensor with ``nnz`` entries (+ header)."""
    return HEADER_BYTES + nnz * (VALUE_BYTES + INDEX_BYTES)


def bitmap_nbytes(n: int, nnz: int) -> int:
    """Wire bytes for a bitmap-coded tensor: 1 bit/element + values."""
    return HEADER_BYTES + (n + 7) // 8 + nnz * VALUE_BYTES
