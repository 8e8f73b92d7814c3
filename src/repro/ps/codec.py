"""Binary wire codec — the paper's ``encode()`` / ``decode()`` as real bytes.

The simulator accounts bytes analytically; this codec *produces* them, so
the threaded trainer (and any real transport) ships actual packed buffers:

* little-endian struct headers per message and per layer;
* float32 values, uint32 flat indices (COO), 2-bit packed ternary signs;
* layer names interned once per message (length-prefixed UTF-8).

Encoded sizes match the analytic accounting of ``repro.compression.coding``
up to the name table (which the analytic model folds into the fixed
per-layer header) — asserted by tests.

Format (version 1)::

    message  := magic u16 | version u8 | kind u8 | worker u32 | meta i64 |
                nlayers u16 | layer*
    layer    := name_len u16 | name bytes | tag u8 | body
    tag 0 (dense)   : ndim u8 | dims u32* | float32 data
    tag 1 (coo)     : ndim u8 | dims u32* | nnz u32 | uint32 idx* | float32 val*
    tag 2 (ternary) : ndim u8 | dims u32* | nnz u32 | scale f32 |
                      uint32 idx* | packed 2-bit signs
    tag 3 (bitmap)  : ndim u8 | dims u32* | nnz u32 | bitmap | float32 val*
"""

from __future__ import annotations

import struct
from collections import OrderedDict
from typing import Mapping

import numpy as np

from ..compression.coding import BitmapTensor, QuantizedSparseTensor, SparseTensor
from .messages import DiffMessage, GradientMessage, ModelMessage

__all__ = ["encode_message", "decode_message", "MAGIC"]

MAGIC = 0xD65  # "DGS"
_VERSION = 1
_KINDS = {GradientMessage: 0, DiffMessage: 1, ModelMessage: 2}
_KIND_NAMES = {0: "gradient", 1: "diff", 2: "model"}

_HEADER = struct.Struct("<HBBIq H")
_LAYER_HEAD = struct.Struct("<HB")  # name_len, tag  (name sits between)


def _pack_dims(shape: tuple[int, ...]) -> bytes:
    return struct.pack("<B", len(shape)) + struct.pack(f"<{len(shape)}I", *shape)


def _unpack_dims(buf: memoryview, off: int) -> tuple[tuple[int, ...], int]:
    (ndim,) = struct.unpack_from("<B", buf, off)
    off += 1
    dims = struct.unpack_from(f"<{ndim}I", buf, off)
    off += 4 * ndim
    return tuple(dims), off


def _pack_signs(signs: np.ndarray) -> bytes:
    """Pack int8 {-1,0,1} into 2 bits each (00=0, 01=+1, 10=−1)."""
    codes = np.where(signs > 0, 1, np.where(signs < 0, 2, 0)).astype(np.uint8)
    pad = (-len(codes)) % 4
    if pad:
        codes = np.concatenate([codes, np.zeros(pad, dtype=np.uint8)])
    quads = codes.reshape(-1, 4)
    packed = quads[:, 0] | (quads[:, 1] << 2) | (quads[:, 2] << 4) | (quads[:, 3] << 6)
    return packed.tobytes()


def _unpack_signs(raw: bytes, nnz: int) -> np.ndarray:
    packed = np.frombuffer(raw, dtype=np.uint8)
    codes = np.empty(len(packed) * 4, dtype=np.uint8)
    codes[0::4] = packed & 3
    codes[1::4] = (packed >> 2) & 3
    codes[2::4] = (packed >> 4) & 3
    codes[3::4] = (packed >> 6) & 3
    codes = codes[:nnz]
    return np.where(codes == 1, 1, np.where(codes == 2, -1, 0)).astype(np.int8)


def _encode_layer(name: str, layer) -> bytes:
    name_b = name.encode("utf-8")
    if isinstance(layer, SparseTensor):
        body = (
            _pack_dims(layer.shape)
            + struct.pack("<I", layer.nnz)
            + layer.indices.astype("<u4").tobytes()
            + layer.values.astype("<f4").tobytes()
        )
        tag = 1
    elif isinstance(layer, QuantizedSparseTensor):
        body = (
            _pack_dims(layer.shape)
            + struct.pack("<If", layer.nnz, layer.scale)
            + layer.indices.astype("<u4").tobytes()
            + _pack_signs(layer.signs)
        )
        tag = 2
    elif isinstance(layer, BitmapTensor):
        body = (
            _pack_dims(layer.shape)
            + struct.pack("<I", layer.nnz)
            + layer.bitmap.tobytes()
            + layer.values.astype("<f4").tobytes()
        )
        tag = 3
    elif isinstance(layer, np.ndarray):
        body = _pack_dims(layer.shape) + layer.astype("<f4").tobytes()
        tag = 0
    else:  # other payloads with to_dense (DenseTensor, TernaryTensor): ship f32
        dense = layer.to_dense()
        body = _pack_dims(dense.shape) + dense.astype("<f4").tobytes()
        tag = 0
    return _LAYER_HEAD.pack(len(name_b), tag) + name_b + body


def _decode_layer(buf: memoryview, off: int):
    name_len, tag = _LAYER_HEAD.unpack_from(buf, off)
    off += _LAYER_HEAD.size
    name = bytes(buf[off : off + name_len]).decode("utf-8")
    off += name_len
    shape, off = _unpack_dims(buf, off)
    n = int(np.prod(shape)) if shape else 1
    if tag == 0:
        data = np.frombuffer(buf, dtype="<f4", count=n, offset=off)
        off += 4 * n
        return name, data.reshape(shape), off
    if tag == 1:
        (nnz,) = struct.unpack_from("<I", buf, off)
        off += 4
        idx = np.frombuffer(buf, dtype="<u4", count=nnz, offset=off).astype(np.int64)
        off += 4 * nnz
        vals = np.frombuffer(buf, dtype="<f4", count=nnz, offset=off)
        off += 4 * nnz
        return name, SparseTensor(idx, vals, shape), off
    if tag == 2:
        nnz, scale = struct.unpack_from("<If", buf, off)
        off += 8
        idx = np.frombuffer(buf, dtype="<u4", count=nnz, offset=off).astype(np.int64)
        off += 4 * nnz
        nbytes = (2 * nnz + 7) // 8
        signs = _unpack_signs(bytes(buf[off : off + nbytes]), nnz)
        off += nbytes
        return name, QuantizedSparseTensor(idx, signs, float(scale), shape), off
    if tag == 3:
        (nnz,) = struct.unpack_from("<I", buf, off)
        off += 4
        bm_len = (n + 7) // 8
        bitmap = np.frombuffer(buf, dtype=np.uint8, count=bm_len, offset=off).copy()
        off += bm_len
        vals = np.frombuffer(buf, dtype="<f4", count=nnz, offset=off)
        off += 4 * nnz
        return name, BitmapTensor(bitmap, vals, shape), off
    raise ValueError(f"unknown layer tag {tag}")


def encode_message(msg: "GradientMessage | DiffMessage | ModelMessage") -> bytes:
    """Serialise a PS message to its wire representation."""
    kind = _KINDS.get(type(msg))
    if kind is None:
        raise TypeError(f"cannot encode {type(msg).__name__}")
    meta = msg.local_iteration if isinstance(msg, GradientMessage) else msg.server_timestamp
    parts = [
        _HEADER.pack(MAGIC, _VERSION, kind, msg.worker_id, meta, len(msg.payload))
    ]
    for name, layer in msg.payload.items():
        parts.append(_encode_layer(name, layer))
    return b"".join(parts)


def decode_message(raw: "bytes | memoryview"):
    """Inverse of :func:`encode_message`.

    Values come back as float32 views into ``raw`` with no copy, so they
    are read-only when ``raw`` is ``bytes`` and must not be written to.
    """
    buf = memoryview(raw)
    magic, version, kind, worker, meta, nlayers = _HEADER.unpack_from(buf, 0)
    if magic != MAGIC:
        raise ValueError("bad magic: not a DGS wire message")
    if version != _VERSION:
        raise ValueError(f"unsupported codec version {version}")
    off = _HEADER.size
    payload: "OrderedDict[str, object]" = OrderedDict()
    for _ in range(nlayers):
        name, layer, off = _decode_layer(buf, off)
        payload[name] = layer
    if kind == 0:
        return GradientMessage(worker, payload, meta)
    if kind == 1:
        return DiffMessage(worker, payload, meta, staleness=0)
    return ModelMessage(worker, payload, meta, staleness=0)
