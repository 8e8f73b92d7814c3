"""Binary wire codec: roundtrips, size accounting, format validation."""

from collections import OrderedDict

import numpy as np
import pytest

from repro.compression import QuantizedSparseTensor, SparseTensor, encode_sparse
from repro.ps import DiffMessage, GradientMessage, ModelMessage
from repro.ps.codec import MAGIC, decode_message, encode_message, _pack_signs, _unpack_signs


def sparse_payload(rng):
    arr = rng.normal(size=(8, 9))
    arr[np.abs(arr) < 0.9] = 0.0
    return OrderedDict([("layer.w", encode_sparse(arr)), ("layer.b", encode_sparse(rng.normal(size=5)))])


class TestSignPacking:
    def test_roundtrip(self, rng):
        signs = rng.integers(-1, 2, size=101).astype(np.int8)
        assert np.array_equal(_unpack_signs(_pack_signs(signs), 101), signs)

    def test_packed_density(self):
        signs = np.ones(1000, dtype=np.int8)
        assert len(_pack_signs(signs)) == 250  # 2 bits each

    def test_empty(self):
        assert len(_unpack_signs(_pack_signs(np.zeros(0, dtype=np.int8)), 0)) == 0


class TestGradientRoundtrip:
    def test_sparse_payload(self, rng):
        msg = GradientMessage(3, sparse_payload(rng), 17)
        out = decode_message(encode_message(msg))
        assert isinstance(out, GradientMessage)
        assert out.worker_id == 3 and out.local_iteration == 17
        for name in msg.payload:
            a, b = msg.payload[name], out.payload[name]
            np.testing.assert_array_equal(a.indices, b.indices)
            np.testing.assert_allclose(a.values, b.values, rtol=1e-6)  # f32 wire
            assert a.shape == b.shape
            assert b.values.dtype == b.to_dense().dtype == np.float32

    def test_dense_payload(self, rng):
        payload = OrderedDict([("w", rng.normal(size=(4, 5)))])
        out = decode_message(encode_message(GradientMessage(0, payload, 0)))
        np.testing.assert_allclose(out.payload["w"], payload["w"], rtol=1e-6)
        # a float32 view of the frame bytes, not a widened copy
        assert out.payload["w"].dtype == np.float32 and not out.payload["w"].flags.writeable

    def test_quantized_payload(self, rng):
        idx = np.array([1, 5, 9], dtype=np.int64)
        signs = np.array([1, -1, 1], dtype=np.int8)
        payload = OrderedDict([("w", QuantizedSparseTensor(idx, signs, 0.25, (12,)))])
        out = decode_message(encode_message(GradientMessage(0, payload, 0)))
        q = out.payload["w"]
        np.testing.assert_array_equal(q.indices, idx)
        np.testing.assert_array_equal(q.signs, signs)
        assert q.scale == pytest.approx(0.25)

    def test_mixed_payload(self, rng):
        payload = OrderedDict([
            ("a", rng.normal(size=6)),
            ("b", encode_sparse(np.array([0.0, 1.5, 0.0]))),
        ])
        out = decode_message(encode_message(GradientMessage(1, payload, 2)))
        assert isinstance(out.payload["a"], np.ndarray)
        assert isinstance(out.payload["b"], SparseTensor)


class TestOtherMessageKinds:
    def test_diff_roundtrip(self, rng):
        msg = DiffMessage(2, sparse_payload(rng), server_timestamp=99, staleness=4)
        out = decode_message(encode_message(msg))
        assert isinstance(out, DiffMessage)
        assert out.server_timestamp == 99

    def test_model_roundtrip(self, rng):
        payload = OrderedDict([("w", rng.normal(size=(3, 3)))])
        msg = ModelMessage(1, payload, 7, 0)
        out = decode_message(encode_message(msg))
        assert isinstance(out, ModelMessage)
        np.testing.assert_allclose(out.payload["w"], payload["w"], rtol=1e-6)

    def test_unknown_type_rejected(self):
        with pytest.raises(TypeError):
            encode_message(object())


class TestWireSize:
    def test_matches_analytic_accounting(self, rng):
        """Measured bytes ≈ the analytic model: identical per-element costs,
        header differs only by the (small) name table."""
        payload = sparse_payload(rng)
        msg = GradientMessage(0, payload, 0)
        raw = encode_message(msg)
        analytic = msg.nbytes()
        names = sum(len(n.encode()) for n in payload)
        # elements cost exactly 8 bytes each in both models
        per_elem = sum(8 * t.nnz for t in payload.values())
        assert len(raw) >= per_elem
        assert abs(len(raw) - analytic) <= names + 64

    def test_sparse_wire_smaller_than_dense(self, rng):
        arr = rng.normal(size=1000)
        arr[np.abs(arr) < 2.0] = 0.0  # very sparse
        sparse = encode_message(GradientMessage(0, OrderedDict([("w", encode_sparse(arr))]), 0))
        dense = encode_message(GradientMessage(0, OrderedDict([("w", arr)]), 0))
        assert len(sparse) < len(dense) / 4


class TestValidation:
    def test_bad_magic(self):
        with pytest.raises(ValueError):
            decode_message(b"\x00" * 32)

    def test_truncated_raises(self, rng):
        raw = encode_message(GradientMessage(0, sparse_payload(rng), 0))
        with pytest.raises(Exception):
            decode_message(raw[: len(raw) // 2])
