"""Convolution/pooling ops: im2col correctness, gradients, naive equivalence."""

import itertools

import numpy as np
import pytest

from repro.autograd import (
    Tensor,
    avg_pool2d,
    col2im,
    conv2d,
    global_avg_pool2d,
    gradcheck,
    im2col,
    max_pool2d,
)


def t(rng, *shape):
    return Tensor(rng.normal(size=shape), requires_grad=True)


def naive_conv2d(x, w, b, stride, pad):
    """Reference loop implementation of cross-correlation."""
    n, c, h, wd = x.shape
    f, _, kh, kw = w.shape
    if pad:
        x = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    oh = (h + 2 * pad - kh) // stride + 1
    ow = (wd + 2 * pad - kw) // stride + 1
    out = np.zeros((n, f, oh, ow))
    for ni in range(n):
        for fi in range(f):
            for i in range(oh):
                for j in range(ow):
                    patch = x[ni, :, i * stride : i * stride + kh, j * stride : j * stride + kw]
                    out[ni, fi, i, j] = (patch * w[fi]).sum() + (b[fi] if b is not None else 0.0)
    return out


class TestIm2Col:
    def test_output_shape(self, rng):
        x = rng.normal(size=(2, 3, 5, 5))
        cols, oh, ow = im2col(x, 3, 3, stride=1, pad=0)
        assert (oh, ow) == (3, 3)
        assert cols.shape == (2 * 9, 3 * 9)

    def test_stride_and_pad(self, rng):
        x = rng.normal(size=(1, 2, 6, 6))
        cols, oh, ow = im2col(x, 3, 3, stride=2, pad=1)
        assert (oh, ow) == (3, 3)

    def test_first_patch_content(self, rng):
        x = rng.normal(size=(1, 1, 4, 4))
        cols, _, _ = im2col(x, 2, 2, 1, 0)
        np.testing.assert_allclose(cols[0], x[0, 0, :2, :2].reshape(-1))

    def test_col2im_adjointness(self, rng):
        """col2im is the transpose of im2col: <im2col(x), y> == <x, col2im(y)>."""
        x = rng.normal(size=(2, 3, 5, 5))
        cols, oh, ow = im2col(x, 3, 3, stride=2, pad=1)
        y = rng.normal(size=cols.shape)
        lhs = float((cols * y).sum())
        back = col2im(y, x.shape, 3, 3, stride=2, pad=1)
        rhs = float((x * back).sum())
        assert lhs == pytest.approx(rhs, rel=1e-10)


class TestConv2d:
    @pytest.mark.parametrize(
        "stride,pad,dtype",
        [
            pytest.param(1, 0, np.float64, id="1-0"),
            pytest.param(1, 1, np.float64, id="1-1"),
            pytest.param(2, 1, np.float64, id="2-1"),
            pytest.param(2, 0, np.float64, id="2-0"),
            pytest.param(2, 1, np.float32, id="2-1-float32"),
        ],
    )
    def test_matches_naive(self, rng, stride, pad, dtype):
        x, w, b = (rng.normal(size=s).astype(dtype) for s in ((2, 3, 6, 6), (4, 3, 3, 3), (4,)))
        out = conv2d(Tensor(x), Tensor(w), Tensor(b), stride=stride, pad=pad)
        # The reference runs in float64 on the same (possibly float32) inputs.
        expected = naive_conv2d(*(a.astype(np.float64) for a in (x, w, b)), stride, pad)
        assert out.dtype == dtype and out.data.flags.c_contiguous
        if dtype == np.float64:
            np.testing.assert_allclose(out.data, expected, atol=1e-12)
        else:
            np.testing.assert_allclose(out.data, expected, rtol=1e-5)

    def test_no_bias(self, rng):
        x, w = t(rng, 1, 2, 4, 4), t(rng, 3, 2, 3, 3)
        out = conv2d(x, w, None, stride=1, pad=0)
        expected = naive_conv2d(x.data, w.data, None, 1, 0)
        np.testing.assert_allclose(out.data, expected, atol=1e-12)

    def test_channel_mismatch_raises(self, rng):
        with pytest.raises(ValueError):
            conv2d(t(rng, 1, 2, 4, 4), t(rng, 3, 5, 3, 3), None)

    @pytest.mark.parametrize(
        "kernel,stride,pad,size",
        [
            pytest.param(*case, id="k{}-s{}-p{}-h{}".format(*case))
            for case in itertools.product((1, 3), (1, 2), (0, 1), (5, 6))
        ],
    )
    def test_gradcheck_all_inputs(self, rng, kernel, stride, pad, size):
        """Covers (H + 2p - k) % s != 0, where the last rows get no gradient."""
        x = t(rng, 2, 2, size, size)
        w = t(rng, 3, 2, kernel, kernel)
        b = t(rng, 3)
        assert gradcheck(
            lambda x, w, b: (conv2d(x, w, b, stride=stride, pad=pad) ** 2).sum(),
            [x, w, b],
            atol=1e-4,
        )

    def test_no_tape_without_grad(self, rng):
        x = Tensor(rng.normal(size=(1, 1, 4, 4)))
        w = Tensor(rng.normal(size=(1, 1, 3, 3)))
        out = conv2d(x, w, None)
        assert not out.requires_grad


class TestPooling:
    def test_max_pool_values(self):
        x = Tensor(np.arange(16.0).reshape(1, 1, 4, 4), requires_grad=True)
        out = max_pool2d(x, 2)
        np.testing.assert_allclose(out.data[0, 0], [[5, 7], [13, 15]])

    def test_max_pool_grad_routes_to_max(self):
        x = Tensor(np.arange(16.0).reshape(1, 1, 4, 4), requires_grad=True)
        max_pool2d(x, 2).sum().backward()
        expected = np.zeros((4, 4))
        expected[1, 1] = expected[1, 3] = expected[3, 1] = expected[3, 3] = 1.0
        np.testing.assert_allclose(x.grad[0, 0], expected)

    def test_max_pool_gradcheck(self, rng):
        x = Tensor(rng.normal(size=(2, 2, 4, 4)) * 5, requires_grad=True)
        assert gradcheck(lambda x: (max_pool2d(x, 2) ** 2).sum(), [x], atol=1e-4)

    def test_avg_pool_values(self):
        x = Tensor(np.arange(16.0).reshape(1, 1, 4, 4), requires_grad=True)
        out = avg_pool2d(x, 2)
        np.testing.assert_allclose(out.data[0, 0], [[2.5, 4.5], [10.5, 12.5]])

    def test_avg_pool_gradcheck(self, rng):
        x = t(rng, 1, 3, 4, 4)
        assert gradcheck(lambda x: (avg_pool2d(x, 2) ** 2).sum(), [x])

    def test_global_avg_pool(self, rng):
        x = t(rng, 2, 3, 4, 4)
        out = global_avg_pool2d(x)
        assert out.shape == (2, 3)
        np.testing.assert_allclose(out.data, x.data.mean(axis=(2, 3)))
        assert gradcheck(lambda x: (global_avg_pool2d(x) ** 2).sum(), [x])
