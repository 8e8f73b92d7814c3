"""Structured-array autograd ops: convolution and pooling.

These carry hand-written backward passes (rather than being composed from
primitives) because the vectorised formulations below — a batched patch
matmul for convolution, im2col/col2im for pooling — are orders of
magnitude faster in Python than a loop over output pixels.
"""

from __future__ import annotations

import numpy as np

from .tensor import Tensor, is_grad_enabled

__all__ = ["im2col", "col2im", "conv2d", "max_pool2d", "avg_pool2d", "global_avg_pool2d"]


def _out_size(size: int, kernel: int, stride: int, pad: int) -> int:
    return (size + 2 * pad - kernel) // stride + 1


def _patches(x: np.ndarray, kh: int, kw: int, stride: int, pad: int) -> np.ndarray:
    """Zero-copy strided view of ``x`` (N, C, H, W) as (N, C, kh, kw, OH, OW)."""
    n, c, h, w = x.shape
    oh, ow = _out_size(h, kh, stride, pad), _out_size(w, kw, stride, pad)
    if pad > 0:
        x = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    sN, sC, sH, sW = x.strides
    return np.lib.stride_tricks.as_strided(
        x,
        shape=(n, c, kh, kw, oh, ow),
        strides=(sN, sC, sH, sW, sH * stride, sW * stride),
        writeable=False,
    )


def im2col(
    x: np.ndarray, kh: int, kw: int, stride: int = 1, pad: int = 0
) -> tuple[np.ndarray, int, int]:
    """Unfold ``x`` (N, C, H, W) into columns of shape (N*OH*OW, C*kh*kw)."""
    view = _patches(x, kh, kw, stride, pad)
    n, c, _, _, oh, ow = view.shape
    cols = view.transpose(0, 4, 5, 1, 2, 3).reshape(n * oh * ow, c * kh * kw)
    return np.ascontiguousarray(cols), oh, ow


def col2im(
    cols: np.ndarray,
    x_shape: tuple[int, int, int, int],
    kh: int,
    kw: int,
    stride: int = 1,
    pad: int = 0,
) -> np.ndarray:
    """Fold columns back to an image, summing overlapping contributions."""
    n, c, h, w = x_shape
    oh, ow = _out_size(h, kh, stride, pad), _out_size(w, kw, stride, pad)
    padded = np.zeros((n, c, h + 2 * pad, w + 2 * pad), dtype=cols.dtype)
    cols6 = cols.reshape(n, oh, ow, c, kh, kw).transpose(0, 3, 4, 5, 1, 2)
    for i in range(kh):
        i_max = i + stride * oh
        for j in range(kw):
            j_max = j + stride * ow
            padded[:, :, i:i_max:stride, j:j_max:stride] += cols6[:, :, i, j, :, :]
    if pad > 0:
        return padded[:, :, pad:-pad, pad:-pad]
    return padded


def conv2d(x: Tensor, weight: Tensor, bias: Tensor | None, stride: int = 1, pad: int = 0) -> Tensor:
    """2-D cross-correlation: x (N,C,H,W) * weight (F,C,kh,kw) -> (N,F,OH,OW).

    Forward is one batched matmul ``(F, C·kh·kw) @ (N, C·kh·kw, OH·OW)``,
    so the output is contiguous NCHW.  The input gradient needs no
    col2im: each kernel tap is one ``(OH·OW·N, F) @ (F, C)`` matmul added
    into a padded ``(H+2p, W+2p, N, C)`` buffer along its long trailing
    N·C axis.
    """
    n, c, h, w = x.shape
    f, c2, kh, kw = weight.shape
    if c != c2:
        raise ValueError(f"channel mismatch: input has {c}, kernel expects {c2}")
    view = _patches(x.data, kh, kw, stride, pad)
    oh, ow = view.shape[4:]
    cols = view.reshape(n, c * kh * kw, oh * ow)  # copies the strided view
    wmat = weight.data.reshape(f, -1)  # (F, C*kh*kw)
    out = wmat @ cols  # (N, F, OH*OW)
    if bias is not None:
        out += bias.data[:, None]
    out_data = out.reshape(n, f, oh, ow)

    parents = (x, weight) if bias is None else (x, weight, bias)
    result = Tensor(out_data)
    if is_grad_enabled() and any(p.requires_grad for p in parents):

        def backward(g: np.ndarray) -> None:
            gmat = g.reshape(n, f, oh * ow)
            if weight.requires_grad:
                gw = np.tensordot(gmat, cols, axes=([0, 2], [0, 2]))  # (F, C*kh*kw)
                weight._accumulate(gw.reshape(weight.shape))
            if bias is not None and bias.requires_grad:
                bias._accumulate(gmat.sum(axis=(0, 2)))
            if x.requires_grad:
                gtaps = g.transpose(2, 3, 0, 1).reshape(oh * ow * n, f)
                padded = np.zeros((h + 2 * pad, w + 2 * pad, n, c), dtype=g.dtype)
                for i in range(kh):
                    for j in range(kw):
                        tap = (gtaps @ weight.data[:, :, i, j]).reshape(oh, ow, n, c)
                        padded[i : i + stride * oh : stride, j : j + stride * ow : stride] += tap
                x._accumulate(padded[pad : pad + h, pad : pad + w].transpose(2, 3, 0, 1))

        result.requires_grad = True
        result._parents = parents
        result._backward = backward
    return result


def max_pool2d(x: Tensor, kernel: int, stride: int | None = None) -> Tensor:
    """Max pooling over (kernel × kernel) windows."""
    stride = stride or kernel
    n, c, h, w = x.shape
    cols, oh, ow = im2col(x.data, kernel, kernel, stride, 0)
    cols = cols.reshape(n * oh * ow, c, kernel * kernel)
    argmax = cols.argmax(axis=2)
    out = np.take_along_axis(cols, argmax[:, :, None], axis=2)[:, :, 0]
    out_data = out.reshape(n, oh, ow, c).transpose(0, 3, 1, 2)

    result = Tensor(out_data)
    if is_grad_enabled() and x.requires_grad:

        def backward(g: np.ndarray) -> None:
            gflat = g.transpose(0, 2, 3, 1).reshape(n * oh * ow, c)
            gcols = np.zeros((n * oh * ow, c, kernel * kernel), dtype=g.dtype)
            np.put_along_axis(gcols, argmax[:, :, None], gflat[:, :, None], axis=2)
            gcols = gcols.reshape(n * oh * ow, c * kernel * kernel)
            x._accumulate(col2im(gcols, (n, c, h, w), kernel, kernel, stride, 0))

        result.requires_grad = True
        result._parents = (x,)
        result._backward = backward
    return result


def avg_pool2d(x: Tensor, kernel: int, stride: int | None = None) -> Tensor:
    """Average pooling over (kernel × kernel) windows."""
    stride = stride or kernel
    n, c, h, w = x.shape
    cols, oh, ow = im2col(x.data, kernel, kernel, stride, 0)
    cols = cols.reshape(n * oh * ow, c, kernel * kernel)
    out = cols.mean(axis=2)
    out_data = out.reshape(n, oh, ow, c).transpose(0, 3, 1, 2)

    result = Tensor(out_data)
    if is_grad_enabled() and x.requires_grad:

        def backward(g: np.ndarray) -> None:
            gflat = g.transpose(0, 2, 3, 1).reshape(n * oh * ow, c)
            gcols = np.repeat(gflat[:, :, None] / (kernel * kernel), kernel * kernel, axis=2)
            gcols = gcols.reshape(n * oh * ow, c * kernel * kernel)
            x._accumulate(col2im(gcols, (n, c, h, w), kernel, kernel, stride, 0))

        result.requires_grad = True
        result._parents = (x,)
        result._backward = backward
    return result


def global_avg_pool2d(x: Tensor) -> Tensor:
    """Average over all spatial positions: (N,C,H,W) -> (N,C)."""
    return x.mean(axis=(2, 3))
