"""Reverse-mode automatic differentiation over NumPy arrays.

This is the computational substrate for the reproduction: the paper trains
deep networks with PyTorch; offline we provide an equivalent tape-based
autograd engine.  A :class:`Tensor` wraps an ``np.ndarray`` and records the
operations applied to it; :meth:`Tensor.backward` walks the tape in reverse
topological order accumulating gradients.

Design notes (following the HPC-Python guides):

* every op is vectorised — there are no per-element Python loops;
* gradients are accumulated **in place** (``+=``) into preallocated buffers;
* broadcasting is supported through :func:`_unbroadcast`, which sums a
  gradient back down to the shape of the input it flowed from;
* the dtype follows the arrays: a floating ``ndarray`` keeps its dtype,
  anything else (Python scalars, lists, integer arrays) becomes float32,
  and a scalar operand takes the dtype of the tensor it meets — so a
  float32 model stays float32 and a float64 one (gradchecks) stays float64.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

import numpy as np

__all__ = ["Tensor", "no_grad", "is_grad_enabled"]

_GRAD_ENABLED = True


class no_grad:
    """Context manager that disables tape recording (for eval loops)."""

    def __enter__(self) -> "no_grad":
        global _GRAD_ENABLED
        self._prev = _GRAD_ENABLED
        _GRAD_ENABLED = False
        return self

    def __exit__(self, *exc: object) -> None:
        global _GRAD_ENABLED
        _GRAD_ENABLED = self._prev


def is_grad_enabled() -> bool:
    """Return whether operations are currently recorded on the tape."""
    return _GRAD_ENABLED


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape`` (inverse of NumPy broadcasting)."""
    if grad.shape == shape:
        return grad
    # Remove leading broadcast axes.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Collapse axes that were size-1 in the original shape.
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _as_array(data: "Tensor | np.ndarray | float | int | list") -> np.ndarray:
    if isinstance(data, Tensor):
        return data.data
    if isinstance(data, (np.ndarray, np.floating)) and data.dtype.kind == "f":
        return np.asarray(data)
    return np.asarray(data, dtype=np.float32)


class Tensor:
    """A NumPy-backed tensor participating in reverse-mode autodiff."""

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents", "name")

    __array_priority__ = 1000  # make ndarray defer to Tensor in mixed ops

    def __init__(
        self,
        data: "np.ndarray | float | int | list | Tensor",
        requires_grad: bool = False,
        name: str | None = None,
    ) -> None:
        self.data: np.ndarray = _as_array(data)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad) and _GRAD_ENABLED
        self._backward: Callable[[np.ndarray], None] | None = None
        self._parents: tuple[Tensor, ...] = ()
        self.name = name

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor({np.array2string(self.data, precision=4, threshold=8)}{grad_flag})"

    def numpy(self) -> np.ndarray:
        """Return the underlying array (no copy)."""
        return self.data

    def item(self) -> float:
        return float(self.data.reshape(-1)[0]) if self.data.size == 1 else float(self.data)

    def detach(self) -> "Tensor":
        """Return a new tensor sharing data but cut from the tape."""
        return Tensor(self.data, requires_grad=False)

    def zero_grad(self) -> None:
        self.grad = None

    def _operand(self, other) -> "Tensor":
        """``other`` as a Tensor; a scalar or non-float operand takes our dtype.

        Under NEP 50 a float64 0-d array is a strong type, so ``x * 0.5``
        lifted naively would silently promote a float32 ``x`` to float64.
        """
        if isinstance(other, Tensor):
            return other
        if isinstance(other, np.ndarray) and other.ndim and other.dtype.kind == "f":
            return Tensor(other)
        return Tensor(np.asarray(other, dtype=self.data.dtype))

    # ------------------------------------------------------------------
    # Tape machinery
    # ------------------------------------------------------------------
    def _make(
        self,
        data: np.ndarray,
        parents: Sequence["Tensor"],
        backward: Callable[[np.ndarray], None],
    ) -> "Tensor":
        out = Tensor(data)
        if _GRAD_ENABLED and any(p.requires_grad for p in parents):
            out.requires_grad = True
            out._parents = tuple(parents)
            out._backward = backward
        return out

    def _accumulate(self, grad: np.ndarray) -> None:
        if self.grad is None:
            # Copy: the incoming buffer may be a read-only broadcast view or
            # shared with another consumer of the same upstream gradient.
            self.grad = np.array(grad, dtype=self.data.dtype)
        else:
            self.grad += grad

    def backward(self, grad: "np.ndarray | Tensor | None" = None) -> None:
        """Backpropagate from this tensor through the recorded tape."""
        if not self.requires_grad:
            raise RuntimeError("backward() called on a tensor that does not require grad")
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError("grad must be supplied for non-scalar outputs")
            grad = np.ones_like(self.data)
        elif isinstance(grad, Tensor):
            grad = grad.data
        grad = np.asarray(grad, dtype=self.data.dtype)

        # Reverse topological order over the tape.
        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if p.requires_grad and id(p) not in visited:
                    stack.append((p, False))

        self._accumulate(grad)
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)
                # Free intermediate grads eagerly unless they are leaves.
                if node._parents and node is not self:
                    pass  # keep grads: some consumers (grad checks) inspect them

    # ------------------------------------------------------------------
    # Elementwise arithmetic
    # ------------------------------------------------------------------
    def __add__(self, other) -> "Tensor":
        other = self._operand(other)
        out_data = self.data + other.data

        def backward(g: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(g, self.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(g, other.shape))

        return self._make(out_data, (self, other), backward)

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        def backward(g: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(-g)

        return self._make(-self.data, (self,), backward)

    def __sub__(self, other) -> "Tensor":
        other = self._operand(other)
        out_data = self.data - other.data

        def backward(g: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(g, self.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(-g, other.shape))

        return self._make(out_data, (self, other), backward)

    def __rsub__(self, other) -> "Tensor":
        return self._operand(other) - self

    def __mul__(self, other) -> "Tensor":
        other = self._operand(other)
        out_data = self.data * other.data

        def backward(g: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(g * other.data, self.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(g * self.data, other.shape))

        return self._make(out_data, (self, other), backward)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Tensor":
        other = self._operand(other)
        out_data = self.data / other.data

        def backward(g: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(g / other.data, self.shape))
            if other.requires_grad:
                other._accumulate(
                    _unbroadcast(-g * self.data / (other.data * other.data), other.shape)
                )

        return self._make(out_data, (self, other), backward)

    def __rtruediv__(self, other) -> "Tensor":
        return self._operand(other) / self

    def __pow__(self, exponent: float) -> "Tensor":
        if not np.isscalar(exponent):
            raise TypeError("only scalar exponents are supported")
        if isinstance(exponent, np.generic):  # a numpy scalar would set the dtype
            exponent = exponent.item()
        out_data = self.data**exponent

        def backward(g: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(g * exponent * self.data ** (exponent - 1))

        return self._make(out_data, (self,), backward)

    # ------------------------------------------------------------------
    # Matrix / reduction ops
    # ------------------------------------------------------------------
    def matmul(self, other: "Tensor") -> "Tensor":
        other = self._operand(other)
        out_data = self.data @ other.data

        def backward(g: np.ndarray) -> None:
            a, b = self.data, other.data
            if self.requires_grad:
                if b.ndim == 1:
                    ga = np.outer(g, b) if a.ndim == 2 else g[..., None] * b
                else:
                    ga = g @ np.swapaxes(b, -1, -2)
                self._accumulate(_unbroadcast(ga, self.shape))
            if other.requires_grad:
                if a.ndim == 1:
                    gb = np.outer(a, g) if b.ndim == 2 else a[..., None] * g
                else:
                    gb = np.swapaxes(a, -1, -2) @ g
                other._accumulate(_unbroadcast(gb, other.shape))

        return self._make(out_data, (self, other), backward)

    __matmul__ = matmul

    def sum(self, axis: int | tuple[int, ...] | None = None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(g: np.ndarray) -> None:
            if not self.requires_grad:
                return
            if axis is None:
                self._accumulate(np.broadcast_to(g, self.shape))
            else:
                if not keepdims:
                    axes = (axis,) if isinstance(axis, int) else axis
                    g = np.expand_dims(g, tuple(a % self.ndim for a in axes))
                self._accumulate(np.broadcast_to(g, self.shape))

        return self._make(out_data, (self,), backward)

    def mean(self, axis: int | tuple[int, ...] | None = None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            n = self.data.size
        else:
            axes = (axis,) if isinstance(axis, int) else axis
            n = int(np.prod([self.shape[a % self.ndim] for a in axes]))
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / n)

    def max(self, axis: int | None = None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.max(axis=axis, keepdims=keepdims)

        def backward(g: np.ndarray) -> None:
            if not self.requires_grad:
                return
            if axis is None:
                mask = (self.data == out_data).astype(self.data.dtype)
                mask /= mask.sum()
                self._accumulate(mask * g)
            else:
                expanded = out_data if keepdims else np.expand_dims(out_data, axis)
                mask = (self.data == expanded).astype(self.data.dtype)
                mask /= mask.sum(axis=axis, keepdims=True)
                gexp = g if keepdims else np.expand_dims(g, axis)
                self._accumulate(mask * gexp)

        return self._make(out_data, (self,), backward)

    # ------------------------------------------------------------------
    # Nonlinearities
    # ------------------------------------------------------------------
    def relu(self) -> "Tensor":
        mask = self.data > 0
        out_data = np.where(mask, self.data, 0.0)

        def backward(g: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(g * mask)

        return self._make(out_data, (self,), backward)

    def exp(self) -> "Tensor":
        out_data = np.exp(self.data)

        def backward(g: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(g * out_data)

        return self._make(out_data, (self,), backward)

    def log(self) -> "Tensor":
        out_data = np.log(self.data)

        def backward(g: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(g / self.data)

        return self._make(out_data, (self,), backward)

    def tanh(self) -> "Tensor":
        out_data = np.tanh(self.data)

        def backward(g: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(g * (1.0 - out_data * out_data))

        return self._make(out_data, (self,), backward)

    def sigmoid(self) -> "Tensor":
        out_data = 1.0 / (1.0 + np.exp(-self.data))

        def backward(g: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(g * out_data * (1.0 - out_data))

        return self._make(out_data, (self,), backward)

    def sqrt(self) -> "Tensor":
        return self**0.5

    # ------------------------------------------------------------------
    # Shape ops
    # ------------------------------------------------------------------
    def reshape(self, *shape: int) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        out_data = self.data.reshape(shape)
        in_shape = self.shape

        def backward(g: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(g.reshape(in_shape))

        return self._make(out_data, (self,), backward)

    def transpose(self, *axes: int) -> "Tensor":
        if not axes:
            axes = tuple(reversed(range(self.ndim)))
        elif len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        out_data = self.data.transpose(axes)
        inv = np.argsort(axes)

        def backward(g: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(g.transpose(inv))

        return self._make(out_data, (self,), backward)

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def __getitem__(self, idx) -> "Tensor":
        out_data = self.data[idx]

        def backward(g: np.ndarray) -> None:
            if self.requires_grad:
                full = np.zeros_like(self.data)
                np.add.at(full, idx, g)
                self._accumulate(full)

        return self._make(out_data, (self,), backward)

    def pad2d(self, pad: int) -> "Tensor":
        """Zero-pad the last two axes symmetrically by ``pad``."""
        if pad == 0:
            return self
        width = [(0, 0)] * (self.ndim - 2) + [(pad, pad), (pad, pad)]
        out_data = np.pad(self.data, width)
        sl = tuple([slice(None)] * (self.ndim - 2) + [slice(pad, -pad), slice(pad, -pad)])

        def backward(g: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(g[sl])

        return self._make(out_data, (self,), backward)

    @staticmethod
    def concat(tensors: Sequence["Tensor"], axis: int = 0) -> "Tensor":
        arrays = [t.data for t in tensors]
        out_data = np.concatenate(arrays, axis=axis)
        sizes = [a.shape[axis] for a in arrays]
        offsets = np.cumsum([0] + sizes)

        def backward(g: np.ndarray) -> None:
            for t, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
                if t.requires_grad:
                    sl = [slice(None)] * g.ndim
                    sl[axis] = slice(int(start), int(stop))
                    t._accumulate(g[tuple(sl)])

        out = Tensor(out_data)
        if _GRAD_ENABLED and any(t.requires_grad for t in tensors):
            out.requires_grad = True
            out._parents = tuple(tensors)
            out._backward = backward
        return out

    # ------------------------------------------------------------------
    # Composite helpers used by the NN layer library
    # ------------------------------------------------------------------
    def logsumexp(self, axis: int = -1, keepdims: bool = False) -> "Tensor":
        m = self.max(axis=axis, keepdims=True).detach()
        shifted = self - m
        lse = shifted.exp().sum(axis=axis, keepdims=True).log() + m
        if not keepdims:
            lse = lse.reshape(tuple(s for i, s in enumerate(lse.shape) if i != axis % self.ndim))
        return lse

    def softmax(self, axis: int = -1) -> "Tensor":
        m = self.max(axis=axis, keepdims=True).detach()
        e = (self - m).exp()
        return e / e.sum(axis=axis, keepdims=True)


def _tensor_factory(fn):
    def wrapper(*args, requires_grad: bool = False, **kwargs) -> Tensor:
        kwargs.setdefault("dtype", np.float32)
        return Tensor(fn(*args, **kwargs), requires_grad=requires_grad)

    wrapper.__name__ = fn.__name__
    return wrapper


zeros = _tensor_factory(np.zeros)
ones = _tensor_factory(np.ones)
