"""Module base class: parameter registration, train/eval mode, state dicts."""

from __future__ import annotations

from collections import OrderedDict
from typing import Iterator

import numpy as np

from ..autograd import Tensor

__all__ = ["Module", "Parameter", "Sequential"]


class Parameter(Tensor):
    """A trainable tensor (always requires grad)."""

    def __init__(self, data, name: str | None = None) -> None:
        super().__init__(data, requires_grad=True, name=name)


class Module:
    """Base class for all network components.

    Submodules and parameters assigned as attributes are auto-registered,
    mirroring the PyTorch convention the paper's implementation relied on.
    """

    def __init__(self) -> None:
        object.__setattr__(self, "_parameters", OrderedDict())
        object.__setattr__(self, "_modules", OrderedDict())
        object.__setattr__(self, "_buffers", OrderedDict())
        object.__setattr__(self, "training", True)

    def __setattr__(self, name: str, value) -> None:
        if isinstance(value, Parameter):
            self._parameters[name] = value
        elif isinstance(value, Module):
            self._modules[name] = value
        object.__setattr__(self, name, value)

    def register_buffer(self, name: str, value: np.ndarray) -> None:
        """Register non-trainable state (e.g. BatchNorm running stats)."""
        self._buffers[name] = value
        object.__setattr__(self, name, value)

    def set_buffer(self, name: str, value: np.ndarray) -> None:
        if name not in self._buffers:
            raise KeyError(name)
        self._buffers[name] = value
        object.__setattr__(self, name, value)

    # ------------------------------------------------------------------
    def forward(self, *args, **kwargs):
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

    # ------------------------------------------------------------------
    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Parameter]]:
        for name, p in self._parameters.items():
            yield (f"{prefix}{name}", p)
        for mod_name, mod in self._modules.items():
            yield from mod.named_parameters(prefix=f"{prefix}{mod_name}.")

    def parameters(self) -> list[Parameter]:
        return [p for _, p in self.named_parameters()]

    def named_buffers(self, prefix: str = "") -> Iterator[tuple[str, np.ndarray]]:
        for name in self._buffers:
            yield (f"{prefix}{name}", self._buffers[name])
        for mod_name, mod in self._modules.items():
            yield from mod.named_buffers(prefix=f"{prefix}{mod_name}.")

    def modules(self) -> Iterator["Module"]:
        yield self
        for mod in self._modules.values():
            yield from mod.modules()

    def num_parameters(self) -> int:
        return sum(p.size for p in self.parameters())

    # ------------------------------------------------------------------
    def train(self, mode: bool = True) -> "Module":
        for m in self.modules():
            object.__setattr__(m, "training", mode)
        return self

    def eval(self) -> "Module":
        return self.train(False)

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.zero_grad()

    def to(self, dtype: "np.dtype | type | str") -> "Module":
        """Recast every parameter and buffer to ``dtype`` (e.g. float64 for gradchecks)."""
        for p in self.parameters():
            p.data = p.data.astype(dtype)  # repro: noqa TEN001 — dtype recast, not an update
            p.grad = None
        for m in self.modules():
            for name, value in list(m._buffers.items()):
                m.set_buffer(name, value.astype(dtype))
        return self

    # ------------------------------------------------------------------
    def state_dict(self) -> "OrderedDict[str, np.ndarray]":
        state: OrderedDict[str, np.ndarray] = OrderedDict()
        for name, p in self.named_parameters():
            state[name] = p.data.copy()
        for name, b in self.named_buffers():
            state[f"buffer:{name}"] = np.array(b, copy=True)
        return state

    def load_state_dict(self, state: "OrderedDict[str, np.ndarray]") -> None:
        params = dict(self.named_parameters())
        for name, value in state.items():
            if name.startswith("buffer:"):
                self._load_buffer(name[len("buffer:") :], value)
            else:
                if name not in params:
                    raise KeyError(f"unknown parameter {name!r}")
                np.copyto(params[name].data, value)  # repro: noqa TEN001 — checkpoint restore

    def _load_buffer(self, dotted: str, value: np.ndarray) -> None:
        parts = dotted.split(".")
        mod: Module = self
        for part in parts[:-1]:
            mod = mod._modules[part]
        mod.set_buffer(parts[-1], np.array(value, copy=True))


class Sequential(Module):
    """Chain of modules applied in order."""

    def __init__(self, *layers: Module) -> None:
        super().__init__()
        self.layers = list(layers)
        for i, layer in enumerate(layers):
            self._modules[str(i)] = layer

    def forward(self, x: Tensor) -> Tensor:
        for layer in self.layers:
            x = layer(x)
        return x

    def __iter__(self):
        return iter(self.layers)

    def __len__(self) -> int:
        return len(self.layers)
