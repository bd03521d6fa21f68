"""Parameter containers and the small layer vocabulary the models are built from.

Modules register child modules and parameters in attribute-assignment order,
which makes parameter naming, checkpoint layout, and seeded initialization
deterministic for a given architecture.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from .errors import ShapeError
from .tensor import Tensor, conv2d, get_default_dtype


class Parameter(Tensor):
    """A leaf tensor tracked by a model.  It holds no name: its path in the
    module tree, as ``Module.named_parameters`` yields it, is its name."""

    __slots__ = ()

    def __init__(self, data):
        super().__init__(data, requires_grad=True)


class Module:
    """Base class tracking parameters and sub-modules in registration order."""

    def __init__(self):
        object.__setattr__(self, "_params", {})
        object.__setattr__(self, "_modules", {})

    def __setattr__(self, key, value):
        if isinstance(value, Parameter):
            self._params[key] = value
        elif isinstance(value, Module):
            self._modules[key] = value
        object.__setattr__(self, key, value)

    def forward(self, *args, **kwargs):
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Parameter]]:
        for key, param in self._params.items():
            yield (f"{prefix}{key}", param)
        for key, module in self._modules.items():
            yield from module.named_parameters(f"{prefix}{key}.")


class ModuleList(Module):
    """An indexable list of modules registered under their positions."""

    def __init__(self, modules=()):
        super().__init__()
        for m in modules:
            self.append(m)

    def append(self, module: Module) -> None:
        self._modules[str(len(self._modules))] = module

    def __iter__(self):
        return iter(self._modules.values())

    def __getitem__(self, idx: int) -> Module:
        return list(self._modules.values())[idx]

    def __len__(self) -> int:
        return len(self._modules)


def glorot_uniform(shape, fan_in: int, fan_out: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform(-s, s) with s = sqrt(6 / (fan_in + fan_out))."""
    if fan_in <= 0 or fan_out <= 0:
        raise ShapeError(f"glorot_uniform: fans must be positive, got {fan_in}, {fan_out}")
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=shape).astype(get_default_dtype())


class Conv2d(Module):
    """Stride-1 2-D convolution, zero-padded by half the kernel, with a bias:
    seeded fan-based uniform weights and a zero initial bias."""

    def __init__(self, in_channels: int, out_channels: int, kernel_size: int,
                 rng: np.random.Generator):
        super().__init__()
        k2 = kernel_size * kernel_size
        self.weight = Parameter(glorot_uniform(
            (out_channels, in_channels, kernel_size, kernel_size),
            fan_in=in_channels * k2, fan_out=out_channels * k2, rng=rng))
        self.bias = Parameter(np.zeros(out_channels))

    def forward(self, x: Tensor) -> Tensor:
        return conv2d(x, self.weight, self.bias)
