"""Internal building blocks for the networks (denoiser and eval classifier).

Each layer initializes its named parameters from a generator and applies
itself to autodiff tensors. Weights draw from a normal distribution scaled
by 1/sqrt(fan_in); biases start at zero and normalization scales at one.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from . import autodiff as ad


def norm_group_count(channels: int, requested: int) -> int:
    """Largest divisor of ``channels`` not exceeding ``requested``."""
    g = min(requested, channels)
    while channels % g:
        g -= 1
    return g


class Conv:
    def __init__(self, name: str, cin: int, cout: int, kernel: int = 3):
        self.name = name
        self.cin = cin
        self.cout = cout
        self.kernel = kernel

    def init(self, rng: np.random.Generator) -> dict[str, np.ndarray]:
        fan_in = self.cin * self.kernel * self.kernel
        w = (rng.standard_normal((self.cout, self.cin, self.kernel, self.kernel))
             / np.sqrt(fan_in)).astype(np.float32)
        return {f"{self.name}.w": w, f"{self.name}.b": np.zeros(self.cout, np.float32)}

    def apply(self, p: Mapping[str, ad.Tensor], x: ad.Tensor) -> ad.Tensor:
        return ad.conv2d(x, p[f"{self.name}.w"], p[f"{self.name}.b"])


class GroupNorm2d:
    def __init__(self, name: str, channels: int, groups: int = 4):
        self.name = name
        self.channels = channels
        self.groups = norm_group_count(channels, groups)

    def init(self, rng: np.random.Generator) -> dict[str, np.ndarray]:
        return {
            f"{self.name}.g": np.ones(self.channels, np.float32),
            f"{self.name}.b": np.zeros(self.channels, np.float32),
        }

    def apply(self, p: Mapping[str, ad.Tensor], x: ad.Tensor) -> ad.Tensor:
        return ad.group_norm(x, p[f"{self.name}.g"], p[f"{self.name}.b"], self.groups)


class Linear:
    def __init__(self, name: str, d_in: int, d_out: int):
        self.name = name
        self.d_in = d_in
        self.d_out = d_out

    def init(self, rng: np.random.Generator) -> dict[str, np.ndarray]:
        w = (rng.standard_normal((self.d_in, self.d_out)) / np.sqrt(self.d_in)).astype(np.float32)
        return {f"{self.name}.w": w, f"{self.name}.b": np.zeros(self.d_out, np.float32)}

    def apply(self, p: Mapping[str, ad.Tensor], x: ad.Tensor) -> ad.Tensor:
        return ad.add(ad.matmul(x, p[f"{self.name}.w"]), p[f"{self.name}.b"])


def init_layers(layers, rng: np.random.Generator) -> dict[str, np.ndarray]:
    """Initialize a sequence of layers in order into one parameter table."""
    params: dict[str, np.ndarray] = {}
    for layer in layers:
        params.update(layer.init(rng))
    return params


def as_leaves(params: Mapping[str, np.ndarray], requires_grad: bool) -> dict[str, ad.Tensor]:
    """Wrap a parameter table as named autodiff leaves."""
    return {
        name: ad.Tensor(arr, requires_grad=requires_grad, name=name)
        for name, arr in params.items()
    }
