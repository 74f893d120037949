"""Adam and plain-SGD parameter updates over named parameter tables."""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Mapping

import numpy as np

from .autodiff import NumericError


@dataclass
class AdamState:
    """Per-parameter moment estimates plus the shared step counter."""

    learning_rate: float
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    step_count: int = 0
    first_moment: dict[str, np.ndarray] = field(default_factory=dict)
    second_moment: dict[str, np.ndarray] = field(default_factory=dict)

    def snapshot(self) -> "AdamState":
        """A copy that later steps on ``self`` leave untouched.

        ``adam_step`` replaces moment arrays rather than writing into them,
        so copying the two dicts is enough.
        """
        return replace(self, first_moment=dict(self.first_moment),
                       second_moment=dict(self.second_moment))


def adam_step(
    params: Mapping[str, np.ndarray],
    grads: Mapping[str, np.ndarray],
    state: AdamState,
) -> dict[str, np.ndarray]:
    """One bias-corrected Adam update; advances ``state`` and returns new params.

    Moments start at zero and stay shape-congruent with their parameters.
    """
    missing = [name for name in params if name not in grads]
    if missing:
        raise ValueError(f"missing gradients for parameters: {sorted(missing)}")
    state.step_count += 1
    t = state.step_count
    b1, b2 = state.beta1, state.beta2
    bias1 = 1.0 - b1 ** t
    bias2 = 1.0 - b2 ** t
    out: dict[str, np.ndarray] = {}
    for name, p in params.items():
        g = grads[name]
        if g.shape != p.shape:
            raise ValueError(
                f"gradient for '{name}' has shape {g.shape}, parameter is {p.shape}"
            )
        if not np.all(np.isfinite(g)):
            raise NumericError(f"non-finite gradient for '{name}'")
        m = state.first_moment.get(name)
        v = state.second_moment.get(name)
        if m is None:
            m = np.zeros_like(p)
            v = np.zeros_like(p)
        m = b1 * m + (1.0 - b1) * g
        v = b2 * v + (1.0 - b2) * (g * g)
        state.first_moment[name] = m
        state.second_moment[name] = v
        m_hat = m / bias1
        v_hat = v / bias2
        step = state.learning_rate * m_hat / (np.sqrt(v_hat) + state.epsilon)
        out[name] = (p - step).astype(p.dtype)
    return out


def sgd_step(
    params: Mapping[str, np.ndarray],
    grads: Mapping[str, np.ndarray],
    learning_rate: float,
) -> dict[str, np.ndarray]:
    """Plain gradient-descent update, used as a test mode by the federation."""
    missing = [name for name in params if name not in grads]
    if missing:
        raise ValueError(f"missing gradients for parameters: {sorted(missing)}")
    out: dict[str, np.ndarray] = {}
    for name, p in params.items():
        g = grads[name]
        if g.shape != p.shape:
            raise ValueError(
                f"gradient for '{name}' has shape {g.shape}, parameter is {p.shape}"
            )
        if not np.all(np.isfinite(g)):
            raise NumericError(f"non-finite gradient for '{name}'")
        out[name] = (p - learning_rate * g).astype(p.dtype)
    return out
