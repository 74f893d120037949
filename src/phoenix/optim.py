"""Adam and plain-SGD parameter updates over named parameter tables.

Both return new tables and write into none of their inputs; Adam's state is
a value, and ``adam_step`` returns the next one.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Mapping

import numpy as np

from .autodiff import NumericError


@dataclass(frozen=True)
class AdamState:
    """Per-parameter moment estimates plus the shared step counter; a value
    that no step changes, so it can be kept or restored as it stands."""

    learning_rate: float
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    step_count: int = 0
    first_moment: dict[str, np.ndarray] = field(default_factory=dict)
    second_moment: dict[str, np.ndarray] = field(default_factory=dict)


def _check_gradients(
    params: Mapping[str, np.ndarray], grads: Mapping[str, np.ndarray]
) -> None:
    """Raise unless every parameter has a finite gradient of its own shape."""
    missing = [name for name in params if name not in grads]
    if missing:
        raise ValueError(f"missing gradients for parameters: {sorted(missing)}")
    for name, p in params.items():
        g = grads[name]
        if g.shape != p.shape:
            raise ValueError(
                f"gradient for '{name}' has shape {g.shape}, parameter is {p.shape}"
            )
        if not np.all(np.isfinite(g)):
            raise NumericError(f"non-finite gradient for '{name}'")


def adam_step(
    params: Mapping[str, np.ndarray],
    grads: Mapping[str, np.ndarray],
    state: AdamState,
) -> tuple[dict[str, np.ndarray], AdamState]:
    """One bias-corrected Adam update; returns (new params, next state).

    Moments start at zero and stay shape- and dtype-congruent with their
    parameters. The textbook expressions are evaluated in their usual order
    but into four new arrays per parameter (the new moments, one scratch
    array and the new parameter), so the result is bitwise that of
    ``p - lr * (m / bias1) / (sqrt(v / bias2) + eps)``.
    """
    _check_gradients(params, grads)
    t = state.step_count + 1
    b1, b2 = state.beta1, state.beta2
    bias1 = 1.0 - b1 ** t
    bias2 = 1.0 - b2 ** t
    out: dict[str, np.ndarray] = {}
    first: dict[str, np.ndarray] = {}
    second: dict[str, np.ndarray] = {}
    for name, p in params.items():
        g = grads[name]
        m = state.first_moment.get(name)
        v = state.second_moment.get(name)
        if m is None:
            m = np.zeros_like(p)
            v = np.zeros_like(p)
        scratch = np.multiply(g, 1.0 - b1, dtype=p.dtype)
        m = np.multiply(m, b1)
        m += scratch
        np.multiply(g, g, out=scratch)
        scratch *= 1.0 - b2
        v = np.multiply(v, b2)
        v += scratch
        first[name] = m
        second[name] = v
        np.divide(v, bias2, out=scratch)
        np.sqrt(scratch, out=scratch)
        scratch += state.epsilon
        step = m / bias1
        step *= state.learning_rate
        step /= scratch
        out[name] = np.subtract(p, step, out=step)
    return out, replace(state, step_count=t, first_moment=first, second_moment=second)


def sgd_step(
    params: Mapping[str, np.ndarray],
    grads: Mapping[str, np.ndarray],
    learning_rate: float,
) -> dict[str, np.ndarray]:
    """Plain gradient-descent update, used as a test mode by the federation."""
    _check_gradients(params, grads)
    return {name: (p - learning_rate * grads[name]).astype(p.dtype)
            for name, p in params.items()}
