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


# Adam and fedavg walk each parameter in runs of this many elements, so the
# arrays a run reads and writes stay in cache between its ufuncs.
BLOCK = 1 << 16


def blocks(size: int, *arrays: np.ndarray):
    """Yield the ``size``-element ``arrays`` cut into the same runs of at most
    ``BLOCK`` elements: the arrays themselves when they fit in one run, else
    flat views. A non-contiguous array is read through a flat copy, so an
    array written through must be C-contiguous."""
    if size <= BLOCK:
        yield arrays
        return
    flats = [a.reshape(-1) for a in arrays]
    for lo in range(0, size, BLOCK):
        yield [flat[lo:lo + BLOCK] for flat in flats]


def _check_names(params: Mapping[str, np.ndarray], grads: Mapping[str, np.ndarray]) -> None:
    missing = [name for name in params if name not in grads]
    if missing:
        raise ValueError(f"missing gradients for parameters: {sorted(missing)}")


def _check_shape(name: str, p: np.ndarray, g: np.ndarray) -> None:
    if g.shape != p.shape:
        raise ValueError(f"gradient for '{name}' has shape {g.shape}, parameter is {p.shape}")


def _check_finite(name: str, g: np.ndarray) -> None:
    if not np.isfinite(g).all():
        raise NumericError(f"non-finite gradient for '{name}'")


def adam_step(
    params: Mapping[str, np.ndarray],
    grads: Mapping[str, np.ndarray],
    state: AdamState,
) -> tuple[dict[str, np.ndarray], AdamState]:
    """One bias-corrected Adam update; returns (new params, next state).

    Moments start at zero and stay shape- and dtype-congruent with their
    parameters. A parameter larger than ``BLOCK`` is walked in ``blocks``.
    In each block, or over a smaller parameter as a whole, the textbook
    expressions are evaluated in their usual order into the new moments,
    the new parameter and one scratch array, so the result is bitwise that
    of ``p - lr * (m / bias1) / (sqrt(v / bias2) + eps)``.

    A missing gradient, then per parameter a gradient of another shape or
    a non-finite one, raises before the step returns; the inputs and
    ``state`` are never written.
    """
    _check_names(params, grads)
    t = state.step_count + 1
    b1, b2 = state.beta1, state.beta2
    bias1 = 1.0 - b1 ** t
    bias2 = 1.0 - b2 ** t

    def run(name, p, g, m, v, m_next=None, v_next=None, p_next=None):
        """One block: the ufuncs fill the ``*_next`` arrays given, else new ones."""
        _check_finite(name, g)
        scratch = np.multiply(g, 1.0 - b1, dtype=p.dtype)
        m_next = np.multiply(m, b1, out=m_next)
        m_next += scratch
        np.multiply(g, g, out=scratch)
        scratch *= 1.0 - b2
        v_next = np.multiply(v, b2, out=v_next)
        v_next += scratch
        np.divide(v_next, bias2, out=scratch)
        np.sqrt(scratch, out=scratch)
        scratch += state.epsilon
        p_next = np.divide(m_next, bias1, out=p_next)
        p_next *= state.learning_rate
        p_next /= scratch
        return m_next, v_next, np.subtract(p, p_next, out=p_next)

    out: dict[str, np.ndarray] = {}
    first: dict[str, np.ndarray] = {}
    second: dict[str, np.ndarray] = {}
    for name, p in params.items():
        g = grads[name]
        _check_shape(name, p, g)
        m = state.first_moment.get(name)
        v = state.second_moment.get(name)
        if m is None:
            m = v = np.zeros_like(p)
        if p.size <= BLOCK:
            first[name], second[name], out[name] = run(name, p, g, m, v)
            continue
        new = [np.empty(p.shape, p.dtype) for _ in range(3)]
        for block in blocks(p.size, p, g, m, v, *new):
            run(name, *block)
        first[name], second[name], out[name] = new
    return out, replace(state, step_count=t, first_moment=first, second_moment=second)


def sgd_step(
    params: Mapping[str, np.ndarray],
    grads: Mapping[str, np.ndarray],
    learning_rate: float,
) -> dict[str, np.ndarray]:
    """Plain gradient-descent update, used as a test mode by the federation."""
    _check_names(params, grads)
    for name, p in params.items():
        _check_shape(name, p, grads[name])
        _check_finite(name, grads[name])
    return {name: (p - learning_rate * grads[name]).astype(p.dtype)
            for name, p in params.items()}
