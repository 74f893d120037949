"""Forward noising, the noise-prediction training loss, and ancestral sampling."""

from __future__ import annotations

import math

import numpy as np

from . import autodiff as ad
from .layers import as_leaves
from .schedule import NoiseSchedule
from .seeding import derive_rng
from .unet import DenoiserModel, apply_denoiser, predict_noise

SAMPLE_RANGE = (-1.0, 1.0)


def _check_pair(a: np.ndarray, b: np.ndarray, what: str) -> None:
    if a.shape != b.shape:
        raise ad.ShapeMismatchError(f"{what}: shape mismatch {a.shape} vs {b.shape}")


def q_sample_step(x_prev: np.ndarray, t: int, schedule: NoiseSchedule,
                  noise: np.ndarray) -> np.ndarray:
    """One forward noising step: sqrt(1-beta_t)*x_prev + sqrt(beta_t)*noise."""
    schedule.check_step(t)
    x_prev = np.asarray(x_prev)
    noise = np.asarray(noise)
    _check_pair(x_prev, noise, "q_sample_step")
    beta = schedule.beta[t - 1]
    dt = x_prev.dtype
    return dt.type(math.sqrt(1.0 - beta)) * x_prev + dt.type(math.sqrt(beta)) * noise


def q_sample_closed(x0: np.ndarray, t: np.ndarray, schedule: NoiseSchedule,
                    noise: np.ndarray) -> np.ndarray:
    """Jump sample i straight to step t[i]: sqrt(abar)*x0 + sqrt(1-abar)*noise.

    ``t`` holds one 1-based step per sample along the first axis of ``x0``;
    the coefficients are computed in ``x0``'s dtype.
    """
    abar = schedule.alpha_bar[t - 1].astype(x0.dtype)
    shape = (-1,) + (1,) * (x0.ndim - 1)
    return (np.sqrt(abar).reshape(shape) * x0
            + np.sqrt(1.0 - abar).reshape(shape) * noise)


def training_loss(
    model: DenoiserModel,
    schedule: NoiseSchedule,
    x0: np.ndarray,
    t: np.ndarray,
    noise: np.ndarray,
) -> tuple[ad.Tensor, dict[str, ad.Tensor]]:
    """Mean-squared error between predicted and injected noise.

    Builds x_t from the closed-form forward process, evaluates the model on
    it, and returns the scalar loss node together with the parameter leaves
    so the caller can read per-parameter gradients after ``backward``.
    """
    x0 = np.asarray(x0, dtype=np.float32)
    noise = np.asarray(noise, dtype=np.float32)
    t = np.atleast_1d(np.asarray(t))
    _check_pair(x0, noise, "training_loss")
    if t.shape != (x0.shape[0],):
        raise ad.ShapeMismatchError(
            f"training_loss: step indices shape {t.shape} vs batch {x0.shape[0]}"
        )
    if len(t) and (t.min() < 1 or t.max() > schedule.steps):
        raise ValueError(f"step indices must lie in [1, {schedule.steps}]")
    x_t = q_sample_closed(x0, t, schedule, noise)
    leaves = as_leaves(model.params, requires_grad=True)
    predicted = apply_denoiser(model.config, leaves, ad.Tensor(x_t), t)
    loss = ad.mse_loss(predicted, ad.Tensor(noise))
    return loss, leaves


def p_sample_step(model: DenoiserModel, x_t: np.ndarray, t: int,
                  schedule: NoiseSchedule, noise: np.ndarray) -> np.ndarray:
    """One ancestral reverse step from x_t to x_{t-1}.

    The caller supplies the injected noise; it must be all zeros at t=1,
    where the step is deterministic.
    """
    schedule.check_step(t)
    x_t = np.asarray(x_t, dtype=np.float32)
    noise = np.asarray(noise, dtype=np.float32)
    _check_pair(x_t, noise, "p_sample_step")
    if t == 1 and np.any(noise):
        raise ValueError("p_sample_step at t=1 requires zero noise")
    eps_hat = predict_noise(model, x_t, np.full(x_t.shape[0], t, dtype=np.int64))
    beta = schedule.beta[t - 1]
    alpha = schedule.alpha[t - 1]
    abar = schedule.alpha_bar[t - 1]
    mean = np.float32(1.0 / math.sqrt(alpha)) * (
        x_t - np.float32(beta / math.sqrt(1.0 - abar)) * eps_hat
    )
    return mean + np.float32(math.sqrt(schedule.posterior_variance[t - 1])) * noise


def generate(model: DenoiserModel, schedule: NoiseSchedule, count: int,
             seed: int) -> np.ndarray:
    """Sample ``count`` images by running the reverse chain from pure noise.

    Each sample draws its starting noise and all per-step noise from its own
    substream keyed by (seed, sample index), so sample i is identical no
    matter how many samples are requested alongside it. The finished batch
    is clamped to the data range [-1, 1].
    """
    if count < 1:
        raise ValueError(f"count must be at least 1, got {count}")
    cfg = model.config
    shape = (cfg.image_channels, cfg.image_side, cfg.image_side)
    rngs = [derive_rng(seed, i) for i in range(count)]
    x = np.stack([rng.standard_normal(shape, dtype=np.float32) for rng in rngs])
    for t in range(schedule.steps, 0, -1):
        if t > 1:
            noise = np.stack([rng.standard_normal(shape, dtype=np.float32) for rng in rngs])
        else:
            noise = np.zeros_like(x)
        x = p_sample_step(model, x, t, schedule, noise)
    return np.clip(x, SAMPLE_RANGE[0], SAMPLE_RANGE[1])
