"""Forward noising, the noise-prediction training loss, and ancestral sampling."""

from __future__ import annotations

import math

import numpy as np

from . import autodiff as ad
from . import parallel
from .layers import as_leaves
from .schedule import NoiseSchedule
from .seeding import derive_rng
from .unet import DenoiserModel, apply_denoiser, predict_noise

SAMPLE_RANGE = (-1.0, 1.0)

# The reverse chain runs at most this many samples as one batch. BLAS may
# give a row other bits in a batch of another size (OpenBLAS 0.3.31 on an
# AVX-512 Xeon does: the desk U-Net's 2x2 conv differs between batch 8 and
# 16), so ``generate`` splits its work only between whole batches, and a
# sample's bits never depend on the worker count. 64 splits a 128-sample
# report over two cores and halves each process's im2col columns; one
# process drew 128 desk samples (50 steps) in 1.02-1.06 s at batch 64
# against 1.08-1.14 s at batch 128 (min of 5, one BLAS thread, two runs).
SAMPLE_BATCH = 64


def _check_pair(a: np.ndarray, b: np.ndarray, what: str) -> None:
    if a.shape != b.shape:
        raise ad.ShapeMismatchError(f"{what}: shape mismatch {a.shape} vs {b.shape}")


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


def _reverse_chain(model: DenoiserModel, schedule: NoiseSchedule, indices: range,
                   seed: int) -> np.ndarray:
    """The reverse chain from pure noise for the samples ``indices``, as one batch."""
    cfg = model.config
    shape = (cfg.image_channels, cfg.image_side, cfg.image_side)
    rngs = [derive_rng(seed, i) for i in indices]
    x = np.stack([rng.standard_normal(shape, dtype=np.float32) for rng in rngs])
    for t in range(schedule.steps, 0, -1):
        if t > 1:
            noise = np.stack([rng.standard_normal(shape, dtype=np.float32) for rng in rngs])
        else:
            noise = np.zeros_like(x)
        x = p_sample_step(model, x, t, schedule, noise)
    return np.clip(x, SAMPLE_RANGE[0], SAMPLE_RANGE[1])


def sample_chain(model: DenoiserModel, schedule: NoiseSchedule, start: int,
                 stop: int, seed: int) -> np.ndarray:
    """Samples ``start`` to ``stop - 1``, run here in batches of ``SAMPLE_BATCH``
    counted from ``start``.

    Sample i draws its starting noise and all per-step noise from its own
    substream keyed by (seed, i). The finished samples are clamped to the
    data range [-1, 1].
    """
    if not 0 <= start < stop:
        raise ValueError(f"sample range [{start}, {stop}) is empty")
    return np.concatenate([
        _reverse_chain(model, schedule, range(lo, min(lo + SAMPLE_BATCH, stop)), seed)
        for lo in range(start, stop, SAMPLE_BATCH)
    ])


def _sample_share(conn, model: DenoiserModel, schedule: NoiseSchedule, start: int,
                  stop: int, seed: int) -> None:
    """A sampling process: send ``sample_chain``'s samples."""
    parallel.send(conn, sample_chain(model, schedule, start, stop, seed))


def generate(model: DenoiserModel, schedule: NoiseSchedule, count: int,
             seed: int) -> np.ndarray:
    """Sample ``count`` images by running the reverse chain from pure noise.

    The ``ceil(count / SAMPLE_BATCH)`` batches of ``sample_chain`` are cut
    into ``min(parallel.default_workers(), batches)`` contiguous shares:
    this process runs the first, and one process per other share, forked by
    ``parallel.forked``, runs it and pipes its samples back, joined in index
    order. Every sample is computed in the same batch whatever the share
    count, so the result is bitwise the same for every worker count.

    A sampling process's exception is raised here as it was raised; one that
    ends without its samples raises ``RuntimeError``. No sampling process
    outlives the call.
    """
    if count < 1:
        raise ValueError(f"count must be at least 1, got {count}")
    batches = -(-count // SAMPLE_BATCH)
    shares = min(parallel.default_workers(), batches)
    cuts = [min(count, SAMPLE_BATCH * (batches * k // shares)) for k in range(shares + 1)]
    lost = RuntimeError("sampling: a sampling process ended before sending its samples")
    others = [(model, schedule, start, stop, seed) for start, stop in zip(cuts[1:-1], cuts[2:])]
    with parallel.forked(_sample_share, others) as conns:
        samples = [sample_chain(model, schedule, 0, cuts[1], seed)]
        samples += [parallel.reply(conn, lost) for conn in conns]
    return np.concatenate(samples)
