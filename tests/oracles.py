"""Reference implementations that tests check the package against."""

from __future__ import annotations

import math

import numpy as np

from phoenix import autodiff as ad
from phoenix.schedule import NoiseSchedule


def q_sample_step(x_prev: np.ndarray, t: int, schedule: NoiseSchedule,
                  noise: np.ndarray) -> np.ndarray:
    """One forward noising step: sqrt(1-beta_t)*x_prev + sqrt(beta_t)*noise.

    Iterated from x0 over steps 1..t, it gives the distribution that
    ``diffusion.q_sample_closed`` draws from in one jump.
    """
    schedule.check_step(t)
    x_prev = np.asarray(x_prev)
    noise = np.asarray(noise)
    if x_prev.shape != noise.shape:
        raise ad.ShapeMismatchError(
            f"q_sample_step: shape mismatch {x_prev.shape} vs {noise.shape}")
    beta = schedule.beta[t - 1]
    dt = x_prev.dtype
    return dt.type(math.sqrt(1.0 - beta)) * x_prev + dt.type(math.sqrt(beta)) * noise
