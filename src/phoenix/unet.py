"""The U-Net noise predictor with a base/personal parameter partition.

Structure: a stem convolution, ``depth`` encoder stages (residual blocks then
2x average-pool), one bottleneck block, ``depth`` decoder stages (2x nearest
upsample, skip concatenation, residual blocks), and a normalized output
convolution. Every residual block receives the sinusoidal step embedding
through its own learned linear projection, added to the feature maps.

Parameter count for a config is the sum over layers of conv weights
(cout*cin*k*k + cout), linear projections (d_in*d_out + d_out) and
normalization scale/shift pairs (2*channels); the per-stage channel widths
are base_channels * 2**stage.

The parameters of the last residual block executed on the decoder side are
flagged personal; everything else, including the output convolution, is
base. Personal parameters are the unit kept client-local when
personalization is enabled in federated runs.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Mapping

import numpy as np

from . import autodiff as ad
from .layers import Conv, GroupNorm2d, Linear, as_leaves, init_layers
from .seeding import DOMAIN_MODEL_INIT, derive_rng


@dataclass(frozen=True)
class DenoiserConfig:
    image_channels: int = 1
    image_side: int = 8
    base_channels: int = 16
    depth: int = 2
    blocks_per_stage: int = 1
    time_embed_dim: int = 32
    norm_groups: int = 4

    def validate(self) -> None:
        if self.depth < 1 or self.blocks_per_stage < 1:
            raise ValueError("depth and blocks_per_stage must be at least 1")
        side = self.image_side
        if side < 2 or side & (side - 1):
            raise ValueError(f"image_side must be a power of two, got {side}")
        if side % (2 ** self.depth):
            raise ValueError(
                f"image_side {side} not divisible by 2^depth = {2 ** self.depth}"
            )
        if self.time_embed_dim < 2 or self.time_embed_dim % 2:
            raise ValueError(f"time_embed_dim must be even, got {self.time_embed_dim}")
        if self.image_channels < 1 or self.base_channels < 1 or self.norm_groups < 1:
            raise ValueError("channel and group counts must be positive")


@dataclass
class DenoiserModel:
    config: DenoiserConfig
    params: dict[str, np.ndarray]
    personal_names: frozenset[str]

    def parameter_count(self) -> int:
        return sum(arr.size for arr in self.params.values())

    def with_params(self, params: Mapping[str, np.ndarray]) -> "DenoiserModel":
        return replace(self, params=dict(params))


def time_embedding(t, dim: int) -> np.ndarray:
    """Sinusoidal step embedding: interleaved (sin, cos) pairs.

    Pair i oscillates at angular scale 1/omega_i with omega spanning 1 to
    10^4 geometrically. Accepts a scalar step (returns shape (dim,)) or an
    array of steps (returns (len(t), dim)). Not differentiable; the result
    enters graphs as a constant input.
    """
    if dim < 2 or dim % 2:
        raise ValueError(f"embedding dim must be even and >= 2, got {dim}")
    t_arr = np.asarray(t, dtype=np.float64)
    scalar = t_arr.ndim == 0
    t_arr = np.atleast_1d(t_arr)
    half = dim // 2
    if half == 1:
        omega = np.ones(1)
    else:
        omega = np.power(10.0, 4.0 * np.arange(half) / (half - 1))
    angles = t_arr[:, None] / omega[None, :]
    emb = np.empty((len(t_arr), dim))
    emb[:, 0::2] = np.sin(angles)
    emb[:, 1::2] = np.cos(angles)
    return emb[0] if scalar else emb


class _ResBlock:
    """norm-silu-conv, add step projection, norm-silu-conv, plus a skip path."""

    def __init__(self, name: str, cin: int, cout: int, embed_dim: int, groups: int):
        self.name = name
        self.cout = cout
        self.norm1 = GroupNorm2d(f"{name}.norm1", cin, groups)
        self.conv1 = Conv(f"{name}.conv1", cin, cout)
        self.time_proj = Linear(f"{name}.time", embed_dim, cout)
        self.norm2 = GroupNorm2d(f"{name}.norm2", cout, groups)
        self.conv2 = Conv(f"{name}.conv2", cout, cout)
        self.skip = Conv(f"{name}.skip", cin, cout, kernel=1) if cin != cout else None
        self.layers = [self.norm1, self.conv1, self.time_proj, self.norm2, self.conv2]
        if self.skip is not None:
            self.layers.append(self.skip)

    def apply(self, p: Mapping[str, ad.Tensor], x: ad.Tensor, emb: ad.Tensor) -> ad.Tensor:
        n = x.shape[0]
        h = self.conv1.apply(p, ad.silu(self.norm1.apply(p, x)))
        proj = self.time_proj.apply(p, emb).reshape((n, self.cout, 1, 1))
        h = h + proj
        h = self.conv2.apply(p, ad.silu(self.norm2.apply(p, h)))
        s = x if self.skip is None else self.skip.apply(p, x)
        return h + s


class _Layout:
    """The module structure implied by a config; ``layers`` lists every layer
    in construction (and therefore initialization) order."""

    def __init__(self, cfg: DenoiserConfig):
        widths = [cfg.base_channels * 2 ** i for i in range(cfg.depth)]
        self.stem = Conv("stem", cfg.image_channels, cfg.base_channels)
        self.layers = [self.stem]
        self.enc: list[list[_ResBlock]] = []
        ch = cfg.base_channels
        for i, w in enumerate(widths):
            blocks = []
            for b in range(cfg.blocks_per_stage):
                blocks.append(_ResBlock(f"enc{i}.block{b}", ch, w,
                                        cfg.time_embed_dim, cfg.norm_groups))
                self.layers += blocks[-1].layers
                ch = w
            self.enc.append(blocks)
        self.bottleneck = _ResBlock("bottleneck", ch, ch,
                                    cfg.time_embed_dim, cfg.norm_groups)
        self.layers += self.bottleneck.layers
        self.dec: list[list[_ResBlock]] = [[] for _ in range(cfg.depth)]
        for i in reversed(range(cfg.depth)):
            blocks = []
            cin = ch + widths[i]  # upsampled features concatenated with the skip
            for b in range(cfg.blocks_per_stage):
                blocks.append(_ResBlock(f"dec{i}.block{b}", cin, widths[i],
                                        cfg.time_embed_dim, cfg.norm_groups))
                self.layers += blocks[-1].layers
                cin = widths[i]
            self.dec[i] = blocks
            ch = widths[i]
        self.out_norm = GroupNorm2d("out.norm", cfg.base_channels, cfg.norm_groups)
        self.out_conv = Conv("out.conv", cfg.base_channels, cfg.image_channels)
        self.layers += [self.out_norm, self.out_conv]


def build_unet(config: DenoiserConfig, seed: int) -> DenoiserModel:
    """Construct and initialize the denoiser for ``config`` from ``seed``."""
    config.validate()
    layout = _Layout(config)
    params = init_layers(layout.layers, derive_rng(seed, DOMAIN_MODEL_INIT))
    prefix = layout.dec[0][-1].name + "."  # the last decoder block is personal
    personal = frozenset(name for name in params if name.startswith(prefix))
    return DenoiserModel(config=config, params=params, personal_names=personal)


def apply_denoiser(config: DenoiserConfig, p: Mapping[str, ad.Tensor],
                   x: ad.Tensor, t: np.ndarray) -> ad.Tensor:
    """Differentiable forward pass; ``t`` holds 1-based step indices."""
    if x.data.ndim != 4 or x.data.shape[1] != config.image_channels \
            or x.data.shape[2] != config.image_side or x.data.shape[3] != config.image_side:
        raise ad.ShapeMismatchError(
            f"input shape {x.data.shape} does not match config "
            f"(N,{config.image_channels},{config.image_side},{config.image_side})"
        )
    t = np.atleast_1d(np.asarray(t))
    if t.shape != (x.data.shape[0],):
        raise ad.ShapeMismatchError(
            f"step indices shape {t.shape} does not match batch {x.data.shape[0]}"
        )
    layout = _Layout(config)
    emb = ad.Tensor(time_embedding(t, config.time_embed_dim).astype(x.data.dtype))
    h = layout.stem.apply(p, x)
    skips: list[ad.Tensor] = []
    for blocks in layout.enc:
        for block in blocks:
            h = block.apply(p, h, emb)
        skips.append(h)
        h = ad.avg_pool2x(h)
    h = layout.bottleneck.apply(p, h, emb)
    for i in reversed(range(config.depth)):
        h = ad.upsample_nearest2x(h)
        h = ad.concat([h, skips[i]], axis=1)
        for block in layout.dec[i]:
            h = block.apply(p, h, emb)
    h = ad.silu(layout.out_norm.apply(p, h))
    return layout.out_conv.apply(p, h)


def predict_noise(model: DenoiserModel, x_t: np.ndarray, t) -> np.ndarray:
    """Inference-mode noise prediction; output shape equals the input batch."""
    leaves = as_leaves(model.params, requires_grad=False)
    x = ad.Tensor(np.asarray(x_t, dtype=np.float32))
    return apply_denoiser(model.config, leaves, x, t).data


def split_parameters(model: DenoiserModel) -> tuple[dict[str, np.ndarray], dict[str, np.ndarray]]:
    """Partition the parameter table into (base, personal) by flag."""
    base = {k: v for k, v in model.params.items() if k not in model.personal_names}
    personal = {k: v for k, v in model.params.items() if k in model.personal_names}
    return base, personal


def merge_parameters(model: DenoiserModel, base: Mapping[str, np.ndarray],
                     personal: Mapping[str, np.ndarray]) -> dict[str, np.ndarray]:
    """Reassemble a full table in the model's canonical order."""
    merged: dict[str, np.ndarray] = {}
    for name in model.params:
        if name in model.personal_names:
            merged[name] = personal[name]
        else:
            merged[name] = base[name]
    extra = (set(base) | set(personal)) - set(merged)
    if extra:
        raise ValueError(f"unknown parameter names: {sorted(extra)}")
    return merged
