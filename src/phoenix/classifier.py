"""A small convolutional classifier used as the metric feature extractor.

Stands in for large pretrained classification networks, which are out of
reach here: features come from its penultimate layer and class posteriors
from its softmax head. Absolute metric values therefore live in this
model's feature space and are only comparable within one artifact run.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .datasets import Dataset
from .formats import FormatError, read_checkpoint, write_checkpoint
from .layers import Conv, GroupNorm2d, Linear, as_leaves, init_layers
from .optim import AdamState, adam_step
from .seeding import DOMAIN_CLASSIFIER, derive_rng


@dataclass(frozen=True)
class ClassifierConfig:
    image_channels: int
    image_side: int
    num_classes: int
    conv_widths: tuple[int, int] = (16, 32)
    feature_dim: int = 64
    norm_groups: int = 4

    def validate(self) -> None:
        if self.image_side % 4:
            raise ValueError(f"image_side must be divisible by 4, got {self.image_side}")
        if self.num_classes < 2:
            raise ValueError("classifier needs at least 2 classes")

    @property
    def flat_dim(self) -> int:
        return self.conv_widths[1] * (self.image_side // 4) ** 2


class EvalClassifier:
    """Two conv blocks plus a linear head; exposes logits and features."""

    def __init__(self, config: ClassifierConfig, params: dict[str, np.ndarray]):
        config.validate()
        self.config = config
        self.params = params

    @property
    def feature_dim(self) -> int:
        return self.config.feature_dim

    @property
    def num_classes(self) -> int:
        return self.config.num_classes

    @staticmethod
    def _modules(cfg: ClassifierConfig):
        w1, w2 = cfg.conv_widths
        return {
            "conv1": Conv("conv1", cfg.image_channels, w1),
            "norm1": GroupNorm2d("norm1", w1, cfg.norm_groups),
            "conv2": Conv("conv2", w1, w2),
            "norm2": GroupNorm2d("norm2", w2, cfg.norm_groups),
            "fc": Linear("fc", cfg.flat_dim, cfg.feature_dim),
            "head": Linear("head", cfg.feature_dim, cfg.num_classes),
        }

    @classmethod
    def initialize(cls, config: ClassifierConfig, seed: int) -> "EvalClassifier":
        rng = derive_rng(seed, DOMAIN_CLASSIFIER, 0)
        return cls(config, init_layers(cls._modules(config).values(), rng))

    def _forward(self, p, images: np.ndarray) -> tuple[ad.Tensor, ad.Tensor]:
        cfg = self.config
        mods = self._modules(cfg)
        x = ad.Tensor(np.asarray(images, dtype=np.float32))
        h = ad.silu(mods["norm1"].apply(p, mods["conv1"].apply(p, x)))
        h = ad.avg_pool2x(h)
        h = ad.silu(mods["norm2"].apply(p, mods["conv2"].apply(p, h)))
        h = ad.avg_pool2x(h)
        h = h.reshape((h.shape[0], cfg.flat_dim))
        feats = ad.silu(mods["fc"].apply(p, h))
        logits = mods["head"].apply(p, feats)
        return feats, logits

    def logits(self, images: np.ndarray) -> np.ndarray:
        p = as_leaves(self.params, requires_grad=False)
        return self._forward(p, images)[1].data

    def probabilities(self, images: np.ndarray) -> np.ndarray:
        z = self.logits(images)
        z = z - z.max(axis=1, keepdims=True)
        e = np.exp(z)
        return e / e.sum(axis=1, keepdims=True)

    def features(self, images: np.ndarray) -> np.ndarray:
        p = as_leaves(self.params, requires_grad=False)
        return self._forward(p, images)[0].data

    def predict(self, images: np.ndarray) -> np.ndarray:
        return self.logits(images).argmax(axis=1)

    def accuracy(self, dataset: Dataset, batch_size: int = 256) -> float:
        hits = 0
        for start in range(0, len(dataset), batch_size):
            batch = dataset.images[start:start + batch_size]
            hits += int((self.predict(batch) == dataset.labels[start:start + batch_size]).sum())
        return hits / len(dataset)


def save_classifier(path, clf: EvalClassifier) -> None:
    write_checkpoint(path, clf.params)


def load_classifier(path) -> EvalClassifier:
    """Rebuild a classifier from a checkpoint; the config follows the shapes."""
    params, _ = read_checkpoint(path)
    try:
        w1, channels = params["conv1.w"].shape[:2]
        w2 = params["conv2.w"].shape[0]
        flat, feature_dim = params["fc.w"].shape
        num_classes = params["head.w"].shape[1]
    except KeyError as exc:
        raise FormatError(f"classifier checkpoint missing parameter {exc}") from None
    side = 4 * int(round((flat / w2) ** 0.5))
    cfg = ClassifierConfig(
        image_channels=channels, image_side=side, num_classes=num_classes,
        conv_widths=(w1, w2), feature_dim=feature_dim,
    )
    if cfg.flat_dim != flat:
        raise FormatError("classifier checkpoint shapes are inconsistent")
    return EvalClassifier(cfg, params)


def train_eval_classifier(
    train: Dataset,
    epochs: int,
    seed: int,
    batch_size: int = 32,
    learning_rate: float = 1e-3,
    feature_dim: int = 64,
) -> EvalClassifier:
    """Train the feature/classification network with cross-entropy."""
    if len(train) == 0:
        raise ValueError("training dataset is empty")
    if len(np.unique(train.labels)) < 2:
        raise ValueError("classifier training needs at least 2 distinct classes")
    cfg = ClassifierConfig(
        image_channels=train.images.shape[1],
        image_side=train.images.shape[2],
        num_classes=train.num_classes,
        feature_dim=feature_dim,
    )
    clf = EvalClassifier.initialize(cfg, seed)
    state = AdamState(learning_rate=learning_rate)
    for epoch in range(epochs):
        rng = derive_rng(seed, DOMAIN_CLASSIFIER, 1, epoch)
        order = rng.permutation(len(train))
        for start in range(0, len(order), batch_size):
            idx = order[start:start + batch_size]
            leaves = as_leaves(clf.params, requires_grad=True)
            _, logits = clf._forward(leaves, train.images[idx])
            loss = ad.nll_loss(ad.log_softmax(logits), train.labels[idx])
            ad.backward(loss)
            grads = {name: leaf.grad for name, leaf in leaves.items()}
            clf.params = adam_step(clf.params, grads, state)
    return clf
