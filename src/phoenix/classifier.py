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
from .formats import read_params, write_checkpoint
from .layers import Conv, GroupNorm2d, Linear, as_leaves, init_layers
from .optim import AdamState, adam_step
from .seeding import DOMAIN_CLASSIFIER, derive_rng


# The architecture and training recipe; only the input shape and the class
# count vary, and they follow from the dataset.
CONV_WIDTHS = (16, 32)
FEATURE_DIM = 64
NORM_GROUPS = 4
BATCH_SIZE = 32
LEARNING_RATE = 1e-3


@dataclass(frozen=True)
class ClassifierConfig:
    image_channels: int
    image_side: int
    num_classes: int

    @classmethod
    def for_dataset(cls, data: Dataset) -> "ClassifierConfig":
        return cls(data.images.shape[1], data.images.shape[2], data.num_classes)

    def validate(self) -> None:
        if self.image_side % 4:
            raise ValueError(f"image_side must be divisible by 4, got {self.image_side}")
        if self.num_classes < 2:
            raise ValueError("classifier needs at least 2 classes")

    @property
    def flat_dim(self) -> int:
        return CONV_WIDTHS[1] * (self.image_side // 4) ** 2


class EvalClassifier:
    """Two conv blocks plus a linear head; ``embed`` gives features and logits."""

    def __init__(self, config: ClassifierConfig, params: dict[str, np.ndarray]):
        config.validate()
        self.config = config
        self.params = params

    @property
    def feature_dim(self) -> int:
        return FEATURE_DIM

    @property
    def num_classes(self) -> int:
        return self.config.num_classes

    @staticmethod
    def _modules(cfg: ClassifierConfig):
        w1, w2 = CONV_WIDTHS
        return {
            "conv1": Conv("conv1", cfg.image_channels, w1),
            "norm1": GroupNorm2d("norm1", w1, NORM_GROUPS),
            "conv2": Conv("conv2", w1, w2),
            "norm2": GroupNorm2d("norm2", w2, NORM_GROUPS),
            "fc": Linear("fc", cfg.flat_dim, FEATURE_DIM),
            "head": Linear("head", FEATURE_DIM, cfg.num_classes),
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

    def embed(self, images: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(features, logits) of ``images``, one forward pass per 256-row block."""
        p = as_leaves(self.params, requires_grad=False)
        blocks = [self._forward(p, images[s:s + 256]) for s in range(0, len(images), 256)]
        return (np.concatenate([feats.data for feats, _ in blocks]),
                np.concatenate([logits.data for _, logits in blocks]))

    def accuracy(self, dataset: Dataset) -> float:
        predicted = self.embed(dataset.images)[1].argmax(axis=1)
        return int((predicted == dataset.labels).sum()) / len(dataset)


def save_classifier(path, clf: EvalClassifier) -> None:
    write_checkpoint(path, clf.params)


def load_classifier(path, data: Dataset) -> EvalClassifier:
    """Load the eval classifier for ``data`` from a checkpoint.

    The architecture follows from the dataset's image shape and class count,
    never from the checkpoint; ``FormatError`` if the checkpoint's parameter
    names or shapes differ from it.
    """
    scaffold = EvalClassifier.initialize(ClassifierConfig.for_dataset(data), seed=0)
    return EvalClassifier(scaffold.config, read_params(path, scaffold.params))


def train_eval_classifier(train: Dataset, epochs: int, seed: int) -> EvalClassifier:
    """Train the feature/classification network with cross-entropy."""
    if len(train) == 0:
        raise ValueError("training dataset is empty")
    if len(np.unique(train.labels)) < 2:
        raise ValueError("classifier training needs at least 2 distinct classes")
    clf = EvalClassifier.initialize(ClassifierConfig.for_dataset(train), seed)
    state = AdamState(learning_rate=LEARNING_RATE)
    for epoch in range(epochs):
        rng = derive_rng(seed, DOMAIN_CLASSIFIER, 1, epoch)
        order = rng.permutation(len(train))
        for start in range(0, len(order), BATCH_SIZE):
            idx = order[start:start + BATCH_SIZE]
            leaves = as_leaves(clf.params, requires_grad=True)
            _, logits = clf._forward(leaves, train.images[idx])
            loss = ad.nll_loss(ad.log_softmax(logits), train.labels[idx])
            ad.backward(loss)
            grads = {name: leaf.grad for name, leaf in leaves.items()}
            clf.params, state = adam_step(clf.params, grads, state)
    return clf
