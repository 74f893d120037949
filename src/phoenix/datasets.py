"""Dataset loading and the procedural desk-scale dataset.

Images are float32 arrays of shape (N, C, H, W) normalized to [-1, 1];
labels are integer class ids.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .seeding import DOMAIN_DATA, derive_rng

CIFAR_RECORD_BYTES = 3073  # 1 label byte + 3*1024 channel-major pixel bytes
CIFAR_RECORDS_PER_FILE = 10000
CIFAR_TRAIN_FILES = [f"data_batch_{i}.bin" for i in range(1, 6)]
CIFAR_TEST_FILES = ["test_batch.bin"]


class DataFormatError(ValueError):
    """A dataset file does not match the expected binary layout."""


@dataclass
class Dataset:
    images: np.ndarray
    labels: np.ndarray
    num_classes: int

    def __post_init__(self):
        if len(self.images) != len(self.labels):
            raise ValueError(
                f"images ({len(self.images)}) and labels ({len(self.labels)}) disagree"
            )
        if len(self.labels) and int(self.labels.max()) >= self.num_classes:
            raise ValueError("label id outside [0, num_classes)")

    def __len__(self) -> int:
        return len(self.labels)

    def subset(self, indices) -> "Dataset":
        idx = np.asarray(indices, dtype=np.int64)
        return Dataset(self.images[idx], self.labels[idx], self.num_classes)


def load_cifar10(directory: str | Path, split: str = "train") -> Dataset:
    """Parse the CIFAR-10 binary batches into a normalized dataset.

    Each record is one label byte followed by 3072 channel-major pixel
    bytes; pixel v maps to v/127.5 - 1.
    """
    if split not in ("train", "test"):
        raise ValueError(f"split must be 'train' or 'test', got '{split}'")
    directory = Path(directory)
    files = CIFAR_TRAIN_FILES if split == "train" else CIFAR_TEST_FILES
    images = []
    labels = []
    for fname in files:
        path = directory / fname
        if not path.exists():
            raise DataFormatError(f"missing CIFAR-10 batch file: {path}")
        raw = path.read_bytes()
        expected = CIFAR_RECORD_BYTES * CIFAR_RECORDS_PER_FILE
        if len(raw) != expected:
            raise DataFormatError(
                f"{path}: expected {expected} bytes, got {len(raw)} "
                f"(first mismatch at offset {min(len(raw), expected)})"
            )
        records = np.frombuffer(raw, dtype=np.uint8).reshape(-1, CIFAR_RECORD_BYTES)
        batch_labels = records[:, 0]
        bad = np.nonzero(batch_labels >= 10)[0]
        if bad.size:
            raise DataFormatError(
                f"{path}: record {int(bad[0])} has label byte {int(batch_labels[bad[0]])} >= 10"
            )
        pixels = records[:, 1:].reshape(-1, 3, 32, 32)
        images.append(pixels.astype(np.float32) / 127.5 - 1.0)
        labels.append(batch_labels.astype(np.int64))
    return Dataset(np.concatenate(images), np.concatenate(labels), num_classes=10)


def _template(kind: int, side: int) -> np.ndarray:
    """Render one geometric class template on a [-1, 1] canvas.

    The patterns are deliberately low-frequency so a one-pixel jitter moves
    a sample far less than the distance between any two templates.
    """
    img = -np.ones((side, side), dtype=np.float32)
    h = side // 2
    q = max(side // 4, 1)
    if kind == 0:  # top half
        img[:h, :] = 1.0
    elif kind == 1:  # left half
        img[:, :h] = 1.0
    elif kind == 2:  # lower-left triangle
        rows, cols = np.indices((side, side))
        img[rows >= cols] = 1.0
    elif kind == 3:  # center square
        img[q:side - q, q:side - q] = 1.0
    elif kind == 4:  # right half
        img[:, h:] = 1.0
    elif kind == 5:  # bottom half
        img[h:, :] = 1.0
    elif kind == 6:  # opposite corner blocks
        img[:h - 1 or 1, :h - 1 or 1] = 1.0
        img[side - h + 1:, side - h + 1:] = 1.0
    elif kind == 7:  # frame
        img[:q, :] = 1.0
        img[side - q:, :] = 1.0
        img[:, :q] = 1.0
        img[:, side - q:] = 1.0
    else:
        raise ValueError(f"no template for class {kind}")
    return img


NUM_TOY_TEMPLATES = 8


def toy_templates(classes: int, side: int) -> np.ndarray:
    """Clean class templates, shape (classes, 1, side, side)."""
    if classes > NUM_TOY_TEMPLATES:
        raise ValueError(
            f"at most {NUM_TOY_TEMPLATES} template classes available, got {classes}"
        )
    return np.stack([_template(k, side) for k in range(classes)])[:, None, :, :]


def _shift2d(img: np.ndarray, dy: int, dx: int, fill: float = -1.0) -> np.ndarray:
    out = np.full_like(img, fill)
    h, w = img.shape
    ys = slice(max(dy, 0), min(h + dy, h))
    xs = slice(max(dx, 0), min(w + dx, w))
    ys_src = slice(max(-dy, 0), min(h - dy, h))
    xs_src = slice(max(-dx, 0), min(w - dx, w))
    out[ys, xs] = img[ys_src, xs_src]
    return out


def make_toy_dataset(classes: int, per_class: int, side: int, seed: int) -> Dataset:
    """Generate a grayscale dataset of jittered geometric class patterns.

    Each sample is its class template shifted by up to one pixel and
    perturbed with additive Gaussian noise (sigma 0.1), clamped to [-1, 1].
    """
    if classes < 2:
        raise ValueError(f"need at least 2 classes, got {classes}")
    if side < 4:
        raise ValueError(f"side must be at least 4, got {side}")
    templates = toy_templates(classes, side)
    rng = derive_rng(seed, DOMAIN_DATA)
    images = np.empty((classes * per_class, 1, side, side), dtype=np.float32)
    labels = np.empty(classes * per_class, dtype=np.int64)
    i = 0
    for cls in range(classes):
        base = templates[cls, 0]
        for _ in range(per_class):
            dy, dx = rng.integers(-1, 2, size=2)
            img = _shift2d(base, int(dy), int(dx))
            img = img + rng.standard_normal(img.shape, dtype=np.float32) * 0.1
            images[i, 0] = np.clip(img, -1.0, 1.0)
            labels[i] = cls
            i += 1
    return Dataset(images, labels, num_classes=classes)
