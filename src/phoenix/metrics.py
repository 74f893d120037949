"""Sample-quality metrics in the eval classifier's feature space.

Frechet distance between Gaussian feature fits, the inception-style
exp-KL score, k-NN manifold precision/recall, and the class-distribution
comparison. All functions are deterministic in their inputs.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

import numpy as np

from .classifier import EvalClassifier

# k-NN precision/recall with k = 3 (Kynkaanniemi et al. 2019) and the
# inception score over ten splits (Salimans et al. 2016)
KNN_K = 3
IS_SPLITS = 10


@dataclass
class FeatureStats:
    """Gaussian fit of a feature cloud: sample mean and unbiased covariance."""

    mean: np.ndarray
    covariance: np.ndarray
    count: int


@dataclass
class MetricsReport:
    fid: float
    is_mean: float
    is_std: float
    precision: float
    recall: float
    class_histogram: list[int]
    tv_distance: float
    feature_space: str
    n_generated: int
    n_reference: int

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)


def gaussian_stats(features: np.ndarray) -> FeatureStats:
    feats = np.asarray(features, dtype=np.float64)
    if feats.ndim != 2 or feats.shape[0] < 2:
        raise ValueError(f"need an (N>=2, d) feature matrix, got shape {feats.shape}")
    mean = feats.mean(axis=0)
    cov = np.cov(feats, rowvar=False, ddof=1)
    cov = np.atleast_2d(cov)
    return FeatureStats(mean=mean, covariance=cov, count=feats.shape[0])


def matrix_sqrt_psd(mat: np.ndarray, sym_tol: float = 1e-8) -> np.ndarray:
    """Square root of a symmetric PSD matrix via eigendecomposition.

    Slightly negative eigenvalues from roundoff are clamped to zero.
    """
    mat = np.asarray(mat, dtype=np.float64)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"need a square matrix, got shape {mat.shape}")
    scale = max(1.0, float(np.abs(mat).max()))
    if np.abs(mat - mat.T).max() > sym_tol * scale:
        raise ValueError("matrix is not symmetric within tolerance")
    sym = (mat + mat.T) / 2.0
    eigvals, eigvecs = np.linalg.eigh(sym)
    eigvals = np.clip(eigvals, 0.0, None)
    return (eigvecs * np.sqrt(eigvals)) @ eigvecs.T


def frechet_distance(a: FeatureStats, b: FeatureStats) -> float:
    """||mu_a - mu_b||^2 + tr(Sa + Sb - 2 (Sa Sb)^{1/2}).

    The cross term is computed as tr sqrt(sqrt(Sa) Sb sqrt(Sa)), which
    equals tr sqrt(Sa Sb) and keeps the square root on a symmetric PSD
    matrix.
    """
    if a.mean.shape != b.mean.shape:
        raise ValueError(
            f"feature dims differ: {a.mean.shape} vs {b.mean.shape}"
        )
    diff = a.mean - b.mean
    sqrt_a = matrix_sqrt_psd(a.covariance)
    inner = sqrt_a @ b.covariance @ sqrt_a
    cross = np.trace(matrix_sqrt_psd((inner + inner.T) / 2.0))
    fid = float(diff @ diff + np.trace(a.covariance) + np.trace(b.covariance) - 2.0 * cross)
    return max(fid, 0.0)


def inception_style_score(probs: np.ndarray, splits: int = IS_SPLITS) -> tuple[float, float]:
    """exp(mean KL(p(y|x) || marginal)) per split; returns (mean, std)."""
    probs = np.asarray(probs, dtype=np.float64)
    if probs.ndim != 2:
        raise ValueError(f"need an (N, classes) matrix, got shape {probs.shape}")
    n = probs.shape[0]
    if splits < 1 or n < splits:
        raise ValueError(f"cannot split {n} rows into {splits} parts")
    if np.any(probs < 0) or np.abs(probs.sum(axis=1) - 1.0).max() > 1e-6:
        raise ValueError("rows must be probability distributions")
    per_split = n // splits
    scores = []
    for s in range(splits):
        lo = s * per_split
        hi = n if s == splits - 1 else lo + per_split  # remainder goes last
        part = probs[lo:hi]
        marginal = part.mean(axis=0)
        mask = part > 0
        logratio = np.zeros_like(part)
        logratio[mask] = np.log(part[mask] / marginal[np.nonzero(mask)[1]])
        kl = (part * logratio).sum(axis=1)
        scores.append(np.exp(kl.mean()))
    return float(np.mean(scores)), float(np.std(scores))


def _pairwise_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    sq = (a * a).sum(axis=1)[:, None] + (b * b).sum(axis=1)[None, :] - 2.0 * (a @ b.T)
    return np.sqrt(np.clip(sq, 0.0, None))


def _knn_radii(features: np.ndarray, k: int) -> np.ndarray:
    """Distance from each point to its k-th nearest neighbor in the same set."""
    dists = _pairwise_distances(features, features)
    # column k of the row-sorted matrix skips the zero self-distance
    return np.sort(dists, axis=1)[:, k]


def knn_precision_recall(
    real_features: np.ndarray,
    gen_features: np.ndarray,
    k: int = KNN_K,
) -> tuple[float, float]:
    """Manifold precision/recall via unions of k-th-neighbor balls.

    Precision: fraction of generated points inside some real-point ball.
    Recall: fraction of real points inside some generated-point ball.
    """
    real = np.asarray(real_features, dtype=np.float64)
    gen = np.asarray(gen_features, dtype=np.float64)
    if real.ndim != 2 or gen.ndim != 2 or real.shape[1] != gen.shape[1]:
        raise ValueError(
            f"feature matrices must share a dim: {real.shape} vs {gen.shape}"
        )
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    if len(real) < k + 1 or len(gen) < k + 1:
        raise ValueError(f"need at least k+1={k + 1} points per set")
    real_radii = _knn_radii(real, k)
    gen_radii = _knn_radii(gen, k)
    cross = _pairwise_distances(real, gen)  # rows: real, cols: gen
    precision = float((cross <= real_radii[:, None]).any(axis=0).mean())
    recall = float((cross <= gen_radii[None, :]).any(axis=1).mean())
    return precision, recall


def total_variation(hist_a: np.ndarray, hist_b: np.ndarray) -> float:
    """Half the L1 gap between the two histograms after normalization."""
    a = np.asarray(hist_a, dtype=np.float64)
    b = np.asarray(hist_b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"histogram shapes differ: {a.shape} vs {b.shape}")
    if a.sum() <= 0 or b.sum() <= 0:
        raise ValueError("histograms must have positive mass")
    return float(0.5 * np.abs(a / a.sum() - b / b.sum()).sum())


def _softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def sorted_histogram(counts: np.ndarray) -> list[tuple[int, int]]:
    """(class id, count) pairs in descending count order, for plotting."""
    order = np.argsort(-np.asarray(counts), kind="stable")
    return [(int(c), int(counts[c])) for c in order]


@dataclass
class MetricsContext:
    """One reference set, seen through the eval classifier.

    Holds the classifier together with the reference features and the
    reference class histogram, both from one classifier pass over the
    reference images.
    """

    reference_features: np.ndarray
    classifier: EvalClassifier
    reference_histogram: np.ndarray

    @classmethod
    def build(cls, reference_images: np.ndarray,
              classifier: EvalClassifier) -> "MetricsContext":
        features, logits = classifier.embed(reference_images)
        histogram = np.bincount(logits.argmax(axis=1), minlength=classifier.num_classes)
        return cls(features, classifier, histogram)

    def extract(self, images: np.ndarray) -> np.ndarray:
        """Classifier features of ``images``."""
        return self.classifier.embed(images)[0]


def compute_report(generated: np.ndarray, ctx: MetricsContext) -> MetricsReport:
    """Full metric sweep of a generated batch against ``ctx``'s reference set.

    One classifier pass over ``generated`` yields its features, its class
    posteriors and its class histogram.
    """
    gen_features, logits = ctx.classifier.embed(generated)
    fid = frechet_distance(
        gaussian_stats(ctx.reference_features), gaussian_stats(gen_features)
    )
    # splits of ten images or more (one below 20): a lone image scores exp(0) = 1
    splits = max(1, min(IS_SPLITS, len(generated) // IS_SPLITS))
    is_mean, is_std = inception_style_score(_softmax(logits), splits)
    precision, recall = knn_precision_recall(ctx.reference_features, gen_features)
    counts = np.bincount(logits.argmax(axis=1), minlength=ctx.classifier.num_classes)
    return MetricsReport(
        fid=fid,
        is_mean=is_mean,
        is_std=is_std,
        precision=precision,
        recall=recall,
        class_histogram=[int(c) for c in counts],
        tv_distance=total_variation(counts, ctx.reference_histogram),
        feature_space="classifier",
        n_generated=len(generated),
        n_reference=len(ctx.reference_features),
    )
