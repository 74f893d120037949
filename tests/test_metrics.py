import pickle
import weakref

import numpy as np
import pytest

from phoenix import autodiff as ad
from phoenix.classifier import (
    FEATURE_DIM,
    EvalClassifier,
    load_classifier,
    save_classifier,
    train_eval_classifier,
)
from phoenix.datasets import make_toy_dataset
from phoenix.layers import as_leaves
from phoenix.metrics import (
    FeatureStats,
    MetricsContext,
    _softmax,
    compute_report,
    frechet_distance,
    gaussian_stats,
    inception_style_score,
    knn_precision_recall,
    matrix_sqrt_psd,
    sorted_histogram,
    total_variation,
)


class TestGaussianStats:
    def test_constant_rows_have_zero_covariance(self):
        stats = gaussian_stats(np.full((5, 3), 2.0))
        np.testing.assert_array_equal(stats.covariance, np.zeros((3, 3)))
        np.testing.assert_array_equal(stats.mean, [2.0, 2.0, 2.0])

    def test_two_point_hand_computation(self):
        stats = gaussian_stats(np.array([[0.0, 0.0], [2.0, 0.0]]))
        np.testing.assert_allclose(stats.mean, [1.0, 0.0])
        np.testing.assert_allclose(stats.covariance, [[2.0, 0.0], [0.0, 0.0]])
        assert stats.count == 2

    def test_permutation_invariant(self):
        rng = np.random.default_rng(0)
        feats = rng.standard_normal((20, 4))
        a = gaussian_stats(feats)
        b = gaussian_stats(feats[rng.permutation(20)])
        np.testing.assert_allclose(a.mean, b.mean)
        np.testing.assert_allclose(a.covariance, b.covariance, atol=1e-12)

    def test_single_row_rejected(self):
        with pytest.raises(ValueError):
            gaussian_stats(np.ones((1, 3)))


class TestMatrixSqrt:
    def test_identity(self):
        np.testing.assert_allclose(matrix_sqrt_psd(np.eye(4)), np.eye(4), atol=1e-12)

    def test_diagonal(self):
        np.testing.assert_allclose(
            matrix_sqrt_psd(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]), atol=1e-12
        )

    def test_random_psd_reconstruction(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((6, 6))
        m = a.T @ a
        s = matrix_sqrt_psd(m)
        err = np.linalg.norm(s @ s - m) / np.linalg.norm(m)
        assert err < 1e-6

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError):
            matrix_sqrt_psd(np.array([[1.0, 2.0], [0.0, 1.0]]))


class TestFrechet:
    def test_identical_stats_zero(self):
        rng = np.random.default_rng(2)
        stats = gaussian_stats(rng.standard_normal((50, 5)))
        assert frechet_distance(stats, stats) == pytest.approx(0.0, abs=1e-9)

    def test_one_dimensional_mean_shift(self):
        # 1-D closed form: (mu1-mu2)^2 + (sigma1-sigma2)^2
        a = FeatureStats(np.array([0.0]), np.array([[1.0]]), 10)
        b = FeatureStats(np.array([2.0]), np.array([[1.0]]), 10)
        assert frechet_distance(a, b) == pytest.approx(4.0, abs=1e-9)

    def test_one_dimensional_variance_gap(self):
        a = FeatureStats(np.array([0.0]), np.array([[1.0]]), 10)
        b = FeatureStats(np.array([0.0]), np.array([[4.0]]), 10)
        assert frechet_distance(a, b) == pytest.approx(1.0, abs=1e-9)

    def test_symmetric_and_nonnegative(self):
        rng = np.random.default_rng(3)
        a = gaussian_stats(rng.standard_normal((40, 4)))
        b = gaussian_stats(rng.standard_normal((40, 4)) + 0.5)
        ab = frechet_distance(a, b)
        ba = frechet_distance(b, a)
        assert ab == pytest.approx(ba, rel=1e-9)
        assert ab >= 0

    def test_dim_mismatch_rejected(self):
        a = FeatureStats(np.zeros(2), np.eye(2), 5)
        b = FeatureStats(np.zeros(3), np.eye(3), 5)
        with pytest.raises(ValueError):
            frechet_distance(a, b)


class TestInceptionStyleScore:
    def test_uniform_rows_score_one(self):
        probs = np.full((40, 5), 0.2)
        mean, std = inception_style_score(probs, splits=4)
        assert mean == pytest.approx(1.0, abs=1e-9)
        assert std == pytest.approx(0.0, abs=1e-9)

    def test_uniform_one_hots_score_class_count(self):
        classes = 6
        rows = np.eye(classes)[np.arange(60) % classes]
        mean, std = inception_style_score(rows, splits=5)
        assert mean == pytest.approx(classes, abs=1e-9)
        assert std == pytest.approx(0.0, abs=1e-9)

    def test_single_repeated_one_hot_scores_one(self):
        rows = np.zeros((30, 4))
        rows[:, 2] = 1.0
        mean, _ = inception_style_score(rows, splits=3)
        assert mean == pytest.approx(1.0, abs=1e-9)

    def test_remainder_rows_go_to_last_split(self):
        rng = np.random.default_rng(4)
        logits = rng.standard_normal((23, 4))
        probs = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
        mean, std = inception_style_score(probs, splits=5)
        assert np.isfinite(mean) and np.isfinite(std)

    def test_score_within_class_count_bounds(self):
        rng = np.random.default_rng(5)
        logits = rng.standard_normal((100, 7))
        probs = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
        mean, _ = inception_style_score(probs, splits=10)
        assert 1.0 - 1e-9 <= mean <= 7.0 + 1e-9

    def test_invalid_rows_rejected(self):
        with pytest.raises(ValueError):
            inception_style_score(np.full((10, 3), 0.5), splits=2)


def brute_force_precision_recall(real, gen, k):
    """O(N^2) literal re-implementation of the manifold definitions."""
    def radius(points, i):
        dists = sorted(np.linalg.norm(points - points[i], axis=1))
        return dists[k]  # index 0 is the self-distance

    real_radii = [radius(real, i) for i in range(len(real))]
    gen_radii = [radius(gen, i) for i in range(len(gen))]
    in_real = [
        any(np.linalg.norm(g - r) <= real_radii[i] for i, r in enumerate(real))
        for g in gen
    ]
    in_gen = [
        any(np.linalg.norm(r - g) <= gen_radii[j] for j, g in enumerate(gen))
        for r in real
    ]
    return float(np.mean(in_real)), float(np.mean(in_gen))


class TestKnnPrecisionRecall:
    def test_identical_sets_score_perfect(self):
        rng = np.random.default_rng(6)
        pts = rng.standard_normal((15, 3))
        assert knn_precision_recall(pts, pts.copy(), k=3) == (1.0, 1.0)

    def test_distant_sets_score_zero(self):
        rng = np.random.default_rng(7)
        real = rng.standard_normal((15, 3))
        gen = rng.standard_normal((15, 3)) + 1000.0
        assert knn_precision_recall(real, gen, k=3) == (0.0, 0.0)

    def test_matches_brute_force_on_20_point_sets(self):
        rng = np.random.default_rng(8)
        real = rng.standard_normal((20, 2))
        gen = rng.standard_normal((20, 2)) * 1.3 + 0.4
        got = knn_precision_recall(real, gen, k=3)
        want = brute_force_precision_recall(real, gen, k=3)
        assert got[0] == pytest.approx(want[0], abs=1e-12)
        assert got[1] == pytest.approx(want[1], abs=1e-12)

    def test_permutation_invariant(self):
        rng = np.random.default_rng(9)
        real = rng.standard_normal((12, 4))
        gen = rng.standard_normal((14, 4))
        base = knn_precision_recall(real, gen, k=3)
        shuffled = knn_precision_recall(
            real[rng.permutation(12)], gen[rng.permutation(14)], k=3
        )
        assert base == shuffled

    def test_rigid_rotation_invariant(self):
        rng = np.random.default_rng(10)
        real = rng.standard_normal((12, 3))
        gen = rng.standard_normal((14, 3))
        q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        base = knn_precision_recall(real, gen, k=3)
        rotated = knn_precision_recall(real @ q, gen @ q, k=3)
        assert base[0] == pytest.approx(rotated[0], abs=1e-9)
        assert base[1] == pytest.approx(rotated[1], abs=1e-9)

    def test_small_sets_rejected(self):
        pts = np.zeros((3, 2))
        with pytest.raises(ValueError):
            knn_precision_recall(pts, pts, k=3)

    def test_k_below_one_rejected(self):
        # k=0 would take each point's zero self-distance as its radius
        pts = np.random.default_rng(11).standard_normal((8, 2))
        with pytest.raises(ValueError, match="k must be at least 1"):
            knn_precision_recall(pts, pts, k=0)


class TestTotalVariation:
    def test_equal_histograms(self):
        assert total_variation([5, 5, 5], [10, 10, 10]) == pytest.approx(0.0)

    def test_delta_versus_uniform_over_ten(self):
        delta = np.zeros(10)
        delta[0] = 100
        assert total_variation(delta, np.full(10, 7)) == pytest.approx(0.9, abs=1e-12)

    def test_bounds(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            a = rng.integers(0, 50, size=6) + 1
            b = rng.integers(0, 50, size=6) + 1
            tv = total_variation(a, b)
            assert 0.0 <= tv <= 1.0


@pytest.fixture(scope="module")
def toy_train():
    return make_toy_dataset(4, 120, 8, seed=20)


@pytest.fixture(scope="module")
def toy_test():
    return make_toy_dataset(4, 40, 8, seed=21)


@pytest.fixture(scope="module")
def toy_classifier(toy_train):
    return train_eval_classifier(toy_train, epochs=4, seed=20)


class TestEvalClassifier:
    @pytest.mark.parametrize("seed", [20, 21, 22])
    def test_heldout_accuracy(self, toy_train, toy_test, seed):
        clf = train_eval_classifier(toy_train, epochs=4, seed=seed)
        predicted = clf.embed(toy_test.images)[1].argmax(axis=1)
        assert (predicted == toy_test.labels).mean() >= 0.9

    def test_probabilities_sum_to_one(self, toy_classifier, toy_test):
        probs = _softmax(toy_classifier.embed(toy_test.images[:32])[1])
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-6)

    def test_same_seed_identical(self, toy_train):
        a = train_eval_classifier(toy_train, epochs=1, seed=5)
        b = train_eval_classifier(toy_train, epochs=1, seed=5)
        for name in a.params:
            np.testing.assert_array_equal(a.params[name], b.params[name])

    def test_previous_batch_graph_freed_before_next_forward(self, toy_train,
                                                             monkeypatch):
        # Tensor has no weakref slot, so the loss's array stands in for it
        losses = []
        forward, nll_loss = EvalClassifier._forward, ad.nll_loss

        def spy_forward(self, p, images):
            assert all(ref() is None for ref in losses)
            return forward(self, p, images)

        def spy_nll_loss(log_probs, labels):
            loss = nll_loss(log_probs, labels)
            losses.append(weakref.ref(loss.data))
            return loss

        monkeypatch.setattr(EvalClassifier, "_forward", spy_forward)
        monkeypatch.setattr(ad, "nll_loss", spy_nll_loss)
        train_eval_classifier(toy_train.subset(np.arange(0, len(toy_train), 5)),
                              epochs=1, seed=5)
        assert len(losses) > 1

    def test_single_class_rejected(self, toy_train):
        single = toy_train.subset(np.nonzero(toy_train.labels == 0)[0])
        with pytest.raises(ValueError):
            train_eval_classifier(single, epochs=1, seed=0)

    def test_checkpoint_round_trip(self, toy_classifier, toy_train, toy_test, tmp_path):
        path = tmp_path / "clf.phxc"
        save_classifier(path, toy_classifier)
        loaded = load_classifier(path, toy_train)
        for got, want in zip(loaded.embed(toy_test.images[:8]),
                             toy_classifier.embed(toy_test.images[:8])):
            np.testing.assert_array_equal(got, want)

    def test_features_have_declared_dim(self, toy_classifier, toy_test):
        feats, logits = toy_classifier.embed(toy_test.images[:8])
        assert feats.shape == (8, FEATURE_DIM)
        assert logits.shape == (8, toy_classifier.num_classes)

    def test_embed_matches_a_single_forward_pass(self, toy_classifier, toy_test):
        # 300 rows span two 256-row blocks; each row's outputs must not
        # depend on which block it lands in
        images = np.concatenate([toy_test.images] * 2)[:300]
        feats, logits = toy_classifier.embed(images)
        p = as_leaves(toy_classifier.params, requires_grad=False)
        for lo, hi in ((0, 256), (256, 300)):
            want_feats, want_logits = toy_classifier._forward(p, images[lo:hi])
            np.testing.assert_array_equal(feats[lo:hi], want_feats.data)
            np.testing.assert_array_equal(logits[lo:hi], want_logits.data)


class TestReport:
    def test_reference_scored_against_itself(self, toy_classifier, toy_test):
        ctx = MetricsContext.build(toy_test.images, toy_classifier)
        report = compute_report(toy_test.images, ctx)
        assert report.fid == pytest.approx(0.0, abs=1e-6)
        assert report.precision == 1.0
        assert report.recall == 1.0
        assert report.tv_distance == pytest.approx(0.0, abs=1e-12)
        assert sum(report.class_histogram) == len(toy_test)

    def test_json_fields(self, toy_classifier, toy_test):
        import json
        ctx = MetricsContext.build(toy_test.images, toy_classifier)
        report = compute_report(toy_test.images[:32], ctx)
        doc = json.loads(report.to_json())
        assert set(doc) == {
            "fid", "is_mean", "is_std", "precision", "recall", "class_histogram",
            "tv_distance", "feature_space", "n_generated", "n_reference",
        }
        assert doc["n_generated"] == 32
        assert doc["feature_space"] == "classifier"

    @pytest.mark.parametrize("count, splits", [(16, 1), (19, 1), (20, 2), (128, 10)])
    def test_is_splits_hold_ten_images_each(self, count, splits):
        # confident rows over four classes; ten one-image splits of 16 rows
        # would read 1.23, as if every sample were of one class
        class Confident:
            num_classes = 4

            def embed(self, images):
                probs = np.full((len(images), 4), 0.01)
                probs[np.arange(len(images)), np.arange(len(images)) % 4] = 0.97
                return images.reshape(len(images), -1), np.log(probs)

        rng = np.random.default_rng(6)
        ctx = MetricsContext(rng.standard_normal((8, 2)), Confident(), np.full(4, 2))
        generated = rng.standard_normal((count, 2))
        report = compute_report(generated, ctx)
        _, logits = Confident().embed(generated)
        assert (report.is_mean, report.is_std) == inception_style_score(_softmax(logits), splits)
        if count == 16:
            assert report.is_mean == pytest.approx(3.38, abs=0.01)

    def test_sorted_histogram_descending(self):
        pairs = sorted_histogram(np.array([3, 9, 1, 9]))
        assert pairs == [(1, 9), (3, 9), (0, 3), (2, 1)]

    def test_context_survives_pickle(self, toy_classifier, toy_test):
        # a client job's arguments, the context among them, must be able to
        # travel to a child process as they are
        ctx = MetricsContext.build(toy_test.images, toy_classifier)
        loaded = pickle.loads(pickle.dumps(ctx))
        np.testing.assert_array_equal(loaded.reference_features, ctx.reference_features)
        np.testing.assert_array_equal(loaded.extract(toy_test.images[:8]),
                                      ctx.extract(toy_test.images[:8]))

    def test_report_classifies_each_image_once(self, toy_classifier, toy_test, monkeypatch):
        ctx = MetricsContext.build(toy_test.images, toy_classifier)
        generated = np.concatenate([toy_test.images] * 2)[:300]
        batches = []
        original = EvalClassifier._forward

        def counting(self, p, images):
            batches.append(len(images))
            return original(self, p, images)

        monkeypatch.setattr(EvalClassifier, "_forward", counting)
        report = compute_report(generated, ctx)
        assert batches == [256, 44]
        assert report.n_generated == 300
        assert report.n_reference == len(toy_test)
