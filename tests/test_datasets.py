import numpy as np
import pytest

from phoenix.datasets import (
    DataFormatError,
    Dataset,
    load_cifar10,
    make_toy_dataset,
    toy_templates,
)


class TestCifarLoader:
    def test_train_split_size(self, cifar_dir):
        ds = load_cifar10(cifar_dir, "train")
        assert len(ds) == 50000
        assert ds.num_classes == 10
        assert ds.images.shape == (50000, 3, 32, 32)

    def test_test_split_size(self, cifar_dir):
        ds = load_cifar10(cifar_dir, "test")
        assert len(ds) == 10000

    def test_pixel_endpoint_mapping(self, cifar_dir):
        ds = load_cifar10(cifar_dir, "train")
        assert ds.images[0, 0, 0, 0] == pytest.approx(1.0)
        assert ds.images[0, 0, 0, 1] == pytest.approx(-1.0)
        assert ds.images.min() >= -1.0 and ds.images.max() <= 1.0

    def test_wrong_file_size_reports_offset(self, cifar_dir, tmp_path):
        bad = tmp_path / "cifar_bad"
        bad.mkdir()
        for name in [f"data_batch_{i}.bin" for i in range(1, 6)]:
            (bad / name).write_bytes((cifar_dir / name).read_bytes())
        (bad / "data_batch_3.bin").write_bytes(b"\x00" * 100)
        with pytest.raises(DataFormatError, match="offset"):
            load_cifar10(bad, "train")

    def test_bad_label_byte_reports_record(self, cifar_dir, tmp_path):
        bad = tmp_path / "cifar_label"
        bad.mkdir()
        raw = bytearray((cifar_dir / "test_batch.bin").read_bytes())
        raw[2 * 3073] = 17  # third record's label byte
        (bad / "test_batch.bin").write_bytes(bytes(raw))
        with pytest.raises(DataFormatError, match="record 2"):
            load_cifar10(bad, "test")

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataFormatError, match="missing"):
            load_cifar10(tmp_path, "train")


class TestToyDataset:
    def test_same_seed_identical(self):
        a = make_toy_dataset(4, 10, 8, seed=5)
        b = make_toy_dataset(4, 10, 8, seed=5)
        np.testing.assert_array_equal(a.images, b.images)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_sizes_and_balance(self):
        ds = make_toy_dataset(4, 250, 8, seed=1)
        assert len(ds) == 1000
        np.testing.assert_array_equal(np.bincount(ds.labels, minlength=4), [250] * 4)

    def test_values_clamped(self):
        ds = make_toy_dataset(4, 50, 8, seed=2)
        assert ds.images.min() >= -1.0 and ds.images.max() <= 1.0

    def test_nearest_template_classifies_samples(self):
        # class-separability oracle: 1-NN against the clean templates
        ds = make_toy_dataset(4, 250, 8, seed=3)
        templates = toy_templates(4, 8).reshape(4, -1)
        flat = ds.images.reshape(len(ds), -1)
        d2 = ((flat[:, None, :] - templates[None, :, :]) ** 2).sum(axis=2)
        predicted = d2.argmin(axis=1)
        accuracy = (predicted == ds.labels).mean()
        assert accuracy >= 0.95

    def test_too_many_classes_rejected(self):
        with pytest.raises(ValueError):
            make_toy_dataset(9, 5, 8, seed=0)

    def test_all_templates_renderable_and_distinct(self):
        templates = toy_templates(8, 8).reshape(8, -1)
        for i in range(8):
            for j in range(i + 1, 8):
                assert not np.array_equal(templates[i], templates[j])

    def test_minimums_enforced(self):
        with pytest.raises(ValueError):
            make_toy_dataset(1, 5, 8, seed=0)
        with pytest.raises(ValueError):
            make_toy_dataset(4, 5, 3, seed=0)


class TestDatasetType:
    def test_subset_keeps_alignment(self):
        ds = make_toy_dataset(4, 10, 8, seed=1)
        sub = ds.subset([3, 5, 7])
        np.testing.assert_array_equal(sub.labels, ds.labels[[3, 5, 7]])
        np.testing.assert_array_equal(sub.images, ds.images[[3, 5, 7]])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Dataset(np.zeros((3, 1, 4, 4), np.float32), np.zeros(2, np.int64), 2)

    def test_label_range_checked(self):
        with pytest.raises(ValueError):
            Dataset(np.zeros((2, 1, 4, 4), np.float32), np.array([0, 5]), 2)
