import json

import numpy as np
import pytest

from phoenix.cli import main
from phoenix.datasets import Dataset, make_toy_dataset
from phoenix.partition import (
    data_sharing_split,
    partition_iid,
    partition_label_skew,
    plan_to_json,
    round_half_up,
    save_plan,
)


def label_only_dataset(labels: np.ndarray, num_classes: int) -> Dataset:
    """A dataset stub where only the labels matter (1-pixel images)."""
    return Dataset(np.zeros((len(labels), 1, 1, 1), np.float32),
                   labels.astype(np.int64), num_classes)


@pytest.fixture(scope="module")
def cifar_labels():
    # balanced 10-class labels at CIFAR-10 training size
    return label_only_dataset(np.repeat(np.arange(10), 5000), 10)


def assert_disjoint_cover(lists, universe):
    seen = [i for part in lists for i in part]
    assert len(seen) == len(set(seen)), "assignments overlap"
    assert set(seen) == set(universe), "assignments do not cover the pool"


class TestIid:
    def test_equal_split_at_cifar_scale(self, cifar_labels):
        plan = partition_iid(cifar_labels, 10, seed=0)
        assert [len(a) for a in plan.assignments] == [5000] * 10
        assert_disjoint_cover(plan.assignments, range(50000))

    def test_class_balance_of_seeded_shuffle(self, cifar_labels):
        # a plain unbiased shuffle leaves every per-client class count near
        # N/(k*classes): on average well within 5%, per cell within 15%
        # (the max over 100 hypergeometric cells sits around 2.5-3 sigma,
        # i.e. ~10% of the ideal 500, so a 5% per-cell bound is unattainable)
        plan = partition_iid(cifar_labels, 10, seed=0)
        expected = 50000 / (10 * 10)
        deviations = []
        for part in plan.assignments:
            counts = np.bincount(cifar_labels.labels[np.array(part)], minlength=10)
            deviations.extend(np.abs(counts - expected))
        deviations = np.array(deviations)
        assert deviations.mean() <= 0.05 * expected
        assert deviations.max() <= 0.15 * expected

    def test_remainder_front_loaded(self):
        ds = label_only_dataset(np.arange(10) % 3, 3)
        plan = partition_iid(ds, 4, seed=1)
        assert [len(a) for a in plan.assignments] == [3, 3, 2, 2]
        assert_disjoint_cover(plan.assignments, range(10))

    def test_determinism(self, cifar_labels):
        a = partition_iid(cifar_labels, 10, seed=3)
        b = partition_iid(cifar_labels, 10, seed=3)
        assert a.assignments == b.assignments

    def test_too_many_clients_rejected(self):
        ds = label_only_dataset(np.zeros(3, np.int64), 1)
        with pytest.raises(ValueError):
            partition_iid(ds, 4, seed=0)


class TestLabelSkew:
    def test_cifar_shard_arithmetic(self, cifar_labels):
        plan = partition_label_skew(cifar_labels, 10, 2, seed=0)
        assert_disjoint_cover(plan.assignments, range(50000))
        # 20 equal shards of 2500: each class spans exactly 2 shards, so a
        # class appears in at most 2 clients and every client in 2500-sample
        # increments
        for part in plan.assignments:
            assert len(part) == 5000
        owners = {c: 0 for c in range(10)}
        for part in plan.assignments:
            for c in np.unique(cifar_labels.labels[np.array(part)]):
                owners[int(c)] += 1
        assert all(1 <= n <= 2 for n in owners.values())

    def test_label_bound_holds(self, cifar_labels):
        plan = partition_label_skew(cifar_labels, 10, 2, seed=0)
        for part in plan.assignments:
            assert len(np.unique(cifar_labels.labels[np.array(part)])) <= 2

    def test_label_bound_on_toy_dataset(self):
        ds = make_toy_dataset(4, 50, 8, seed=1)
        plan = partition_label_skew(ds, 4, 2, seed=2)
        assert_disjoint_cover(plan.assignments, range(len(ds)))
        for part in plan.assignments:
            assert len(np.unique(ds.labels[np.array(part)])) <= 2

    def test_single_client_degenerate(self):
        ds = make_toy_dataset(4, 10, 8, seed=1)
        plan = partition_label_skew(ds, 1, 2, seed=0)
        assert len(plan.assignments) == 1
        assert sorted(plan.assignments[0]) == list(range(len(ds)))

    def test_infeasible_coverage_rejected(self):
        ds = make_toy_dataset(8, 5, 8, seed=1)
        with pytest.raises(ValueError):
            partition_label_skew(ds, 2, 2, seed=0)  # 2*2 < 8 classes


class TestDataSharing:
    @pytest.mark.parametrize("beta,alpha,server_size,client_size", [
        (5, 100, 2000, 6000),
        (15, 100, 6000, 10000),
        (25, 100, 10000, 14000),
        (25, 25, 10000, 6500),
        (25, 50, 10000, 9000),
        (25, 75, 10000, 11500),
    ])
    def test_published_size_table(self, cifar_labels, beta, alpha,
                                  server_size, client_size):
        plan = data_sharing_split(cifar_labels, 10, beta, alpha, 2, seed=0)
        assert len(plan.shared_pool) == server_size
        assert all(len(m) == client_size for m in plan.assignments)
        assert all(len(p) == 4000 for p in plan.client_part)

    @pytest.mark.parametrize("beta", [2.5, 5, 15, 25])
    @pytest.mark.parametrize("alpha", [0, 25, 50, 75, 100])
    def test_size_invariants_hold_on_desk_data(self, beta, alpha):
        ds = make_toy_dataset(4, 125, 8, seed=3)
        plan = data_sharing_split(ds, 4, beta, alpha, 2, seed=1)
        n = len(ds)
        client_pool = {i for part in plan.client_part for i in part}
        pool_size = len(client_pool)
        assert pool_size + round_half_up(0.2 * n) == n
        g = round_half_up(beta / 100 * pool_size)
        assert len(plan.shared_pool) == g
        merge = round_half_up(alpha / 100 * g)
        for part, merged in zip(plan.client_part, plan.assignments):
            assert len(merged) == len(part) + merge
        # G drawn from the server pool: disjoint from every client part
        assert not client_pool & set(plan.shared_pool)

    def test_alpha_zero_reduces_to_label_skew_of_client_pool(self):
        ds = make_toy_dataset(4, 125, 8, seed=3)
        plan = data_sharing_split(ds, 4, 25, 0, 2, seed=1)
        assert plan.assignments == plan.client_part
        for part in plan.client_part:
            assert len(np.unique(ds.labels[np.array(part)])) <= 2

    def test_merged_subset_identical_across_clients(self):
        ds = make_toy_dataset(4, 125, 8, seed=3)
        plan = data_sharing_split(ds, 4, 25, 50, 2, seed=1)
        extras = [sorted(set(m) - set(p))
                  for m, p in zip(plan.assignments, plan.client_part)]
        assert all(e == extras[0] for e in extras)
        assert set(extras[0]) <= set(plan.shared_pool)

    def test_stratified_split_balances_classes(self, cifar_labels):
        plan = data_sharing_split(cifar_labels, 10, 25, 100, 2, seed=0)
        shared_labels = cifar_labels.labels[np.array(plan.shared_pool)]
        counts = np.bincount(shared_labels, minlength=10)
        assert counts.sum() == 10000
        assert np.all(np.abs(counts - 1000) <= 0.1 * 1000)

    def test_beta_exceeding_server_pool_rejected(self):
        ds = make_toy_dataset(4, 125, 8, seed=3)
        with pytest.raises(ValueError):
            data_sharing_split(ds, 4, 50, 100, 2, seed=1)  # needs |G| = 200 > |S| = 100

    def test_determinism(self):
        ds = make_toy_dataset(4, 125, 8, seed=3)
        a = data_sharing_split(ds, 4, 25, 50, 2, seed=9)
        b = data_sharing_split(ds, 4, 25, 50, 2, seed=9)
        assert a.assignments == b.assignments
        assert a.shared_pool == b.shared_pool


class TestPlanJson:
    def test_partition_round_trip(self, tmp_path):
        # the CLI refuses any plan.json but the document plan_to_json makes,
        # so save_plan must write exactly that document
        ds = make_toy_dataset(4, 20, 8, seed=1)
        path = tmp_path / "plan.json"
        for plan in (partition_iid(ds, 4, seed=5), partition_label_skew(ds, 4, 2, seed=5)):
            save_plan(path, plan)
            assert json.loads(path.read_text()) == plan_to_json(plan)

    def test_sharing_round_trip(self, tmp_path):
        ds = make_toy_dataset(4, 50, 8, seed=1)
        plan = data_sharing_split(ds, 4, 25, 50, 2, seed=5)
        path = tmp_path / "plan.json"
        save_plan(path, plan)
        assert json.loads(path.read_text()) == plan_to_json(plan)

    def test_failed_save_keeps_previous_plan(self, tmp_path):
        ds = make_toy_dataset(4, 20, 8, seed=1)
        path = tmp_path / "plan.json"
        save_plan(path, partition_iid(ds, 4, seed=5))
        old = path.read_bytes()
        broken = partition_iid(ds, 4, seed=6)
        # 'seed' follows 'clients' in key order, so the write fails midway
        broken.seed = object()
        with pytest.raises(TypeError):
            save_plan(path, broken)
        assert path.read_bytes() == old
        assert list(tmp_path.iterdir()) == [path]

    def test_json_schema_keys(self):
        ds = make_toy_dataset(4, 20, 8, seed=1)
        common = {"mode", "clients", "shared_pool", "beta_pct", "alpha_pct",
                  "classes_per_client", "seed"}
        plans = [partition_iid(ds, 4, seed=5), partition_label_skew(ds, 4, 2, seed=5),
                 data_sharing_split(ds, 4, 25, 50, 2, seed=5)]
        assert [set(plan_to_json(plan)) for plan in plans] == [
            common, common, common | {"client_part"}]

    @staticmethod
    def refused(tmp_path, capsys, edit) -> str:
        """The error ``phoenix warmup`` prints for the data-sharing plan
        ``phoenix partition`` wrote, after ``edit`` changed its document;
        asserts exit 2 and that the refusal wrote nothing."""
        out = tmp_path / "out"
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "preset": "desk", "dataset": {"per_class": 15, "test_per_class": 12},
            "partition": {"mode": "data_sharing"}, "out_dir": str(out)}))
        assert main(["partition", "--config", str(config)]) == 0
        doc = json.loads((out / "plan.json").read_text())
        edit(doc)
        (out / "plan.json").write_text(json.dumps(doc))
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        capsys.readouterr()
        assert main(["warmup", "--config", str(config)]) == 2
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before
        return capsys.readouterr().err

    def test_unknown_mode_rejected(self, tmp_path, capsys):
        err = self.refused(tmp_path, capsys, lambda doc: doc.update(mode="bogus"))
        assert "['mode']" in err

    @pytest.mark.parametrize("key", ["mode", "clients", "seed"])
    def test_missing_key_rejected(self, tmp_path, capsys, key):
        err = self.refused(tmp_path, capsys, lambda doc: doc.pop(key))
        assert f"['{key}']" in err

    @pytest.mark.parametrize("key, value", [
        ("clients", 5),
        ("clients", [0, 1]),
        ("clients", [[0, "1"]]),
        ("clients", [[0, 1.0]]),
        ("clients", [[0, True]]),
        ("clients", [[0, -1]]),
        ("client_part", [[0], 3]),
        ("shared_pool", [[0]]),
        ("shared_pool", "0,1"),
    ], ids=["int", "flat-list", "string", "float", "bool", "negative", "part-int",
            "pool-nested", "pool-string"])
    def test_malformed_index_lists_rejected(self, tmp_path, capsys, key, value):
        err = self.refused(tmp_path, capsys, lambda doc: doc.update({key: value}))
        assert f"['{key}']" in err
