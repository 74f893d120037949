import csv
import errno
import gc
import multiprocessing
import os
import subprocess
import sys
import textwrap
import time
import weakref
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

import phoenix.federation as federation
from phoenix import autodiff as ad
from phoenix import diffusion, parallel
from phoenix.datasets import Dataset, make_toy_dataset
from phoenix.federation import (
    ClientState,
    ClientUpdate,
    FederationConfig,
    FederationError,
    RunningSum,
    RunRow,
    fedavg,
    heldout_loss,
    local_train,
    run_federation,
    warmup_train,
)
from phoenix.filtering import DropPolicy
from phoenix.optim import BLOCK, AdamState, adam_step
from phoenix.partition import PartitionPlan, partition_label_skew
from phoenix.schedule import linear_schedule
from phoenix.seeding import (
    DOMAIN_EVAL,
    DOMAIN_SHUFFLE,
    DOMAIN_TRAIN_NOISE,
    derive_rng,
    derive_seed,
)
from phoenix.unet import DenoiserConfig, build_unet

TINY = DenoiserConfig(base_channels=4, time_embed_dim=8)


def tiny_config(**overrides) -> FederationConfig:
    defaults = dict(
        client_count=2,
        server_rounds=1,
        local_epochs=1,
        batch_size=8,
        learning_rate=1e-3,
        schedule=linear_schedule(10),
        warmup_epochs=2,
        eval_sample_count=8,
        eval_start_round=1,
    )
    defaults.update(overrides)
    return FederationConfig(**defaults)


@pytest.fixture(scope="module")
def dataset():
    return make_toy_dataset(4, 16, 8, seed=31)


@pytest.fixture()
def model():
    return build_unet(TINY, seed=8)


def scripted_losses(*rounds):
    """A ``heldout_loss`` stand-in: in round r, client i's loss is
    1/rounds[r - 1][i], so the filter's score, the round's median loss over
    the client's, orders the clients as that map does. Rounds past the last
    map reuse it."""
    def loss(model, images, config, round_no, client_id, seed):
        return 1.0 / rounds[min(round_no, len(rounds)) - 1][client_id]
    return loss


def make_plan(dataset, client_count):
    return partition_label_skew(dataset, client_count, 2, seed=5)


def in_arena(array: np.ndarray) -> bool:
    """Whether ``array`` is an ``ALIGN``-aligned view of the byte arena that
    ``parallel.recv`` read its message into, so it crossed without a copy."""
    root = array
    while isinstance(root.base, np.ndarray):
        root = root.base
    return (not array.flags.owndata and root is not array and root.dtype == np.uint8
            and root.ndim == 1 and array.ctypes.data % parallel.ALIGN == 0)


def timeless_rows(runlog):
    """Runlog rows without ``wall_ms``, the one column that varies run to run."""
    return [tuple(v for k, v in asdict(r).items() if k != "wall_ms") for r in runlog.rows]


class TestWarmup:
    def test_zero_epochs_returns_seeded_initial_model(self, dataset):
        cfg = tiny_config(warmup_epochs=0)
        model, curve = warmup_train(dataset, TINY, cfg, seed=3)
        fresh = build_unet(TINY, seed=3)
        assert curve == []
        for name in fresh.params:
            np.testing.assert_array_equal(model.params[name], fresh.params[name])

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_training_reduces_loss_on_own_batches(self, seed):
        shared = make_toy_dataset(4, 24, 8, seed=40 + seed)
        cfg = tiny_config(warmup_epochs=5, learning_rate=2e-3)
        before = build_unet(TINY, seed=seed)
        after, _ = warmup_train(shared, TINY, cfg, seed=seed)

        def fixed_loss(m):
            rng = np.random.default_rng(7)
            t = rng.integers(1, cfg.schedule.steps + 1, size=len(shared))
            noise = rng.standard_normal(shared.images.shape).astype(np.float32)
            loss, _ = diffusion.training_loss(m, cfg.schedule, shared.images, t, noise)
            return loss.item()

        assert fixed_loss(after) <= fixed_loss(before)

    def test_determinism(self, dataset):
        cfg = tiny_config(warmup_epochs=2)
        a, curve_a = warmup_train(dataset, TINY, cfg, seed=9)
        b, curve_b = warmup_train(dataset, TINY, cfg, seed=9)
        assert curve_a == curve_b
        for name in a.params:
            np.testing.assert_array_equal(a.params[name], b.params[name])

    def test_empty_pool_rejected(self, dataset):
        cfg = tiny_config()
        with pytest.raises(ValueError):
            warmup_train(dataset.subset([]), TINY, cfg, seed=0)


class TestLocalTrain:
    def test_update_contains_all_names_without_personalization(self, dataset, model):
        cfg = tiny_config()
        client = ClientState(id=0, data_indices=list(range(8)))
        update, state = local_train(client, model, dataset, cfg, round_no=1, seed=1)
        assert set(update.params) == set(model.params)
        assert update.sample_count == 8
        assert state.personal_params == {}

    def test_personalization_strips_personal_names(self, dataset, model):
        cfg = tiny_config(personalization=True)
        client = ClientState(id=0, data_indices=list(range(8)))
        update, state = local_train(client, model, dataset, cfg, round_no=1, seed=1)
        assert set(update.params) == set(model.params) - set(model.personal_names)
        assert list(state.personal_params) == [
            k for k in model.params if k in model.personal_names
        ]
        # the next state comes back; the client passed in is not written
        assert client.personal_params == {}
        assert client.optimizer_state is None

    def test_fault_leaves_client_state_untouched(self, dataset, model, monkeypatch):
        # a NaN gradient in the second Adam step must leave the client exactly
        # as the previous successful call left it
        cfg = tiny_config(personalization=True, batch_size=4)
        _, client = local_train(ClientState(id=0, data_indices=list(range(8))),
                                model, dataset, cfg, round_no=1, seed=1)
        state = client.optimizer_state
        before = (
            state.step_count,
            {k: v.copy() for k, v in state.first_moment.items()},
            {k: v.copy() for k, v in state.second_moment.items()},
            {k: v.copy() for k, v in client.personal_params.items()},
        )
        calls = []

        def step(params, grads, st):
            calls.append(st)
            if len(calls) == 2:
                grads = dict(grads)
                last = list(grads)[-1]
                grads[last] = np.full_like(grads[last], np.nan)
            return adam_step(params, grads, st)

        monkeypatch.setattr(federation, "adam_step", step)
        with pytest.raises(ad.NumericError):
            local_train(client, model, dataset, cfg, round_no=2, seed=1)
        assert len(calls) == 2
        step_count, first, second, personal = before
        assert client.optimizer_state.step_count == step_count == 2
        for saved, now in ((first, client.optimizer_state.first_moment),
                           (second, client.optimizer_state.second_moment),
                           (personal, client.personal_params)):
            assert list(saved) == list(now)
            for name in saved:
                np.testing.assert_array_equal(now[name], saved[name])

    def test_empty_client_is_skipped(self, dataset, model):
        cfg = tiny_config()
        client = ClientState(id=0, data_indices=[])
        assert local_train(client, model, dataset, cfg, round_no=1, seed=1) is None

    def test_single_full_batch_step_matches_direct_adam(self, dataset, model):
        # oracle: replay the same shuffled batch and keyed noise through
        # training_loss/backward/adam_step by hand
        cfg = tiny_config(batch_size=64, local_epochs=1)
        indices = list(range(10))
        client = ClientState(id=3, data_indices=indices)
        update, _ = local_train(client, model, dataset, cfg, round_no=2, seed=11)

        idx = np.asarray(indices)
        order = idx[derive_rng(11, DOMAIN_SHUFFLE, 3, 2, 0).permutation(len(idx))]
        t = np.empty(len(order), dtype=np.int64)
        noise = np.empty((len(order), 1, 8, 8), dtype=np.float32)
        for j, gi in enumerate(order):
            rng = derive_rng(11, DOMAIN_TRAIN_NOISE, 2, 0, int(gi))
            t[j] = rng.integers(1, cfg.schedule.steps + 1)
            noise[j] = rng.standard_normal((1, 8, 8), dtype=np.float32)
        loss, leaves = diffusion.training_loss(
            model, cfg.schedule, dataset.images[order], t, noise
        )
        ad.backward(loss)
        state = AdamState(learning_rate=cfg.learning_rate)
        expected, _ = adam_step(dict(model.params),
                             {k: leaf.grad for k, leaf in leaves.items()}, state)
        assert update.train_loss == pytest.approx(loss.item(), rel=1e-6)
        for name in expected:
            np.testing.assert_array_equal(update.params[name], expected[name])


class TestFedavg:
    def scalar_update(self, cid, value, count, name="w"):
        return ClientUpdate(cid, {name: np.array([value], np.float32)}, count, 0.0)

    def average(self, updates):
        total = RunningSum()
        fedavg(updates, total)
        return total.mean()

    def test_single_update_identity(self):
        out = self.average([self.scalar_update(0, 1.5, 10)])
        assert out["w"][0] == pytest.approx(1.5)

    def test_equal_counts_plain_mean(self):
        out = self.average([self.scalar_update(0, 0.0, 5), self.scalar_update(1, 2.0, 5)])
        assert out["w"][0] == pytest.approx(1.0)

    def test_count_weighted_mean(self):
        out = self.average([self.scalar_update(0, 0.0, 1), self.scalar_update(1, 4.0, 3)])
        assert out["w"][0] == pytest.approx(3.0)

    def test_permutation_invariant(self):
        # the sums are exact in float64, so no fold order can show
        ups = [self.scalar_update(i, float(i), i + 1) for i in range(4)]
        a = self.average(ups)
        b = self.average(list(reversed(ups)))
        np.testing.assert_array_equal(a["w"], b["w"])

    def test_scale_consistent_in_counts(self):
        ups = [self.scalar_update(0, 1.0, 2), self.scalar_update(1, 5.0, 6)]
        scaled = [self.scalar_update(0, 1.0, 20), self.scalar_update(1, 5.0, 60)]
        np.testing.assert_array_equal(self.average(ups)["w"], self.average(scaled)["w"])

    def test_blocked_sum_bitwise_equal_to_textbook_formula(self):
        # three clients with unequal counts, folded one call at a time in
        # list order; one parameter three elements past a block, with -0.0
        # and subnormal entries at the boundary
        rng = np.random.default_rng(4)
        shapes = {"big": (BLOCK + 3,), "conv.w": (4, 3, 3, 3)}
        updates = []
        for cid, count in ((2, 7), (0, 3), (1, 12)):
            table = {k: rng.standard_normal(s).astype(np.float32) for k, s in shapes.items()}
            table["big"][BLOCK - 2:BLOCK + 2] = [-0.0, 1e-40, -1e-40, -0.0]
            updates.append(ClientUpdate(cid, table, count, 0.0))
        total = RunningSum()
        for u in updates:
            fedavg([u], total)
        assert total.samples == 22
        out = total.mean()
        assert total.tables == {}
        for name in shapes:
            acc = np.zeros(shapes[name], dtype=np.float64)
            for u in updates:
                acc += u.sample_count * u.params[name].astype(np.float64)
            np.testing.assert_array_equal(out[name].view(np.uint32),
                                          (acc / 22).astype(np.float32).view(np.uint32))

    def test_name_mismatch_names_client(self):
        good = self.scalar_update(0, 1.0, 1)
        bad = ClientUpdate(7, {"other": np.zeros(1, np.float32)}, 1, 0.0)
        with pytest.raises(ValueError, match="client 7"):
            self.average([good, bad])

    @pytest.mark.parametrize("names", [["w", "other"], []], ids=["extra", "missing"])
    def test_streamed_update_with_other_names_folds_no_table(self, names):
        # the names come with a streamed update's header, so they are checked
        # before any of its tables is read, and the sum is left as it was
        total = RunningSum()
        fedavg([self.scalar_update(0, 1.5, 2)], total)
        before = total.tables["w"].copy()

        def parts():
            raise AssertionError("a table of the update was read")
            yield

        with pytest.raises(ValueError, match="client 7"):
            federation._fold(RunRow(1, 7, "active", samples=3), names, parts(), total)
        assert (total.samples, total.clients, list(total.tables)) == (2, {0}, ["w"])
        np.testing.assert_array_equal(total.tables["w"], before)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            self.average([])


class TestHeldoutLoss:
    @pytest.mark.parametrize("steps", [50, 3], ids=["at-the-step", "capped-at-the-last"])
    def test_loss_is_the_mean_training_loss_of_each_image(self, dataset, model, steps):
        # image i, alone, noised at the filter's step with its keyed noise
        cfg = tiny_config(schedule=linear_schedule(steps))
        step = min(federation.HELDOUT_STEP, steps)
        images = dataset.images[:5]
        key = derive_seed(4, DOMAIN_EVAL, 3, 2)
        want = [diffusion.training_loss(
                    model, cfg.schedule, images[i:i + 1], [step],
                    derive_rng(key, i).standard_normal((1, 1, 8, 8), dtype=np.float32)
                )[0].item() for i in range(len(images))]
        got = heldout_loss(model, images, cfg, round_no=3, client_id=2, seed=4)
        assert got == pytest.approx(np.mean(want), rel=1e-5)

    def test_noise_is_keyed_by_round_and_client(self, dataset, model):
        cfg = tiny_config(schedule=linear_schedule(50))
        images = dataset.images[:8]
        base = heldout_loss(model, images, cfg, 1, 0, seed=4)
        assert heldout_loss(model, images, cfg, 1, 0, seed=4) == base
        others = {heldout_loss(model, images, cfg, 2, 0, seed=4),
                  heldout_loss(model, images, cfg, 1, 1, seed=4)}
        assert base not in others and len(others) == 2

    def test_filtering_needs_heldout_images_of_every_class(self, dataset, model):
        cfg = tiny_config(threshold_filtering=True)
        plan = make_plan(dataset, 2)
        three_classes = dataset.subset(np.flatnonzero(dataset.labels < 3))
        for heldout in (None, three_classes):
            with pytest.raises(ValueError, match="held-out images"):
                run_federation(model, plan, cfg, dataset, seed=0, heldout=heldout)


class TestRunFederation:
    def test_single_client_final_model_is_its_local_model(self, dataset, model):
        cfg = tiny_config(client_count=1, server_rounds=1)
        plan = PartitionPlan([list(range(len(dataset)))], 1, "iid", 0)
        final, runlog = run_federation(model, plan, cfg, dataset, seed=4)

        client = ClientState(id=0, data_indices=list(range(len(dataset))))
        update, _ = local_train(client, model, dataset, cfg, round_no=1, seed=4)
        for name in update.params:
            np.testing.assert_array_equal(final.params[name], update.params[name])
        assert len(runlog.rows) == 1

    @pytest.mark.parametrize("clients", [2, 5])
    def test_sgd_full_batch_equals_centralized_step(self, clients):
        # acceptance-style oracle: 1 full-batch SGD step federated ==
        # a centralized step on the count-weighted average gradient
        data = make_toy_dataset(4, 10, 8, seed=50)
        sizes = [len(part) for part in np.array_split(np.arange(len(data)), clients)]
        bounds = np.cumsum([0] + sizes)
        assignments = [list(range(bounds[i], bounds[i + 1])) for i in range(clients)]
        plan = PartitionPlan(assignments, clients, "iid", 0)
        cfg = tiny_config(client_count=clients, optimizer="sgd",
                          batch_size=len(data), server_rounds=1, local_epochs=1)
        initial = build_unet(TINY, seed=2)
        final, _ = run_federation(initial, plan, cfg, data, seed=77)

        total = sum(sizes)
        weighted = {k: np.zeros_like(v, dtype=np.float64)
                    for k, v in initial.params.items()}
        for cid, part in enumerate(assignments):
            idx = np.asarray(part)
            order = idx[derive_rng(77, DOMAIN_SHUFFLE, cid, 1, 0).permutation(len(idx))]
            t = np.empty(len(order), dtype=np.int64)
            noise = np.empty((len(order), 1, 8, 8), dtype=np.float32)
            for j, gi in enumerate(order):
                rng = derive_rng(77, DOMAIN_TRAIN_NOISE, 1, 0, int(gi))
                t[j] = rng.integers(1, cfg.schedule.steps + 1)
                noise[j] = rng.standard_normal((1, 8, 8), dtype=np.float32)
            loss, leaves = diffusion.training_loss(
                initial, cfg.schedule, data.images[order], t, noise
            )
            ad.backward(loss)
            for name, leaf in leaves.items():
                weighted[name] += (len(part) / total) * leaf.grad.astype(np.float64)
        for name, p0 in initial.params.items():
            expected = p0 - cfg.learning_rate * weighted[name]
            np.testing.assert_allclose(final.params[name], expected, atol=1e-6)

    def test_personal_params_never_leave_clients(self, dataset):
        cfg = tiny_config(client_count=2, server_rounds=3, personalization=True)
        plan = make_plan(dataset, 2)
        initial = build_unet(TINY, seed=6)
        seen_updates = []
        original = federation.fedavg

        def spy(updates, into):
            seen_updates.append([(u.client_id, sorted(u.params)) for u in updates])
            return original(updates, into)

        federation.fedavg = spy
        try:
            final, _ = run_federation(initial, plan, cfg, dataset, seed=13)
        finally:
            federation.fedavg = original

        personal = set(initial.personal_names)
        assert seen_updates, "aggregation never ran"
        for round_updates in seen_updates:
            for _, names in round_updates:
                assert not personal & set(names)
        # global personal values never change
        for name in personal:
            np.testing.assert_array_equal(final.params[name], initial.params[name])

    def test_scripted_filtering_disconnects_and_excludes(self, dataset, monkeypatch):
        # client 0 scores below 0.7 in rounds 1-2: two-strike drop at round
        # 2, afterwards it must vanish from aggregation; client 2 does in rounds 3-4
        first = {0: 0.1, 1: 0.9, 2: 0.8}
        monkeypatch.setattr(federation, "heldout_loss",
                            scripted_losses(first, first, {1: 0.9, 2: 0.1}))
        rounds = []  # (the round's running sum, the ids folded into it)
        original = federation._fold

        def spy(row, names, parts, into):
            if not rounds or rounds[-1][0] is not into:
                rounds.append((into, []))
            rounds[-1][1].append(row.client_id)
            return original(row, names, parts, into)

        monkeypatch.setattr(federation, "_fold", spy)
        cfg = tiny_config(
            client_count=3, server_rounds=4, threshold_filtering=True,
            eval_start_round=1, min_active_clients=2,
        )
        plan = PartitionPlan([[0, 1], [2, 3], [4, 5]], 3, "iid", 0)
        initial = build_unet(TINY, seed=1)
        final, runlog = run_federation(initial, plan, cfg, dataset, seed=3,
                                       heldout=dataset)
        aggregated = [sorted(ids) for _, ids in rounds]
        assert aggregated == [[0, 1, 2], [1, 2], [1, 2], [1, 2]]
        by_round = {}
        for row in runlog.rows:
            by_round.setdefault(row.round, {})[row.client_id] = row
        assert by_round[1][0].status == "warned"
        assert by_round[2][0].status == "disconnected"
        assert by_round[3][0].status == "disconnected"
        assert by_round[3][0].samples == 0
        assert by_round[3][0].bytes_up == 0
        # client 2 scores below 0.7 among the survivors: warned in round 3,
        # and its round-4 disconnect is suppressed by the participation floor
        assert by_round[3][2].status == "warned"
        assert by_round[4][2].status == "warned"
        assert by_round[4][1].status == "active"

    @pytest.mark.parametrize("min_active, round_two, status", [
        (2, {0: 0.5, 1: 0.2, 2: 0.8}, "active"),
        (3, {0: 0.1, 1: 0.9, 2: 0.8}, "warned"),
    ], ids=["recovered", "disconnect-suppressed"])
    def test_warned_client_is_held_then_folded_last(self, dataset, monkeypatch,
                                                    min_active, round_two, status):
        # client 0 is warned in round 1; in round 2 it either recovers or
        # its second strike is suppressed by the participation floor, so its
        # held update is folded after the streamed ones
        monkeypatch.setattr(federation, "heldout_loss",
                            scripted_losses({0: 0.1, 1: 0.9, 2: 0.8}, round_two))
        folded, original = [], federation._fold

        def spy(row, names, parts, into):
            folded.append(row.client_id)
            return original(row, names, parts, into)

        monkeypatch.setattr(federation, "_fold", spy)
        cfg = tiny_config(
            client_count=3, server_rounds=2, threshold_filtering=True,
            eval_start_round=1, min_active_clients=min_active,
        )
        plan = PartitionPlan([[0, 1], [2, 3], [4, 5]], 3, "iid", 0)
        runs = {}
        for workers in (1, 2):
            folded.clear()
            final, runlog = run_federation(build_unet(TINY, seed=1), plan, cfg, dataset,
                                           seed=3, heldout=dataset, workers=workers)
            assert folded == [0, 1, 2, 1, 2, 0]
            runs[workers] = final, timeless_rows(runlog)
        (final_a, rows_a), (final_b, rows_b) = runs[1], runs[2]
        assert rows_a == rows_b
        assert [row[2] for row in rows_a if row[1] == 0] == ["warned", status]
        for name in final_a.params:
            np.testing.assert_array_equal(final_a.params[name].view(np.uint32),
                                          final_b.params[name].view(np.uint32))

    @pytest.mark.parametrize("loss_2, status", [(1.5, "warned"), (1.4, "active")])
    def test_score_is_the_round_median_loss_over_the_clients(self, dataset, monkeypatch,
                                                             loss_2, status):
        # the median loss is 1.0, so client 2 scores 1/1.5 = 0.67 or 1/1.4 = 0.71
        losses = {0: 0.8, 1: 1.0, 2: loss_2}
        monkeypatch.setattr(federation, "heldout_loss",
                            lambda model, images, config, rnd, cid, seed: losses[cid])
        cfg = tiny_config(client_count=3, threshold_filtering=True, eval_start_round=1,
                          drop_policy=DropPolicy(threshold=0.7))
        plan = PartitionPlan([[0, 1], [2, 3], [4, 5]], 3, "iid", 0)
        _, runlog = run_federation(build_unet(TINY, seed=1), plan, cfg, dataset, seed=3,
                                   heldout=dataset)
        assert [(r.heldout_loss, r.status) for r in runlog.rows] == [
            (0.8, "active"), (1.0, "active"), (loss_2, status)]

    def test_bytes_follow_what_each_client_sends_and_receives(self, dataset,
                                                             monkeypatch):
        # personalized and filtered: client 0 scores below 0.7 and is
        # disconnected in round 2, client 1 faults in round 2, and client 2
        # scores below 0.7 in round 3
        first = {0: 0.1, 1: 0.9, 2: 0.8}
        monkeypatch.setattr(federation, "heldout_loss",
                            scripted_losses(first, first, {1: 0.9, 2: 0.1}))
        original = federation.local_train

        def train(client, model, data, config, round_no, seed):
            if (client.id, round_no) == (1, 2):
                raise ad.NumericError("scripted fault")
            return original(client, model, data, config, round_no, seed)

        monkeypatch.setattr(federation, "local_train", train)
        cfg = tiny_config(
            client_count=3, server_rounds=3, personalization=True,
            threshold_filtering=True, eval_start_round=1, min_active_clients=2,
        )
        plan = PartitionPlan([[0, 1], [2, 3], [4, 5]], 3, "iid", 0)
        initial = build_unet(TINY, seed=1)
        _, runlog = run_federation(initial, plan, cfg, dataset, seed=3,
                                   heldout=dataset, workers=1)
        full = 4 * sum(v.size for v in initial.params.values())
        base = 4 * sum(v.size for name, v in initial.params.items()
                       if name not in initial.personal_names)
        assert 0 < base < full
        rows = {(r.round, r.client_id): (r.status, r.bytes_up, r.bytes_down)
                for r in runlog.rows}
        assert rows == {
            (1, 0): ("warned", base, full),
            (1, 1): ("active", base, full),
            (1, 2): ("active", base, full),
            (2, 0): ("disconnected", base, base),
            (2, 1): ("faulted", 0, base),
            (2, 2): ("active", base, base),
            (3, 0): ("disconnected", 0, 0),
            (3, 1): ("active", base, base),
            (3, 2): ("warned", base, base),
        }

    def test_scored_client_without_data_logs_its_filter_status(self, dataset,
                                                               monkeypatch):
        # client 2 holds no data, so it has no classes to be scored on: its
        # rows log "skipped" and no loss, its filter state carries over, and
        # the filter scores the clients that trained
        monkeypatch.setattr(federation, "heldout_loss", scripted_losses({0: 0.9, 1: 0.1}))
        cfg = tiny_config(
            client_count=3, server_rounds=3, threshold_filtering=True,
            eval_start_round=1, min_active_clients=2,
        )
        plan = PartitionPlan([[0, 1], [2, 3], []], 3, "iid", 0)
        _, runlog = run_federation(build_unet(TINY, seed=1), plan, cfg, dataset,
                                   seed=3, heldout=dataset)
        assert [(r.status, r.heldout_loss) for r in runlog.rows if r.client_id == 2] == [
            ("skipped", None)] * 3
        assert [r.status for r in runlog.rows if r.client_id == 1] == [
            "warned", "disconnected", "disconnected"]

    def test_deterministic_replay_and_worker_independence(self, dataset):
        cfg = tiny_config(client_count=2, server_rounds=2, local_epochs=2)
        plan = make_plan(dataset, 2)
        initial = build_unet(TINY, seed=21)

        def run(workers):
            final, runlog = run_federation(initial, plan, cfg, dataset, seed=5,
                                           workers=workers)
            return final, timeless_rows(runlog)

        final_a, rows_a = run(workers=1)
        final_b, rows_b = run(workers=4)
        assert rows_a == rows_b
        for name in final_a.params:
            np.testing.assert_array_equal(final_a.params[name], final_b.params[name])

    def test_worker_independence_with_personalization_and_filtering(self, dataset,
                                                                    tmp_path):
        cfg = tiny_config(client_count=3, server_rounds=3, personalization=True,
                          threshold_filtering=True, eval_start_round=1,
                          min_active_clients=2)
        plan = make_plan(dataset, 3)
        initial = build_unet(TINY, seed=21)
        runs = {}
        for workers in (1, 4):
            out = tmp_path / str(workers)
            final, runlog = run_federation(initial, plan, cfg, dataset, seed=5,
                                           heldout=dataset, workers=workers, out_dir=out)
            personal = {p.name: p.read_bytes() for p in out.glob("client_*_personal.phxc")}
            runs[workers] = (final, timeless_rows(runlog), personal)
        (final_a, rows_a, personal_a), (final_b, rows_b, personal_b) = runs[1], runs[4]
        assert any(row[7] is not None for row in rows_a)  # heldout_loss was scored
        assert rows_a == rows_b
        assert len(personal_a) == 3 and personal_a == personal_b
        for name in final_a.params:
            np.testing.assert_array_equal(final_a.params[name], final_b.params[name])

    @pytest.mark.parametrize("workers", [1, 2])
    def test_client_jobs_train_and_score_in_the_pool(self, dataset, monkeypatch, pid_log,
                                                     two_workers, workers):
        # client 1 faults in round 1, client 2 has no data; the job of each
        # client that trains scores it, in a worker process exactly when
        # workers > 1, and nothing is sampled
        cfg = tiny_config(client_count=3, server_rounds=2, threshold_filtering=True,
                          eval_start_round=1, min_active_clients=2)
        plan = PartitionPlan([[0, 1, 2, 3], [4, 5, 6, 7], []], 3, "iid", 0)
        original_train = federation.local_train
        original_score = federation.heldout_loss
        scorers = pid_log("scorer")

        def train(client, model, data, config, round_no, seed):
            if (client.id, round_no) == (1, 1):
                raise ad.NumericError("scripted fault")
            return original_train(client, model, data, config, round_no, seed)

        def score(*args):
            scorers.append()
            return original_score(*args)

        def chain(*args):
            raise AssertionError("a round sampled")

        monkeypatch.setattr(federation, "local_train", train)
        monkeypatch.setattr(federation, "heldout_loss", score)
        monkeypatch.setattr(diffusion, "sample_chain", chain)

        def run(n):
            _, runlog = run_federation(build_unet(TINY, seed=1), plan, cfg, dataset,
                                       seed=2, heldout=dataset, workers=n)
            return runlog

        runlog = run(workers)
        rows = {(r.round, r.client_id): r for r in runlog.rows}
        assert [key for key, r in rows.items() if r.status == "faulted"] == [(1, 1)]
        unscored = [(1, 1), (1, 2), (2, 2)]
        assert all(rows[key].heldout_loss is None for key in unscored)
        assert all(r.heldout_loss > 0 for key, r in rows.items() if key not in unscored)
        assert all(r.precision is None and r.recall is None for r in rows.values())
        assert all(rows[key].samples == 0 and rows[key].train_loss is None
                   for key in ((1, 2), (2, 2)))
        pids = scorers.pids()
        assert len(pids) == 3 and {pid != os.getpid() for pid in pids} == {workers > 1}
        assert timeless_rows(runlog) == timeless_rows(run(1))

    def test_one_pool_of_workers_serves_every_round(self, dataset, monkeypatch, tmp_path):
        # a barrier makes each round's two jobs run at once, so every round
        # shows both workers; the same two must serve all three rounds
        barrier = multiprocessing.get_context("fork").Barrier(2)
        job_pids = tmp_path / "job_pids"  # a worker's memory never comes back
        original = federation.local_train

        def train(client, model, data, config, round_no, seed):
            with open(job_pids, "a") as fh:
                fh.write(f"{round_no} {os.getpid()}\n")
            barrier.wait(timeout=60)
            return original(client, model, data, config, round_no, seed)

        monkeypatch.setattr(federation, "local_train", train)
        run_federation(build_unet(TINY, seed=1), make_plan(dataset, 2),
                       tiny_config(client_count=2, server_rounds=3), dataset, seed=2,
                       workers=2)
        pids_by_round: dict[int, set[int]] = {}
        for line in job_pids.read_text().splitlines():
            round_no, pid = map(int, line.split())
            pids_by_round.setdefault(round_no, set()).add(pid)
        assert sorted(pids_by_round) == [1, 2, 3]
        assert pids_by_round[1] == pids_by_round[2] == pids_by_round[3]
        assert len(pids_by_round[1]) == 2 and os.getpid() not in pids_by_round[1]

    @pytest.mark.parametrize("workers", [0, -3])
    def test_worker_count_below_one_refused(self, dataset, workers):
        with pytest.raises(ValueError, match="workers"):
            run_federation(build_unet(TINY, seed=1), make_plan(dataset, 2),
                           tiny_config(), dataset, seed=2, workers=workers)

    def test_worker_that_dies_breaks_the_round_at_once(self, dataset, monkeypatch):
        parent = os.getpid()

        def die(client, *args):
            if os.getpid() != parent and client.id == 1:
                os._exit(1)
            return original(client, *args)

        original = federation.local_train
        monkeypatch.setattr(federation, "local_train", die)
        start = time.perf_counter()
        with pytest.raises(FederationError, match="round 1"):
            run_federation(build_unet(TINY, seed=1), make_plan(dataset, 2),
                           tiny_config(), dataset, seed=2, workers=2)
        assert time.perf_counter() - start < 30
        assert multiprocessing.active_children() == []

    def test_worker_gone_between_rounds_breaks_the_next_round(self, dataset,
                                                              monkeypatch):
        # the worker holding client 1 ends after answering round 1, so round 2
        # finds its pipe broken, whether at the broadcast or at the reply
        original = federation._train_share

        def serve_then_exit(clients, *args):
            yield from original(clients, *args)
            if 1 in clients:
                os._exit(1)

        monkeypatch.setattr(federation, "_train_share", serve_then_exit)
        with pytest.raises(FederationError, match="round 2"):
            run_federation(build_unet(TINY, seed=1), make_plan(dataset, 2),
                           tiny_config(server_rounds=2), dataset, seed=2, workers=2)
        assert multiprocessing.active_children() == []

    def test_worker_ending_mid_reply_breaks_the_round(self, dataset, dies_mid_payload):
        # the worker sends a reply's head and half of its first array, then ends
        with pytest.raises(FederationError,
                           match="^round 1: a worker process ended mid-round$"):
            run_federation(build_unet(TINY, seed=1), make_plan(dataset, 2),
                           tiny_config(), dataset, seed=2, workers=2)
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("messages", [1, 2], ids=["after-the-header", "between-tables"])
    def test_worker_ending_cleanly_mid_reply_breaks_the_round(self, dataset, monkeypatch,
                                                              messages):
        # each worker sends its first reply's header, or the header and one
        # table, then ends with exit code 0 and no error sent
        parent, original, sent = os.getpid(), parallel.send, []

        def send(conn, value):
            original(conn, value)
            if os.getpid() != parent:
                sent.append(value)
                if len(sent) == messages:
                    raise SystemExit(0)

        monkeypatch.setattr(parallel, "send", send)
        with pytest.raises(FederationError,
                           match="^round 1: a worker process ended mid-round$"):
            run_federation(build_unet(TINY, seed=1), make_plan(dataset, 2),
                           tiny_config(), dataset, seed=2, workers=2)
        assert multiprocessing.active_children() == []

    def test_failed_fork_reaches_the_caller_as_raised(self, dataset, second_start_fails,
                                                       open_fds):
        # the first worker has forked when the second cannot
        before = open_fds()
        with pytest.raises(OSError) as caught:
            run_federation(build_unet(TINY, seed=1), make_plan(dataset, 2),
                           tiny_config(), dataset, seed=2, workers=2)
        assert type(caught.value) is BlockingIOError and caught.value.errno == errno.EAGAIN
        assert multiprocessing.active_children() == []
        assert open_fds() == before

    def test_replies_carry_no_personal_layers(self, dataset, monkeypatch, two_workers,
                                              tmp_path):
        # personal layers stay with the worker that holds their client: a
        # reply is a header (the row and the names of the update's tables),
        # then one message per table, and no message the parent receives
        # holds more than one table
        parent, messages, original = os.getpid(), [], parallel.recv

        def recv(conn):
            value = original(conn)
            if os.getpid() == parent:
                messages.append(value)
            return value

        monkeypatch.setattr(parallel, "recv", recv)
        model = build_unet(TINY, seed=1)
        run_federation(model, make_plan(dataset, 2),
                       tiny_config(server_rounds=2, personalization=True), dataset,
                       seed=2, out_dir=tmp_path)
        base = [name for name in model.params if name not in model.personal_names]
        replies = 0
        while messages:
            header = messages.pop(0)
            assert type(header) is tuple and len(header) == 2
            row, names = header
            assert type(row) is RunRow and row.samples > 0
            assert names == base
            for name in names:
                table = messages.pop(0)
                assert type(table) is np.ndarray and table.shape == model.params[name].shape
            replies += 1
        assert replies == 4

    def test_every_array_crosses_as_a_view_of_its_arena(self, dataset, monkeypatch,
                                                        pid_log, two_workers):
        # a pooled run with personalization and filtering from round 1, then
        # a sample cut into two shares: every array that arrives, in the
        # parent or in a worker, is a view of the arena its message was read
        # into, and no forked process forks
        parent, original_recv, fork = os.getpid(), parallel.recv, os.fork
        received, parent_forks = [], []
        broadcasts, forks = pid_log("broadcasts"), pid_log("forks")
        forks.path.touch()

        def recv(conn):
            value = original_recv(conn)
            if os.getpid() == parent:
                received.append(value)
            elif all(in_arena(table) for table in value[0].params.values()):
                broadcasts.append()
            return value

        def logged_fork():
            if os.getpid() == parent:
                parent_forks.append(parent)
            else:
                forks.append()
            return fork()

        monkeypatch.setattr(parallel, "recv", recv)
        monkeypatch.setattr(os, "fork", logged_fork)
        monkeypatch.setattr(diffusion, "SAMPLE_BATCH", 2)
        cfg = tiny_config(server_rounds=2, personalization=True, threshold_filtering=True,
                          eval_start_round=1)
        model = build_unet(TINY, seed=1)
        final, _ = run_federation(model, make_plan(dataset, 2), cfg, dataset, seed=2,
                                  heldout=dataset)
        samples = diffusion.generate(final, cfg.schedule, 4, seed=3)
        arrays = [value for value in received if isinstance(value, np.ndarray)]
        base = len(model.params) - len(model.personal_names)
        assert len(arrays) == 4 * base + 1  # two clients' tables in two rounds, the samples
        assert all(in_arena(array) for array in arrays)
        assert arrays[-1].tobytes() == samples[2:].tobytes()
        pids = broadcasts.pids()
        assert len(pids) == 4 and len(set(pids)) == 2 and parent not in pids
        assert len(parent_forks) == 3 and forks.pids() == []

    @pytest.mark.parametrize("workers", [1, 2])
    def test_personal_checkpoints_written_where_the_client_is_held(
            self, dataset, monkeypatch, pid_log, two_workers, tmp_path, workers):
        writers, original = pid_log("personal_writers"), federation.write_checkpoint

        def spy(path, params, personal_names=frozenset()):
            if Path(path).name.startswith("client_"):
                writers.append()
            original(path, params, personal_names)

        monkeypatch.setattr(federation, "write_checkpoint", spy)
        run_federation(build_unet(TINY, seed=1), make_plan(dataset, 2),
                       tiny_config(server_rounds=2, personalization=True), dataset,
                       seed=2, workers=workers, out_dir=tmp_path)
        pids = writers.pids()
        assert len(pids) == 4  # two clients, two rounds
        if workers > 1:
            assert len(set(pids)) == 2 and os.getpid() not in pids
        else:
            assert set(pids) == {os.getpid()}

    @pytest.mark.parametrize("workers", [1, 2])
    def test_faulted_client_keeps_its_last_personal_checkpoint(self, dataset, monkeypatch,
                                                               tmp_path, workers):
        # client 1 faults in round 2, so its personal checkpoint stays the
        # one its round-1 training wrote
        original = federation.local_train

        def train(client, model, data, config, round_no, seed):
            if (client.id, round_no) == (1, 2):
                raise ad.NumericError("scripted fault")
            return original(client, model, data, config, round_no, seed)

        monkeypatch.setattr(federation, "local_train", train)
        written = {}
        for rounds in (1, 2):
            out = tmp_path / str(rounds)
            _, runlog = run_federation(build_unet(TINY, seed=1), make_plan(dataset, 2),
                                       tiny_config(server_rounds=rounds, personalization=True),
                                       dataset, seed=2, workers=workers, out_dir=out)
            written[rounds] = {p.name: p.read_bytes() for p in out.glob("client_*")}
        assert [(r.round, r.client_id) for r in runlog.rows if r.status == "faulted"] == [(2, 1)]
        assert written[2]["client_1_personal.phxc"] == written[1]["client_1_personal.phxc"]
        assert written[2]["client_0_personal.phxc"] != written[1]["client_0_personal.phxc"]

    def test_worker_independence_across_a_block(self, dataset, tmp_path):
        # a shared 64x128x3x3 conv weight spans two blocks of Adam and fedavg
        wide = build_unet(DenoiserConfig(base_channels=32, time_embed_dim=8), seed=1)
        assert max(p.size for name, p in wide.params.items()
                   if name not in wide.personal_names) > BLOCK
        checkpoints = {}
        for workers in (1, 2):
            out = tmp_path / str(workers)
            run_federation(wide, make_plan(dataset, 2),
                           tiny_config(server_rounds=2, personalization=True), dataset,
                           seed=2, workers=workers, out_dir=out)
            checkpoints[workers] = {p.name: p.read_bytes() for p in out.glob("*.phxc")}
        assert sorted(checkpoints[1]) == ["client_0_personal.phxc", "client_1_personal.phxc",
                                          "round_1.phxc", "round_2.phxc"]
        assert checkpoints[1] == checkpoints[2]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_error_in_a_job_reaches_the_caller_as_raised(self, dataset, monkeypatch,
                                                         workers):
        def fail(client, *args):
            if client.id == 1:
                raise ValueError("scripted")
            return original(client, *args)

        original = federation.local_train
        monkeypatch.setattr(federation, "local_train", fail)
        with pytest.raises(ValueError, match="^scripted$"):
            run_federation(build_unet(TINY, seed=1), make_plan(dataset, 2),
                           tiny_config(), dataset, seed=2, workers=workers)
        assert multiprocessing.active_children() == []

    def test_each_client_stays_in_one_worker(self, dataset, monkeypatch, tmp_path):
        job_pids = tmp_path / "job_pids"  # a worker's memory never comes back
        original = federation.local_train

        def train(client, model, data, config, round_no, seed):
            with open(job_pids, "a") as fh:
                fh.write(f"{round_no} {client.id} {os.getpid()}\n")
            return original(client, model, data, config, round_no, seed)

        monkeypatch.setattr(federation, "local_train", train)
        run_federation(build_unet(TINY, seed=1), make_plan(dataset, 4),
                       tiny_config(client_count=4, server_rounds=3), dataset, seed=2,
                       workers=2)
        jobs = [tuple(map(int, line.split())) for line in job_pids.read_text().splitlines()]
        assert sorted((round_no, cid) for round_no, cid, _ in jobs) == [
            (round_no, cid) for round_no in (1, 2, 3) for cid in range(4)]
        pids_by_client: dict[int, set[int]] = {}
        for _, cid, pid in jobs:
            pids_by_client.setdefault(cid, set()).add(pid)
        assert all(len(pids) == 1 for pids in pids_by_client.values())
        pids = set().union(*pids_by_client.values())
        assert len(pids) == 2 and os.getpid() not in pids
        assert multiprocessing.active_children() == []

    def test_round_updates_are_freed_before_the_next_round_trains(self, dataset,
                                                                  monkeypatch):
        original = federation.local_train
        round_one, alive = [], []

        def train(client, model, data, config, round_no, seed):
            if round_no == 2:
                gc.collect()
                alive.append(sum(ref() is not None for ref in round_one))
            update, state = original(client, model, data, config, round_no, seed)
            if round_no == 1:
                round_one.append(weakref.ref(update))
            return update, state

        monkeypatch.setattr(federation, "local_train", train)
        run_federation(build_unet(TINY, seed=1), make_plan(dataset, 2),
                       tiny_config(client_count=2, server_rounds=2), dataset, seed=2,
                       workers=1)
        assert len(round_one) == 2 and alive == [0, 0]

    def test_each_update_is_freed_once_folded(self, dataset, monkeypatch):
        # two workers, four clients, no scoring: an update comes one table
        # at a time, and when a table is folded it is the only one alive in
        # the parent, and none is alive while the next message is read; a
        # table is a view of the arena its message was read into. Freed
        # means freed by reference counting, without a garbage collection
        parent, arenas, alive_at_fold, alive_at_read = os.getpid(), [], [], []
        original_fold, original_recv = federation.fedavg, parallel.recv

        def alive():
            return sum(ref() is not None for ref in arenas)

        def fold(updates, into):
            for u in updates:
                (table,) = u.params.values()
                assert table.base is not None
                arenas.append(weakref.ref(table.base))
                alive_at_fold.append(alive())
            return original_fold(updates, into)

        def recv(conn):
            if os.getpid() == parent:
                alive_at_read.append(alive())
            return original_recv(conn)

        monkeypatch.setattr(federation, "fedavg", fold)
        monkeypatch.setattr(parallel, "recv", recv)
        model = build_unet(TINY, seed=1)
        run_federation(model, make_plan(dataset, 4),
                       tiny_config(client_count=4, server_rounds=2), dataset, seed=2,
                       workers=2)
        tables = 8 * len(model.params)  # four clients, two rounds
        assert alive_at_fold == [1] * tables
        assert alive_at_read == [0] * (8 + tables)

    def test_serial_round_frees_each_replaced_optimizer_state(self, dataset, monkeypatch):
        # when a client's job starts, the states that earlier jobs of the
        # round replaced must already be garbage
        original = federation.local_train
        replaced, alive = {}, []

        def train(client, model, data, config, round_no, seed):
            gc.collect()
            alive.extend(k for k, ref in replaced.items() if ref() is not None)
            if client.optimizer_state is not None:
                replaced[client.id] = weakref.ref(client.optimizer_state)
            return original(client, model, data, config, round_no, seed)

        monkeypatch.setattr(federation, "local_train", train)
        run_federation(build_unet(TINY, seed=1), make_plan(dataset, 3),
                       tiny_config(client_count=3, server_rounds=2), dataset, seed=2,
                       workers=1)
        assert len(replaced) == 3 and alive == []

    def test_wall_ms_includes_client_scoring(self, dataset, monkeypatch):
        def slow_score(model, images, config, round_no, client_id, seed):
            time.sleep(0.25)
            return 0.5 + 0.1 * client_id

        monkeypatch.setattr(federation, "heldout_loss", slow_score)
        cfg = tiny_config(client_count=2, server_rounds=2, threshold_filtering=True,
                          eval_start_round=2)
        _, runlog = run_federation(build_unet(TINY, seed=1), make_plan(dataset, 2), cfg,
                                   dataset, seed=2, heldout=dataset)
        scored = [r.wall_ms for r in runlog.rows if r.heldout_loss is not None]
        assert [r.round for r in runlog.rows if r.heldout_loss is not None] == [2, 2]
        assert min(scored) >= 250

    def test_faulted_client_excluded_and_state_restored(self, dataset, monkeypatch):
        cfg = tiny_config(client_count=2, server_rounds=1)
        plan = make_plan(dataset, 2)
        initial = build_unet(TINY, seed=1)
        original = federation.local_train

        def faulty(client, model, data, config, round_no, seed):
            if client.id == 1:
                raise ad.NumericError("scripted fault")
            return original(client, model, data, config, round_no, seed)

        monkeypatch.setattr(federation, "local_train", faulty)
        final, runlog = run_federation(initial, plan, cfg, dataset, seed=2)
        statuses = {r.client_id: r.status for r in runlog.rows}
        assert statuses[1] == "faulted"
        assert statuses[0] == "active"

    def test_mid_round_fault_restores_optimizer_state(self, dataset, monkeypatch):
        # client 1 faults inside adam_step on its third step of round 2; its
        # Adam state must be exactly the state it ended round 1 with
        cfg = tiny_config(client_count=2, server_rounds=2)
        plan = make_plan(dataset, 2)
        seen = {}
        original_train = federation.local_train
        original_step = federation.adam_step

        def train(client, model, data, config, round_no, seed):
            seen.update(client=client.id, round=round_no, steps=0)
            if client.id == 1 and round_no == 2:
                st = client.optimizer_state
                seen["faulty"] = client
                seen["round_1_state"] = (
                    st.step_count,
                    {k: v.copy() for k, v in st.first_moment.items()},
                    {k: v.copy() for k, v in st.second_moment.items()},
                )
            return original_train(client, model, data, config, round_no, seed)

        def step(params, grads, state):
            seen["steps"] += 1
            if (seen["client"], seen["round"], seen["steps"]) == (1, 2, 3):
                grads = dict(grads)
                last = list(grads)[-1]
                grads[last] = np.full_like(grads[last], np.nan)
            return original_step(params, grads, state)

        monkeypatch.setattr(federation, "local_train", train)
        monkeypatch.setattr(federation, "adam_step", step)
        # one worker: ``seen`` is filled in this process
        _, runlog = run_federation(build_unet(TINY, seed=1), plan, cfg, dataset, seed=2,
                                   workers=1)

        statuses = {(r.round, r.client_id): r.status for r in runlog.rows}
        assert statuses[(2, 1)] == "faulted"
        step_count, first, second = seen["round_1_state"]
        assert step_count > 2
        restored = seen["faulty"].optimizer_state
        assert restored.step_count == step_count
        for saved, now in ((first, restored.first_moment), (second, restored.second_moment)):
            assert saved.keys() == now.keys()
            for name in saved:
                np.testing.assert_array_equal(now[name], saved[name])

    def test_run_over_read_only_inputs_equals_run_over_copies(self, dataset, monkeypatch):
        # with Adam, personal layers, filtering and client 1 faulting on its
        # second step of round 2, a run writes into neither the initial
        # parameters nor the dataset images
        cfg = tiny_config(client_count=3, server_rounds=2, personalization=True,
                          threshold_filtering=True, eval_start_round=1,
                          min_active_clients=2)
        plan = make_plan(dataset, 3)
        original_train, original_step = federation.local_train, federation.adam_step
        current = {}

        def train(client, model, data, config, round_no, seed):
            current.update(key=(client.id, round_no), steps=0)
            return original_train(client, model, data, config, round_no, seed)

        def step(params, grads, state):
            current["steps"] += 1
            if (current["key"], current["steps"]) == ((1, 2), 2):
                grads = {k: np.full_like(g, np.nan) for k, g in grads.items()}
            return original_step(params, grads, state)

        monkeypatch.setattr(federation, "local_train", train)
        monkeypatch.setattr(federation, "adam_step", step)

        def run(images, params):
            data = Dataset(images, dataset.labels, dataset.num_classes)
            initial = build_unet(TINY, seed=21).with_params(params)
            final, runlog = run_federation(initial, plan, cfg, data, seed=5, heldout=data)
            return final, timeless_rows(runlog)

        def read_only(a):
            a = a.copy()
            a.flags.writeable = False
            return a

        params = build_unet(TINY, seed=21).params
        final_ro, rows_ro = run(read_only(dataset.images),
                                {k: read_only(v) for k, v in params.items()})
        images = dataset.images.copy()
        copies = {k: v.copy() for k, v in params.items()}
        final, rows = run(images, copies)
        assert [row[:3] for row in rows if row[2] == "faulted"] == [(2, 1, "faulted")]
        assert rows_ro == rows
        for name in params:
            np.testing.assert_array_equal(final_ro.params[name], final.params[name])
            np.testing.assert_array_equal(copies[name], params[name])
        np.testing.assert_array_equal(images, dataset.images)

    def test_eval_start_round_checked_only_with_filtering(self, dataset):
        default = FederationConfig.eval_start_round
        cfg = tiny_config(client_count=2, server_rounds=2, eval_start_round=default)
        assert default > cfg.server_rounds
        cfg.validate()
        _, runlog = run_federation(build_unet(TINY, seed=1), make_plan(dataset, 2),
                                   cfg, dataset, seed=2)
        assert len(runlog.rows) == 4
        with pytest.raises(ValueError, match="eval_start_round"):
            tiny_config(client_count=2, server_rounds=2, eval_start_round=default,
                        threshold_filtering=True).validate()

    def test_all_clients_unusable_is_fatal(self, dataset, monkeypatch):
        cfg = tiny_config(client_count=2, server_rounds=1)
        plan = make_plan(dataset, 2)
        monkeypatch.setattr(
            federation, "local_train",
            lambda *a, **k: (_ for _ in ()).throw(ad.NumericError("fault")),
        )
        with pytest.raises(FederationError):
            run_federation(build_unet(TINY, seed=1), plan, cfg, dataset, seed=2)

    def test_checkpoints_and_runlog_written(self, dataset, tmp_path):
        cfg = tiny_config(client_count=2, server_rounds=2, personalization=True)
        plan = make_plan(dataset, 2)
        run_federation(build_unet(TINY, seed=1), plan, cfg, dataset, seed=2,
                       out_dir=tmp_path)
        assert (tmp_path / "round_1.phxc").exists()
        assert (tmp_path / "round_2.phxc").exists()
        assert (tmp_path / "client_0_personal.phxc").exists()
        assert (tmp_path / "client_1_personal.phxc").exists()
        header = (tmp_path / "runlog.csv").read_text().splitlines()[0]
        assert header == ("round,client_id,status,samples,train_loss,"
                          "precision,recall,heldout_loss,bytes_up,bytes_down,wall_ms")

    def test_runlog_survives_a_fatal_round(self, dataset, tmp_path, monkeypatch):
        # every client faults in round 2; round 1's artifacts stay on disk
        cfg = tiny_config(client_count=2, server_rounds=2)
        original = federation.local_train

        def train(client, model, data, config, round_no, seed):
            if round_no == 2:
                raise ad.NumericError("scripted fault")
            return original(client, model, data, config, round_no, seed)

        monkeypatch.setattr(federation, "local_train", train)
        with pytest.raises(FederationError, match="round 2"):
            run_federation(build_unet(TINY, seed=1), make_plan(dataset, 2), cfg,
                           dataset, seed=2, out_dir=tmp_path)
        with open(tmp_path / "runlog.csv", newline="") as f:
            rows = [(r["round"], r["client_id"], r["status"]) for r in csv.DictReader(f)]
        assert rows == [("1", "0", "active"), ("1", "1", "active")]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["round_1.phxc", "runlog.csv"]

    def test_personal_checkpoint_bytes_independent_of_hash_seed(self, tmp_path):
        script = textwrap.dedent("""
            import sys
            from phoenix.datasets import make_toy_dataset
            from phoenix.federation import FederationConfig, run_federation
            from phoenix.partition import partition_label_skew
            from phoenix.schedule import linear_schedule
            from phoenix.unet import DenoiserConfig, build_unet

            data = make_toy_dataset(4, 16, 8, seed=31)
            cfg = FederationConfig(
                client_count=2, server_rounds=1, local_epochs=1, batch_size=8,
                learning_rate=1e-3, schedule=linear_schedule(10),
                personalization=True,
            )
            model = build_unet(DenoiserConfig(base_channels=4, time_embed_dim=8), seed=1)
            run_federation(model, partition_label_skew(data, 2, 2, seed=5), cfg, data,
                           seed=2, out_dir=sys.argv[1])
        """)
        src = str(Path(federation.__file__).resolve().parents[1])
        outputs = []
        for hash_seed in ("1", "2"):
            out = tmp_path / hash_seed
            env = {**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": src}
            subprocess.run([sys.executable, "-c", script, str(out)], env=env,
                           check=True, timeout=120)
            outputs.append((out / "client_0_personal.phxc").read_bytes())
        assert outputs[0] == outputs[1]

    def test_plan_size_mismatch_rejected(self, dataset):
        cfg = tiny_config(client_count=3)
        plan = make_plan(dataset, 2)
        with pytest.raises(ValueError):
            run_federation(build_unet(TINY, seed=1), plan, cfg, dataset, seed=2)


class TestDefaultWorkers:
    @pytest.mark.parametrize("environ, pinned", [
        ({}, False),
        ({"OPENBLAS_NUM_THREADS": "1"}, True),
        ({"OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": " 1"}, True),
        ({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "2"}, False),
        ({"OPENBLAS_NUM_THREADS": ""}, False),
    ], ids=["unset", "openblas", "omp-and-mkl", "one-says-two", "empty"])
    def test_blas_pinned_only_when_every_set_variable_says_one(self, environ, pinned):
        assert parallel.blas_pinned(environ) is pinned

    @pytest.fixture()
    def pinned(self, monkeypatch):
        for name in parallel.BLAS_THREAD_VARIABLES:
            monkeypatch.setenv(name, "1")

    def test_pinned_small_model_uses_every_usable_core(self, pinned):
        assert parallel.default_workers() == parallel.usable_cores()

    def test_unpinned_blas_keeps_one_worker(self, monkeypatch):
        for name in parallel.BLAS_THREAD_VARIABLES:
            monkeypatch.delenv(name, raising=False)
        assert parallel.default_workers() == 1

    def test_platform_without_fork_keeps_one_worker(self, pinned, dataset, monkeypatch):
        monkeypatch.setattr(parallel.multiprocessing, "get_all_start_methods",
                            lambda: ["spawn"])
        assert parallel.default_workers() == 1
        with pytest.raises(ValueError, match="fork"):
            run_federation(build_unet(TINY, seed=1), make_plan(dataset, 2),
                           tiny_config(), dataset, seed=2, workers=2)

    def test_cores_counted_without_affinity_support(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        assert parallel.usable_cores() == (os.cpu_count() or 1)

    @pytest.mark.skipif(not Path("/proc/self/task").is_dir(),
                        reason="threads are counted through /proc/self/task")
    def test_pinned_blas_forks_the_pool_from_a_single_thread(self, tmp_path):
        # CPython 3.12 and later warn when a process with threads forks; with
        # BLAS pinned the process has none besides the main thread. A filtered
        # run forks once per worker, before its pool starts any thread, and
        # its scoring rounds fork nothing; generate then forks one sampling
        # process for its second share. Every fork is logged to a file, so a
        # fork inside a worker would show up too
        script = textwrap.dedent("""
            import os, sys
            from phoenix import diffusion
            from phoenix.datasets import make_toy_dataset
            from phoenix.federation import FederationConfig, run_federation
            from phoenix.partition import partition_label_skew
            from phoenix.schedule import linear_schedule
            from phoenix.unet import DenoiserConfig, build_unet

            log, fork, phase = sys.argv[1], os.fork, "run"

            def counting_fork():
                with open(log, "a") as fh:
                    threads = len(os.listdir("/proc/self/task"))
                    fh.write(f"{os.getpid()} {threads} {phase}\\n")
                return fork()

            os.fork = counting_fork
            data = make_toy_dataset(4, 16, 8, seed=31)
            cfg = FederationConfig(
                client_count=2, server_rounds=3, local_epochs=1, batch_size=8,
                learning_rate=1e-3, schedule=linear_schedule(10),
                threshold_filtering=True, eval_start_round=1,
            )
            model = build_unet(DenoiserConfig(base_channels=4, time_embed_dim=8), seed=1)
            final, runlog = run_federation(model, partition_label_skew(data, 2, 2, seed=5),
                                           cfg, data, seed=2, heldout=data, workers=2)
            assert all(row.heldout_loss is not None for row in runlog.rows)
            phase = "generate"
            diffusion.generate(final, cfg.schedule, diffusion.SAMPLE_BATCH + 1, seed=3)
            print(os.getpid())
        """)
        src = str(Path(federation.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src,
               **{name: "1" for name in parallel.BLAS_THREAD_VARIABLES}}
        log = tmp_path / "forks"
        done = subprocess.run([sys.executable, "-W", "error::DeprecationWarning", "-c", script,
                               str(log)],
                              env=env, check=True, timeout=120, capture_output=True, text=True)
        main = done.stdout.strip()
        assert log.read_text().splitlines() == [
            f"{main} 1 run", f"{main} 1 run", f"{main} 1 generate"]
