"""The filter's signal on real desk runs: it leaves an honest run alone,
disconnects a planted bad client, and ranks clients, not noise draws.

Every test trains desk-preset federations with label skew, personalization
and threshold filtering (the preset's drop threshold of 0.7, scoring from
round 4) in one worker; each run took 10-18 s on a 2-vCPU machine. Runs are
cached by (seed, planting), so a run that two tests read trains once.
"""

import functools
from dataclasses import replace

import numpy as np
import pytest

import phoenix.federation as federation
from phoenix import diffusion
from phoenix.config import load_config, load_datasets
from phoenix.datasets import Dataset
from phoenix.filtering import DISCONNECTED, WARNED
from phoenix.partition import partition_label_skew
from phoenix.seeding import DOMAIN_EVAL, derive_rng, derive_seed
from phoenix.unet import build_unet, split_parameters

PLANTED = 3
SEEDS = (1, 2, 3)


def with_images(train: Dataset, indices, images) -> Dataset:
    """``train`` with the images at ``indices`` replaced by ``images``; the
    labels stay as they were."""
    out = train.images.copy()
    out[np.asarray(indices)] = images
    return Dataset(out, train.labels, train.num_classes)


def planted_noise(train: Dataset, indices, seed: int) -> Dataset:
    """Uniform noise in [-1, 1] in place of the images at ``indices``."""
    shape = (len(indices),) + train.images.shape[1:]
    return with_images(train, indices, derive_rng(seed, 99).uniform(-1.0, 1.0, shape))


def planted_blank(train: Dataset, indices) -> Dataset:
    """Blank images, every pixel -1, in place of the images at ``indices``."""
    return with_images(train, indices, -1.0)


def free_rider(local_train):
    """``local_train`` for a personalized run in which client ``PLANTED``
    trains nothing: it sends the broadcast base model back as its update,
    claims its sample count, and keeps the personal layers it holds (the
    global model's, until it first trains)."""
    def train(client, global_model, dataset, config, round_no, seed):
        if client.id != PLANTED:
            return local_train(client, global_model, dataset, config, round_no, seed)
        base, personal = split_parameters(global_model)
        update = federation.ClientUpdate(client.id, base, len(client.data_indices),
                                         train_loss=float("nan"))
        return update, replace(client, personal_params=client.personal_params or personal)
    return train


@functools.cache
def filtered_desk_run(seed: int, planting: str | None):
    """One filtered desk run in which client ``PLANTED`` is honest (``None``),
    trains on ``"noise"`` or ``"blank"`` images, or is a ``"free_rider"``;
    returns (run log, config, {(round, client): the model and held-out
    images the filter scored})."""
    cfg = load_config("desk")
    cfg.seed = seed
    cfg.federation.personalization = True
    cfg.federation.threshold_filtering = True
    train, test = load_datasets(cfg)
    fed = cfg.federation_config()
    plan = partition_label_skew(train, fed.client_count, 2, seed)
    if planting == "noise":
        train = planted_noise(train, plan.assignments[PLANTED], seed)
    elif planting == "blank":
        train = planted_blank(train, plan.assignments[PLANTED])
    scored = {}
    original_loss, original_train = federation.heldout_loss, federation.local_train

    def spy(model, images, config, round_no, client_id, seed_):
        scored[(round_no, client_id)] = (model, images)
        return original_loss(model, images, config, round_no, client_id, seed_)

    federation.heldout_loss = spy
    if planting == "free_rider":
        federation.local_train = free_rider(original_train)
    try:  # one worker: the stand-ins run in this process
        _, runlog = federation.run_federation(build_unet(cfg.model_config(), seed), plan,
                                              fed, train, seed, heldout=test, workers=1)
    finally:
        federation.heldout_loss, federation.local_train = original_loss, original_train
    return runlog, fed, scored


def filter_outcome(seed: int, planting: str | None):
    """The run's {(round, client): status}, after printing each round's
    scores and every status that is not active."""
    runlog, _, _ = filtered_desk_run(seed, planting)
    print(f"\n  seed {seed}, {planting or 'honest'}:")
    for rnd in sorted({r.round for r in runlog.rows}):
        losses = {r.client_id: r.heldout_loss for r in runlog.rows
                  if r.round == rnd and r.heldout_loss is not None}
        if losses:
            median = np.median(list(losses.values()))
            print(f"    round {rnd} scores " + " ".join(
                f"c{c}={median / loss:.2f}" for c, loss in sorted(losses.items())))
    status = {(r.round, r.client_id): r.status for r in runlog.rows}
    print("    " + (" ".join(f"r{r}c{c}={s}" for (r, c), s in sorted(status.items())
                             if s != "active") or "every client active"))
    return status


def assert_planted_client_disconnected(planting: str):
    for seed in SEEDS:
        status = filter_outcome(seed, planting)
        last = max(r for r, _ in status)
        assert status[(last - 1, PLANTED)] == WARNED, f"seed {seed}"
        assert status[(last, PLANTED)] == DISCONNECTED, f"seed {seed}"
        honest = {s for (_, client), s in status.items() if client != PLANTED}
        assert not honest & {WARNED, DISCONNECTED}, f"seed {seed}"


@pytest.mark.slow
def test_filter_warns_no_client_of_an_honest_run():
    for seed in SEEDS:
        status = filter_outcome(seed, None)
        assert not set(status.values()) & {WARNED, DISCONNECTED}, f"seed {seed}"


@pytest.mark.slow
def test_filter_disconnects_a_client_trained_on_noise():
    assert_planted_client_disconnected("noise")


@pytest.mark.slow
def test_filter_disconnects_a_client_with_blank_images():
    assert_planted_client_disconnected("blank")


@pytest.mark.slow
def test_filter_disconnects_a_free_rider():
    assert_planted_client_disconnected("free_rider")


@pytest.mark.slow
def test_heldout_loss_varies_between_clients_more_than_between_draws():
    seed, keys = 1, 8
    _, fed, scored = filtered_desk_run(seed, None)
    clients = range(fed.client_count)
    # the last round that scored every client
    rnd = max(r for r, _ in scored if all((r, c) in scored for c in clients))
    step = min(federation.HELDOUT_STEP, fed.schedule.steps)

    def heldout(client, key):
        model, images = scored[(rnd, client)]
        return np.mean(diffusion.eps_mse(model, fed.schedule, images, step,
                                         derive_seed(seed, DOMAIN_EVAL, rnd, client, key)))

    loss = np.array([[heldout(c, k) for k in range(keys)] for c in clients])
    within = float(loss.std(axis=1).mean())
    between = float(loss.mean(axis=1).std())
    highest = [int(np.argmax(col)) if (col == col.max()).sum() == 1 else None
               for col in loss.T]
    top = max(set(highest) - {None}, key=highest.count, default=None)
    print(f"\n  round {rnd}, client means {np.round(loss.mean(axis=1), 4).tolist()}, "
          f"std within {within:.4f}, between {between:.4f}, highest per key {highest}")
    assert between > within
    assert top is not None and highest.count(top) >= 6
