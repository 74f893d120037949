"""The filter's signal on real desk runs: it finds a planted bad client and
ranks clients, not noise draws.

Both tests train desk-preset federations with label skew, personalization
and threshold filtering (the preset's ``lowest_precision`` policy, scoring
from round 4) in one worker; each run took 15-18 s on a 2-vCPU machine.
"""

import numpy as np
import pytest

import phoenix.federation as federation
from phoenix import diffusion
from phoenix.config import load_config, load_datasets
from phoenix.datasets import Dataset
from phoenix.filtering import DISCONNECTED, WARNED
from phoenix.partition import partition_label_skew
from phoenix.seeding import DOMAIN_EVAL, derive_rng, derive_seed
from phoenix.unet import build_unet

PLANTED = 3


def planted_noise(train: Dataset, indices, seed: int) -> Dataset:
    """``train`` with the images at ``indices`` replaced by uniform noise in
    [-1, 1]; the labels stay as they were."""
    images = train.images.copy()
    idx = np.asarray(indices)
    images[idx] = derive_rng(seed, 99).uniform(-1.0, 1.0, images[idx].shape)
    return Dataset(images, train.labels, train.num_classes)


def filtered_desk_run(seed: int, planted: bool):
    """One filtered desk run; returns (run log, config, {(round, client): the
    model and held-out images the filter scored})."""
    cfg = load_config("desk")
    cfg.seed = seed
    cfg.federation.personalization = True
    cfg.federation.threshold_filtering = True
    train, test = load_datasets(cfg)
    fed = cfg.federation_config()
    plan = partition_label_skew(train, fed.client_count, 2, seed)
    if planted:
        train = planted_noise(train, plan.assignments[PLANTED], seed)
    scored = {}
    original = federation.heldout_loss

    def spy(model, images, config, round_no, client_id, seed_):
        scored[(round_no, client_id)] = (model, images)
        return original(model, images, config, round_no, client_id, seed_)

    federation.heldout_loss = spy
    try:  # one worker: the spy records into this process
        _, runlog = federation.run_federation(build_unet(cfg.model_config(), seed), plan,
                                              fed, train, seed, heldout=test, workers=1)
    finally:
        federation.heldout_loss = original
    return runlog, fed, scored


@pytest.mark.slow
def test_filter_disconnects_a_client_trained_on_noise():
    for seed in (1, 2, 3):
        runlog, _, _ = filtered_desk_run(seed, planted=True)
        status = {(r.round, r.client_id): r.status for r in runlog.rows}
        last = max(r for r, _ in status)
        print(f"\n  seed {seed}: " + " ".join(
            f"r{r}c{c}={s}" for (r, c), s in sorted(status.items()) if s != "active"))
        assert status[(last, PLANTED)] == DISCONNECTED, f"seed {seed}"
        honest = {s for (_, client), s in status.items() if client != PLANTED}
        assert not honest & {WARNED, DISCONNECTED}, f"seed {seed}"


@pytest.mark.slow
def test_heldout_loss_varies_between_clients_more_than_between_draws():
    seed, keys = 1, 8
    runlog, fed, scored = filtered_desk_run(seed, planted=False)
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
