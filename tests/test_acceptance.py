"""Acceptance suite: every shipped correctness criterion, one test each.

Each test prints a `CRITERION n: PASS` line when it succeeds; a failing
criterion shows up as a plain pytest failure. The trend and reproducibility
criteria run the real desk-preset pipeline and take a few minutes each.
"""

import csv
import json
import math
import time

import numpy as np
import pytest

import phoenix.federation as federation
from phoenix import autodiff as ad
from phoenix import diffusion
from phoenix.classifier import train_eval_classifier
from phoenix.cli import main
from phoenix.config import load_config, load_datasets
from phoenix.datasets import Dataset, make_toy_dataset
from phoenix.federation import run_federation, warmup_train
from phoenix.filtering import FilterState, filter_step
from phoenix.metrics import (
    FeatureStats,
    MetricsContext,
    compute_report,
    frechet_distance,
    inception_style_score,
    knn_precision_recall,
    total_variation,
)
from phoenix.partition import (
    PartitionPlan,
    data_sharing_split,
    partition_label_skew,
)
from phoenix.schedule import cosine_schedule, linear_schedule
from phoenix.seeding import (
    DOMAIN_SAMPLE,
    DOMAIN_SHUFFLE,
    DOMAIN_TRAIN_NOISE,
    derive_rng,
    derive_seed,
)
from phoenix.unet import build_unet

from gradcheck import (
    ALL_PRIMITIVES,
    analytic_gradients,
    assert_gradients_match,
    finite_difference_gradients,
    random_graph,
)
from oracles import q_sample_step
from test_filtering import SCENARIOS, run_trace
from test_metrics import brute_force_precision_recall


@pytest.fixture()
def verdict(capfd):
    """Print a per-criterion pass line that survives pytest's capture."""
    def _ok(n: int, detail: str = ""):
        with capfd.disabled():
            print(f"CRITERION {n}: PASS {detail}".rstrip(), flush=True)
    return _ok


def test_criterion_1_gradient_correctness(verdict):
    start = time.perf_counter()
    covered = set()
    for index in range(50):
        build, params, ops = random_graph(index, seed=2024)
        covered |= ops
        analytic, _ = analytic_gradients(build, params)
        numeric = finite_difference_gradients(build, params)
        assert_gradients_match(analytic, numeric, rel=1e-4, absolute=1e-6)
    elapsed = time.perf_counter() - start
    assert covered == ALL_PRIMITIVES, f"primitives not exercised: {ALL_PRIMITIVES - covered}"
    assert elapsed < 120.0, f"gradient sweep took {elapsed:.0f}s"
    verdict(1, f"(50 graphs, {len(covered)} primitives, {elapsed:.1f}s)")


def test_criterion_2_schedule_exactness(verdict):
    linear = linear_schedule(1000)
    assert linear.beta[0] == 1e-4          # bit-for-bit endpoints
    assert linear.beta[-1] == 0.02
    cosine = cosine_schedule(1000)
    assert np.all(np.diff(cosine.alpha_bar) < 0)
    assert cosine.alpha_bar[-1] < 0.01
    for sch in (linear, cosine):
        prev = np.concatenate(([1.0], sch.alpha_bar[:-1]))
        expected = sch.beta * (1.0 - prev) / (1.0 - sch.alpha_bar)
        expected[0] = sch.beta[0]
        assert np.abs(sch.posterior_variance - expected).max() <= 1e-9
    verdict(2)


def test_criterion_3_forward_process_equivalence(verdict):
    start = time.perf_counter()
    schedule = cosine_schedule(50)
    chains = 10_000
    x0 = 0.6
    for t in (1, 25, 50):
        rng = np.random.default_rng(4000 + t)
        x = np.full(chains, x0, dtype=np.float32)
        for step in range(1, t + 1):
            x = q_sample_step(
                x, step, schedule, rng.standard_normal(chains).astype(np.float32)
            )
        abar = schedule.alpha_bar[t - 1]
        want_mean, want_var = math.sqrt(abar) * x0, 1.0 - abar
        se_mean = math.sqrt(want_var / chains)
        se_var = want_var * math.sqrt(2.0 / (chains - 1))
        assert abs(float(x.mean()) - want_mean) < 3 * se_mean + 1e-9
        assert abs(float(x.var()) - want_var) < 3 * se_var + 1e-9
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    verdict(3, f"({elapsed:.1f}s)")


@pytest.mark.parametrize("clients", [2, 5])
def test_criterion_4_fedavg_centralized_oracle(clients, verdict):
    from phoenix.unet import DenoiserConfig

    tiny = DenoiserConfig(base_channels=4, time_embed_dim=8)
    data = make_toy_dataset(4, 10, 8, seed=60)
    sizes = [len(p) for p in np.array_split(np.arange(len(data)), clients)]
    bounds = np.cumsum([0] + sizes)
    assignments = [list(range(bounds[i], bounds[i + 1])) for i in range(clients)]
    plan = PartitionPlan(assignments, clients, "iid", 0)
    cfg = federation.FederationConfig(
        client_count=clients, server_rounds=1, local_epochs=1,
        batch_size=len(data), learning_rate=1e-3,
        schedule=linear_schedule(10), optimizer="sgd", eval_start_round=1,
    )
    initial = build_unet(tiny, seed=2)
    final, _ = run_federation(initial, plan, cfg, data, seed=88)

    total = sum(sizes)
    weighted = {k: np.zeros_like(v, dtype=np.float64) for k, v in initial.params.items()}
    for cid, part in enumerate(assignments):
        idx = np.asarray(part)
        order = idx[derive_rng(88, DOMAIN_SHUFFLE, cid, 1, 0).permutation(len(idx))]
        t = np.empty(len(order), dtype=np.int64)
        noise = np.empty((len(order), 1, 8, 8), dtype=np.float32)
        for j, gi in enumerate(order):
            rng = derive_rng(88, DOMAIN_TRAIN_NOISE, 1, 0, int(gi))
            t[j] = rng.integers(1, cfg.schedule.steps + 1)
            noise[j] = rng.standard_normal((1, 8, 8), dtype=np.float32)
        loss, leaves = diffusion.training_loss(
            initial, cfg.schedule, data.images[order], t, noise
        )
        ad.backward(loss)
        for name, leaf in leaves.items():
            weighted[name] += (len(part) / total) * leaf.grad.astype(np.float64)
    worst = 0.0
    for name, p0 in initial.params.items():
        expected = p0 - cfg.learning_rate * weighted[name]
        gap = np.abs(final.params[name] - expected).max()
        worst = max(worst, float(gap))
        assert gap <= 1e-6, f"{name}: max gap {gap}"
    verdict(4, f"(k={clients}, worst gap {worst:.2e})")


def test_criterion_5_sharing_size_table(verdict):
    labels = np.repeat(np.arange(10), 5000)
    dataset = Dataset(np.zeros((50000, 1, 1, 1), np.float32),
                      labels.astype(np.int64), 10)
    table = [
        (5, 100, 2000, 6000),
        (15, 100, 6000, 10000),
        (25, 100, 10000, 14000),
        (25, 25, 10000, 6500),
        (25, 50, 10000, 9000),
        (25, 75, 10000, 11500),
    ]
    for beta, alpha, server_size, client_size in table:
        plan = data_sharing_split(dataset, 10, beta, alpha, 2, seed=7)
        assert len(plan.shared_pool) == server_size, (beta, alpha)
        assert all(len(p) == 4000 for p in plan.client_part)
        assert all(len(m) == client_size for m in plan.assignments), (beta, alpha)
    verdict(5, f"({len(table)} rows exact)")


def test_criterion_6_filter_state_machine(verdict):
    assert len(SCENARIOS) >= 12
    for name, (policy, min_active, rounds, expected, exempt) in SCENARIOS.items():
        clients = len(expected[0][0])
        _, history = run_trace(policy, rounds, clients=clients,
                               min_active=min_active, exempt=exempt)
        for got, want in zip(history, expected):
            assert got == tuple(want), f"scenario '{name}': {got} != {want}"

    # 1000-trace property sweep: absorbing disconnects, two-strike rule
    rng = np.random.default_rng(314)
    from phoenix.filtering import ACTIVE, DISCONNECTED, WARNED, DropPolicy
    for _ in range(1000):
        clients = int(rng.integers(3, 7))
        policy = (DropPolicy("threshold", float(rng.uniform(0.3, 0.9)))
                  if rng.integers(2) else DropPolicy("lowest_precision"))
        state = FilterState.fresh(range(clients), policy, 2)
        warned_before: set[int] = set()
        for rnd in range(1, 7):
            precisions = {c: float(rng.uniform(0, 1)) for c in state.participating()}
            prev_dead = {c for c, s in state.status.items() if s == DISCONNECTED}
            state, disconnected, _ = filter_step(state, precisions, rnd)
            assert all(state.status[c] == DISCONNECTED for c in prev_dead)
            assert all(c in warned_before for c in disconnected)
            assert len(state.participating()) >= 2
            for c, s in state.status.items():
                assert (s, state.poor_streak[c]) in (
                    (ACTIVE, 0), (WARNED, 1), (DISCONNECTED, 2))
            warned_before = {c for c, s in state.status.items() if s == WARNED}
    verdict(6, f"({len(SCENARIOS)} scripted scenarios + 1000 random traces)")


def test_criterion_7_metric_oracles(verdict):
    same = FeatureStats(np.array([0.3, -0.2]), np.array([[1.0, 0.1], [0.1, 2.0]]), 10)
    assert frechet_distance(same, same) <= 1e-9
    a = FeatureStats(np.array([0.0]), np.array([[1.0]]), 10)
    b = FeatureStats(np.array([2.0]), np.array([[1.0]]), 10)
    assert abs(frechet_distance(a, b) - 4.0) <= 1e-9

    mean, _ = inception_style_score(np.full((40, 5), 0.2), splits=4)
    assert abs(mean - 1.0) <= 1e-9
    classes = 6
    mean, _ = inception_style_score(np.eye(classes)[np.arange(60) % classes], splits=5)
    assert abs(mean - classes) <= 1e-9

    rng = np.random.default_rng(55)
    real = rng.standard_normal((20, 2))
    gen = rng.standard_normal((20, 2)) * 0.8 + 0.3
    got = knn_precision_recall(real, gen, k=3)
    want = brute_force_precision_recall(real, gen, k=3)
    assert abs(got[0] - want[0]) <= 1e-9 and abs(got[1] - want[1]) <= 1e-9

    delta = np.zeros(10)
    delta[3] = 50
    assert abs(total_variation(delta, np.full(10, 5)) - 0.9) <= 1e-9
    verdict(7)


def test_criterion_8_personalization_retention(tmp_path, verdict):
    cfg = load_config("desk")
    cfg.federation.personalization = True
    cfg.seed = 11
    train, _ = load_datasets(cfg)
    fed = cfg.federation_config()
    plan = partition_label_skew(train, fed.client_count, 2, cfg.seed)
    initial = build_unet(cfg.model_config(), cfg.seed)
    personal = set(initial.personal_names)

    update_names: list[set[str]] = []
    personal_by_round: dict[int, dict[int, dict[str, np.ndarray]]] = {}
    original_fedavg = federation.fedavg
    original_local = federation.local_train

    def fedavg_spy(updates, into):
        for u in updates:
            update_names.append(set(u.params))
        return original_fedavg(updates, into)

    def local_spy(client, model, data, config, round_no, seed):
        update, state = original_local(client, model, data, config, round_no, seed)
        personal_by_round.setdefault(round_no, {})[client.id] = {
            k: v.copy() for k, v in state.personal_params.items()
        }
        return update, state

    federation.fedavg = fedavg_spy
    federation.local_train = local_spy
    try:
        # one worker: the spies record into this process
        final, _ = run_federation(initial, plan, fed, train, cfg.seed, workers=1)
    finally:
        federation.fedavg = original_fedavg
        federation.local_train = original_local

    assert len(update_names) == fed.client_count * fed.server_rounds
    for names in update_names:
        assert not names & personal, "personal parameters leaked into an update"
    for name in personal:
        np.testing.assert_array_equal(final.params[name], initial.params[name])
    for round_no in range(1, fed.server_rounds + 1):
        stores = personal_by_round[round_no]
        ids = sorted(stores)
        differs = any(
            any(not np.array_equal(stores[a][n], stores[b][n]) for n in personal)
            for i, a in enumerate(ids) for b in ids[i + 1:]
        )
        assert differs, f"round {round_no}: personal layers identical across clients"
    verdict(8, f"({fed.server_rounds} rounds, {len(personal)} personal tensors)")


def _desk_run(seed: int, mode: str) -> tuple[float, float]:
    """Final (recall, tv_distance) of one desk-preset run."""
    cfg = load_config("desk")
    cfg.seed = seed
    train, test = load_datasets(cfg)
    fed = cfg.federation_config()
    classifier = train_eval_classifier(train, cfg.metrics.classifier_epochs, seed)
    ctx = MetricsContext.build(test.images, classifier)
    if mode == "baseline":
        plan = partition_label_skew(train, fed.client_count, 2, seed)
        initial = build_unet(cfg.model_config(), seed)
    else:
        plan = data_sharing_split(train, fed.client_count,
                                  cfg.partition.beta_pct, cfg.partition.alpha_pct,
                                  cfg.partition.classes_per_client, seed)
        initial, _ = warmup_train(train.subset(plan.shared_pool),
                                  cfg.model_config(), fed, seed)
    final, _ = run_federation(initial, plan, fed, train, seed)
    samples = diffusion.generate(final, fed.schedule, cfg.metrics.eval_sample_count,
                                 derive_seed(seed, DOMAIN_SAMPLE, 0))
    report = compute_report(samples, ctx)
    return report.recall, report.tv_distance


@pytest.mark.slow
def test_criterion_9_directional_trend(verdict):
    seeds = (1, 2, 3)
    recall_wins = 0
    tv_wins = 0
    for seed in seeds:
        base_recall, base_tv = _desk_run(seed, "baseline")
        share_recall, share_tv = _desk_run(seed, "sharing")
        print(f"\n  seed {seed}: baseline recall={base_recall:.3f} tv={base_tv:.3f} | "
              f"sharing recall={share_recall:.3f} tv={share_tv:.3f}")
        recall_wins += share_recall >= base_recall
        tv_wins += share_tv <= base_tv
    assert recall_wins >= 2, f"data sharing improved recall in only {recall_wins}/3 seeds"
    assert tv_wins >= 2, f"data sharing improved tv in only {tv_wins}/3 seeds"
    verdict(9, f"(recall {recall_wins}/3, tv {tv_wins}/3 seeds)")


def _strip_wall_ms(csv_path) -> list[list[str]]:
    with open(csv_path, newline="") as f:
        rows = list(csv.reader(f))
    assert rows[0][-1] == "wall_ms"
    return [row[:-1] for row in rows]


@pytest.mark.slow
def test_criterion_10_pipeline_reproducibility(tmp_path, verdict):
    """partition -> warmup -> train -> generate -> evaluate, workers 1 vs 4."""
    outputs = {}
    for workers in (1, 4):
        out = tmp_path / f"w{workers}"
        config = tmp_path / f"cfg{workers}.json"
        config.write_text(json.dumps({
            "preset": "desk",
            "partition": {"mode": "data_sharing", "classes_per_client": 2,
                          "beta_pct": 25.0, "alpha_pct": 100.0},
            "seed": 42,
            "out_dir": str(out),
        }))
        args = ["--config", str(config)]
        assert main(["partition", *args]) == 0
        assert main(["warmup", *args]) == 0
        assert main(["train", *args, "--workers", str(workers)]) == 0
        run_dir = next((out / "runs").iterdir())
        gen = out / "gen"
        assert main(["generate", *args, "--out", str(gen),
                     "--checkpoint", str(run_dir / "round_5.phxc"),
                     "--count", "16"]) == 0
        eval_dir = out / "eval"
        assert main(["evaluate", *args, "--out", str(eval_dir),
                     "--samples", str(gen / "samples.phxt"),
                     "--classifier", str(out / "eval_classifier.phxc")]) == 0
        outputs[workers] = {
            "plan": (out / "plan.json").read_bytes(),
            "warmup": (out / "round_0.phxc").read_bytes(),
            "runlog": _strip_wall_ms(run_dir / "runlog.csv"),
            "final": (run_dir / "round_5.phxc").read_bytes(),
            "samples": (gen / "samples.phxt").read_bytes(),
            "image0": (gen / "sample_0000.pgm").read_bytes(),
            "metrics": (eval_dir / "metrics.json").read_bytes(),
        }
    a, b = outputs[1], outputs[4]
    for key in a:
        assert a[key] == b[key], f"workers 1 vs 4 disagree on {key}"
    verdict(10, "(runlog, checkpoints, samples, metrics identical across workers)")
