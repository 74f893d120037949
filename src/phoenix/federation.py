"""Federated orchestration: warmup, local training, aggregation, filtering.

A server round broadcasts the global base parameters and runs one job per
client that the run's filter state lists as participating: local training
and, in rounds where threshold filtering scores clients, k-NN
precision/recall of the trained model. A job writes no shared state and
returns the client's next state, its update and its ``RunRow``;
``run_federation`` commits the states in id order, advances the filter on
the rows' scores and aggregates the updates of the clients it has not
disconnected by sample-count-weighted averaging. Personal-flagged
parameters never leave their client: they stay in the client state and are
excluded from every update. A client's state, Adam moments included, is a
value that training reads and never writes, so a faulted client keeps it
as it was.

With more than one worker, client jobs run in one pool of forked processes
that lasts the whole run. The workers fork once, at round 1's first job,
and inherit what stays the same for the run: the dataset, the config, the
seed and the metrics context. Each job sends down the client's state, the
global model, the round number and whether the round scores; only the
client's next state, update and row come back. All randomness is derived
from (seed, domain, round, epoch, ...) keys, so results are bitwise the same
for every worker count.
Unless told otherwise, a run pools only when that can pay: BLAS pinned to
one thread, a small model and a platform that forks (``default_workers``).
"""

from __future__ import annotations

import logging
import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Mapping

import numpy as np

from . import autodiff as ad
from . import diffusion
from .datasets import Dataset
from .filtering import ACTIVE, DISCONNECTED, DropPolicy, FilterState, filter_step
from .formats import write_checkpoint, write_csv
from .metrics import MetricsContext, knn_precision_recall
from .optim import AdamState, adam_step, sgd_step
from .partition import PartitionPlan
from .schedule import NoiseSchedule
from .seeding import (
    DOMAIN_EVAL,
    DOMAIN_SHUFFLE,
    DOMAIN_TRAIN_NOISE,
    DOMAIN_WARMUP,
    derive_rng,
    derive_seed,
)
from .unet import (
    DenoiserConfig,
    DenoiserModel,
    build_unet,
    merge_parameters,
    split_parameters,
)

log = logging.getLogger(__name__)

OPTIMIZER_ADAM = "adam"
OPTIMIZER_SGD = "sgd"

STATUS_FAULTED = "faulted"
STATUS_SKIPPED = "skipped"


class FederationError(RuntimeError):
    """The run cannot continue (e.g. no trainable clients left)."""


@dataclass
class FederationConfig:
    client_count: int
    server_rounds: int
    local_epochs: int
    batch_size: int
    learning_rate: float
    schedule: NoiseSchedule
    warmup_epochs: int = 5
    optimizer: str = OPTIMIZER_ADAM
    personalization: bool = False
    threshold_filtering: bool = False
    drop_policy: DropPolicy = field(default_factory=DropPolicy)
    eval_sample_count: int = 1000
    eval_start_round: int = 5
    min_active_clients: int = 2

    def validate(self) -> None:
        if self.server_rounds < 1 or self.local_epochs < 1:
            raise ValueError("server_rounds and local_epochs must be at least 1")
        if self.client_count < 1 or self.batch_size < 1:
            raise ValueError("client_count and batch_size must be at least 1")
        if self.threshold_filtering and self.client_count < 2:
            raise ValueError("threshold filtering needs at least 2 clients")
        if self.threshold_filtering and self.min_active_clients < 1:
            raise ValueError("threshold filtering needs min_active_clients >= 1")
        if self.threshold_filtering and not 1 <= self.eval_start_round <= self.server_rounds:
            raise ValueError(
                f"eval_start_round {self.eval_start_round} outside "
                f"[1, {self.server_rounds}]"
            )
        if self.optimizer not in (OPTIMIZER_ADAM, OPTIMIZER_SGD):
            raise ValueError(f"unknown optimizer '{self.optimizer}'")
        self.drop_policy.validate()


@dataclass
class ClientState:
    id: int
    data_indices: list[int]
    personal_params: dict[str, np.ndarray] = field(default_factory=dict)
    optimizer_state: AdamState | None = None


@dataclass
class ClientUpdate:
    client_id: int
    params: dict[str, np.ndarray]
    sample_count: int
    train_loss: float


@dataclass
class RunRow:
    round: int
    client_id: int
    status: str
    samples: int
    train_loss: float | None
    precision: float | None
    recall: float | None
    bytes_up: int
    bytes_down: int
    wall_ms: int  # training plus scoring time; the one column that varies run to run


RUNLOG_COLUMNS = [f.name for f in fields(RunRow)]


@dataclass
class RunLog:
    rows: list[RunRow] = field(default_factory=list)

    def write_csv(self, path: str | Path) -> None:
        def fmt(v):
            return "" if v is None else f"{v:.6f}" if isinstance(v, float) else v

        write_csv(path, RUNLOG_COLUMNS,
                  ([fmt(getattr(r, name)) for name in RUNLOG_COLUMNS] for r in self.rows))


def _batched(order: np.ndarray, batch_size: int):
    for start in range(0, len(order), batch_size):
        yield order[start:start + batch_size]


def _draw_batch_noise(
    seed: int, noise_key: tuple[int, ...], epoch: int, indices: np.ndarray,
    steps: int, image_shape: tuple[int, ...],
) -> tuple[np.ndarray, np.ndarray]:
    """Per-sample step indices and noise, keyed by the global sample index.

    Keying on the sample rather than client or batch position makes the
    draws identical however samples are grouped, which is what lets
    federated full-batch SGD match a centralized step exactly.
    """
    t = np.empty(len(indices), dtype=np.int64)
    noise = np.empty((len(indices),) + image_shape, dtype=np.float32)
    for j, gi in enumerate(indices):
        rng = derive_rng(seed, *noise_key, epoch, int(gi))
        t[j] = int(rng.integers(1, steps + 1))
        noise[j] = rng.standard_normal(image_shape, dtype=np.float32)
    return t, noise


def _train_epochs(
    model: DenoiserModel,
    params: dict[str, np.ndarray],
    dataset: Dataset,
    indices: list[int],
    config: FederationConfig,
    seed: int,
    shuffle_key: tuple[int, ...],
    noise_key: tuple[int, ...],
    epochs: int,
    optimizer_state: AdamState | None,
) -> tuple[dict[str, np.ndarray], AdamState | None, float]:
    """Run seeded mini-batch epochs over ``indices``.

    Returns (params, optimizer state, mean loss). With Adam, a ``None``
    state starts from fresh moments; with SGD the state stays ``None``.
    """
    if config.optimizer == OPTIMIZER_ADAM and optimizer_state is None:
        optimizer_state = AdamState(learning_rate=config.learning_rate)
    image_shape = dataset.images.shape[1:]
    idx = np.asarray(indices, dtype=np.int64)
    losses: list[float] = []
    for epoch in range(epochs):
        order = idx[derive_rng(seed, *shuffle_key, epoch).permutation(len(idx))]
        for batch in _batched(order, config.batch_size):
            t, noise = _draw_batch_noise(
                seed, noise_key, epoch, batch, config.schedule.steps, image_shape
            )
            working = model.with_params(params)
            loss, leaves = diffusion.training_loss(
                working, config.schedule, dataset.images[batch], t, noise
            )
            ad.backward(loss)
            grads = {name: leaf.grad for name, leaf in leaves.items()}
            losses.append(loss.item())
            # the graph holds every activation and node gradient; free it now,
            # not at the end of the next batch's forward pass
            del loss, leaves
            if config.optimizer == OPTIMIZER_ADAM:
                params, optimizer_state = adam_step(params, grads, optimizer_state)
            else:
                params = sgd_step(params, grads, config.learning_rate)
    return params, optimizer_state, float(np.mean(losses)) if losses else float("nan")


def warmup_train(
    shared: Dataset,
    model_config: DenoiserConfig,
    config: FederationConfig,
    seed: int,
) -> tuple[DenoiserModel, list[float]]:
    """Train a fresh model centrally on the shared pool.

    Returns the warmup model (the initial global model for federated
    training) and the per-epoch mean loss curve. With warmup_epochs = 0 the
    seeded initial model comes back untouched.
    """
    if len(shared) == 0:
        raise ValueError("warmup needs a non-empty shared pool")
    model = build_unet(model_config, seed)
    params, state = model.params, None
    curve: list[float] = []
    for epoch in range(config.warmup_epochs):
        params, state, mean_loss = _train_epochs(
            model, params, shared, list(range(len(shared))), config, seed,
            shuffle_key=(DOMAIN_WARMUP, 0, epoch),
            noise_key=(DOMAIN_WARMUP, 1),
            epochs=1,
            optimizer_state=state,
        )
        curve.append(mean_loss)
    return model.with_params(params), curve


def _client_params(
    model: DenoiserModel, base: Mapping[str, np.ndarray], client: ClientState
) -> dict[str, np.ndarray]:
    """``base`` with the client's stored personal layers, in the model's order.

    A client that stores none (personalization off, or not yet trained)
    keeps the personal layers that ``base`` itself carries.
    """
    return merge_parameters(model, base, client.personal_params or base)


def local_train(
    client: ClientState,
    global_model: DenoiserModel,
    dataset: Dataset,
    config: FederationConfig,
    round_no: int,
    seed: int,
) -> tuple[ClientUpdate, ClientState] | None:
    """One client's local epochs; returns (update, next state), or None when skipped.

    Training starts from the client's state, a value it reads and never
    writes. The next state holds the trained optimizer state and, when
    personalization is on, the trained personal layers, which are stripped
    from the update. The caller decides whether to commit it; a non-finite
    loss or gradient raises ``NumericError`` and ``client`` stays as it was.
    """
    if not client.data_indices:
        log.warning("client %d has no data; skipping round %d", client.id, round_no)
        return None
    params, optimizer_state, mean_loss = _train_epochs(
        global_model, _client_params(global_model, global_model.params, client),
        dataset, client.data_indices, config, seed,
        shuffle_key=(DOMAIN_SHUFFLE, client.id, round_no),
        noise_key=(DOMAIN_TRAIN_NOISE, round_no),
        epochs=config.local_epochs,
        optimizer_state=client.optimizer_state,
    )
    personal = client.personal_params
    if config.personalization:
        params, personal = split_parameters(global_model.with_params(params))
    return (ClientUpdate(client.id, params, len(client.data_indices), mean_loss),
            replace(client, personal_params=personal, optimizer_state=optimizer_state))


def fedavg(updates: list[ClientUpdate]) -> dict[str, np.ndarray]:
    """Sample-count-weighted average of the updates' parameter tables."""
    if not updates:
        raise ValueError("fedavg needs at least one update")
    names = list(updates[0].params)
    name_set = set(names)
    for u in updates[1:]:
        if set(u.params) != name_set:
            diff = sorted(set(u.params) ^ name_set)
            raise ValueError(
                f"update from client {u.client_id} has mismatched parameters: {diff}"
            )
    total = sum(u.sample_count for u in updates)
    if total <= 0:
        raise ValueError("total sample count is zero")
    ordered = sorted(updates, key=lambda u: u.client_id)
    out: dict[str, np.ndarray] = {}
    for name in names:
        acc = np.zeros(updates[0].params[name].shape, dtype=np.float64)
        for u in ordered:
            acc += (u.sample_count / total) * u.params[name].astype(np.float64)
        out[name] = acc.astype(np.float32)
    return out


def evaluate_client(
    client: ClientState,
    model: DenoiserModel,
    metrics_ctx: MetricsContext,
    config: FederationConfig,
    round_no: int,
    seed: int,
) -> tuple[float, float]:
    """Generate from the client's assembled model and score it by k-NN P/R."""
    if metrics_ctx is None:
        raise ValueError("client evaluation needs a metrics context")
    gen_seed = derive_seed(seed, DOMAIN_EVAL, round_no, client.id)
    samples = diffusion.generate(
        model, config.schedule, config.eval_sample_count, gen_seed
    )
    features = metrics_ctx.extract(samples)
    return knn_precision_recall(
        metrics_ctx.reference_features, features, metrics_ctx.knn_k
    )


def _param_bytes(params: Mapping[str, np.ndarray]) -> int:
    return 4 * sum(v.size for v in params.values())


def _client_job(client: ClientState, global_model: DenoiserModel, round_no: int,
                scoring: bool, dataset: Dataset, config: FederationConfig, seed: int,
                metrics_ctx: MetricsContext | None):
    """Train one client and, in a scoring round, score it; writes no shared state.

    Returns (next state, update or None, ``RunRow``); the round fills in the
    row's ``bytes_down`` and, for a scored client, the filter's status. A
    faulted client keeps its state and is not scored; a skipped client is
    scored on the broadcast model plus its stored personal layers.
    """
    start = time.perf_counter()
    update, state, status, scores = None, client, STATUS_FAULTED, (None, None)
    try:
        trained = local_train(client, global_model, dataset, config, round_no, seed)
    except ad.NumericError:
        log.warning("client %d faulted in round %d (non-finite loss)", client.id, round_no)
    else:
        update, state = trained or (None, client)
        status = STATUS_SKIPPED if trained is None else ACTIVE
        if scoring:
            base = global_model.params if update is None else update.params
            model = global_model.with_params(_client_params(global_model, base, state))
            scores = evaluate_client(state, model, metrics_ctx, config, round_no, seed)
    row = RunRow(round_no, client.id, status, samples=update.sample_count if update else 0,
                 train_loss=update.train_loss if update else None, precision=scores[0],
                 recall=scores[1], bytes_up=_param_bytes(update.params) if update else 0,
                 bytes_down=0, wall_ms=int((time.perf_counter() - start) * 1000))
    return state, update, row


# A pool worker's share of the run: _client_job's last four arguments. Only
# ``_set_run`` in a worker sets it, never the caller. Fork hands its initargs
# over unpickled, so the workers share the dataset and the metrics context
# with the caller copy-on-write.
_run: tuple = ()


def _set_run(*inputs) -> None:
    global _run
    _run = inputs


def _pooled_job(job: tuple):
    return _client_job(*job, *_run)


# The variables that set the thread count of OpenBLAS, MKL and OpenMP BLAS.
BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS")

# The largest model the default pools: a pooled client pipes back its update
# and both Adam moments, and every worker holds a whole training's memory.
# On a 2-vCPU Xeon with BLAS pinned, 2 workers took a personalized, filtered
# round of the 0.3 MB desk model from 20.7 to 12.2 s, but a round of the
# 80 MB paper model only from a median of 21.5 to 20.5 s over 6 pairs,
# inside the serial runs' spread, each client sending back 252 MB while the
# workers' memory came on top. Sizes in between are unmeasured.
POOL_MAX_PARAM_BYTES = 8 * 2**20


def blas_pinned(environ: Mapping[str, str] = os.environ) -> bool:
    """Whether ``environ`` pins BLAS to one thread: at least one of
    ``BLAS_THREAD_VARIABLES`` is set, and every one that is set says 1."""
    values = [environ[name].strip() for name in BLAS_THREAD_VARIABLES if name in environ]
    return bool(values) and all(value == "1" for value in values)


def usable_cores() -> int:
    """The cores this process may run on (all of them where affinity is unknown)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def can_fork() -> bool:
    return "fork" in multiprocessing.get_all_start_methods()


def check_workers(workers: int) -> None:
    """Refuse a worker count ``run_federation`` cannot run with."""
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    if workers > 1 and not can_fork():
        raise ValueError(f"{workers} workers need processes started by fork, "
                         f"which this platform lacks; use 1 worker")


def default_workers(model: DenoiserModel) -> int:
    """The worker count of a run that names none: every usable core when BLAS
    is pinned to one thread, the model's parameters take at most
    ``POOL_MAX_PARAM_BYTES`` and the platform forks; else 1.

    A forked worker inherits its parent's BLAS threads, so with BLAS
    unpinned the workers fight over the cores: two desk workers took 68-88 s
    where one took 31-32 s.
    """
    if (blas_pinned() and can_fork()
            and _param_bytes(model.params) <= POOL_MAX_PARAM_BYTES):
        return usable_cores()
    return 1


def run_federation(
    initial_model: DenoiserModel,
    plan: PartitionPlan,
    config: FederationConfig,
    dataset: Dataset,
    seed: int,
    metrics_ctx: MetricsContext | None = None,
    workers: int | None = None,
    out_dir: str | Path | None = None,
) -> tuple[DenoiserModel, RunLog]:
    """Execute the configured number of server rounds and return the result.

    Every run holds a filter state, and each round trains the clients it
    lists as participating: without filtering, nothing is scored and every
    client takes part. Client jobs run in up to ``workers`` processes, by
    default ``default_workers(initial_model)``. Above one, a single pool of
    ``min(workers, client_count)`` forked processes serves every round and
    is closed when the run ends or raises; each round sends every
    participating client its job and commits the results in id order. The
    run log holds one row per client and round.

    Under ``out_dir``, when given, each round ends by writing its global
    checkpoint, the per-client personal checkpoints and the run log CSV so
    far, each replacing the previous file atomically.
    """
    config.validate()
    if workers is None:
        workers = default_workers(initial_model)
    check_workers(workers)
    if plan.client_count != config.client_count:
        raise ValueError(
            f"plan has {plan.client_count} clients, config expects {config.client_count}"
        )
    if config.threshold_filtering and metrics_ctx is None:
        raise ValueError("threshold filtering needs a metrics context")
    out_path = Path(out_dir) if out_dir is not None else None
    if out_path is not None:
        out_path.mkdir(parents=True, exist_ok=True)

    clients = [
        ClientState(id=i, data_indices=list(plan.client_indices(i)))
        for i in range(config.client_count)
    ]
    global_model = initial_model
    filter_state = FilterState.fresh(range(config.client_count), config.drop_policy,
                                     config.min_active_clients)
    runlog = RunLog()

    run_inputs = (dataset, config, seed, metrics_ctx)
    pool_size = min(workers, config.client_count)
    # one pool for the whole run: its workers fork at round 1's first job,
    # before the executor has started any thread
    with (ProcessPoolExecutor(pool_size, mp_context=multiprocessing.get_context("fork"),
                              initializer=_set_run, initargs=run_inputs)
          if pool_size > 1 else nullcontext()) as pool:
        for round_no in range(1, config.server_rounds + 1):
            broadcast_bytes = _param_bytes(
                split_parameters(global_model)[0] if config.personalization and round_no > 1
                else global_model.params
            )
            scoring = config.threshold_filtering and round_no >= config.eval_start_round
            jobs = ((clients[cid], global_model, round_no, scoring)
                    for cid in filter_state.participating())
            # serial jobs read each client only when they start, so its old state
            # is freed as soon as its next state is committed
            done = (pool.map(_pooled_job, jobs) if pool is not None
                    else (_client_job(*job, *run_inputs) for job in jobs))
            updates, rows = {}, {}
            for state, update, row in done:  # commit in id order
                clients[state.id], updates[state.id], rows[state.id] = state, update, row
                row.bytes_down = broadcast_bytes

            if scoring:
                scored = {cid: (row.precision, row.recall) for cid, row in rows.items()
                          if row.precision is not None}
                # only a faulted client goes unscored; its filter state carries over
                filter_state, _, _ = filter_step(
                    filter_state, scored, round_no, exempt=rows.keys() - scored.keys()
                )
                for cid in scored:
                    rows[cid].status = filter_state.status[cid]

            kept = [update for cid, update in updates.items()
                    if update is not None and filter_state.status[cid] != DISCONNECTED]
            if not kept:
                raise FederationError(
                    f"round {round_no}: no usable client updates (all faulted, "
                    f"skipped, or disconnected)"
                )
            global_model = global_model.with_params({**global_model.params, **fedavg(kept)})
            runlog.rows.extend(
                rows.get(cid) or RunRow(round_no, cid, DISCONNECTED, 0, None, None, None, 0, 0, 0)
                for cid in range(config.client_count)
            )

            if out_path is not None:
                write_checkpoint(
                    out_path / f"round_{round_no}.phxc",
                    global_model.params, set(global_model.personal_names),
                )
                for client in clients:
                    if client.personal_params:
                        write_checkpoint(
                            out_path / f"client_{client.id}_personal.phxc",
                            client.personal_params, set(client.personal_params),
                        )
                runlog.write_csv(out_path / "runlog.csv")
    return global_model, runlog
