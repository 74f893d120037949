"""Federated orchestration: warmup, local training, aggregation, filtering.

A server round broadcasts the global base parameters and runs one job per
client that the run's filter state lists as participating: local training
and, in a round where threshold filtering scores, one forward pass that
measures the trained model's noise-prediction loss on the held-out images
of the classes the client trains on. A job writes no shared state and
returns the client's next state, its update and its ``RunRow``; the process
that holds the client commits the state, and ``run_federation`` takes the
rows and updates in id order and aggregates by sample-count-weighted
averaging (FedAvg): it folds each update into a float64 running sum one
table at a time, as the tables arrive. Only a client warned at the start
of the round can be disconnected by the filter, on the rows' scores, so
only its update waits, whole, for the filter to decide. As in FedPer,
personal-flagged parameters never leave the client state, and the process
that holds it writes the client's personal checkpoint. A client's state,
Adam moments included, is a value that training reads and never writes, so
a faulted client keeps it as it was.

With more than one worker, client jobs run in ``min(workers, client_count)``
processes forked once, before round 1, that last the whole run. Worker k
holds the states of the clients with ``id % workers == k`` and inherits what
stays the same for the run: the dataset, the config, the seed, the
held-out images and the run directory. Each round sends every worker the
global model, the round number and who participates; only each client's
update and row come back, as a header (the row and the update's table
names, in order) followed by one message per table. All cross through
``parallel.send`` and ``recv``, which copy no parameter table, and each
table is freed as soon as it is folded, so the parent never holds a whole
update it is folding. All randomness is derived from (seed, domain,
round, epoch, ...) keys, and updates are folded in an order that does not
depend on the worker count, so results are bitwise the same for every
worker count.
Unless told otherwise, a run pools only when that can pay: BLAS pinned to
one thread and a platform that forks (``parallel.default_workers``).
"""

from __future__ import annotations

import logging
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Iterable, Mapping

import numpy as np

from . import autodiff as ad
from . import diffusion, parallel
from .datasets import Dataset
from .filtering import ACTIVE, DISCONNECTED, WARNED, DropPolicy, FilterState, filter_step
from .formats import write_checkpoint, write_csv
from .optim import AdamState, adam_step, blocks, sgd_step
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

# The diffusion step at which the filter measures each client's held-out
# loss; a schedule of fewer steps uses its last one. On desk runs (seeds 1-3,
# 4 noise draws per client) of steps 2, 5, 10, 20 and 35, step 5 kept each
# honest run's ranking of its clients most stable across draws (spread
# between clients 5-9 times that within one), and a client trained on noise
# still scored at most 0.33 of the median (CHANGES.md has the table).
HELDOUT_STEP = 5


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
        if not 0 < self.learning_rate < np.inf:
            raise ValueError(
                f"learning_rate must be finite and positive, got {self.learning_rate}")
        if self.warmup_epochs < 0:
            raise ValueError(f"warmup_epochs must be non-negative, got {self.warmup_epochs}")
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
    samples: int = 0
    train_loss: float | None = None
    precision: float | None = None  # always None, as is recall: perfbench/child.py
    recall: float | None = None     # reads both columns (ROADMAP item 13)
    heldout_loss: float | None = None
    bytes_up: int = 0
    bytes_down: int = 0
    wall_ms: int = 0  # training plus scoring time; the one column that varies run to run


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
    draws identical however samples are grouped. The step computed from
    them need not be: BLAS may give a row other bits in a batch of another
    row count, so federated full-batch SGD matches a centralized step to
    rounding, not bit for bit.
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


@dataclass
class RunningSum:
    """A round's FedAvg so far: Σ nₖ·wₖ per parameter in float64, and Σ nₖ
    over the clients admitted."""

    tables: dict[str, np.ndarray] = field(default_factory=dict)
    samples: int = 0
    clients: set[int] = field(default_factory=set)

    def admit(self, client_id: int, names: Iterable[str], sample_count: int) -> None:
        """Count a client's nₖ into Σ nₖ, before any of its tables is folded.

        The first update folded names the round's parameters; an update
        with other names raises ``ValueError`` and leaves the sum as it was.
        """
        names = set(names)
        if self.tables and names != self.tables.keys():
            diff = sorted(names ^ self.tables.keys())
            raise ValueError(f"update from client {client_id} has mismatched parameters: {diff}")
        self.clients.add(client_id)
        self.samples += sample_count

    def mean(self) -> dict[str, np.ndarray]:
        """(Σ nₖ·wₖ)/Σ nₖ, each table divided in float64 and rounded to
        float32. Each float64 table is dropped as its mean is built, so the
        sum is empty afterwards."""
        if self.samples <= 0:
            raise ValueError("fedavg needs at least one update")
        out = {}
        for name in list(self.tables):
            table = self.tables.pop(name)
            out[name] = np.divide(table, self.samples, out=np.empty(table.shape, np.float32),
                                  casting="same_kind")
            del table
        return out


def fedavg(updates: list[ClientUpdate], into: RunningSum) -> None:
    """Fold the tables of ``updates``, in list order, into the round's running sum.

    Each table adds nₖ·wₖ, a product exact in float64, to its float64 sum,
    which starts at zero; it is walked in ``optim.blocks``, so no table-sized
    float64 temporary is made. An update from a client that ``into`` has not
    admitted is admitted first on its own names (``RunningSum.admit``), so it
    holds all of its client's tables; ``_fold`` admits a client on its
    reply's header, then folds the update a part at a time.
    """
    for u in updates:
        if u.client_id not in into.clients:
            into.admit(u.client_id, u.params, u.sample_count)
        for name, p in u.params.items():
            acc = into.tables.get(name)
            if acc is None:
                acc = into.tables[name] = np.zeros(p.shape)
            for acc_, p_ in blocks(acc.size, acc, p):
                acc_ += np.multiply(p_, u.sample_count, dtype=np.float64)


def _fold(row: RunRow, names: list[str],
          parts: Iterable[dict[str, np.ndarray]], into: RunningSum) -> None:
    """Fold the update of the client that ``row`` reports, whose tables come
    in ``parts``, dicts of consecutive tables in the order of ``names``: the
    client is admitted on ``names`` and ``row.samples`` before any part is
    read, and each part is folded by ``fedavg`` and dropped before the next
    is read."""
    into.admit(row.client_id, names, row.samples)
    for params in parts:
        fedavg([ClientUpdate(row.client_id, params, row.samples, row.train_loss)], into)
        del params  # before the next part is read


def heldout_loss(model: DenoiserModel, images: np.ndarray, config: FederationConfig,
                 round_no: int, client_id: int, seed: int) -> float:
    """``model``'s mean noise-prediction MSE on ``images`` at ``HELDOUT_STEP``,
    with noise keyed by (seed, ``DOMAIN_EVAL``, round, client) and image index."""
    step = min(HELDOUT_STEP, config.schedule.steps)
    return float(np.mean(diffusion.eps_mse(
        model, config.schedule, images, step,
        derive_seed(seed, DOMAIN_EVAL, round_no, client_id))))


def _param_bytes(params: Mapping[str, np.ndarray]) -> int:
    return 4 * sum(v.size for v in params.values())


def _client_job(client: ClientState, global_model: DenoiserModel, round_no: int,
                dataset: Dataset, config: FederationConfig, seed: int,
                heldout: Dataset | None):
    """Train one client and, in a round where the filter scores, measure the
    trained model's ``heldout_loss`` on the held-out images of the classes in
    the client's training data; writes no shared state.

    Returns (next state, update or None, ``RunRow``); the round fills in the
    row's ``bytes_down`` and, for a scored client, the filter's status. Only
    a client that trained is scored: a faulted one keeps its state, and a
    skipped one holds no data, so it has no classes.
    """
    start = time.perf_counter()
    update, state, status, loss = None, client, STATUS_FAULTED, None
    try:
        trained = local_train(client, global_model, dataset, config, round_no, seed)
    except ad.NumericError:
        log.warning("client %d faulted in round %d (non-finite loss)", client.id, round_no)
    else:
        update, state = trained or (None, client)
        status = STATUS_SKIPPED if trained is None else ACTIVE
        scoring = config.threshold_filtering and round_no >= config.eval_start_round
        if update is not None and scoring:
            model = global_model.with_params(_client_params(global_model, update.params, state))
            own = np.isin(heldout.labels, dataset.labels[client.data_indices])
            loss = heldout_loss(model, heldout.images[own], config, round_no, client.id, seed)
    row = RunRow(round_no, client.id, status, samples=update.sample_count if update else 0,
                 train_loss=update.train_loss if update else None, heldout_loss=loss,
                 bytes_up=_param_bytes(update.params) if update else 0,
                 wall_ms=int((time.perf_counter() - start) * 1000))
    return state, update, row


def _train_share(clients: dict[int, ClientState], global_model: DenoiserModel,
                 round_no: int, participating: list[int],
                 dataset: Dataset, config: FederationConfig, seed: int,
                 heldout: Dataset | None, out_path: Path | None):
    """Run the jobs of the participating clients held in ``clients``, in id order.

    Commits each client's next state into ``clients``, writes the personal
    layers a job trained to the client's checkpoint under ``out_path``, and
    yields the job's (update or None, ``RunRow``). A job reads its client's
    state only when it starts, so the state it replaces is freed at once.
    """
    for cid in participating:
        if cid in clients:
            clients[cid], update, row = _client_job(clients[cid], global_model, round_no,
                                                    dataset, config, seed, heldout)
            personal = clients[cid].personal_params
            if out_path is not None and update is not None and personal:
                write_checkpoint(out_path / f"client_{cid}_personal.phxc",
                                 personal, set(personal))
            yield update, row
            del update  # the caller keeps or sends it; here it would outlive the next job


def _serve(conn, clients: dict[int, ClientState], run_inputs: tuple) -> None:
    """A worker's life: it holds a share of the clients and serves one round
    per message, (global model, round number, participating ids). For each
    participating client of its share it replies with a header, (``RunRow``,
    the update's table names in order, none without an update), then one
    message per table. The run is over when the parent closes its end.
    """
    while True:
        try:
            message = parallel.recv(conn)
        except EOFError:
            return
        for update, row in _train_share(clients, *message, *run_inputs):
            tables = update.params if update is not None else {}
            parallel.send(conn, (row, list(tables)))
            for table in tables.values():
                parallel.send(conn, table)
            del update, tables  # sent; not to be held through the next job


@contextmanager
def _client_rounds(clients: list[ClientState], worker_count: int, run_inputs: tuple):
    """Yield ``train(global_model, round_no, participating)``, which runs
    a round's client jobs and yields their replies in id order.

    A reply is (``RunRow``, the update's table names, its tables in parts):
    dicts of consecutive tables in the order of the names, which the caller
    must take in full before it asks for the next reply; a client without an
    update has no names. The row carries the update's client id, sample
    count and train loss. With one worker the jobs run here, over every
    client, and an update's tables are one part. Above one, ``worker_count``
    workers fork now through ``parallel.forked``, and worker k keeps the
    states of the clients with ``id % worker_count == k`` for the whole run
    and writes their personal checkpoints; a round sends its message to
    every worker, and each part is one table, read from the pipe as it is
    taken. A worker that ends mid-round raises ``FederationError``; a job's
    exception is raised as it was raised.
    """
    if worker_count == 1:
        share = {client.id: client for client in clients}

        def train(*message):
            for update, row in _train_share(share, *message, *run_inputs):
                tables = update.params if update is not None else {}
                yield row, list(tables), [tables]
                del update, tables  # the caller keeps or folds it; not to outlive the next job

        yield train
        return

    def train(global_model, round_no, participating):
        lost = FederationError(f"round {round_no}: a worker process ended mid-round")
        try:
            for conn in conns:
                parallel.send(conn, (global_model, round_no, participating))
        except OSError:
            raise lost from None
        for cid in participating:
            conn = conns[cid % worker_count]
            row, names = parallel.reply(conn, lost)
            yield row, names, ({name: parallel.reply(conn, lost)} for name in names)

    shares = [({client.id: client for client in clients if client.id % worker_count == k},
               run_inputs) for k in range(worker_count)]
    with parallel.forked(_serve, shares) as conns:
        yield train


def _commit_round(replies, global_model: DenoiserModel, filter_state: FilterState, round_no: int,
                  config: FederationConfig) -> tuple[DenoiserModel, FilterState, list[RunRow]]:
    """Take a round's replies in id order, fold the updates, advance the filter.

    Returns the next global model, the next filter state and one row per
    client. A reply without table names carries no update. ``filter_step``
    disconnects only a client that was already warned, so every other update
    is folded into the round's float64 sum as it arrives, one part at a time
    (``_fold``, which takes the client's sample count from its row): from a
    worker, each part is one table, read from the pipe when the one before
    it is folded and freed. The updates of clients warned at the start of
    the round are collected whole and held until the filter has run, then
    folded in id order unless their client was disconnected. The fold order
    (streamed updates, then held ones, each in id order) is the same for
    every worker count.
    """
    broadcast_bytes = _param_bytes(
        split_parameters(global_model)[0] if config.personalization and round_no > 1
        else global_model.params
    )
    total, held, rows = RunningSum(), {}, {}
    for row, names, parts in replies:
        rows[row.client_id] = row
        row.bytes_down = broadcast_bytes
        if names and filter_state.status[row.client_id] == WARNED:
            held[row.client_id] = row, names, list(parts)
        elif names:
            _fold(row, names, parts, total)
        del row, parts  # before the next reply is read

    losses = {cid: row.heldout_loss for cid, row in rows.items()
              if row.heldout_loss is not None}
    if losses:
        # higher is better: a client scores below 0.7 when its loss is above
        # 1/0.7 times the median. In a round that scores, only a faulted
        # client or one without data goes unscored; its filter state carries over
        median = float(np.median(list(losses.values())))
        scored = {cid: median / loss for cid, loss in losses.items()}
        filter_state, _, _ = filter_step(
            filter_state, scored, round_no, exempt=rows.keys() - scored.keys()
        )
        for cid in scored:
            rows[cid].status = filter_state.status[cid]

    for cid in [cid for cid in held if filter_state.status[cid] != DISCONNECTED]:
        _fold(*held.pop(cid), total)
    del held
    if not total.samples:
        raise FederationError(
            f"round {round_no}: no usable client updates (all faulted, "
            f"skipped, or disconnected)"
        )
    global_model = global_model.with_params({**global_model.params, **total.mean()})
    return global_model, filter_state, [
        rows.get(cid) or RunRow(round_no, cid, DISCONNECTED)
        for cid in range(config.client_count)
    ]


def run_federation(
    initial_model: DenoiserModel,
    plan: PartitionPlan,
    config: FederationConfig,
    dataset: Dataset,
    seed: int,
    heldout: Dataset | None = None,
    workers: int | None = None,
    out_dir: str | Path | None = None,
) -> tuple[DenoiserModel, RunLog]:
    """Execute the configured number of server rounds and return the result.

    Every run holds a filter state, and each round trains the clients it
    lists as participating: without filtering, nothing is scored and every
    client takes part. With filtering, ``heldout`` holds the images a scored
    client's loss is measured on (the test set), which must hold every class
    of ``dataset``. Client jobs run in up to ``workers`` processes, by
    default ``parallel.default_workers()``. Above one,
    ``min(workers, client_count)`` processes fork before round 1, each
    keeping its own clients' states until the run ends or raises; a round
    sends each worker the global model and gets back each client's update
    and row. A worker that ends mid-round raises ``FederationError``; any
    other error in a job, or a fork's ``OSError``, reaches the caller as it
    was raised. The run log holds one row per client and round.

    Under ``out_dir``, when given, each round ends by writing its global
    checkpoint and the run log CSV so far, and each round a client trains,
    its process writes its personal checkpoint; each file is replaced atomically.
    """
    config.validate()
    if workers is None:
        workers = parallel.default_workers()
    parallel.check_workers(workers)
    if plan.client_count != config.client_count:
        raise ValueError(
            f"plan has {plan.client_count} clients, config expects {config.client_count}"
        )
    if config.threshold_filtering and (
            heldout is None or not np.isin(dataset.labels, heldout.labels).all()):
        raise ValueError("threshold filtering needs held-out images of every training class")
    out_path = Path(out_dir) if out_dir is not None else None
    if out_path is not None:
        out_path.mkdir(parents=True, exist_ok=True)

    clients = [
        ClientState(id=i, data_indices=list(part))
        for i, part in enumerate(plan.assignments)
    ]
    global_model = initial_model
    filter_state = FilterState.fresh(range(config.client_count), config.drop_policy,
                                     config.min_active_clients)
    runlog = RunLog()

    with _client_rounds(clients, min(workers, config.client_count),
                        (dataset, config, seed, heldout, out_path)) as train:
        for round_no in range(1, config.server_rounds + 1):
            global_model, filter_state, rows = _commit_round(
                train(global_model, round_no, filter_state.participating()),
                global_model, filter_state, round_no, config,
            )
            runlog.rows.extend(rows)

            if out_path is not None:
                write_checkpoint(
                    out_path / f"round_{round_no}.phxc",
                    global_model.params, set(global_model.personal_names),
                )
                runlog.write_csv(out_path / "runlog.csv")
    return global_model, runlog
