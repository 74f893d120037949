"""Client data partitioning: IID, label-skew, and the data-sharing split.

Every mode yields one ``PartitionPlan``; its sharing fields (the label-skew
client parts, the shared pool G and the beta/alpha percentages) are filled
only by the data-sharing split and stay empty in every other mode. Cutting is
deterministic, so a plan is written (``save_plan``) but never read back: a
later step cuts it again and compares.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .datasets import Dataset
from .formats import write_json
from .seeding import DOMAIN_PARTITION, derive_rng

log = logging.getLogger(__name__)

MODE_IID = "iid"
MODE_LABEL_SKEW = "label_skew"
MODE_DATA_SHARING = "data_sharing"

_ASSIGNMENT_RETRIES = 1000


def round_half_up(x: float) -> int:
    return int(np.floor(x + 0.5))


@dataclass
class PartitionPlan:
    """Which training samples each client holds.

    ``assignments[c]`` is everything client c trains on. In ``data_sharing``
    mode, ``client_part`` partitions the client pool C by label skew,
    ``shared_pool`` is the warmup set G drawn from the server pool S, and
    each assignment adds the same alpha-fraction of G to the client's part;
    in every other mode these fields stay empty (percentages ``None``).
    ``classes_per_client`` is the label-skew bound, ``None`` for iid.
    """

    assignments: list[list[int]]
    client_count: int
    mode: str
    seed: int
    client_part: list[list[int]] = field(default_factory=list)
    shared_pool: list[int] = field(default_factory=list)
    beta_pct: float | None = None
    alpha_pct: float | None = None
    classes_per_client: int | None = None


def partition_iid(dataset: Dataset, client_count: int, seed: int) -> PartitionPlan:
    """Shuffle once, then deal near-equal contiguous slices.

    Any remainder goes one extra sample per client, front first.
    """
    n = len(dataset)
    if client_count < 1 or client_count > n:
        raise ValueError(f"client_count {client_count} invalid for {n} samples")
    rng = derive_rng(seed, DOMAIN_PARTITION, 0)
    order = rng.permutation(n)
    base, extra = divmod(n, client_count)
    assignments = []
    pos = 0
    for i in range(client_count):
        size = base + (1 if i < extra else 0)
        assignments.append(sorted(int(j) for j in order[pos:pos + size]))
        pos += size
    return PartitionPlan(assignments, client_count, MODE_IID, seed)


def _label_skew_assign(
    labels: np.ndarray,
    pool: np.ndarray,
    client_count: int,
    classes_per_client: int,
    rng: np.random.Generator,
) -> list[list[int]]:
    """Sort the pool by label, shard it, and deal shards to clients.

    Retries the seeded shard deal until no client spans more than
    ``classes_per_client`` distinct labels (a shard can straddle a label
    boundary when class sizes do not align with shard boundaries).
    """
    pool_labels = labels[pool]
    order = np.lexsort((pool, pool_labels))  # by label, ties by index
    sorted_pool = pool[order]
    shard_count = client_count * classes_per_client
    boundaries = np.linspace(0, len(sorted_pool), shard_count + 1).astype(int)
    shards = [sorted_pool[boundaries[i]:boundaries[i + 1]] for i in range(shard_count)]
    shard_labels = [set(labels[s].tolist()) for s in shards]
    for _ in range(_ASSIGNMENT_RETRIES):
        deal = rng.permutation(shard_count)
        ok = True
        assignments = []
        for c in range(client_count):
            mine = deal[c * classes_per_client:(c + 1) * classes_per_client]
            span = set().union(*(shard_labels[s] for s in mine))
            if client_count > 1 and len(span) > classes_per_client:
                ok = False
                break
            assignments.append(sorted(int(j) for s in mine for j in shards[s]))
        if ok:
            return assignments
    raise ValueError(
        f"could not deal {shard_count} shards to {client_count} clients with at "
        f"most {classes_per_client} labels each; parameters look infeasible"
    )


def partition_label_skew(
    dataset: Dataset,
    client_count: int,
    classes_per_client: int,
    seed: int,
) -> PartitionPlan:
    """Give each client samples from at most ``classes_per_client`` labels."""
    n = len(dataset)
    if client_count < 1 or client_count > n:
        raise ValueError(f"client_count {client_count} invalid for {n} samples")
    if classes_per_client < 1:
        raise ValueError("classes_per_client must be positive")
    if client_count == 1:
        # degenerate split: one client holds everything, the label bound is
        # vacuous and deliberately waived
        log.warning(
            "label-skew with a single client: the %d-label bound is vacuous",
            classes_per_client,
        )
    elif client_count * classes_per_client < dataset.num_classes:
        raise ValueError(
            f"{client_count} clients x {classes_per_client} classes cannot cover "
            f"{dataset.num_classes} classes"
        )
    rng = derive_rng(seed, DOMAIN_PARTITION, 1)
    assignments = _label_skew_assign(
        dataset.labels, np.arange(n), client_count, classes_per_client, rng
    )
    return PartitionPlan(assignments, client_count, MODE_LABEL_SKEW, seed,
                         classes_per_client=classes_per_client)


def _stratified_server_split(
    labels: np.ndarray, server_fraction: float, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Split indices into (client pool, server pool) with equal class mix."""
    client_idx = []
    server_idx = []
    for cls in np.unique(labels):
        members = np.nonzero(labels == cls)[0]
        members = members[rng.permutation(len(members))]
        take = round_half_up(server_fraction * len(members))
        server_idx.append(members[:take])
        client_idx.append(members[take:])
    return np.sort(np.concatenate(client_idx)), np.sort(np.concatenate(server_idx))


def data_sharing_split(
    dataset: Dataset,
    client_count: int,
    beta_pct: float,
    alpha_pct: float,
    classes_per_client: int,
    seed: int,
) -> PartitionPlan:
    """Build the warmup-plus-merge sharing plan over an 80/20 C/S split.

    The shared pool G holds round(beta_pct% of |C|) samples drawn uniformly
    from S; the same round(alpha_pct% of |G|) subset of G is merged into
    every client's label-skew part.
    """
    if not 0 <= alpha_pct <= 100:
        raise ValueError(f"alpha_pct must lie in [0, 100], got {alpha_pct}")
    if beta_pct <= 0:
        raise ValueError(f"beta_pct must be positive, got {beta_pct}")
    if classes_per_client < 1:
        raise ValueError("classes_per_client must be positive")
    rng = derive_rng(seed, DOMAIN_PARTITION, 2)
    client_pool, server_pool = _stratified_server_split(dataset.labels, 0.2, rng)
    g_size = round_half_up(beta_pct / 100.0 * len(client_pool))
    if g_size > len(server_pool):
        raise ValueError(
            f"beta_pct {beta_pct} needs {g_size} shared samples but the server "
            f"pool has only {len(server_pool)}"
        )
    if g_size < 1:
        raise ValueError(f"beta_pct {beta_pct} yields an empty shared pool")
    client_part = _label_skew_assign(
        dataset.labels, client_pool, client_count, classes_per_client, rng
    )
    shared = server_pool[rng.permutation(len(server_pool))[:g_size]]
    shared = sorted(int(i) for i in shared)
    merge_size = round_half_up(alpha_pct / 100.0 * g_size)
    merge_subset = sorted(
        int(i) for i in rng.permutation(np.asarray(shared))[:merge_size]
    )
    merged = [sorted(part + merge_subset) for part in client_part]
    return PartitionPlan(
        merged, client_count, MODE_DATA_SHARING, seed,
        client_part=client_part,
        shared_pool=shared,
        beta_pct=beta_pct,
        alpha_pct=alpha_pct,
        classes_per_client=classes_per_client,
    )


def plan_to_json(plan: PartitionPlan) -> dict:
    doc = {
        "mode": plan.mode,
        "clients": plan.assignments,
        "shared_pool": plan.shared_pool,
        "beta_pct": plan.beta_pct,
        "alpha_pct": plan.alpha_pct,
        "classes_per_client": plan.classes_per_client,
        "seed": plan.seed,
    }
    if plan.mode == MODE_DATA_SHARING:
        doc["client_part"] = plan.client_part
    return doc


def save_plan(path: str | Path, plan: PartitionPlan) -> None:
    write_json(path, plan_to_json(plan))

