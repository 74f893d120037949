"""The two-strike client filtering state machine.

Clients evaluated as poor are warned; a second consecutive poor evaluation
disconnects them permanently. Recovering in between resets the strike
count. Disconnects that would leave fewer than ``min_active`` participating
clients are suppressed (in ascending client id order) and logged, as is a
lowest-score round in which every tracked client ties. ``federation``
scores a client by the round's median held-out loss over its own, so higher
is better; the policy name ``lowest_precision`` predates that score.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace

log = logging.getLogger(__name__)

ACTIVE = "active"
WARNED = "warned"
DISCONNECTED = "disconnected"

_STRIKES = {ACTIVE: 0, WARNED: 1, DISCONNECTED: 2}

POLICY_LOWEST_PRECISION = "lowest_precision"
POLICY_THRESHOLD = "threshold"


class ProtocolError(RuntimeError):
    """No score for a client the filter still tracks."""


@dataclass(frozen=True)
class DropPolicy:
    """Which tracked clients a round marks poor, by score: ``lowest_precision``
    the one with the lowest score (ties to the lowest id), ``threshold``
    every one scoring below ``threshold``."""

    kind: str = POLICY_LOWEST_PRECISION
    threshold: float = 0.7

    def validate(self) -> None:
        if self.kind not in (POLICY_LOWEST_PRECISION, POLICY_THRESHOLD):
            raise ValueError(f"unknown drop policy '{self.kind}'")
        if self.kind == POLICY_THRESHOLD and not 0.0 <= self.threshold <= 1.0:
            raise ValueError(f"threshold must lie in [0, 1], got {self.threshold}")

    def label(self) -> str:
        if self.kind == POLICY_THRESHOLD:
            return f"threshold_{self.threshold:g}"
        return self.kind


@dataclass
class FilterState:
    status: dict[int, str]
    policy: DropPolicy
    min_active: int = 2

    @classmethod
    def fresh(cls, client_ids, policy: DropPolicy, min_active: int = 2) -> "FilterState":
        policy.validate()
        return cls(status={i: ACTIVE for i in client_ids}, policy=policy,
                   min_active=min_active)

    @property
    def poor_streak(self) -> dict[int, int]:
        """Strike count per client, which its status determines: 0, 1 or 2."""
        return {i: _STRIKES[s] for i, s in self.status.items()}

    def participating(self) -> list[int]:
        return sorted(i for i, s in self.status.items() if s != DISCONNECTED)

    def copy(self) -> "FilterState":
        return replace(self, status=dict(self.status))


def _poor_clients(state: FilterState, scores: dict[int, float], tracked: list[int]) -> set[int]:
    missing = [i for i in tracked if i not in scores]
    if missing:
        raise ProtocolError(f"no score for participating clients {missing}")
    if not tracked:
        return set()
    if state.policy.kind == POLICY_LOWEST_PRECISION:
        # exactly one client per round; ties break to the lowest id
        worst = min(tracked, key=lambda i: (scores[i], i))
        return {worst}
    return {i for i in tracked if scores[i] < state.policy.threshold}


def filter_step(
    state: FilterState,
    scores: dict[int, float],
    round_no: int,
    exempt: frozenset[int] | set[int] = frozenset(),
) -> tuple[FilterState, list[int], list[int]]:
    """Advance the machine one evaluation round on one score per client;
    the lower the score, the poorer the client.

    Clients in ``exempt`` were not evaluated this round (e.g. they faulted);
    their status, and with it the strike count, carries over. Returns (new state,
    clients disconnected this round, clients whose disconnect was suppressed
    by the participation floor).
    """
    new = state.copy()
    tracked = [i for i in state.participating() if i not in exempt]
    poor = _poor_clients(state, scores, tracked)
    if (state.policy.kind == POLICY_LOWEST_PRECISION and len(tracked) >= 2
            and len({scores[i] for i in tracked}) == 1):
        log.warning(
            "round %d: all %d tracked clients tie at score %g; "
            "the lowest-id tie-break picks client %d",
            round_no, len(tracked), scores[tracked[0]], min(poor),
        )
    candidates = []
    for cid in tracked:
        if cid in poor:
            if state.status[cid] == WARNED:  # a second consecutive strike
                candidates.append(cid)
            new.status[cid] = WARNED
        else:
            new.status[cid] = ACTIVE
    disconnected = []
    suppressed = []
    for cid in sorted(candidates):
        if len(new.participating()) - 1 >= new.min_active:
            new.status[cid] = DISCONNECTED
            disconnected.append(cid)
        else:
            # cannot drop below the participation floor; the client stays warned
            suppressed.append(cid)
            log.warning(
                "round %d: suppressed disconnect of client %d (min_active=%d)",
                round_no, cid, new.min_active,
            )
    return new, disconnected, suppressed
