import logging

import numpy as np
import pytest

from phoenix.filtering import (
    ACTIVE,
    DISCONNECTED,
    WARNED,
    DropPolicy,
    FilterState,
    ProtocolError,
    filter_step,
)

LP = DropPolicy(kind="lowest_precision")


def TH(theta):
    return DropPolicy(kind="threshold", threshold=theta)


def run_trace(policy, rounds, clients=4, min_active=2, exempt=()):
    """Drive the machine through scripted per-round precision maps."""
    state = FilterState.fresh(range(clients), policy, min_active)
    history = []
    for rnd, precisions in enumerate(rounds, start=1):
        ex = frozenset(exempt[rnd - 1]) if exempt else frozenset()
        state, disconnected, suppressed = filter_step(state, precisions, rnd, exempt=ex)
        status = "".join(state.status[c][0] for c in range(clients))
        history.append((status, disconnected, suppressed))
    return state, history


# each scenario: (policy, min_active, per-round precisions, expected
# (status string, disconnects, suppressed) per round, per-round exempt sets)
SCENARIOS = {
    "lp_two_strikes_disconnect": (
        LP, 2,
        [{0: .9, 1: .8, 2: .7, 3: .5}, {0: .9, 1: .8, 2: .7, 3: .5}],
        [("aaaw", [], []), ("aaad", [3], [])],
        None,
    ),
    "lp_recovery_resets_strike": (
        LP, 2,
        [{0: .9, 1: .8, 2: .7, 3: .5}, {0: .9, 1: .8, 2: .4, 3: .9}],
        [("aaaw", [], []), ("aawa", [], [])],
        None,
    ),
    "lp_tie_breaks_to_lowest_id": (
        LP, 2,
        [{0: .9, 1: .5, 2: .5, 3: .8}],
        [("awaa", [], [])],
        None,
    ),
    "lp_tie_persists_single_victim": (
        LP, 2,
        [{0: .9, 1: .5, 2: .5, 3: .8}, {0: .9, 1: .5, 2: .5, 3: .8}],
        [("awaa", [], []), ("adaa", [1], [])],
        None,
    ),
    "threshold_07_boundary_not_poor": (
        TH(0.7), 2,
        [{0: .9, 1: .8, 2: .7, 3: .71}],
        [("aaaa", [], [])],
        None,
    ),
    "threshold_07_two_clients_drop": (
        TH(0.7), 2,
        [{0: .9, 1: .8, 2: .5, 3: .6}, {0: .9, 1: .8, 2: .5, 3: .6}],
        [("aaww", [], []), ("aadd", [2, 3], [])],
        None,
    ),
    "threshold_07_min_active_suppression": (
        TH(0.7), 2,
        [{0: .9, 1: .5, 2: .5, 3: .5}, {0: .9, 1: .5, 2: .5, 3: .5}],
        [("awww", [], []), ("addw", [1, 2], [3])],
        None,
    ),
    "threshold_suppressed_client_recovers": (
        # a suppressed disconnect leaves the client warned; recovering clears it
        TH(0.7), 2,
        [{0: .5, 1: .5, 2: .9}, {0: .5, 1: .5, 2: .9}, {1: .9, 2: .9}],
        [("wwa", [], []), ("dwa", [0], [1]), ("daa", [], [])],
        None,
    ),
    "threshold_06_strict_inequality": (
        TH(0.6), 2,
        [{0: .6, 1: .59, 2: .8, 3: .9}],
        [("awaa", [], [])],
        None,
    ),
    "threshold_oscillation_never_disconnects": (
        TH(0.7), 2,
        [{0: .5, 1: .9, 2: .9, 3: .9}, {0: .9, 1: .9, 2: .9, 3: .9},
         {0: .5, 1: .9, 2: .9, 3: .9}, {0: .9, 1: .9, 2: .9, 3: .9}],
        [("waaa", [], []), ("aaaa", [], []),
         ("waaa", [], []), ("aaaa", [], [])],
        None,
    ),
    "lp_keeps_running_on_survivors": (
        LP, 2,
        [{0: .2, 1: .8, 2: .7, 3: .9}, {0: .2, 1: .8, 2: .7, 3: .9},
         {1: .8, 2: .7, 3: .9}],
        [("waaa", [], []), ("daaa", [0], []), ("dawa", [], [])],
        None,
    ),
    "faulted_client_state_carries_over": (
        TH(0.7), 2,
        [{0: .5, 1: .9, 2: .9, 3: .9}, {1: .9, 2: .9, 3: .9},
         {0: .5, 1: .9, 2: .9, 3: .9}],
        [("waaa", [], []), ("waaa", [], []), ("daaa", [0], [])],
        [set(), {0}, set()],
    ),
}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_scenario(name):
    policy, min_active, rounds, expected, exempt = SCENARIOS[name]
    clients = len(expected[0][0])
    _, history = run_trace(policy, rounds, clients=clients,
                           min_active=min_active, exempt=exempt)
    for rnd, ((status, disc, supp), (want_status, want_disc, want_supp)) in enumerate(
            zip(history, expected), start=1):
        assert status == want_status, f"{name} round {rnd}: {status} != {want_status}"
        assert disc == want_disc, f"{name} round {rnd}: disconnects {disc}"
        assert supp == want_supp, f"{name} round {rnd}: suppressed {supp}"


def test_scenario_table_is_large_enough():
    assert len(SCENARIOS) >= 12


def test_missing_metrics_raise_protocol_error():
    state = FilterState.fresh(range(3), LP)
    with pytest.raises(ProtocolError):
        filter_step(state, {0: 0.5, 1: 0.6}, 1)


def test_filter_step_does_not_mutate_input():
    state = FilterState.fresh(range(3), TH(0.9))
    filter_step(state, {i: 0.1 for i in range(3)}, 1)
    assert all(s == ACTIVE for s in state.status.values())
    assert all(v == 0 for v in state.poor_streak.values())


@pytest.mark.parametrize("policy, precisions, warned", [
    (LP, [0.0, 0.0, 0.0], True),
    (LP, [0.0, 0.0, 0.1], False),
    (TH(0.5), [0.0, 0.0, 0.0], False),
], ids=["lp-all-tied", "lp-one-differs", "threshold-all-tied"])
def test_all_tied_round_is_flagged(caplog, policy, precisions, warned):
    state = FilterState.fresh(range(3), policy)
    with caplog.at_level(logging.WARNING, logger="phoenix.filtering"):
        new, _, _ = filter_step(state, dict(enumerate(precisions)), 4)
    messages = [r.getMessage() for r in caplog.records]
    if warned:
        assert messages == ["round 4: all 3 tracked clients tie at score 0; "
                            "the lowest-id tie-break picks client 0"]
        assert [new.status[c] for c in range(3)] == [WARNED, ACTIVE, ACTIVE]
    else:
        assert messages == []


def test_unknown_policy_rejected():
    with pytest.raises(ValueError):
        FilterState.fresh(range(2), DropPolicy(kind="bogus"))


def test_property_invariants_over_random_traces():
    """1000 random traces: disconnect is absorbing and needs two strikes."""
    rng = np.random.default_rng(99)
    for trace in range(1000):
        clients = int(rng.integers(3, 7))
        min_active = 2
        if rng.integers(2):
            policy = DropPolicy(kind="threshold",
                                threshold=float(rng.uniform(0.3, 0.9)))
        else:
            policy = LP
        state = FilterState.fresh(range(clients), policy, min_active)
        warned_before: set[int] = set()
        for rnd in range(1, 7):
            precisions = {c: float(rng.uniform(0, 1)) for c in state.participating()}
            prev_disconnected = {c for c, s in state.status.items()
                                 if s == DISCONNECTED}
            state, disconnected, suppressed = filter_step(state, precisions, rnd)

            # absorbing: nobody leaves the disconnected set
            for c in prev_disconnected:
                assert state.status[c] == DISCONNECTED
            # two-consecutive: a disconnect requires a prior warning round
            for c in disconnected:
                assert c in warned_before, f"trace {trace}: {c} skipped the warning"
            # status and strike count stay in lockstep
            for c, s in state.status.items():
                streak = state.poor_streak[c]
                assert (s, streak) in ((ACTIVE, 0), (WARNED, 1), (DISCONNECTED, 2))
            # the participation floor holds
            assert len(state.participating()) >= min_active
            for c in suppressed:
                assert state.status[c] == WARNED
            warned_before = {c for c, s in state.status.items() if s == WARNED}
