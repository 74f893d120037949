import math

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


def run_trace(policy, rounds, clients=4, min_active=2, exempt=()):
    """Drive the machine through scripted per-round score maps."""
    state = FilterState.fresh(range(clients), policy, min_active)
    history = []
    for rnd, scores in enumerate(rounds, start=1):
        ex = frozenset(exempt[rnd - 1]) if exempt else frozenset()
        state, disconnected, suppressed = filter_step(state, scores, rnd, exempt=ex)
        status = "".join(state.status[c][0] for c in range(clients))
        history.append((status, disconnected, suppressed))
    return state, history


# each scenario: (policy, min_active, per-round scores, expected
# (status string, disconnects, suppressed) per round, per-round exempt sets)
SCENARIOS = {
    "threshold_two_strikes_disconnect": (
        DropPolicy(0.7), 2,
        [{0: .9, 1: .8, 2: .7, 3: .5}, {0: .9, 1: .8, 2: .7, 3: .5}],
        [("aaaw", [], []), ("aaad", [3], [])],
        None,
    ),
    "threshold_recovery_resets_strike": (
        DropPolicy(0.7), 2,
        [{0: .9, 1: .8, 2: .7, 3: .5}, {0: .9, 1: .8, 2: .4, 3: .9}],
        [("aaaw", [], []), ("aawa", [], [])],
        None,
    ),
    "threshold_equal_scores_judged_alike": (
        DropPolicy(0.7), 2,
        [{0: .9, 1: .5, 2: .5, 3: .8}],
        [("awwa", [], [])],
        None,
    ),
    "threshold_equal_pair_persists_floor_suppresses_higher_id": (
        # both second strikes are due; the floor admits one disconnect, in id order
        DropPolicy(0.7), 3,
        [{0: .9, 1: .5, 2: .5, 3: .8}, {0: .9, 1: .5, 2: .5, 3: .8}],
        [("awwa", [], []), ("adwa", [1], [2])],
        None,
    ),
    "threshold_07_boundary_not_poor": (
        DropPolicy(0.7), 2,
        [{0: .9, 1: .8, 2: .7, 3: .71}],
        [("aaaa", [], [])],
        None,
    ),
    "threshold_07_two_clients_drop": (
        DropPolicy(0.7), 2,
        [{0: .9, 1: .8, 2: .5, 3: .6}, {0: .9, 1: .8, 2: .5, 3: .6}],
        [("aaww", [], []), ("aadd", [2, 3], [])],
        None,
    ),
    "threshold_07_min_active_suppression": (
        DropPolicy(0.7), 2,
        [{0: .9, 1: .5, 2: .5, 3: .5}, {0: .9, 1: .5, 2: .5, 3: .5}],
        [("awww", [], []), ("addw", [1, 2], [3])],
        None,
    ),
    "threshold_suppressed_client_recovers": (
        # a suppressed disconnect leaves the client warned; recovering clears it
        DropPolicy(0.7), 2,
        [{0: .5, 1: .5, 2: .9}, {0: .5, 1: .5, 2: .9}, {1: .9, 2: .9}],
        [("wwa", [], []), ("dwa", [0], [1]), ("daa", [], [])],
        None,
    ),
    "threshold_06_strict_inequality": (
        DropPolicy(0.6), 2,
        [{0: .6, 1: .59, 2: .8, 3: .9}],
        [("awaa", [], [])],
        None,
    ),
    "threshold_oscillation_never_disconnects": (
        DropPolicy(0.7), 2,
        [{0: .5, 1: .9, 2: .9, 3: .9}, {0: .9, 1: .9, 2: .9, 3: .9},
         {0: .5, 1: .9, 2: .9, 3: .9}, {0: .9, 1: .9, 2: .9, 3: .9}],
        [("waaa", [], []), ("aaaa", [], []),
         ("waaa", [], []), ("aaaa", [], [])],
        None,
    ),
    "threshold_keeps_running_on_survivors": (
        DropPolicy(0.7), 2,
        [{0: .2, 1: .8, 2: .7, 3: .9}, {0: .2, 1: .8, 2: .7, 3: .9},
         {1: .8, 2: .6, 3: .9}],
        [("waaa", [], []), ("daaa", [0], []), ("dawa", [], [])],
        None,
    ),
    "faulted_client_state_carries_over": (
        DropPolicy(0.7), 2,
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
    state = FilterState.fresh(range(3), DropPolicy())
    with pytest.raises(ProtocolError):
        filter_step(state, {0: 0.5, 1: 0.6}, 1)


def test_filter_step_does_not_mutate_input():
    state = FilterState.fresh(range(3), DropPolicy(0.9))
    filter_step(state, {i: 0.1 for i in range(3)}, 1)
    assert all(s == ACTIVE for s in state.status.values())
    assert all(v == 0 for v in state.poor_streak.values())


@pytest.mark.parametrize("theta", [1.5, -0.1, math.nan])
def test_threshold_outside_unit_interval_rejected(theta):
    with pytest.raises(ValueError, match="threshold must lie in"):
        FilterState.fresh(range(2), DropPolicy(theta))


def test_label_names_the_threshold():
    assert DropPolicy().label() == "threshold_0.7"


def test_property_invariants_over_random_traces():
    """1000 random traces: a client is poor below the threshold, and
    disconnect is absorbing and needs two strikes."""
    rng = np.random.default_rng(99)
    for trace in range(1000):
        clients = int(rng.integers(3, 7))
        min_active = 2
        policy = DropPolicy(float(rng.uniform(0.1, 0.9)))
        state = FilterState.fresh(range(clients), policy, min_active)
        warned_before: set[int] = set()
        for rnd in range(1, 7):
            scores = {c: float(rng.uniform(0, 1)) for c in state.participating()}
            prev_disconnected = {c for c, s in state.status.items()
                                 if s == DISCONNECTED}
            state, disconnected, suppressed = filter_step(state, scores, rnd)

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
            # a client is poor exactly when it scores below the threshold
            for c, score in scores.items():
                assert (state.status[c] == ACTIVE) == (score >= policy.threshold)
            # the participation floor holds
            assert len(state.participating()) >= min_active
            for c in suppressed:
                assert state.status[c] == WARNED
            warned_before = {c for c, s in state.status.items() if s == WARNED}
