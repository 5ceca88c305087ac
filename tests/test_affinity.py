import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rotagap.affinity import init_affinities, update_affinities
from rotagap.strategies import max_affinity_pressure

from conftest import make_instance, update_from_pairs, worked_example_fixture

ALL_AGENTS = frozenset("ABC")
ALL_TASKS = frozenset({"T1", "T2", "T3"})

# The golden four-cycle walkthrough: affinity tables keyed task -> agent -> a,
# the per-task AP column, and the assignment made in each cycle.
WALKTHROUGH = [
    # cycle 1
    dict(table={"T1": {"A": 1, "B": 1, "C": 0},
                "T2": {"A": 1, "B": 1, "C": 1},
                "T3": {"A": 0, "B": 1, "C": 1}},
         ap={"T1": -0.5, "T2": -1.0, "T3": -0.5},
         tasks_available={"T1", "T2", "T3"},
         assignment=[("A", "T1"), ("B", "T2"), ("C", "T3")]),
    # cycle 2
    dict(table={"T1": {"A": 1, "B": 2, "C": 0},
                "T2": {"A": 2, "B": 1, "C": 2},
                "T3": {"A": 0, "B": 2, "C": 1}},
         ap={"T1": 0.0, "T2": -1.0 / 3.0, "T3": 0.0},
         tasks_available={"T1", "T2", "T3"},
         assignment=[("B", "T1"), ("A", "T2"), ("C", "T3")]),
    # cycle 3: T3 unavailable, yet its row was still updated from cycle 2
    dict(table={"T1": {"A": 2, "B": 1, "C": 0},
                "T2": {"A": 1, "B": 2, "C": 3},
                "T3": {"A": 0, "B": 3, "C": 1}},
         ap={"T1": 0.0, "T2": 0.0, "T3": 0.5},
         tasks_available={"T1", "T2"},
         assignment=[("A", "T1"), ("C", "T2")]),
    # cycle 4: T3's row is frozen because it was unavailable in cycle 3
    dict(table={"T1": {"A": 1, "B": 2, "C": 0},
                "T2": {"A": 2, "B": 3, "C": 1},
                "T3": {"A": 0, "B": 3, "C": 1}},
         ap={"T1": 0.0, "T2": 0.0, "T3": 0.5},
         tasks_available={"T1", "T2", "T3"},
         assignment=None),
]


def pressure(state, task, agents) -> float:
    """AP of one task over the given agents (its compatible ones among
    them): the maximum AP over a mask that holds that task alone."""
    return max_affinity_pressure(state,
                                 state.mats.available_pairs(agents, {task}))


def replay_walkthrough():
    """Yields (cycle_index, state, expected) while replaying the golden
    assignment sequence through init/update."""
    instance, trace = worked_example_fixture()
    state = init_affinities(instance)
    for k, expected in enumerate(WALKTHROUGH, start=1):
        yield k, state, expected
        if expected["assignment"] is not None:
            state = update_from_pairs(
                state, state.mats.available_pairs(*trace.entry(k)),
                expected["assignment"])


def check_walkthrough_cycle(state, expected) -> None:
    mats = state.mats
    for task, row in expected["table"].items():
        for agent, value in row.items():
            got = state.affinities[mats.agent_index[agent], mats.task_index[task]]
            assert got == value, (task, agent, got, value)
    for task, ap in expected["ap"].items():
        got = pressure(state, task, ALL_AGENTS)
        assert math.isclose(got, ap, rel_tol=0, abs_tol=1e-12), (task, got, ap)
        assert round(got, 1) == round(ap, 1)


def test_golden_walkthrough_tables_and_pressures():
    for _, state, expected in replay_walkthrough():
        check_walkthrough_cycle(state, expected)


def test_init_matches_first_walkthrough_table():
    instance, _ = worked_example_fixture()
    state = init_affinities(instance)
    assert state.cycle == 1
    assert state.assignment_counts.sum() == 0
    check_walkthrough_cycle(state, WALKTHROUGH[0])


def test_init_single_compatible_pair():
    instance = make_instance({"A": 1}, {"T1": (1, 1, {"A"})})
    state = init_affinities(instance)
    assert state.affinities.tolist() == [[1]]


def test_incompatible_pair_stays_zero_forever():
    instance, trace = worked_example_fixture()
    state = init_affinities(instance)
    mats = state.mats
    for k, expected in enumerate(WALKTHROUGH[:-1], start=1):
        state = update_from_pairs(state, mats.available_pairs(*trace.entry(k)),
                                  expected["assignment"])
        assert state.affinities[mats.agent_index["C"], mats.task_index["T1"]] == 0
        assert state.affinities[mats.agent_index["A"], mats.task_index["T3"]] == 0


def test_update_rejects_bad_assignments():
    instance, trace = worked_example_fixture()
    state = init_affinities(instance)
    agents, tasks = trace.entry(1)
    available = state.mats.available_pairs(agents, tasks)
    with pytest.raises(ValueError, match="incompatible"):
        update_from_pairs(state, available, [("C", "T1")])
    with pytest.raises(ValueError, match="unavailable"):
        update_from_pairs(state, state.mats.available_pairs(agents, {"T2"}),
                          [("A", "T1")])
    with pytest.raises(ValueError, match="more than once"):
        update_from_pairs(state, available, [("A", "T2"), ("B", "T2")])


@pytest.mark.parametrize("agents,tasks,pairs,message", [
    # T3 is unavailable; the first offending pair is named, however many
    # follow and of whatever kind
    ("ABC", {"T1", "T2"}, [("A", "T2"), ("B", "T3"), ("C", "T1"), ("B", "T2")],
     "assignment pair (B, T3) was unavailable"),
    ("ABC", {"T1", "T2"}, [("B", "T2"), ("C", "T1"), ("B", "T3"), ("A", "T2")],
     "assignment pair (C, T1) is incompatible"),
    ("ABC", {"T1", "T2"}, [("A", "T2"), ("B", "T2"), ("C", "T1"), ("B", "T3")],
     "task T2 assigned more than once"),
    # one pair with several faults: incompatible, then unavailable, then
    # assigned twice
    ("ABC", {"T1", "T2"}, [("B", "T3"), ("A", "T3")],
     "assignment pair (B, T3) was unavailable"),
    ("ABC", {"T1", "T2"}, [("B", "T1"), ("A", "T3"), ("C", "T3")],
     "assignment pair (A, T3) is incompatible"),
    ("AB", {"T1", "T2", "T3"}, [("A", "T2"), ("C", "T2"), ("C", "T1")],
     "assignment pair (C, T2) was unavailable"),
])
def test_update_names_the_first_offending_pair(agents, tasks, pairs, message):
    instance, _ = worked_example_fixture()
    state = init_affinities(instance)
    available = state.mats.available_pairs(set(agents), tasks)
    with pytest.raises(ValueError) as info:
        update_from_pairs(state, available, pairs)
    assert str(info.value) == message


def test_affinity_pressure_examples():
    instance = make_instance(
        {"A": 1, "B": 1, "C": 1},
        {"T1": (1, 1, {"A", "B", "C"}), "T2": (1, 1, {"A", "B"})})
    state = init_affinities(instance)
    assert pressure(state, "T1", ["A", "B", "C"]) == -1.0
    state.affinities[state.mats.agent_index["A"], state.mats.task_index["T2"]] = 3
    assert pressure(state, "T2", ["A", "B"]) == 0.5
    # only the given agents count: C's affinity to T1 is left out
    assert pressure(state, "T1", ["A", "B"]) == -0.5


@pytest.mark.parametrize("n_agents", [1, 2, 3, 5, 8])
def test_ideal_affinities_give_exactly_zero_pressure(n_agents):
    agents = {f"A{i}": 1 for i in range(n_agents)}
    instance = make_instance(agents, {"T1": (1, 1, set(agents))})
    state = init_affinities(instance)
    for i, agent in enumerate(sorted(agents)):
        state.affinities[state.mats.agent_index[agent], 0] = i + 1
    assert pressure(state, "T1", agents) == 0.0


def max_ap(state, agents, tasks) -> float:
    return max_affinity_pressure(state, state.mats.available_pairs(agents, tasks))


def test_max_affinity_pressure_walkthrough_values():
    states = {k: state for k, state, _ in replay_walkthrough()}
    assert max_ap(states[1], ALL_AGENTS, ALL_TASKS) == -0.5
    # cycle 3 availability excludes T3, whose on-demand AP would be 0.5
    assert max_ap(states[3], ALL_AGENTS, {"T1", "T2"}) == 0.0


def test_max_affinity_pressure_skips_and_degenerate_cases():
    instance = make_instance(
        {"A": 1, "B": 1},
        {"T1": (1, 1, {"A"}), "T2": (1, 1, {"B"})})
    state = init_affinities(instance)
    # T1's only agent is unavailable: skipped, not an error
    assert max_ap(state, {"B"}, {"T1", "T2"}) == 0.0
    # every task skipped: neutral 0.0
    state2 = init_affinities(make_instance({"A": 1, "B": 1}, {"T1": (1, 1, {"A"})}))
    assert max_ap(state2, {"B"}, {"T1"}) == 0.0
    # single task, single agent, just assigned: 1/1 - (1+1)/2 = 0
    one = init_affinities(make_instance({"A": 1}, {"T1": (1, 1, {"A"})}))
    one = update_from_pairs(one, one.mats.available_pairs({"A"}, {"T1"}),
                            [("A", "T1")])
    assert max_ap(one, {"A"}, {"T1"}) == 0.0


def test_removing_a_task_leaves_other_pressures_unchanged():
    states = {k: state for k, state, _ in replay_walkthrough()}
    state = states[2]
    with_t3 = {t: pressure(state, t, ALL_AGENTS) for t in ("T1", "T2")}
    # dropping T3 from availability cannot change T1/T2 pressures
    assert max_ap(state, ALL_AGENTS, {"T1", "T2"}) == max(with_t3.values())


def run_max_affinity_harness(instance, cycles: int):
    """Constant availability; every task is assigned to a max-affinity
    compatible agent each cycle (ties: first by matrix order).  Yields the
    state of every cycle, including the initial one."""
    state = init_affinities(instance)
    available = state.mats.compat  # every agent and task available
    for _ in range(cycles):
        yield state
        pairs = []
        mats = state.mats
        for j, task in enumerate(instance.tasks):
            rows = [mats.agent_index[a] for a in sorted(task.compatible)]
            best = max(rows, key=lambda i: (state.affinities[i, j], -i))
            pairs.append((mats.agent_ids[best], task.id))
        state = update_from_pairs(state, available, pairs)
    yield state


def check_perfect_rotation(instance, cycles: int) -> None:
    for k, state in enumerate(run_max_affinity_harness(instance, cycles), start=1):
        for task in instance.tasks:
            ap = pressure(state, task.id, task.compatible)
            c = len(task.compatible)
            if k < c:
                assert ap < 0, (task.id, k, ap)
            else:
                assert ap == 0.0, (task.id, k, ap)


def random_compat_instance(rng: random.Random, max_agents: int, max_tasks: int):
    m = rng.randint(1, max_agents)
    n = rng.randint(1, max_tasks)
    agent_ids = [f"A{i}" for i in range(m)]
    tasks = {}
    for j in range(n):
        size = rng.randint(1, m)
        tasks[f"T{j}"] = (rng.randint(0, 9), 1, set(rng.sample(agent_ids, size)))
    return make_instance({a: 1 for a in agent_ids}, tasks)


def test_perfect_rotation_reaches_and_holds_zero_pressure():
    for seed in range(5):
        rng = random.Random(seed)
        instance = random_compat_instance(rng, max_agents=5, max_tasks=10)
        check_perfect_rotation(instance, cycles=12)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), steps=st.integers(1, 6))
def test_update_invariants_under_full_availability(seed, steps):
    rng = random.Random(seed)
    instance = random_compat_instance(rng, max_agents=4, max_tasks=6)
    state = init_affinities(instance)
    available = state.mats.compat  # every agent and task available
    total_assigned = 0
    for _ in range(steps):
        pairs = []
        for task in instance.tasks:
            if rng.random() < 0.7:
                pairs.append((rng.choice(sorted(task.compatible)), task.id))
        before = state.affinities.copy()
        state = update_from_pairs(state, available, pairs)
        total_assigned += len(pairs)
        compat = state.mats.compat
        delta = state.affinities - before
        # compatible entries move by exactly +1 or reset to 1
        assert np.all(delta[compat] == 1) or np.all(
            (delta[compat] == 1) | (state.affinities[compat] == 1))
        assert np.all(state.affinities[~compat] == 0)
        assert np.all(state.affinities[compat] >= 1)
        assert np.all(state.affinities <= state.cycle)
    assert int(state.assignment_counts.sum()) == total_assigned


def reference_update(state, prev_available, rows, cols):
    """``update_affinities`` as it checked its input with an ordered
    ``np.minimum.at`` scan on every call: the error message it raises, or
    the state it returns as ``(affinities, counts, cycle)``."""
    mats = state.mats
    incompatible = ~mats.compat[rows, cols]
    unavailable = ~prev_available[rows, cols]
    seq = np.arange(len(cols))
    first = np.full(mats.n, len(cols))
    np.minimum.at(first, cols, seq)  # each task's first pair
    bad = incompatible | unavailable | (first[cols] < seq)
    if bad.any():
        k = int(np.argmax(bad))
        agent_id, task_id = mats.agent_ids[rows[k]], mats.task_ids[cols[k]]
        if incompatible[k]:
            return f"assignment pair ({agent_id}, {task_id}) is incompatible"
        if unavailable[k]:
            return f"assignment pair ({agent_id}, {task_id}) was unavailable"
        return f"task {task_id} assigned more than once"
    affinities = state.affinities + prev_available
    counts = state.assignment_counts.copy()
    affinities[rows, cols] = 1
    counts[rows, cols] += 1
    return affinities.tolist(), counts.tolist(), state.cycle + 1


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_update_checks_as_the_ordered_scan_did(data):
    """Duplicates, incompatible and unavailable pairs, and negative
    positions, which index from the end: the same message or the same new
    state as the reference."""
    seed = data.draw(st.integers(0, 10_000))
    instance = random_compat_instance(random.Random(seed), max_agents=4,
                                      max_tasks=6)
    state = init_affinities(instance)
    mats = state.mats
    m, n = mats.m, mats.n
    available = np.array(data.draw(st.lists(
        st.lists(st.booleans(), min_size=n, max_size=n),
        min_size=m, max_size=m)))
    if data.draw(st.booleans()):  # as the engine passes it
        available &= mats.compat
    pairs = data.draw(st.lists(st.tuples(st.integers(-m, m - 1),
                                         st.integers(-n, n - 1)),
                               max_size=2 * n))
    rows = np.array([i for i, _ in pairs], dtype=np.intp)
    cols = np.array([j for _, j in pairs], dtype=np.intp)
    expected = reference_update(state, available, rows, cols)
    try:
        new = update_affinities(state, available, rows, cols)
    except ValueError as exc:
        assert str(exc) == expected
    else:
        assert (new.affinities.tolist(), new.assignment_counts.tolist(),
                new.cycle) == expected
