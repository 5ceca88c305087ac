import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rotagap.domain import (AgentSpec, IdSet, IdSets, Instance,
                            InstanceMatrices, ScenarioTrace, TaskSpec,
                            validate_instance, validate_trace)
from rotagap.solver import GapShape

from conftest import make_instance, worked_example_fixture


def test_well_formed_instance_has_no_violations():
    instance = make_instance(
        {"A": 5, "B": 3, "C": 0},
        {"T1": (10, 2, {"A", "B"}), "T2": (7, 1, {"C"}), "T3": (0, 3, {"A"})})
    assert validate_instance(instance) == []


def test_unknown_agent_reference_is_reported_by_name():
    instance = make_instance({"A": 5}, {"T1": (1, 1, {"A", "Z"})})
    violations = validate_instance(instance)
    assert len(violations) == 1
    assert "Z" in violations[0] and "T1" in violations[0]


def test_empty_compatible_set_is_reported():
    instance = Instance(
        agents=(AgentSpec("A", 1),),
        tasks=(TaskSpec("T1", profits={}, weights={}, compatible=frozenset()),))
    violations = validate_instance(instance)
    assert len(violations) == 1
    assert "T1" in violations[0]


def test_violations_name_entity_and_rule():
    instance = Instance(
        agents=(AgentSpec("A", -1), AgentSpec("A", 2)),
        tasks=(
            TaskSpec("T1", profits={"A": -5}, weights={"A": 0}, compatible={"A"}),
            TaskSpec("T1", profits={"A": 1, "B": 1}, weights={"A": 1},
                     compatible={"A"}),
        ))
    violations = validate_instance(instance)
    joined = "\n".join(violations)
    assert "duplicate ids" in joined
    assert "capacity -1" in joined
    assert "weight 0" in joined
    assert "profit -5" in joined
    assert "profits keys" in joined


def test_validate_is_total_on_degenerate_input():
    assert validate_instance(Instance(agents=(), tasks=())) != []


def test_worked_example_fixture_shape():
    instance, trace = worked_example_fixture()
    assert validate_instance(instance) == []
    assert validate_trace(trace, instance) == []
    by_id = {t.id: t for t in instance.tasks}
    assert by_id["T1"].compatible == {"A", "B"}
    assert by_id["T2"].compatible == {"A", "B", "C"}
    assert by_id["T3"].compatible == {"B", "C"}
    assert all(a.capacity == 1 for a in instance.agents)
    assert trace.cycles == 4
    # T3 is struck from cycle 3 only
    assert trace.entry(3)[1] == {"T1", "T2"}
    for k in (1, 2, 4):
        assert trace.entry(k)[1] == {"T1", "T2", "T3"}
        assert trace.entry(k)[0] == {"A", "B", "C"}


def test_trace_validation_reports_problems():
    instance, trace = worked_example_fixture()
    bad = ScenarioTrace(
        cycles=2,
        available_agents=(frozenset({"A"}), frozenset()),
        available_tasks=(frozenset({"T1", "TX"}), frozenset({"T1"})),
        seed=0)
    problems = validate_trace(bad, instance)
    joined = "\n".join(problems)
    assert "no available agents" in joined
    assert "TX" in joined


def test_trace_validation_lists_every_problem_in_order():
    instance, _ = worked_example_fixture()
    agents = [{"A", "Z", "Y"}, set(), {"Z"}, set()]
    tasks = [{"TX", "T1", "TW"}, {"T2"}, set(), set()]
    expected = [
        "trace cycle 1: unknown agent ids ['Y', 'Z']",
        "trace cycle 1: unknown task ids ['TW', 'TX']",
        "trace cycle 2: no available agents",
        "trace cycle 3: no available tasks",
        "trace cycle 3: unknown agent ids ['Z']",
        "trace cycle 4: no available agents",
        "trace cycle 4: no available tasks",
    ]
    trace = ScenarioTrace(cycles=4, available_agents=agents,
                          available_tasks=tasks, seed=0)
    assert validate_trace(trace, instance) == expected
    # the same sets over ids in another order, or over ids no cycle holds
    ids = ("Z", "C", "Y", "Q", "B", "A")
    masks = np.array([[x in s for x in ids] for s in agents])
    trace = ScenarioTrace(cycles=4, available_agents=IdSets(ids, masks),
                          available_tasks=tasks, seed=0)
    assert validate_trace(trace, instance) == expected
    # entries missing for the last cycles: those cycles are not checked
    short = ScenarioTrace(cycles=5, available_agents=agents,
                          available_tasks=tasks[:3], seed=0)
    assert validate_trace(short, instance) == [
        "trace: 4 agents entries for 5 cycles",
        "trace: 3 tasks entries for 5 cycles", *expected[:5]]


def test_matrices_follow_list_order():
    instance = make_instance(
        {"B": 4, "A": 2},
        {"T2": (5, 3, {"B"}), "T1": (9, 1, {"A", "B"})})
    mats = InstanceMatrices(instance)
    assert mats.agent_ids == ("B", "A")
    assert mats.task_ids == ("T2", "T1")
    assert mats.agent_capacities.tolist() == [4, 2]
    assert mats.compat.tolist() == [[True, True], [False, True]]
    assert mats.profits[0, 0] == 5 and mats.weights[0, 0] == 3
    assert mats.profits[1, 1] == 9 and mats.weights[1, 1] == 1
    assert mats.available_pairs({"A"}, {"T1", "T2"}).tolist() \
        == [[False, False], [False, True]]
    assert mats.available_pairs({"A", "B"}, {"T2"}).tolist() \
        == [[True, False], [False, False]]
    with pytest.raises(KeyError):
        mats.available_pairs({"C"}, {"T1"})


def matrices_pair_by_pair(instance: Instance):
    """The compatibility, profit and weight matrices filled one compatible
    pair at a time: the reference the vectorised build must match."""
    agent_index = {a.id: i for i, a in enumerate(instance.agents)}
    shape = (len(instance.agents), len(instance.tasks))
    compat = np.zeros(shape, dtype=bool)
    profits = np.zeros(shape, dtype=np.int64)
    weights = np.zeros(shape, dtype=np.int64)
    for j, task in enumerate(instance.tasks):
        for agent_id in task.compatible:
            i = agent_index[agent_id]
            compat[i, j] = True
            profits[i, j] = task.profits[agent_id]
            weights[i, j] = task.weights[agent_id]
    return compat, profits, weights


@settings(max_examples=100, deadline=None)
@given(data=st.data(), m=st.integers(1, 6), n=st.integers(0, 12))
def test_matrices_match_a_pair_by_pair_fill(data, m, n):
    # per-agent profits and weights, up to the largest int64
    numbers = st.integers(0, 50) | st.just(2**63 - 1)
    positive = st.integers(1, 50) | st.just(2**63 - 1)
    agent_ids = [f"a{k}" for k in data.draw(st.permutations(range(m)))]
    tasks = []
    for j in range(n):
        compatible = data.draw(st.sets(st.sampled_from(agent_ids),
                                       min_size=1))
        tasks.append(TaskSpec(
            id=f"t{j}", compatible=compatible,
            profits={a: data.draw(numbers) for a in compatible},
            weights={a: data.draw(positive) for a in compatible}))
    instance = Instance(agents=tuple(AgentSpec(a, data.draw(numbers))
                                     for a in agent_ids),
                        tasks=tuple(tasks))
    mats = InstanceMatrices(instance)
    for got, want in zip((mats.compat, mats.profits, mats.weights),
                         matrices_pair_by_pair(instance)):
        assert got.dtype == want.dtype and np.array_equal(got, want)


def test_an_instance_builds_its_matrices_once_and_read_only():
    instance, _ = worked_example_fixture()
    mats = instance.matrices
    assert mats is instance.matrices
    assert mats.task_ids == tuple(instance.task_ids)
    assert isinstance(mats, GapShape)
    for array in (mats.agent_capacities, mats.compat, mats.profits,
                  mats.weights):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 1
    # the cache is no field: copies compare equal, and a pickle round trip
    # gives an instance that builds its own
    copy = pickle.loads(pickle.dumps(instance))
    assert copy == instance
    assert np.array_equal(copy.matrices.profits, mats.profits)


def test_domain_types_are_immutable():
    instance, _ = worked_example_fixture()
    with pytest.raises(AttributeError):
        instance.agents = ()
    with pytest.raises(AttributeError):
        instance.tasks[0].id = "X"


IDS = st.text(max_size=3)


@settings(max_examples=300, deadline=None)
@given(universe=st.lists(IDS, unique=True, max_size=8), data=st.data())
def test_id_set_views_behave_as_the_frozensets_they_replace(universe, data):
    flags = data.draw(st.lists(st.booleans(), min_size=len(universe),
                               max_size=len(universe)))
    members = frozenset(x for x, flag in zip(universe, flags) if flag)
    others = data.draw(st.lists(
        st.frozensets(st.sampled_from([*universe, "?"]) | IDS, max_size=6),
        max_size=3))
    strangers = data.draw(st.lists(IDS, max_size=4))
    view = IdSets(universe, [flags])[0]
    assert isinstance(view, IdSet)
    # membership, for ids of the universe or not, and for non-strings
    for probe in [*universe, *strangers, 1, 0, None, 2.5, b"A", ("A",), True]:
        assert (probe in view) == (probe in members), probe
    with pytest.raises(TypeError):
        ["A"] in view  # noqa: B015 - unhashable, as for a frozenset
    # iteration as a set, each member once, and the length
    assert sorted(view) == sorted(members)
    assert len(view) == len(members)
    assert view == members and members == view
    assert view == set(members) and set(members) == view
    assert not (view != members) and not (members != view)
    assert view != list(members)
    for other in others:
        for kind in (frozenset, set):
            assert (view == kind(other)) == (members == other)
            assert (kind(other) == view) == (members == other)
            assert (view != kind(other)) == (members != other)
            assert (kind(other) != view) == (members != other)
            assert view - kind(other) == members - other
            assert kind(other) - view == other - members
    assert hash(view) == hash(members)
    copy = pickle.loads(pickle.dumps(view))
    assert isinstance(copy, IdSet) and copy == members
    assert hash(copy) == hash(members)


def test_id_set_views_are_read_only():
    view = IdSets(("A", "B"), [[True, False]])[0]
    with pytest.raises(ValueError):
        view.mask[1] = True
    with pytest.raises(AttributeError):
        view.add("B")
    assert view == {"A"}


def test_id_sets_move_to_another_id_order():
    sets = IdSets.of([{"B"}, {"A", "C"}, set()])
    assert sets.ids == ("A", "B", "C")
    order = ("C", "X", "B", "A")
    moved = sets.over(order)
    assert moved.ids == order and moved == sets
    assert [m.mask.tolist() for m in moved] == [
        [False, False, True, False], [True, False, False, True],
        [False] * 4]
    assert sets.over(("A", "B", "C")) is sets
    # an id that is in no set need not be in the new order
    assert list(IdSets(("A", "Z"), [[True, False]]).over(("A",))) == [{"A"}]
    with pytest.raises(KeyError, match="C"):
        sets.over(("A", "B"))


def test_available_pairs_takes_a_view_in_instance_order_as_it_is():
    instance, trace = worked_example_fixture()
    mats = InstanceMatrices(instance)
    agents, tasks = trace.entry(3)
    expected = mats.available_pairs(set(agents), set(tasks))
    assert np.array_equal(mats.available_pairs(agents, tasks), expected)
    moved = trace.available_tasks.over(mats.task_ids[::-1])[2]
    assert moved.ids != mats.task_ids
    assert np.array_equal(mats.available_pairs(agents, moved), expected)


def trace_problems_by_loop(trace, instance) -> list[str]:
    """The per-cycle problems :func:`validate_trace` reports, found one
    cycle at a time with set differences: the reference it must match."""
    problems = []
    for k, (agents, tasks) in enumerate(
            zip(trace.available_agents, trace.available_tasks), start=1):
        problems += [f"trace cycle {k}: no available agents"] * (not agents)
        problems += [f"trace cycle {k}: no available tasks"] * (not tasks)
        for side, ids, known in (("agent", agents, instance.agent_ids),
                                 ("task", tasks, instance.task_ids)):
            unknown = sorted(set(ids) - set(known))
            if unknown:
                problems.append(f"trace cycle {k}: unknown {side} ids {unknown}")
    return problems


@settings(max_examples=200, deadline=None)
@given(data=st.data(), agents=st.lists(IDS, unique=True, max_size=4),
       tasks=st.lists(IDS, unique=True, max_size=4))
def test_trace_validation_matches_a_loop_over_cycles(data, agents, tasks):
    instance = make_instance(dict.fromkeys(agents, 1),
                             dict.fromkeys(tasks, (1, 1, set(agents))))
    cycles = data.draw(st.integers(0, 5))
    ids = st.sampled_from([*agents, *tasks, "?"]) | IDS
    sides = [data.draw(st.lists(st.frozensets(ids, max_size=5),
                                min_size=cycles, max_size=cycles))
             for _ in range(2)]
    trace = ScenarioTrace(cycles=cycles, available_agents=sides[0],
                          available_tasks=sides[1], seed=0)
    assert validate_trace(trace, instance)[int(cycles < 1):] \
        == trace_problems_by_loop(trace, instance)
