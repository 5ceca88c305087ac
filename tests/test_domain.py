import pytest

from rotagap.domain import (AgentSpec, Instance, InstanceMatrices, ScenarioTrace,
                            TaskSpec, validate_instance, validate_trace)

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


def test_matrices_follow_list_order():
    instance = make_instance(
        {"B": 4, "A": 2},
        {"T2": (5, 3, {"B"}), "T1": (9, 1, {"A", "B"})})
    mats = InstanceMatrices(instance)
    assert mats.agent_ids == ("B", "A")
    assert mats.task_ids == ("T2", "T1")
    assert mats.capacities.tolist() == [4, 2]
    assert mats.compat.tolist() == [[True, True], [False, True]]
    assert mats.profits[0, 0] == 5 and mats.weights[0, 0] == 3
    assert mats.profits[1, 1] == 9 and mats.weights[1, 1] == 1
    assert mats.available_pairs({"A"}, {"T1", "T2"}).tolist() \
        == [[False, False], [False, True]]
    assert mats.available_pairs({"A", "B"}, {"T2"}).tolist() \
        == [[True, False], [False, False]]
    with pytest.raises(KeyError):
        mats.available_pairs({"C"}, {"T1"})


def test_domain_types_are_immutable():
    instance, _ = worked_example_fixture()
    with pytest.raises(AttributeError):
        instance.agents = ()
    with pytest.raises(AttributeError):
        instance.tasks[0].id = "X"
