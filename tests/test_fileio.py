import dataclasses
import json
import math
import os

import pytest
from hypothesis import given, settings, strategies as st

from rotagap import fileio
from rotagap.domain import AgentSpec, Instance, ScenarioTrace, TaskSpec
from rotagap.engine import run_scenario
from rotagap.scenarios import (McmkpParams, TcsaParams, generate_mcmkp,
                               generate_tcsa, generate_trace_bernoulli,
                               generate_trace_episodic)
from rotagap.solver import SolverBudget
from rotagap.strategies import StrategyConfig

from conftest import worked_example_fixture


def test_instance_round_trip_worked_example():
    instance, _ = worked_example_fixture()
    assert fileio.instance_from_dict(fileio.instance_to_dict(instance)) == instance


def test_instance_round_trip_through_json_text(tmp_path):
    instance = generate_mcmkp(McmkpParams(agents=12, tasks=48, seed=13))
    path = tmp_path / "mcmkp.instance.json"
    fileio.save_instance(str(path), instance)
    assert fileio.load_instance(str(path)) == instance


def test_instance_round_trip_heterogeneous_maps(tmp_path):
    # per-agent profits/weights must survive as explicit maps
    task = TaskSpec(id="T1", compatible=frozenset({"A", "B"}),
                    profits={"A": 3, "B": 9}, weights={"A": 2, "B": 2})
    instance = Instance(agents=(AgentSpec("A", 5), AgentSpec("B", 5)),
                        tasks=(task,), metadata={"generator": "custom"})
    path = tmp_path / "custom.instance.json"
    fileio.save_instance(str(path), instance)
    loaded = fileio.load_instance(str(path))
    assert loaded == instance
    data = json.loads(path.read_text())
    assert data["tasks"][0]["profit"] == {"A": 3, "B": 9}
    assert data["tasks"][0]["weight"] == 2  # uniform map compacts to an int


def test_trace_round_trip(tmp_path):
    params = TcsaParams(agents=4, tasks=6, cycles=20, seed=17)
    instance = generate_tcsa(params)
    trace = generate_trace_episodic(instance, params)
    path = tmp_path / "t.trace.jsonl"
    fileio.save_trace(str(path), trace)
    assert fileio.load_trace(str(path)) == trace
    first_line = path.read_text().splitlines()[0]
    assert json.loads(first_line) == {"cycles": 20, "seed": 17}


@pytest.mark.parametrize("make", [
    lambda: generate_trace_episodic(
        generate_tcsa(TcsaParams(agents=6, tasks=40, cycles=30, seed=3)),
        TcsaParams(agents=6, tasks=40, cycles=30, seed=3)),
    lambda: generate_trace_bernoulli(
        generate_mcmkp(McmkpParams(agents=4, tasks=9, seed=4)), 10, 0.3, 0.1,
        seed=4)], ids=["episodic", "bernoulli"])
def test_trace_text_round_trips_byte_for_byte(make):
    text = fileio.trace_to_lines(make())
    again = fileio.trace_from_lines(text)
    assert fileio.trace_to_lines(again) == text
    # the sets read back from the text are those the generator drew, over
    # only the ids the text names
    assert again == make()
    assert set(again.available_tasks.ids) == {
        t for record in map(json.loads, text.splitlines()[1:])
        for t in record["tasks"]}


@st.composite
def instances(draw) -> Instance:
    """Instances with arbitrary ids and metadata whose tasks carry uniform
    or per-agent profit and weight maps."""
    agent_ids = draw(st.lists(st.text(), unique=True, max_size=5))
    agents = [AgentSpec(a, draw(st.integers(0, 10**9))) for a in agent_ids]
    tasks = []
    for task_id in draw(st.lists(st.text(), unique=True, max_size=6)):
        compatible = draw(st.frozensets(st.sampled_from(agent_ids))
                          if agent_ids else st.just(frozenset()))
        if draw(st.booleans()):
            tasks.append(TaskSpec.uniform(
                task_id, profit=draw(st.integers(0, 10**6)),
                weight=draw(st.integers(1, 10**6)), compatible=compatible))
        else:
            tasks.append(TaskSpec(
                task_id,
                profits={a: draw(st.integers(0, 10**6)) for a in compatible},
                weights={a: draw(st.integers(1, 10**6)) for a in compatible},
                compatible=compatible))
    metadata = draw(st.dictionaries(
        st.text(), st.integers() | st.text() | st.booleans(), max_size=3))
    return Instance(agents=tuple(agents), tasks=tuple(tasks),
                    metadata=metadata)


@settings(max_examples=200, deadline=None)
@given(instance=instances())
def test_instances_round_trip_through_json_text(instance):
    text = json.dumps(fileio.instance_to_dict(instance), sort_keys=True)
    assert fileio.instance_from_dict(json.loads(text)) == instance


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(-2**63, 2**63),
       cycles=st.lists(st.tuples(st.frozensets(st.text(), max_size=4),
                                 st.frozensets(st.text(), max_size=4)),
                       max_size=6))
def test_traces_round_trip_through_json_text(seed, cycles):
    trace = ScenarioTrace(cycles=len(cycles),
                          available_agents=[a for a, _ in cycles],
                          available_tasks=[t for _, t in cycles], seed=seed)
    assert fileio.trace_from_lines(fileio.trace_to_lines(trace)) == trace


def test_trace_rejects_inconsistent_files(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"cycles": 2, "seed": 1}\n'
                    '{"cycle": 1, "agents": ["A"], "tasks": ["T"]}\n')
    with pytest.raises(ValueError, match="2 cycles"):
        fileio.load_trace(str(path))


def test_trace_syntax_errors_name_the_line():
    text = ('{"cycles": 2, "seed": 1}\n\n'
            '{"agents": [], "cycle": 1, "tasks": []}\n'
            '{"agents": [], "cycle": 2,\n')
    with pytest.raises(ValueError, match=r"^trace line 4: .*line 1 column"):
        fileio.trace_from_lines(text)


REFUSED = [
    (list[int], [1, True]), (list[int], [1.5]), (list[int], ["1"]),
    (tuple[int, int], [1, 2, 3]), (tuple[int, int], [1, 2.5]),
    (tuple[int, int], "1-21"),
    (float, math.inf), (float, math.nan), (float, True),
]


@pytest.mark.parametrize("kind,value", REFUSED,
                         ids=[f"{k}-{v!r}" for k, v in REFUSED])
def test_typed_refuses_values_of_another_type(kind, value):
    with pytest.raises(ValueError, match=r"^record: 'key' (is not|holds) "):
        fileio.typed({"key": value}, "key", "record", kind)


@pytest.mark.parametrize("kind,value,read", [
    (float, 1, 1.0), (float, -2.5, -2.5), (int, 3, 3),
    (tuple[int, int], (2, 9), (2, 9)), (tuple[int, int], [2, 9], (2, 9)),
    (list[int], [3, 1], [3, 1]), (list[str], [], []),
])
def test_typed_reads_values_of_its_type(kind, value, read):
    got = fileio.typed({"key": value}, "key", "record", kind)
    assert got == read and type(got) is type(read)


def test_typed_names_a_missing_field_or_a_record_of_another_type():
    with pytest.raises(ValueError, match=r"^config: missing 'seeds'$"):
        fileio.typed({}, "seeds", "config", list[int])
    with pytest.raises(ValueError, match=r"^config: expected an object, got list$"):
        fileio.typed([1], "seeds", "config", list[int])


def test_serialization_is_canonical(tmp_path):
    instance = generate_mcmkp(McmkpParams(agents=5, tasks=10, seed=19))
    trace = generate_trace_bernoulli(instance, 10, 0.9, 0.9, seed=19)
    paths = []
    for tag in ("one", "two"):
        ipath = tmp_path / f"{tag}.instance.json"
        tpath = tmp_path / f"{tag}.trace.jsonl"
        fileio.save_instance(str(ipath), instance)
        fileio.save_trace(str(tpath), trace)
        paths.append((ipath.read_bytes(), tpath.read_bytes()))
    assert paths[0] == paths[1]
    assert len(fileio.sha256_file(str(tmp_path / "one.instance.json"))) == 64


def test_summary_csv_round_trip(tmp_path):
    rows = [{
        "scenario": "mcmkp-12x48-uncorrelated", "strategy": "os/10", "seed": 1,
        "total_profit": 1000, "profit_pct_of_fop": "92.5",
        "full_rotations": 2, "avg_rotations_per_task": "4.25",
        "cycles": 144, "budget_mode": "node_limit",
    }]
    path = tmp_path / "summary.csv"
    fileio.atomic_write_text(str(path), fileio.summary_csv(rows))
    back = fileio.read_summary(str(path))
    assert back[0]["strategy"] == "os/10"
    assert back[0]["profit_pct_of_fop"] == "92.5"


@pytest.mark.parametrize("fail", ["write", "rename"])
def test_failed_atomic_write_leaves_no_temp_file(tmp_path, monkeypatch, fail):
    path = tmp_path / "out.json"
    path.write_text("old\n")
    if fail == "rename":
        def refuse(src, dst):
            raise OSError("rename refused")
        monkeypatch.setattr(fileio.os, "replace", refuse)
        error, text = OSError, "new\n"
    else:  # a lone surrogate cannot be encoded, so the write fails midway
        error, text = UnicodeEncodeError, "new\ud800\n"
    with pytest.raises(error):
        fileio.atomic_write_text(str(path), text)
    assert sorted(os.listdir(tmp_path)) == ["out.json"]
    assert path.read_text() == "old\n"


def test_read_summary_enforces_schema(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("scenario,strategy\nx,y\n")
    with pytest.raises(ValueError, match="columns"):
        fileio.read_summary(str(path))


def label_of(instance) -> str:
    return fileio.scenario_label(instance.metadata, len(instance.agents),
                                 len(instance.tasks))


def test_scenario_label():
    instance = generate_mcmkp(McmkpParams(agents=12, tasks=48,
                                          correlation="weakly_correlated", seed=1))
    assert label_of(instance) == "mcmkp-12x48-weakly_correlated"
    tcsa = generate_tcsa(TcsaParams(agents=5, tasks=9, seed=1))
    assert label_of(tcsa) == "tcsa-5x9"


@pytest.mark.parametrize("spec", ["fop", "os:10", "pc:2:0.5"])
def test_records_hold_the_report_fields(spec):
    # a field added to CycleReport or StrategyConfig reaches the files
    # without being listed again
    instance, trace = worked_example_fixture()
    strategy = StrategyConfig.parse(spec)
    report = run_scenario(instance, trace, strategy, SolverBudget.nodes(50))
    lines = fileio.cycle_lines(report).splitlines()
    assert len(lines) == trace.cycles
    for line, cycle in zip(lines, report.per_cycle):
        assert json.loads(line) == dataclasses.asdict(cycle)
    doc = fileio.run_report_to_dict(report, scenario="worked", seed=0,
                                    budget_mode="node_limit", config={})
    assert doc["strategy"] == {**dataclasses.asdict(strategy),
                               "label": strategy.label}
    assert set(doc["strategy"]) \
        == {f.name for f in dataclasses.fields(StrategyConfig)} | {"label"}


@pytest.mark.parametrize("text", ["", "\n  \n"])
def test_empty_trace_file_is_refused(text):
    with pytest.raises(ValueError, match="empty trace file"):
        fileio.trace_from_lines(text)


def test_trace_cycles_out_of_order_are_refused():
    _, trace = worked_example_fixture()
    lines = fileio.trace_to_lines(trace).splitlines()
    lines[2], lines[3] = lines[3], lines[2]
    with pytest.raises(ValueError, match="trace cycles out of order at 3"):
        fileio.trace_from_lines("\n".join(lines))


@pytest.mark.parametrize("metadata,message", [
    ({"params": [1]}, "'params' is not an object"),
    ({"params": "x"}, "'params' is not an object"),
    ({"generator": "my/gen"}, "cannot be part of a file name"),
    ({"generator": "g", "params": {"correlation": "a/b"}},
     "cannot be part of a file name"),
])
def test_scenario_label_refuses_metadata_that_cannot_name_files(metadata,
                                                                message,
                                                                tmp_path):
    instance, _ = worked_example_fixture()
    instance = dataclasses.replace(instance, metadata=metadata)
    with pytest.raises(ValueError, match=message):
        fileio.check_output_names(str(tmp_path), label_of(instance), [0])


def test_instance_integers_must_fit_int64():
    instance, _ = worked_example_fixture()
    doc = fileio.instance_to_dict(instance)
    top = 2**63 - 1
    doc["agents"][0]["capacity"] = top
    doc["tasks"][0].update(weight=top, profit=top)
    loaded = fileio.instance_from_dict(doc)
    assert loaded.agents[0].capacity == top
    assert set(loaded.tasks[0].weights.values()) == {top}
    assert set(loaded.tasks[0].profits.values()) == {top}
    for record, key, value, where in [
            ("agents", "capacity", 2**70, "instance agent 0"),
            ("tasks", "weight", 2**63, "instance task 0"),
            ("tasks", "profit", 2**63, "instance task 0"),
            ("tasks", "profit", {"A": 2**63, "B": 1}, "instance task 0 profit"),
            ("tasks", "weight", -2**63 - 1, "instance task 0")]:
        bad = json.loads(json.dumps(doc))
        bad[record][0][key] = value
        field = "A" if isinstance(value, dict) else key
        number = value["A"] if isinstance(value, dict) else value
        with pytest.raises(ValueError) as exc:
            fileio.instance_from_dict(bad)
        assert str(exc.value) == \
            f"{where}: {field!r} is outside int64: {number}"


def test_output_names_are_checked_against_the_name_limit(tmp_path):
    limit = os.pathconf(tmp_path, "PC_NAME_MAX")
    # a directory yet to be made is judged by its nearest existing ancestor
    directory = str(tmp_path / "a" / "b")
    tail = f"-os-10-seed7.cycles.jsonl.tmp{os.getpid()}"
    label = "x" * (limit - len(tail))
    fileio.check_output_names(directory, label, [7], ["fop", "os-10"])
    with pytest.raises(ValueError, match="with seed 17 gives the file name"):
        fileio.check_output_names(directory, label, [7, 17], ["os-10"])
    # a generated scenario's longest name, its instance, is 5 bytes shorter
    fileio.check_output_names(directory, label + "x" * 5, [7])
    with pytest.raises(ValueError, match="longer than"):
        fileio.check_output_names(directory, label + "x" * 6, [7])
    assert not os.path.exists(tmp_path / "a")


@pytest.mark.parametrize("label,message", [
    ("a/b", "cannot be part of a file name"),
    ("a\0b", "cannot be part of a file name"),
    # UnicodeEncodeError is a ValueError, so the CLI exits 2 on it too
    ("a\ud800b", "surrogates not allowed")])
def test_labels_that_cannot_be_file_names_are_refused(tmp_path, label,
                                                      message):
    with pytest.raises(ValueError, match=message):
        fileio.check_output_names(str(tmp_path), label, [1])
