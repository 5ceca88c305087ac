import concurrent.futures
import csv
import dataclasses
import json
import os
import shutil
import subprocess
import sys
from collections import Counter

import pytest

from rotagap import engine, fileio, scenarios, solver
from rotagap.cli import (GENERATOR_PARAMS, main, parse_strategies,
                         scenario_fields)
from rotagap.domain import (AgentSpec, Instance, InstanceMatrices,
                            ScenarioTrace, TaskSpec)
from rotagap.engine import run_scenario
from rotagap.scenarios import GenerationError
from rotagap.solver import SolverBudget
from rotagap.strategies import StrategyConfig


def run_cli(*argv) -> int:
    return main(list(argv))


def dir_digest(path: str) -> dict[str, str]:
    return {name: fileio.sha256_file(os.path.join(path, name))
            for name in sorted(os.listdir(path))
            if os.path.isfile(os.path.join(path, name))}


def test_parse_strategies_appends_fop_baseline():
    parsed = parse_strategies(["foa,os:10", "os:20"])
    labels = [s.label for s in parsed]
    assert labels == ["foa", "os/10", "os/20", "fop"]
    assert [s.label for s in parse_strategies([])] == ["fop"]
    # duplicates collapse
    assert [s.label for s in parse_strategies(["fop,fop,foa"])] == ["fop", "foa"]


def test_generate_writes_files_and_is_idempotent(tmp_path, capsys):
    out = tmp_path / "gen"
    argv = ["generate", "--scenario", "mcmkp", "--agents", "6", "--tasks", "12",
            "--seed", "7", "-o", str(out)]
    assert run_cli(*argv) == 0
    first = capsys.readouterr().out
    assert run_cli(*argv) == 0
    second = capsys.readouterr().out
    assert first == second  # printed checksums identical -> byte-identical files
    names = sorted(os.listdir(out))
    assert names == ["mcmkp-6x12-uncorrelated-seed7.instance.json",
                     "mcmkp-6x12-uncorrelated-seed7.trace.jsonl"]
    for line in first.strip().splitlines():
        digest, path = line.split(None, 1)
        assert fileio.sha256_file(path) == digest


def test_generate_rejects_unknown_scenario(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run_cli("generate", "--scenario", "nope", "--seed", "1",
                "-o", str(tmp_path))
    assert exc.value.code == 2


def test_generate_rejects_bad_params(tmp_path):
    code = run_cli("generate", "--scenario", "mcmkp", "--agents", "6",
                   "--tasks", "12", "--agent-availability", "0", "--seed", "1",
                   "-o", str(tmp_path))
    assert code == 2
    assert run_cli("generate", "--scenario", "tcsa", "--agents", "3", "--tasks", "6",
                   "--cycles", "0", "--seed", "1", "-o", str(tmp_path)) == 2


def test_run_grid_produces_reports_and_summary(tmp_path):
    out = tmp_path / "run"
    code = run_cli("run", "--scenario", "mcmkp", "--agents", "5", "--tasks", "10",
                   "--cycles", "8", "--seeds", "1,2", "--strategies", "foa,os:10",
                   "--budget", "nodes:2000", "-o", str(out))
    assert code == 0
    names = sorted(os.listdir(out))
    # 3 strategies (fop appended) x 2 seeds -> 6 reports + 6 cycle streams
    assert sum(n.endswith(".report.json") for n in names) == 6
    assert sum(n.endswith(".cycles.jsonl") for n in names) == 6
    assert "summary.csv" in names and "config.json" in names

    rows = fileio.read_summary(str(out / "summary.csv"))
    assert len(rows) == 6
    fop_rows = [r for r in rows if r["strategy"] == "fop"]
    assert all(float(r["profit_pct_of_fop"]) == 100.0 for r in fop_rows)
    assert {r["seed"] for r in rows} == {"1", "2"}

    report = json.loads((out / "mcmkp-5x10-uncorrelated-foa-seed1.report.json")
                        .read_text())
    assert report["schema"] == fileio.REPORT_SCHEMA
    assert report["config"]["strategies"] == ["foa", "os:10", "fop"]
    assert report["config"]["seeds"] == [1, 2]
    cycle_rows = [json.loads(line) for line in
                  (out / "mcmkp-5x10-uncorrelated-foa-seed1.cycles.jsonl")
                  .read_text().splitlines()]
    assert [c["cycle"] for c in cycle_rows] == list(range(1, 9))
    assert set(cycle_rows[0]) == {
        "cycle", "profit", "objective", "max_ap", "assigned_count",
        "budget_exhausted", "proven_optimal", "nodes_explored"}
    assert all(0 <= c["nodes_explored"] <= 2000 for c in cycle_rows)


def test_the_jobs_of_a_seed_share_its_instance_matrices(tmp_path,
                                                       monkeypatch):
    built = []
    init = InstanceMatrices.__init__

    def counted(self, instance):
        built.append(instance)
        init(self, instance)

    monkeypatch.setattr(InstanceMatrices, "__init__", counted)
    assert run_cli("run", "--scenario", "tcsa", "--agents", "3",
                   "--tasks", "8", "--cycles", "4", "--seeds", "5",
                   "--strategies", "fop,pc", "--budget", "nodes:200",
                   "--workers", "1", "-o", str(tmp_path / "out")) == 0
    assert len(built) == 1
    assert len(os.listdir(tmp_path / "out")) > 4  # both jobs ran


def test_run_from_embedded_config_reproduces_reports(tmp_path):
    out = tmp_path / "a"
    assert run_cli("run", "--scenario", "mcmkp", "--agents", "4", "--tasks", "8",
                   "--cycles", "6", "--seeds", "3", "--strategies", "foa",
                   "--budget", "nodes:1000", "-o", str(out)) == 0
    before = dir_digest(str(out))
    assert run_cli("run", "--config", str(out / "config.json")) == 0
    assert dir_digest(str(out)) == before


def test_tcsa_config_with_ranges_reproduces_reports(tmp_path):
    out = tmp_path / "a"
    assert run_cli("run", "--scenario", "tcsa", "--agents", "3", "--tasks", "8",
                   "--cycles", "4", "--runtime-range", "2", "9",
                   "--compat-fraction", "0.5", "--seeds", "3,4",
                   "--strategies", "pc", "--budget", "nodes:500",
                   "-o", str(out)) == 0
    before = dir_digest(str(out))
    config = json.loads((out / "config.json").read_text())
    assert config["scenario"]["runtime_range"] == [2, 9]
    assert config["scenario"]["unavail_duration_range"] == [3, 7]
    assert run_cli("run", "--config", str(out / "config.json")) == 0
    assert dir_digest(str(out)) == before


def test_run_rerun_is_byte_identical(tmp_path):
    out = tmp_path / "det"
    argv = ["run", "--scenario", "tcsa", "--agents", "4", "--tasks", "8",
            "--cycles", "6", "--seeds", "5", "--strategies", "pc",
            "--budget", "nodes:1500", "-o", str(out)]
    assert run_cli(*argv) == 0
    before = dir_digest(str(out))
    assert run_cli(*argv) == 0
    assert dir_digest(str(out)) == before


def test_run_file_mode_uses_instance_seed(tmp_path):
    gen = tmp_path / "gen"
    assert run_cli("generate", "--scenario", "mcmkp", "--agents", "4",
                   "--tasks", "8", "--cycles", "6", "--seed", "9",
                   "-o", str(gen)) == 0
    out = tmp_path / "run"
    assert run_cli("run",
                   "--instance", str(gen / "mcmkp-4x8-uncorrelated-seed9.instance.json"),
                   "--trace", str(gen / "mcmkp-4x8-uncorrelated-seed9.trace.jsonl"),
                   "--strategies", "foa", "--budget", "nodes:1000",
                   "-o", str(out)) == 0
    rows = fileio.read_summary(str(out / "summary.csv"))
    assert {r["seed"] for r in rows} == {"9"}


@pytest.mark.parametrize("seed", ["abc", 2.7, True, None])
def test_files_scenario_seed_must_be_an_integer(tmp_path, capsys, seed):
    instance = Instance(
        agents=(AgentSpec("A", 2),),
        tasks=(TaskSpec.uniform("T1", profit=3, weight=1, compatible={"A"}),
               TaskSpec.uniform("T2", profit=5, weight=2, compatible={"A"})),
        metadata={"seed": seed})
    trace = ScenarioTrace(cycles=2, available_agents=(frozenset("A"),) * 2,
                          available_tasks=(frozenset({"T1", "T2"}),) * 2, seed=1)
    path = str(tmp_path / "x.instance.json")
    fileio.save_instance(path, instance)
    fileio.save_trace(str(tmp_path / "x.trace.jsonl"), trace)
    argv = ["run", "--instance", path, "--trace", str(tmp_path / "x.trace.jsonl"),
            "--strategies", "foa", "--budget", "nodes:10"]
    out = tmp_path / "run"
    capsys.readouterr()
    assert run_cli(*argv, "-o", str(out)) == 2
    assert capsys.readouterr().err == (
        f"error: {path}: metadata 'seed' is not an integer: {seed!r}\n")
    assert not out.exists()
    # seeds given on the command line leave the metadata seed unread
    assert run_cli(*argv, "--seeds", "3", "-o", str(out)) == 0


def test_run_config_errors(tmp_path, capsys):
    assert run_cli("run", "--strategies", "fop", "--budget", "nodes:10",
                   "-o", str(tmp_path)) == 2  # no scenario or files
    assert run_cli("run", "--scenario", "mcmkp", "--agents", "4", "--tasks", "8",
                   "--strategies", "fop", "--budget", "minutes:1",
                   "-o", str(tmp_path)) == 2
    assert run_cli("run", "--instance", "only-instance.json",
                   "--strategies", "fop", "-o", str(tmp_path)) == 2
    # non-finite numbers are refused before any job starts
    for strategies, budget in [("os:inf", "nodes:10"), ("os:nan", "nodes:10"),
                               ("pc:nan:1", "nodes:10"), ("pc:1:inf", "nodes:10"),
                               ("fop", "seconds:nan"), ("fop", "seconds:inf")]:
        out = tmp_path / f"{strategies}-{budget}".replace(":", "_")
        assert run_cli("run", "--scenario", "mcmkp", "--agents", "2",
                       "--tasks", "4", "--cycles", "2", "--strategies", strategies,
                       "--budget", budget, "-o", str(out)) == 2
        assert not out.exists()
    # so are scenario parameters, files and cycle counts
    mcmkp = ["--scenario", "mcmkp", "--agents", "2", "--tasks", "4", "--cycles", "2"]
    tcsa = ["--scenario", "tcsa", "--agents", "3", "--tasks", "6", "--cycles", "2"]
    cases = {
        "availability": [*mcmkp, "--agent-availability", "2"],
        "no-agents": [*mcmkp, "--agents", "0"],
        "runtime-range": [*tcsa, "--runtime-range", "5", "1"],
        "missing-files": ["--instance", str(tmp_path / "none.instance.json"),
                          "--trace", str(tmp_path / "none.trace.jsonl"),
                          "--seeds", "1,2"],
        "tcsa-cycles": [*tcsa, "--cycles", "0"],
        "mcmkp-cycles": [*mcmkp, "--cycles", "0"],
        "missing-agents": ["--scenario", "mcmkp", "--tasks", "4"],
        "workers": [*mcmkp, "--workers", "0"],
        "stray-flag": [*mcmkp, "--capacity-minutes", "90"],
    }
    for name, argv in cases.items():
        out = tmp_path / name
        assert run_cli("run", *argv, "--strategies", "foa",
                       "--budget", "nodes:10", "-o", str(out)) == 2, name
        assert not out.exists(), name
    for name, scenario in [
            ("misspelled", {"name": "mcmkp", "agents": 2, "tasks": 4,
                            "agent_availabilty": 0.5}),
            ("not-an-object", "mcmkp"),
            ("no-name", {"agents": 2, "tasks": 4}),
            ("trace-path", {"name": "files", "instance": str(tmp_path),
                            "trace": 5})]:
        config = tmp_path / f"{name}.json"
        out = tmp_path / f"from-{name}"
        config.write_text(json.dumps({
            "scenario": scenario, "strategies": ["fop"], "budget": "nodes:10",
            "cycles": 2, "seeds": [1], "output_dir": str(out), "workers": 1,
            "static_priorities": False}))
        capsys.readouterr()
        assert run_cli("run", "--config", str(config)) == 2, name
        assert not out.exists(), name
        assert capsys.readouterr().err == {
            "misspelled": "error: unknown mcmkp scenario field(s): "
                          "agent_availabilty\n",
            "not-an-object": "error: config: 'scenario' is not an object: "
                             "'mcmkp'\n",
            "no-name": "error: config scenario: missing 'name'\n",
            "trace-path": "error: files scenario: 'trace' is not a string: 5\n",
        }[name]


CONFIG = {"scenario": {"name": "mcmkp", "agents": 2, "tasks": 4},
          "strategies": ["fop"], "budget": "nodes:10", "cycles": 2,
          "seeds": [1], "workers": 1, "static_priorities": False}
SCENARIOS = {"mcmkp": CONFIG["scenario"],
             "tcsa": {"name": "tcsa", "agents": 3, "tasks": 6}}
# (where: the config itself or a scenario, key, a value of the wrong type)
UNCOERCED = [
    ("config", "cycles", 2.9), ("config", "cycles", "2"),
    ("config", "workers", True), ("config", "workers", 1.0),
    ("config", "static_priorities", "no"), ("config", "static_priorities", 0),
    ("config", "seeds", ["1"]), ("config", "seeds", [1.5]),
    ("config", "seeds", [True]), ("config", "seeds", 1),
    ("config", "strategies", "fop"), ("config", "strategies", [1]),
    ("config", "budget", 10), ("config", "output_dir", 7),
    ("mcmkp", "agents", 2.7), ("mcmkp", "tasks", "4"),
    ("mcmkp", "agent_availability", "0.5"),
    ("mcmkp", "agent_availability", True), ("mcmkp", "correlation", 1),
    ("tcsa", "capacity_minutes", 90.0), ("tcsa", "compat_fraction", False),
    ("tcsa", "runtime_range", [1, 2.5]), ("tcsa", "runtime_range", "1-21"),
    ("tcsa", "runtime_range", [1, 2, 3]),
    ("tcsa", "unavail_duration_range", [True, 3]),
]


@pytest.mark.parametrize("where,key,value", UNCOERCED,
                         ids=[f"{w}-{k}-{v!r}" for w, k, v in UNCOERCED])
def test_config_values_are_refused_not_coerced(tmp_path, capsys, where, key,
                                               value):
    out = tmp_path / "out"
    config = {**CONFIG, "output_dir": str(out)}
    if where == "config":
        config[key] = value
    else:
        config["scenario"] = {**SCENARIOS[where], key: value}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    capsys.readouterr()
    assert run_cli("run", "--config", str(path)) == 2
    assert f"{key!r}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("text,kind", [("[1, 2]", "list"), ('"x"', "str"),
                                       ("3", "int"), ("null", "NoneType")])
@pytest.mark.parametrize("output", [False, True], ids=["no-o", "o"])
def test_config_that_is_not_an_object_is_refused(tmp_path, capsys, text, kind,
                                                 output):
    path = tmp_path / "config.json"
    path.write_text(text)
    capsys.readouterr()
    argv = ["run", "--config", str(path)]
    assert run_cli(*argv, *(["-o", str(tmp_path / "out")] if output else [])) == 2
    assert capsys.readouterr().err == \
        f"error: {path}: expected an object, got {kind}\n"
    assert os.listdir(tmp_path) == ["config.json"]


def test_config_with_an_unknown_field_is_refused(tmp_path, capsys):
    out = tmp_path / "out"
    path = tmp_path / "config.json"
    # misspelled, so the run would redraw priorities
    path.write_text(json.dumps({**CONFIG, "output_dir": str(out),
                                "static_priority": True}))
    capsys.readouterr()
    assert run_cli("run", "--config", str(path)) == 2
    assert capsys.readouterr().err == \
        "error: unknown config field(s): static_priority\n"
    assert not out.exists()


def test_files_config_with_an_unknown_scenario_field_is_refused(tmp_path,
                                                                capsys):
    # a files run's config.json, rerun with generator fields added to its
    # scenario: the files fix the instance, so the fields would be ignored
    gen = tmp_path / "gen"
    assert run_cli("generate", "--scenario", "mcmkp", "--agents", "2",
                   "--tasks", "4", "--cycles", "2", "--seed", "1",
                   "-o", str(gen)) == 0
    stem = gen / "mcmkp-2x4-uncorrelated-seed1"
    done = tmp_path / "done"
    assert run_cli("run", "--instance", f"{stem}.instance.json", "--trace",
                   f"{stem}.trace.jsonl", "--strategies", "foa", "--budget",
                   "nodes:10", "-o", str(done)) == 0
    config = json.loads((done / "config.json").read_text())
    config["scenario"].update(agents=5, correlation="bogus")
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "out"
    capsys.readouterr()
    assert run_cli("run", "--config", str(path), "-o", str(out)) == 2
    assert capsys.readouterr().err == \
        "error: unknown files scenario field(s): agents, correlation\n"
    assert not out.exists()


def test_config_reads_floats_written_as_integers(tmp_path):
    runs = {}
    for name, availability in [("float", 1.0), ("int", 1)]:
        config = {**CONFIG, "output_dir": str(tmp_path / name),
                  "scenario": {**CONFIG["scenario"],
                               "agent_availability": availability}}
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(config))
        assert run_cli("run", "--config", str(path)) == 0, name
        runs[name] = (tmp_path / name / "summary.csv").read_text()
    assert runs["int"] == runs["float"]


def set_in(path: tuple, value):
    """A change to a parsed file that sets the entry at ``path``; ``value``
    None deletes it."""
    def change(doc):
        *parents, last = path
        for key in parents:
            doc = doc[key]
        if value is None:
            del doc[last]
        else:
            doc[last] = value
    return change


# (file, change to its parsed records, message): the trace's records are
# its header and then one per cycle
MALFORMED_FILES = [
    ("instance", set_in(("agents",), None), "instance: missing 'agents'"),
    ("instance", set_in(("agents", 0, "capacity"), None),
     "instance agent 0: missing 'capacity'"),
    ("instance", set_in(("agents", 1), [["A02", 40]]),
     "instance agent 1: expected an object, got list"),
    ("instance", set_in(("tasks",), {"T01": {}}),
     "instance: 'tasks' is not a list"),
    ("instance", set_in(("tasks", 2, "weight"), "heavy"),
     "instance task 2: 'weight' is not an integer: 'heavy'"),
    ("instance", set_in(("tasks", 0, "profit"), {"A01": None}),
     "instance task 0 profit: 'A01' is not an integer: None"),
    ("instance", set_in(("tasks", 1, "compatible"), None),
     "instance task 1: missing 'compatible'"),
    ("trace", set_in((0, "cycles"), None), "trace header: missing 'cycles'"),
    ("trace", set_in((0, "seed"), "one"),
     "trace header: 'seed' is not an integer: 'one'"),
    ("trace", set_in((2, "agents"), "A01"),
     "trace cycle 2: 'agents' is not a list: 'A01'"),
    ("trace", set_in((3, "tasks"), None), "trace cycle 3: missing 'tasks'"),
    ("trace", set_in((1,), ["A01"]),
     "trace cycle 1: expected an object, got list"),
    # numbers are JSON integers and ids are strings, never coerced
    ("instance", set_in(("agents", 0, "capacity"), 10.9),
     "instance agent 0: 'capacity' is not an integer: 10.9"),
    ("instance", set_in(("tasks", 1, "weight"), "7"),
     "instance task 1: 'weight' is not an integer: '7'"),
    ("instance", set_in(("tasks", 2, "profit"), True),
     "instance task 2: 'profit' is not an integer: True"),
    # the matrices hold int64, so a larger integer is refused when read
    ("instance", set_in(("agents", 0, "capacity"), 2**70),
     f"instance agent 0: 'capacity' is outside int64: {2**70}"),
    ("instance", set_in(("tasks", 1, "profit"), 2**63),
     f"instance task 1: 'profit' is outside int64: {2**63}"),
    ("instance", set_in(("tasks", 0, "profit"), {"A02": 2.0}),
     "instance task 0 profit: 'A02' is not an integer: 2.0"),
    ("instance", set_in(("agents", 1, "id"), 5),
     "instance agent 1: 'id' is not a string: 5"),
    ("instance", set_in(("tasks", 2, "id"), ["T03"]),
     "instance task 2: 'id' is not a string: ['T03']"),
    ("instance", set_in(("tasks", 0, "compatible"), ["A02", 2]),
     "instance task 0: 'compatible' holds a non-string id: 2"),
    ("instance", set_in(("metadata",), "mcmkp"),
     "instance: 'metadata' is not an object: 'mcmkp'"),
    ("trace", set_in((0, "cycles"), 4.0),
     "trace header: 'cycles' is not an integer: 4.0"),
    ("trace", set_in((4, "cycle"), False),
     "trace cycle 4: 'cycle' is not an integer: False"),
    ("trace", set_in((2, "tasks"), ["T01", ["T02"]]),
     "trace cycle 2: 'tasks' holds a non-string id: ['T02']"),
    # the metadata names the output files, so it is checked with the file
    ("instance", set_in(("metadata", "params"), [1]),
     "metadata: 'params' is not an object: [1]"),
    ("instance", set_in(("metadata", "generator"), "my/gen"),
     "metadata gives the scenario label 'my/gen-2x3-uncorrelated', which "
     "cannot be part of a file name"),
]


@pytest.mark.parametrize("kind,change,message", MALFORMED_FILES)
def test_malformed_files_name_the_record_and_field(tmp_path, capsys, kind,
                                                   change, message):
    gen = tmp_path / "gen"
    assert run_cli("generate", "--scenario", "mcmkp", "--agents", "2",
                   "--tasks", "3", "--cycles", "4", "--seed", "1",
                   "-o", str(gen)) == 0
    stem = gen / "mcmkp-2x3-uncorrelated-seed1"
    paths = {"instance": f"{stem}.instance.json",
             "trace": f"{stem}.trace.jsonl"}
    with open(paths[kind], encoding="utf-8") as fh:
        text = fh.read()
    if kind == "instance":
        doc = json.loads(text)
        change(doc)
        text = json.dumps(doc)
    else:
        records = [json.loads(line) for line in text.splitlines()]
        change(records)
        text = "".join(json.dumps(r) + "\n" for r in records)
    paths[kind] = str(tmp_path / f"bad-{kind}")
    with open(paths[kind], "w", encoding="utf-8") as fh:
        fh.write(text)
    capsys.readouterr()
    out = tmp_path / "run"
    assert run_cli("run", "--instance", paths["instance"],
                   "--trace", paths["trace"], "--strategies", "foa",
                   "--budget", "nodes:10", "-o", str(out)) == 2
    assert capsys.readouterr().err.startswith(f"error: {paths[kind]}: {message}")
    assert not out.exists()


@pytest.mark.parametrize("kind", ["instance", "trace"])
def test_unparsable_file_is_named(tmp_path, capsys, kind):
    gen = tmp_path / "gen"
    assert run_cli("generate", "--scenario", "mcmkp", "--agents", "2",
                   "--tasks", "3", "--cycles", "4", "--seed", "1",
                   "-o", str(gen)) == 0
    stem = gen / "mcmkp-2x3-uncorrelated-seed1"
    paths = {"instance": f"{stem}.instance.json",
             "trace": f"{stem}.trace.jsonl"}
    with open(paths[kind], "r+", encoding="utf-8") as fh:
        fh.truncate(12)  # mid-record: the parser expects a value
    capsys.readouterr()
    assert run_cli("run", "--instance", paths["instance"],
                   "--trace", paths["trace"], "--strategies", "foa",
                   "--budget", "nodes:10", "-o", str(tmp_path / "run")) == 2
    assert capsys.readouterr().err.startswith(f"error: {paths[kind]}: ")


def test_pc_values_that_overflow_are_refused(tmp_path):
    # 1000**200 is beyond float range: left to the jobs, every one fails
    # with "values must be finite on feasible pairs"
    mcmkp = ["--scenario", "mcmkp", "--agents", "2", "--tasks", "4",
             "--cycles", "2", "--budget", "nodes:10"]
    gen = tmp_path / "gen"
    assert run_cli("generate", *mcmkp[:-2], "--seed", "9", "-o", str(gen)) == 0
    files = ["--instance", str(gen / "mcmkp-2x4-uncorrelated-seed9.instance.json"),
             "--trace", str(gen / "mcmkp-2x4-uncorrelated-seed9.trace.jsonl"),
             "--budget", "nodes:10"]
    for name, argv in [("generated", mcmkp), ("files", files)]:
        out = tmp_path / f"{name}-overflow"
        assert run_cli("run", *argv, "--strategies", "pc:200:1",
                       "-o", str(out)) == 2, name
        assert not out.exists(), name
        assert run_cli("run", *argv, "--strategies", "pc:2:0.5",
                       "-o", str(tmp_path / f"{name}-fine")) == 0, name


def test_run_defaults_to_a_node_budget(tmp_path):
    out = tmp_path / "run"
    assert run_cli("run", "--scenario", "mcmkp", "--agents", "2", "--tasks", "4",
                   "--cycles", "2", "-o", str(out)) == 0
    config = json.loads((out / "config.json").read_text())
    assert (config["budget"], config["workers"]) == ("nodes:20000", 1)


def test_ignored_flags_are_refused(tmp_path, capsys):
    gen = tmp_path / "gen"
    assert run_cli("generate", "--scenario", "mcmkp", "--agents", "3",
                   "--tasks", "6", "--seed", "1", "-o", str(gen)) == 0
    stem = gen / "mcmkp-3x6-uncorrelated-seed1"
    files = ["--instance", f"{stem}.instance.json",
             "--trace", f"{stem}.trace.jsonl"]
    assert run_cli("run", *files, "--strategies", "foa", "--budget",
                   "nodes:10", "-o", str(tmp_path / "done")) == 0
    config = ["--config", str(tmp_path / "done" / "config.json")]
    cases = [  # (argv, the flag named)
        ([*files, "--cycles", "2"], "--cycles"),
        ([*files, "--agents", "3"], "--agents"),
        ([*files, "--scenario", "mcmkp"], "--scenario"),
        ([*files, "--capacity-minutes", "0"], "--capacity-minutes"),
        ([*config, "--budget", "nodes:7", "--strategies", "pc"],
         "--strategies"),
        ([*config, "--budget", "nodes:7"], "--budget"),
        ([*config, "--workers", "2"], "--workers"),
        ([*config, "--seeds", "4"], "--seeds"),
        ([*config, "--static-priorities"], "--static-priorities"),
        ([*config, *files], "--instance"),
        ([*config, "--cycles", "0"], "--cycles"),
    ]
    capsys.readouterr()
    for argv, flag in cases:
        out = tmp_path / "run"
        assert run_cli("run", *argv, "-o", str(out)) == 2, argv
        assert capsys.readouterr().err.startswith(f"error: {flag} "), argv
        assert not out.exists(), argv


@pytest.mark.parametrize("flag", ["--agent-unavail-fraction",
                                  "--task-unavail-fraction"])
def test_tcsa_unavailability_of_one_is_refused(tmp_path, capsys, flag):
    # a fraction of 1 has no episode entry probability: left to the jobs,
    # every one would fail
    out = tmp_path / "run"
    assert run_cli("run", "--scenario", "tcsa", "--agents", "3", "--tasks",
                   "6", "--cycles", "2", flag, "1.0", "--strategies", "pc",
                   "--budget", "nodes:10", "-o", str(out)) == 2
    assert "must be in [0, 1), got 1.0" in capsys.readouterr().err
    assert not out.exists()


def test_worker_pool_is_no_larger_than_the_grid(tmp_path, monkeypatch):
    sizes = []

    class RecordingPool:  # runs jobs in-process; never starts a process
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            future = concurrent.futures.Future()
            future.set_result(fn(*args))
            return future

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    base = ["run", "--scenario", "mcmkp", "--agents", "2", "--tasks", "4",
            "--cycles", "2", "--budget", "nodes:100", "--workers", "5000"]
    assert run_cli(*base, "--strategies", "foa", "-o", str(tmp_path / "a")) == 0
    assert sizes == [2]  # foa and fop on one seed
    assert run_cli(*base, "--strategies", "fop", "-o", str(tmp_path / "b")) == 0
    assert sizes == [2]  # one job runs in-process


def fail_strategy(monkeypatch, kind: str) -> None:
    """Make every job of strategy ``kind`` fail when it builds its values;
    a one-worker run calls the patched function in this process."""
    compute_values = engine.compute_values

    def failing(config, *args):
        if config.kind == kind:
            raise ValueError(f"no values for {kind}")
        return compute_values(config, *args)

    monkeypatch.setattr(engine, "compute_values", failing)


def test_run_failure_preserves_partial_results(tmp_path, capsys, monkeypatch):
    fail_strategy(monkeypatch, "wpp")  # wpp's job fails, fop's still runs
    instance = Instance(
        agents=(AgentSpec("A", 5),),
        tasks=(TaskSpec.uniform("T1", profit=3, weight=1, compatible={"A"}),),
        metadata={"generator": "custom", "seed": 1})
    trace_lines = ['{"cycles": 2, "seed": 1}',
                   '{"cycle": 1, "agents": ["A"], "tasks": ["T1"]}',
                   '{"cycle": 2, "agents": ["A"], "tasks": ["T1"]}']
    ipath = tmp_path / "one.instance.json"
    tpath = tmp_path / "one.trace.jsonl"
    fileio.save_instance(str(ipath), instance)
    tpath.write_text("\n".join(trace_lines) + "\n")
    out = tmp_path / "out"
    code = run_cli("run", "--instance", str(ipath), "--trace", str(tpath),
                   "--strategies", "wpp,fop", "--budget", "nodes:100",
                   "-o", str(out))
    assert code == 3
    err = capsys.readouterr().err
    assert f"run failed (scenario {ipath}, seed 1, strategy wpp): " \
        f"no values for wpp\n" in err
    names = os.listdir(out)
    assert any("fop" in n and n.endswith(".report.json") for n in names)
    assert not any("wpp" in n for n in names)
    failures = json.loads((out / "failures.json").read_text())
    assert [(f["scenario"], f["seed"], f["strategy"]) for f in failures] \
        == [(str(ipath), 1, "wpp")]
    for f in failures:
        assert f"(scenario {f['scenario']}, seed 1, strategy {f['strategy']}): " \
            f"{f['error']}\n" in err
    rows = fileio.read_summary(str(out / "summary.csv"))
    assert [(r["strategy"], r["profit_pct_of_fop"]) for r in rows] \
        == [("fop", "100.0")]
    # a run without failures writes none and leaves no stale one behind
    assert run_cli("run", "--scenario", "mcmkp", "--agents", "2", "--tasks",
                   "4", "--cycles", "2", "--seeds", "1", "--strategies", "fop",
                   "--budget", "nodes:100", "-o", str(out)) == 0
    assert not (out / "failures.json").exists()


def test_failed_fop_job_fails_the_rows_of_its_seed(tmp_path, capsys,
                                                   monkeypatch):
    # fop's report for seed 1 cannot be written: that job fails, and so
    # does every row of seed 1, which has no baseline; seed 2 is whole
    write = fileio.atomic_write_text

    def failing_write(path, text):
        if "-fop-seed1." in path:
            raise OSError(f"cannot write {path}")
        write(path, text)

    monkeypatch.setattr(fileio, "atomic_write_text", failing_write)
    out = tmp_path / "out"
    assert run_cli("run", "--scenario", "mcmkp", "--agents", "2", "--tasks",
                   "4", "--cycles", "2", "--seeds", "1,2", "--strategies",
                   "foa", "--budget", "nodes:100", "-o", str(out)) == 3
    failures = json.loads((out / "failures.json").read_text())
    assert [(f["scenario"], f["seed"], f["strategy"]) for f in failures] \
        == [("mcmkp", 1, "fop"), ("mcmkp", 1, "foa")]
    assert failures[0]["error"].startswith("cannot write ")
    assert "no fop report for this seed" in failures[1]["error"]
    err = capsys.readouterr().err
    for f in failures:
        assert f"run failed (scenario mcmkp, seed {f['seed']}, strategy " \
            f"{f['strategy']}): {f['error']}\n" in err
    rows = fileio.read_summary(str(out / "summary.csv"))
    assert [(r["seed"], r["strategy"]) for r in rows] \
        == [("2", "foa"), ("2", "fop")]
    names = os.listdir(out)
    assert not any("-fop-seed1." in n for n in names)
    assert "mcmkp-2x4-uncorrelated-foa-seed1.report.json" in names


def test_failures_name_a_strategy_by_its_spec(tmp_path, capsys,
                                              monkeypatch):
    # seed 1 loses its fop report, so its os:10 row fails for want of a
    # baseline; seed 2's os:10 job fails itself: both are named os:10, as
    # --strategies and config.json spell it
    write = fileio.atomic_write_text

    def failing_write(path, text):
        if "-fop-seed1." in path or "-os-10-seed2." in path:
            raise OSError(f"cannot write {path}")
        write(path, text)

    monkeypatch.setattr(fileio, "atomic_write_text", failing_write)
    out = tmp_path / "out"
    assert run_cli("run", "--scenario", "mcmkp", "--agents", "2", "--tasks",
                   "4", "--cycles", "2", "--seeds", "1,2", "--strategies",
                   "os:10", "--budget", "nodes:100", "-o", str(out)) == 3
    failures = json.loads((out / "failures.json").read_text())
    assert [(f["seed"], f["strategy"]) for f in failures] \
        == [(1, "fop"), (2, "os:10"), (1, "os:10")]
    assert "no fop report for this seed" in failures[2]["error"]
    err = capsys.readouterr().err
    assert "os/10" not in err
    for f in failures:
        assert f"seed {f['seed']}, strategy {f['strategy']}): " in err


def test_baseline_that_earns_nothing_reads_100_percent(tmp_path):
    # at 0.05 availability one seed-1 cycle has no usable pair at all
    out = tmp_path / "out"
    assert run_cli("run", "--scenario", "mcmkp", "--agents", "6", "--tasks",
                   "3", "--cycles", "1", "--agent-availability", "0.05",
                   "--task-availability", "0.05", "--seeds", "1",
                   "--strategies", "foa,wpp,pc", "--budget", "nodes:50",
                   "-o", str(out)) == 0
    rows = fileio.read_summary(str(out / "summary.csv"))
    assert [r["strategy"] for r in rows] == ["foa", "pc", "wpp", "fop"]
    assert all(r["total_profit"] == "0" and r["profit_pct_of_fop"] == "100.0"
               for r in rows)
    assert not (out / "failures.json").exists()


def test_wpp_runs_on_a_cycle_without_positive_profit(tmp_path):
    # cycle 1 offers only the two tasks of profit 0
    instance = Instance(
        agents=(AgentSpec("A", 2), AgentSpec("B", 2)),
        tasks=(TaskSpec.uniform("T1", profit=0, weight=1, compatible={"A", "B"}),
               TaskSpec.uniform("T2", profit=0, weight=1, compatible={"A"}),
               TaskSpec.uniform("T3", profit=5, weight=1, compatible={"A", "B"})),
        metadata={"generator": "custom", "seed": 1})
    trace = ScenarioTrace(
        cycles=2, available_agents=[{"A", "B"}] * 2,
        available_tasks=[{"T1", "T2"}, {"T1", "T2", "T3"}], seed=1)
    fileio.save_instance(str(tmp_path / "x.instance.json"), instance)
    fileio.save_trace(str(tmp_path / "x.trace.jsonl"), trace)
    out = tmp_path / "out"
    assert run_cli("run", "--instance", str(tmp_path / "x.instance.json"),
                   "--trace", str(tmp_path / "x.trace.jsonl"),
                   "--strategies", "wpp", "--budget", "nodes:100",
                   "-o", str(out)) == 0
    rows = fileio.read_summary(str(out / "summary.csv"))
    assert [(r["strategy"], r["total_profit"]) for r in rows] \
        == [("wpp", "5"), ("fop", "5")]


def test_a_cycle_with_nothing_assigned_writes_a_float_objective(tmp_path):
    out = tmp_path / "out"
    assert run_cli("run", "--scenario", "mcmkp", "--agents", "3", "--tasks",
                   "5", "--cycles", "30", "--agent-availability", "0.05",
                   "--task-availability", "0.05", "--strategies",
                   "foa,pc,wpp", "-o", str(out)) == 0
    lines = [json.loads(line) for path in sorted(out.glob("*.cycles.jsonl"))
             for line in path.read_text().splitlines()]
    assert any(line["assigned_count"] == 0 for line in lines)
    assert all(type(line["objective"]) is float for line in lines)


@pytest.mark.parametrize("command", ["run", "generate", "report"])
@pytest.mark.parametrize("target", ["afile", "afile/sub"])
def test_output_dir_that_names_a_file_is_refused(tmp_path, capsys, command,
                                                  target):
    (tmp_path / "afile").write_text("kept\n")
    summary = tmp_path / "summary.csv"
    summary.write_text(fileio.summary_csv([{
        "scenario": "x", "strategy": "fop", "seed": 1, "total_profit": 10,
        "profit_pct_of_fop": 100.0, "full_rotations": 1,
        "avg_rotations_per_task": 1.5, "cycles": 4,
        "budget_mode": "node_limit"}]))
    mcmkp = ["--scenario", "mcmkp", "--agents", "2", "--tasks", "4",
             "--cycles", "2"]
    argv = {"run": ["run", *mcmkp, "--strategies", "foa", "--budget",
                    "nodes:10"],
            "generate": ["generate", *mcmkp, "--seed", "1"],
            "report": ["report", "--summary", str(summary)]}[command]
    before = dir_digest(tmp_path)
    capsys.readouterr()
    assert run_cli(*argv, "-o", str(tmp_path / target)) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert dir_digest(tmp_path) == before
    assert sorted(os.listdir(tmp_path)) == ["afile", "summary.csv"]


def test_report_tables(tmp_path):
    out = tmp_path / "run"
    assert run_cli("run", "--scenario", "mcmkp", "--agents", "5", "--tasks", "10",
                   "--cycles", "8", "--seeds", "1,2", "--strategies", "foa",
                   "--budget", "nodes:1500", "-o", str(out)) == 0
    tables = tmp_path / "tables"
    assert run_cli("report", "--summary", str(out / "summary.csv"),
                   "-o", str(tables)) == 0
    profit = (tables / "profit_table.csv").read_text().splitlines()
    assert profit[0] == "strategy,mcmkp-5x10-uncorrelated"
    assert profit[-1] == "fop,100.0"
    rotation = (tables / "rotation_table.csv").read_text().splitlines()
    assert rotation[1].startswith("foa,")
    long_rows = (tables / "long.csv").read_text().splitlines()
    assert long_rows[0] == "scenario,strategy,seed,metric,value"
    # per-seed rows are retained: 2 strategies x 2 seeds x 4 metrics
    assert len(long_rows) == 1 + 16


def test_report_tables_quote_scenario_labels(tmp_path):
    # a files scenario's label comes from its generator metadata, which
    # may hold commas and quotes
    instance = Instance(
        agents=(AgentSpec("A", 2), AgentSpec("B", 2)),
        tasks=(TaskSpec.uniform("T1", profit=3, weight=1, compatible={"A", "B"}),
               TaskSpec.uniform("T2", profit=5, weight=2, compatible={"B"})),
        metadata={"generator": 'lab, "v2"', "seed": 1})
    trace = ScenarioTrace(cycles=3, available_agents=(frozenset("AB"),) * 3,
                          available_tasks=(frozenset({"T1", "T2"}),) * 3, seed=1)
    fileio.save_instance(str(tmp_path / "x.instance.json"), instance)
    fileio.save_trace(str(tmp_path / "x.trace.jsonl"), trace)
    out = tmp_path / "run"
    assert run_cli("run", "--instance", str(tmp_path / "x.instance.json"),
                   "--trace", str(tmp_path / "x.trace.jsonl"),
                   "--strategies", "foa,os:2", "--budget", "nodes:100",
                   "-o", str(out)) == 0
    tables = tmp_path / "tables"
    assert run_cli("report", "--summary", str(out / "summary.csv"),
                   "-o", str(tables)) == 0

    def read(name):
        with open(tables / name, encoding="utf-8", newline="") as fh:
            return list(csv.reader(fh))

    label = 'lab, "v2"-2x2'
    for name in ("rotation_table.csv", "profit_table.csv"):
        table = read(name)
        assert table[0] == ["strategy", label]
        assert [row[0] for row in table[1:]] == ["foa", "os/2", "fop"]
        assert all(len(row) == 2 for row in table)
    assert read("profit_table.csv")[-1] == ["fop", "100.0"]
    long_rows = read("long.csv")
    assert len(long_rows) == 1 + 3 * 4
    assert all(len(row) == 5 and row[0] == label for row in long_rows[1:])


def test_report_requires_fop_baseline(tmp_path):
    rows = [{
        "scenario": "x", "strategy": "foa", "seed": 1, "total_profit": 10,
        "profit_pct_of_fop": "90.0", "full_rotations": 1,
        "avg_rotations_per_task": "1.5", "cycles": 4, "budget_mode": "node_limit",
    }]
    path = tmp_path / "summary.csv"
    path.write_text(fileio.summary_csv(rows))
    assert run_cli("report", "--summary", str(path), "-o", str(tmp_path / "t")) == 4


@pytest.mark.parametrize("column,value,kind", [
    ("profit_pct_of_fop", "abc", "a finite number"),
    ("avg_rotations_per_task", "", "a finite number"),
    ("profit_pct_of_fop", "nan", "a finite number"),
    ("avg_rotations_per_task", "-inf", "a finite number"),
    ("seed", "1.5", "an integer"),
    ("total_profit", "ten", "an integer"),
    ("full_rotations", "2.0", "an integer"),
    ("cycles", "4x", "an integer"),
])
def test_report_refuses_non_numeric_cells(tmp_path, capsys, column, value,
                                          kind):
    rows = [{
        "scenario": "x", "strategy": strategy, "seed": 1, "total_profit": 10,
        "profit_pct_of_fop": "90.0", "full_rotations": 1,
        "avg_rotations_per_task": "1.5", "cycles": 4, "budget_mode": "node_limit",
    } for strategy in ("foa", "fop")]
    rows[1][column] = value
    path = tmp_path / "summary.csv"
    path.write_text(fileio.summary_csv(rows))
    capsys.readouterr()
    assert run_cli("report", "--summary", str(path), "-o", str(tmp_path / "t")) == 4
    assert capsys.readouterr().err == (
        f"error: {path}: line 3: {column!r} is not {kind}: {value!r}\n")
    assert not (tmp_path / "t").exists()


def test_report_refuses_a_short_row(tmp_path, capsys):
    path = tmp_path / "summary.csv"
    path.write_text(",".join(fileio.SUMMARY_COLUMNS) + "\nx,fop,1,10\n")
    capsys.readouterr()
    assert run_cli("report", "--summary", str(path), "-o", str(tmp_path / "t")) == 4
    assert capsys.readouterr().err == (
        f"error: {path}: line 2: 'profit_pct_of_fop' is not a finite number: "
        f"None\n")
    # a text column must be there too
    path.write_text(",".join(fileio.SUMMARY_COLUMNS)
                    + "\nx,fop,1,10,100.0,1,1.5,4\n")
    assert run_cli("report", "--summary", str(path), "-o", str(tmp_path / "t")) == 4
    assert capsys.readouterr().err == (
        f"error: {path}: line 2: 'budget_mode' is not a string: None\n")
    assert not (tmp_path / "t").exists()


def test_report_rejects_schema_mismatch(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b\n1,2\n")
    assert run_cli("report", "--summary", str(path), "-o", str(tmp_path / "t")) == 4


def run_content(root) -> dict:
    """A run directory's results: each file's digest, and each report
    without the embedded config, which records ``workers`` and
    ``output_dir``."""
    out = {}
    for name in sorted(os.listdir(root)):
        if name == "config.json":
            continue
        path = os.path.join(root, name)
        if name.endswith(".report.json"):
            with open(path, encoding="utf-8") as fh:
                doc = json.load(fh)
            doc.pop("config")
            out[name] = doc
        else:
            out[name] = fileio.sha256_file(path)
    return out


def test_run_with_worker_pool_matches_serial(tmp_path):
    serial = tmp_path / "serial"
    pooled = tmp_path / "pooled"
    base = ["run", "--scenario", "mcmkp", "--agents", "4", "--tasks", "8",
            "--cycles", "5", "--seeds", "1,2", "--strategies", "foa",
            "--budget", "nodes:800"]
    assert run_cli(*base, "-o", str(serial)) == 0
    assert run_cli(*base, "--workers", "2", "-o", str(pooled)) == 0
    assert run_content(serial) == run_content(pooled)


def test_one_worker_answers_a_recurring_problem_once_across_jobs(tmp_path):
    """``fop``, and ``os`` while gamma exceeds max AP, pose their problems
    on the instance's own profit matrix, so in one process a job reuses
    the answer an earlier job found for the same cycle's mask; the files
    equal those of jobs in separate worker processes, which share
    nothing."""
    base = ["run", "--scenario", "mcmkp", "--agents", "6", "--tasks", "16",
            "--cycles", "8", "--agent-availability", "0.75",
            "--task-availability", "0.75", "--strategies", "os:10,os:40",
            "--budget", "nodes:300", "--seeds", "3"]
    solves, searches = [], []
    solve, work = engine.solve, solver._Work

    def counted(counts, fn):
        def spied(*args):
            counts.append(None)
            return fn(*args)
        return spied

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine, "solve", counted(solves, solve))
        patch.setattr(solver, "_Work", counted(searches, work))
        assert run_cli(*base, "-o", str(tmp_path / "serial")) == 0
    assert len(solves) == 3 * 8
    assert 8 <= len(searches) < len(solves)
    assert run_cli(*base, "--workers", "2", "-o", str(tmp_path / "pooled")) == 0
    assert run_content(tmp_path / "serial") == run_content(tmp_path / "pooled")


TCSA_RUN = ["run", "--scenario", "tcsa", "--agents", "6", "--tasks", "20",
            "--cycles", "8", "--strategies", "pc", "--budget", "nodes:500"]


def count_seeds(monkeypatch, name, fail_seed=None):
    """Replace ``scenarios.<name>`` (whose last argument is a TcsaParams)
    with a wrapper that counts calls per seed and fails on ``fail_seed``.
    Only this process counts, so a call from a worker process fails."""
    calls = Counter()
    real = getattr(scenarios, name)
    parent = os.getpid()

    def counted(*args):
        assert os.getpid() == parent, f"{name} called in a worker process"
        seed = args[-1].seed
        calls[seed] += 1
        if seed == fail_seed:
            raise GenerationError(f"no scenario for seed {seed}")
        return real(*args)

    monkeypatch.setattr(scenarios, name, counted)
    return calls


def test_static_priorities_keep_the_instance_profits(tmp_path):
    out = tmp_path / "static"
    assert run_cli(*TCSA_RUN, "--seeds", "3", "--static-priorities",
                   "-o", str(out)) == 0
    params = scenarios.TcsaParams(agents=6, tasks=20, cycles=8, seed=3)
    instance = scenarios.generate_tcsa(params)
    trace = scenarios.generate_trace_episodic(instance, params)
    for spec in ("pc", "fop"):
        stem = f"tcsa-6x20-{spec}-seed3"
        report = json.loads((out / f"{stem}.report.json").read_text())
        assert report["provenance"]["priorities"] == "static"
        written = [json.loads(line)["profit"] for line in
                   (out / f"{stem}.cycles.jsonl").read_text().splitlines()]
        expected = run_scenario(instance, trace, StrategyConfig.parse(spec),
                                SolverBudget.parse("nodes:500"))
        assert written == [c.profit for c in expected.per_cycle]


def test_run_builds_each_seeds_scenario_once(tmp_path, monkeypatch):
    instances = count_seeds(monkeypatch, "generate_tcsa")
    traces = count_seeds(monkeypatch, "generate_trace_episodic")
    out = tmp_path / "both"
    assert run_cli(*TCSA_RUN, "--seeds", "1,2", "-o", str(out)) == 0
    assert instances == traces == {1: 1, 2: 1}  # pc and fop share a scenario
    # seed 2's jobs, run after seed 1's, match a run of seed 2 alone
    alone = tmp_path / "alone"
    assert run_cli(*TCSA_RUN, "--seeds", "2", "-o", str(alone)) == 0
    for name in os.listdir(alone):
        if name.endswith(".cycles.jsonl"):
            assert fileio.sha256_file(str(out / name)) \
                == fileio.sha256_file(str(alone / name))
    seed2 = [r for r in fileio.read_summary(str(out / "summary.csv"))
             if r["seed"] == "2"]
    assert seed2 == fileio.read_summary(str(alone / "summary.csv"))


def test_pooled_tcsa_run_writes_the_serial_bytes(tmp_path, monkeypatch):
    # each pool job unpickles its seed's scenario, priority hook included
    instances = count_seeds(monkeypatch, "generate_tcsa")
    traces = count_seeds(monkeypatch, "generate_trace_episodic")
    runs = {}
    for workers, builds in (("1", 1), ("2", 2)):
        out = tmp_path / workers
        assert run_cli(*TCSA_RUN, "--seeds", "1,2", "--workers", workers,
                       "-o", str(out)) == 0
        assert instances == traces == {1: builds, 2: builds}  # once per seed
        runs[workers] = {name: fileio.sha256_file(str(out / name))
                         for name in os.listdir(out)
                         if name == "summary.csv" or name.endswith(".cycles.jsonl")}
    assert len(runs["1"]) == 5  # the summary and pc, fop x seeds 1, 2
    assert runs["2"] == runs["1"]


@pytest.mark.parametrize("workers", ["1", "2"])
def test_failed_scenario_fails_every_job_of_its_seed(tmp_path, monkeypatch,
                                                     workers):
    traces = count_seeds(monkeypatch, "generate_trace_episodic", fail_seed=1)
    out = tmp_path / "out"
    assert run_cli(*TCSA_RUN, "--seeds", "1,2", "--workers", workers,
                   "-o", str(out)) == 3
    assert traces == {1: 1, 2: 1}  # a failed build is attempted once
    failures = json.loads((out / "failures.json").read_text())
    assert [(f["seed"], f["strategy"], f["error"]) for f in failures] == [
        (1, "pc", "no scenario for seed 1"), (1, "fop", "no scenario for seed 1")]
    rows = fileio.read_summary(str(out / "summary.csv"))
    assert sorted((r["seed"], r["strategy"]) for r in rows) \
        == [("2", "fop"), ("2", "pc")]


def test_run_reads_input_files_rewritten_between_runs(tmp_path):
    gen = tmp_path / "gen"
    for seed in ("9", "10"):
        assert run_cli("generate", "--scenario", "mcmkp", "--agents", "4",
                       "--tasks", "8", "--cycles", "6", "--seed", seed,
                       "-o", str(gen)) == 0
    stem = str(gen / "mcmkp-4x8-uncorrelated-seed")
    data = tmp_path / "data"
    data.mkdir()

    def run_on(source, out):
        for suffix in (".instance.json", ".trace.jsonl"):
            shutil.copyfile(source + suffix, str(data / ("x" + suffix)))
        assert run_cli("run", "--instance", str(data / "x.instance.json"),
                       "--trace", str(data / "x.trace.jsonl"), "--seeds", "1",
                       "--strategies", "foa", "--budget", "nodes:1000",
                       "-o", str(tmp_path / out)) == 0
        return fileio.read_summary(str(tmp_path / out / "summary.csv"))

    first = run_on(stem + "9", "first")
    second = run_on(stem + "10", "second")  # same paths and seed, new content
    assert second != first
    assert run_cli("run", "--instance", stem + "10.instance.json",
                   "--trace", stem + "10.trace.jsonl", "--seeds", "1",
                   "--strategies", "foa", "--budget", "nodes:1000",
                   "-o", str(tmp_path / "fresh")) == 0
    assert second == fileio.read_summary(str(tmp_path / "fresh" / "summary.csv"))


def test_repeated_seeds_run_once(tmp_path):
    argv = ["run", "--scenario", "mcmkp", "--agents", "3", "--tasks", "6",
            "--cycles", "4", "--strategies", "pc", "--budget", "nodes:500"]
    once = tmp_path / "once"
    assert run_cli(*argv, "--seeds", "2,1", "-o", str(once)) == 0
    written = {name: fileio.sha256_file(str(once / name))
               for name in os.listdir(once)
               if name == "summary.csv" or name.endswith(".cycles.jsonl")}
    assert len(written) == 5  # the summary and pc, fop x seeds 2, 1
    for name, seeds in [("twice", ["2,1,2"]), ("padded", ["2,01", "1"])]:
        out = tmp_path / name
        assert run_cli(*argv, *(a for s in seeds for a in ("--seeds", s)),
                       "-o", str(out)) == 0, name
        config = json.loads((out / "config.json").read_text())
        assert config["seeds"] == [2, 1], name
        assert len(fileio.read_summary(str(out / "summary.csv"))) == 4, name
        assert {n: fileio.sha256_file(str(out / n)) for n in written} \
            == written, name
        assert sorted(os.listdir(out)) == sorted(os.listdir(once)), name


def test_files_run_reads_each_file_once(tmp_path, monkeypatch):
    gen = tmp_path / "gen"
    assert run_cli("generate", "--scenario", "mcmkp", "--agents", "4",
                   "--tasks", "8", "--cycles", "6", "--seed", "9",
                   "-o", str(gen)) == 0
    calls = Counter()
    for name in ("load_instance", "load_trace"):
        def counted(path, real=getattr(fileio, name), name=name):
            calls[name] += 1
            return real(path)
        monkeypatch.setattr(fileio, name, counted)
    stem = str(gen / "mcmkp-4x8-uncorrelated-seed9")
    out = tmp_path / "run"
    assert run_cli("run", "--instance", stem + ".instance.json",
                   "--trace", stem + ".trace.jsonl", "--seeds", "1,2,3",
                   "--strategies", "foa", "--budget", "nodes:100",
                   "-o", str(out)) == 0
    # read at config time, then handed to every seed
    assert calls == {"load_instance": 1, "load_trace": 1}
    assert len(fileio.read_summary(str(out / "summary.csv"))) == 6


# a value other than its default for every generator parameter a scenario
# config sets
FLAG_VALUES = {
    "mcmkp": {"agents": 2, "tasks": 4, "correlation": "weakly_correlated",
              "agent_availability": 0.9, "task_availability": 0.8},
    "tcsa": {"agents": 3, "tasks": 6, "capacity_minutes": 90,
             "compat_fraction": 0.5, "runtime_range": [2, 9],
             "agent_unavail_fraction": 0.2, "task_unavail_fraction": 0.05,
             "unavail_duration_range": [2, 4]},
}


@pytest.mark.parametrize("name", sorted(FLAG_VALUES))
def test_every_generator_parameter_has_a_flag(tmp_path, name):
    values = FLAG_VALUES[name]
    fields = scenario_fields(GENERATOR_PARAMS[name])
    assert [f.name for f in fields] == list(values)
    argv = []
    for f in fields:
        value = values[f.name]
        if f.default is not dataclasses.MISSING:
            assert value != json.loads(json.dumps(f.default)), f.name
        argv += [f"--{f.name.replace('_', '-')}",
                 *map(str, value if isinstance(value, list) else [value])]
    out = tmp_path / "run"
    assert run_cli("run", "--scenario", name, *argv, "--cycles", "2",
                   "--strategies", "fop", "--budget", "nodes:10",
                   "-o", str(out)) == 0
    config = json.loads((out / "config.json").read_text())
    assert config["scenario"] == {"name": name, **values}


@pytest.mark.parametrize("command", [["generate", "--seed", "1"],
                                     ["run", "--strategies", "fop"]])
def test_unknown_correlation_is_refused(tmp_path, capsys, command):
    out = tmp_path / "out"
    capsys.readouterr()
    assert run_cli(*command, "--scenario", "mcmkp", "--agents", "2",
                   "--tasks", "4", "--correlation", "bogus",
                   "-o", str(out)) == 2
    assert "unknown correlation 'bogus'" in capsys.readouterr().err
    assert not out.exists()


def test_run_refuses_mcmkp_with_one_task(tmp_path, capsys):
    # the lone task outweighs every capacity, so every job would fail
    out = tmp_path / "one"
    assert run_cli("run", "--scenario", "mcmkp", "--agents", "12",
                   "--tasks", "1", "--seeds", "40", "--strategies", "foa",
                   "-o", str(out)) == 2
    assert "three tasks" in capsys.readouterr().err
    assert not out.exists()


def test_tcsa_with_few_agents_gets_a_trace(tmp_path):
    # with four agents every one of the 100 trace draws has a cycle with
    # every agent away, so the last draw is repaired
    out = tmp_path / "run"
    assert run_cli("run", "--scenario", "tcsa", "--agents", "4",
                   "--tasks", "10", "--seeds", "1", "--strategies", "pc",
                   "--budget", "nodes:200", "-o", str(out)) == 0
    rows = fileio.read_summary(str(out / "summary.csv"))
    assert [r["strategy"] for r in rows] == ["pc", "fop"]
    assert {r["cycles"] for r in rows} == {"365"}


@pytest.mark.parametrize("seeds", ["1,x", "x", "1,,2"])
def test_seed_that_is_not_an_integer_is_refused(tmp_path, capsys, seeds):
    out = tmp_path / "run"
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        run_cli("run", "--scenario", "mcmkp", "--agents", "2", "--tasks", "4",
                "--seeds", seeds, "--strategies", "foa", "-o", str(out))
    assert exc.value.code == 2
    item = next(s for s in seeds.split(",") if not s.isdigit())
    assert f"argument --seeds: invalid literal for int() with base 10: " \
        f"{item!r}" in capsys.readouterr().err
    assert not out.exists()


def test_files_run_whose_trace_names_an_unknown_agent_is_refused(
        tmp_path, capsys):
    gen = tmp_path / "gen"
    assert run_cli("generate", "--scenario", "mcmkp", "--agents", "2",
                   "--tasks", "3", "--cycles", "4", "--seed", "1",
                   "-o", str(gen)) == 0
    stem = gen / "mcmkp-2x3-uncorrelated-seed1"
    trace = tmp_path / "unknown.trace.jsonl"
    lines = (gen / f"{stem.name}.trace.jsonl").read_text().splitlines()
    record = json.loads(lines[2])
    record["agents"] = [*record["agents"], "Z99"]
    lines[2] = json.dumps(record)
    trace.write_text("\n".join(lines) + "\n")
    out = tmp_path / "run"
    capsys.readouterr()
    assert run_cli("run", "--instance", f"{stem}.instance.json",
                   "--trace", str(trace), "--strategies", "foa",
                   "--budget", "nodes:10", "-o", str(out)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Z99" in err
    assert not out.exists()


def test_config_without_an_output_directory_is_refused(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(CONFIG))
    capsys.readouterr()
    assert run_cli("run", "--config", str(config)) == 2
    assert capsys.readouterr().err == \
        "error: an output directory is required\n"


def files_naming(tmp_path, generator: str) -> list[str]:
    """The --instance/--trace arguments of a 2x3 mcmkp instance whose
    metadata names ``generator``, so its label is
    ``{generator}-2x3-uncorrelated``."""
    gen = tmp_path / "gen"
    if not gen.exists():
        assert run_cli("generate", "--scenario", "mcmkp", "--agents", "2",
                       "--tasks", "3", "--cycles", "4", "--seed", "1",
                       "-o", str(gen)) == 0
    stem = gen / "mcmkp-2x3-uncorrelated-seed1"
    doc = json.loads((gen / f"{stem.name}.instance.json").read_text())
    doc["metadata"]["generator"] = generator
    path = tmp_path / f"{len(generator)}.instance.json"
    path.write_text(json.dumps(doc))
    return ["--instance", str(path), "--trace", f"{stem}.trace.jsonl"]


def test_files_run_whose_file_names_are_too_long_is_refused(tmp_path,
                                                            capsys):
    # the longest name is a job's per-cycle series (foa and fop alike), as
    # the temporary file it is written to first
    tail = f"-2x3-uncorrelated-foa-seed1.cycles.jsonl.tmp{os.getpid():07d}"
    fits = "g" * (os.pathconf(tmp_path, "PC_NAME_MAX") - len(tail))
    argv = ["--strategies", "foa", "--budget", "nodes:10"]
    out = tmp_path / "fits"
    assert run_cli("run", *files_naming(tmp_path, fits), *argv,
                   "-o", str(out)) == 0
    assert (out / f"{fits}-2x3-uncorrelated-foa-seed1.cycles.jsonl").exists()
    for generator in (fits + "g", "g" * 300):
        out = tmp_path / "long"
        capsys.readouterr()
        assert run_cli("run", *files_naming(tmp_path, generator), *argv,
                       "-o", str(out)) == 2
        assert f"the scenario label '{generator}-2x3-uncorrelated' with " \
            f"seed 1 gives the file name" in capsys.readouterr().err
        assert not out.exists()


def test_seed_too_long_for_a_file_name_is_refused(tmp_path, capsys):
    seed = "1" + "0" * 260
    mcmkp = ["--scenario", "mcmkp", "--agents", "3", "--tasks", "4",
             "--cycles", "2"]
    out = tmp_path / "out"
    capsys.readouterr()
    assert run_cli("run", *mcmkp, "--seeds", seed, "--strategies", "foa",
                   "--budget", "nodes:50", "-o", str(out)) == 2
    assert f"with seed {seed} gives" in capsys.readouterr().err
    assert run_cli("generate", *mcmkp, "--seed", seed, "-o", str(out)) == 2
    assert f"with seed {seed} gives" in capsys.readouterr().err
    assert not out.exists()


def test_rare_bernoulli_availability_still_runs(tmp_path):
    # at 0.0005 every draw of a cycle leaves a side empty, so each cycle's
    # last draw is repaired, as episodic traces are
    out = tmp_path / "run"
    assert run_cli("run", "--scenario", "mcmkp", "--agents", "3",
                   "--tasks", "4", "--agent-availability", "0.0005",
                   "--cycles", "5", "--seeds", "1", "--strategies", "foa",
                   "--budget", "nodes:50", "-o", str(out)) == 0
    rows = fileio.read_summary(str(out / "summary.csv"))
    assert {r["cycles"] for r in rows} == {"5"}


def test_config_with_an_unknown_scenario_is_refused(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({**CONFIG, "scenario": {"name": "xyz"}}))
    out = tmp_path / "run"
    capsys.readouterr()
    assert run_cli("run", "--config", str(config), "-o", str(out)) == 2
    assert capsys.readouterr().err == "error: unknown scenario 'xyz'\n"
    assert not out.exists()


def test_files_tcsa_overflow_check_counts_the_redraw_ceiling(tmp_path):
    # every priority of the file is 1, so pc:200:1 stays finite on them;
    # a tcsa run redraws priorities up to 1000 each cycle, and 1000**200
    # overflows
    gen = tmp_path / "gen"
    assert run_cli("generate", "--scenario", "tcsa", "--agents", "3",
                   "--tasks", "6", "--cycles", "4", "--seed", "2",
                   "-o", str(gen)) == 0
    path = gen / "tcsa-3x6-seed2.instance.json"
    doc = json.loads(path.read_text())
    for task in doc["tasks"]:
        task["profit"] = 1
    path.write_text(json.dumps(doc))
    argv = ["--instance", str(path), "--trace",
            str(gen / "tcsa-3x6-seed2.trace.jsonl"), "--budget", "nodes:10"]
    out = tmp_path / "overflow"
    assert run_cli("run", *argv, "--strategies", "pc:200:1",
                   "-o", str(out)) == 2
    assert not out.exists()
    doc["metadata"]["generator"] = "custom"
    path.write_text(json.dumps(doc))
    assert run_cli("run", *argv, "--strategies", "pc:200:1",
                   "-o", str(out)) == 0


def test_report_leaves_a_cell_blank_without_rows(tmp_path):
    summaries = []
    for agents, strategies in (("2", "foa"), ("3", "pc")):
        out = tmp_path / f"run{agents}"
        assert run_cli("run", "--scenario", "mcmkp", "--agents", agents,
                       "--tasks", "4", "--cycles", "2", "--strategies",
                       strategies, "--budget", "nodes:50", "-o", str(out)) == 0
        summaries.append(str(out / "summary.csv"))
    tables = tmp_path / "tables"
    assert run_cli("report", "--summary", *summaries, "-o", str(tables)) == 0
    for name in ("rotation_table.csv", "profit_table.csv"):
        with open(tables / name, encoding="utf-8", newline="") as fh:
            table = list(csv.reader(fh))
        assert table[0] == ["strategy", "mcmkp-2x4-uncorrelated",
                            "mcmkp-3x4-uncorrelated"]
        cells = {row[0]: row[1:] for row in table[1:]}
        assert list(cells) == ["foa", "pc", "fop"]
        assert cells["foa"][1] == "" and cells["pc"][0] == ""
        assert "" not in cells["foa"][:1] + cells["pc"][1:] + cells["fop"]


def test_verbose_run_logs_one_line_per_cycle(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))
    done = subprocess.run(
        [sys.executable, "-m", "rotagap.cli", "run", "--scenario", "mcmkp",
         "--agents", "2", "--tasks", "4", "--cycles", "3", "--strategies",
         "foa", "--budget", "nodes:50", "--verbose",
         "-o", str(tmp_path / "run")],
        env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    lines = [line for line in done.stderr.splitlines()
             if line.startswith("rotagap.engine: cycle ")]
    # two jobs (foa and the fop baseline) of three cycles each
    assert [line.split()[2:4] for line in lines] == [
        [str(k), f"strategy={label}"] for label in ("foa", "fop")
        for k in (1, 2, 3)]
