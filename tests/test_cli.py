import concurrent.futures
import json
import os
import shutil
from collections import Counter

import pytest

from rotagap import fileio, scenarios
from rotagap.cli import main, parse_strategies
from rotagap.domain import AgentSpec, Instance, TaskSpec
from rotagap.scenarios import GenerationError


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


def test_run_from_embedded_config_reproduces_reports(tmp_path):
    out = tmp_path / "a"
    assert run_cli("run", "--scenario", "mcmkp", "--agents", "4", "--tasks", "8",
                   "--cycles", "6", "--seeds", "3", "--strategies", "foa",
                   "--budget", "nodes:1000", "-o", str(out)) == 0
    before = dir_digest(str(out))
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


def test_run_config_errors(tmp_path):
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
            ("not-an-object", "mcmkp")]:
        config = tmp_path / f"{name}.json"
        out = tmp_path / f"from-{name}"
        config.write_text(json.dumps({
            "scenario": scenario, "strategies": ["fop"], "budget": "nodes:10",
            "cycles": 2, "seeds": [1], "output_dir": str(out), "workers": 1,
            "static_priorities": False}))
        assert run_cli("run", "--config", str(config)) == 2, name
        assert not out.exists(), name


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
    assert json.loads((out / "config.json").read_text())["budget"] == "nodes:20000"


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


def test_run_failure_preserves_partial_results(tmp_path, capsys):
    # all profits zero: wpp raises its degenerate-input error, fop still runs
    instance = Instance(
        agents=(AgentSpec("A", 5),),
        tasks=(TaskSpec.uniform("T1", profit=0, weight=1, compatible={"A"}),),
        metadata={"generator": "custom", "seed": 1})
    trace_lines = ['{"cycles": 2, "seed": 1}',
                   '{"cycle": 1, "agents": ["A"], "tasks": ["T1"]}',
                   '{"cycle": 2, "agents": ["A"], "tasks": ["T1"]}']
    ipath = tmp_path / "zero.instance.json"
    tpath = tmp_path / "zero.trace.jsonl"
    fileio.save_instance(str(ipath), instance)
    tpath.write_text("\n".join(trace_lines) + "\n")
    out = tmp_path / "out"
    code = run_cli("run", "--instance", str(ipath), "--trace", str(tpath),
                   "--strategies", "wpp,fop", "--budget", "nodes:100",
                   "-o", str(out))
    assert code == 3
    err = capsys.readouterr().err
    assert f"run failed (scenario {ipath}, seed 1, strategy wpp): " in err
    names = os.listdir(out)
    assert any("fop" in n and n.endswith(".report.json") for n in names)
    assert not any("wpp" in n and n.endswith(".report.json") for n in names)
    # fop ran but earned nothing, so no profit percentages either
    failures = json.loads((out / "failures.json").read_text())
    assert [(f["scenario"], f["seed"], f["strategy"]) for f in failures] \
        == [(str(ipath), 1, "wpp"), ("custom-1x1", 1, "fop")]
    for f in failures:
        assert f"(scenario {f['scenario']}, seed 1, strategy {f['strategy']}): " \
            f"{f['error']}\n" in err
    assert "no usable fop baseline" in failures[1]["error"]
    # a run without failures writes none and leaves no stale one behind
    assert run_cli("run", "--scenario", "mcmkp", "--agents", "2", "--tasks",
                   "4", "--cycles", "2", "--seeds", "1", "--strategies", "fop",
                   "--budget", "nodes:100", "-o", str(out)) == 0
    assert not (out / "failures.json").exists()


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


def test_report_requires_fop_baseline(tmp_path):
    rows = [{
        "scenario": "x", "strategy": "foa", "seed": 1, "total_profit": 10,
        "profit_pct_of_fop": "90.0", "full_rotations": 1,
        "avg_rotations_per_task": "1.5", "cycles": 4, "budget_mode": "node_limit",
    }]
    path = tmp_path / "summary.csv"
    path.write_text(fileio.summary_csv(rows))
    assert run_cli("report", "--summary", str(path), "-o", str(tmp_path / "t")) == 4


def test_report_rejects_schema_mismatch(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b\n1,2\n")
    assert run_cli("report", "--summary", str(path), "-o", str(tmp_path / "t")) == 4


def test_run_with_worker_pool_matches_serial(tmp_path):
    serial = tmp_path / "serial"
    pooled = tmp_path / "pooled"
    base = ["run", "--scenario", "mcmkp", "--agents", "4", "--tasks", "8",
            "--cycles", "5", "--seeds", "1,2", "--strategies", "foa",
            "--budget", "nodes:800"]
    assert run_cli(*base, "-o", str(serial)) == 0
    assert run_cli(*base, "--workers", "2", "-o", str(pooled)) == 0

    def content(root):
        # the embedded audit config records workers/output_dir, which differ
        # between the two invocations by construction; results must not
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

    assert content(str(serial)) == content(str(pooled))


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
