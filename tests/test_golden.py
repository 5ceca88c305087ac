"""Golden outputs: the benchmark's three command lines, run in this process
on the first timing seeds of ``perfbench/run.py --seed 1``, write the
``summary.csv`` files and the ``.cycles.jsonl`` files whose sha256 are
pinned here; a run's cycle files are hashed together in name order, so
their digest pins each cycle's ``max_ap``, ``objective`` and
``nodes_explored``, which the summary does not carry.  The ``.report.json``
files are pinned the same way; each run writes to the relative output
directory ``run``, so the ``config.output_dir`` they embed is the same on
every machine.  A change meant to keep behaviour leaves them as they are;
a change that alters results records the new digests here and says so.
tcsa-pc and mcmkp-grid have kept their summaries since the benchmark was
introduced.  mcmkp-foa's changed once, when perturbed local search took
the first half of each solve's budget: its first local search ends with
budget left, where the other two spend it all.

A small tcsa run with ``--static-priorities`` is pinned the same way: with
no per-cycle priorities, ``fop`` and ``os`` in profit mode pose problems on
the instance's own profit matrix, which the solver may answer once per
availability mask across the run's jobs.
"""

import hashlib
import importlib.util
import os

import pytest

from rotagap.cli import main

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

DIGESTS = {
    "mcmkp-foa":
        "78d0e45512c0dbb7ae52ebc7f25a2a0643b2efbbb4bf87482e5b4757d488ea87",
    "tcsa-pc":
        "7de70cbcffa2d8308eadf1853b7a14150991e25c2579f986c9761cdc51f8d5b1",
    "mcmkp-grid":
        "8cb50eefce74fb6c8b8feef08f7432d0c154efa56b7d6db6a251c23f55b8ab9d",
}

CYCLE_DIGESTS = {
    "mcmkp-foa":
        "2d15fa0c173b08db3237254a37032432ac65be487507adeb4be4d0a917f7bfec",
    "tcsa-pc":
        "20343cd84b35fcd7a1a80dc3a956eb869e43e10f555721b7e34bd75d96d19c45",
    "mcmkp-grid":
        "55e8ecf03f3e94d49750fb2ef3cb27e5dd113e6c57561b9b481d8439f386a81b",
}


REPORT_DIGESTS = {
    "mcmkp-foa":
        "61182808d13f40025bf259f850484083eb4a2dde7e7d91651b1868a2b723d747",
    "tcsa-pc":
        "6c8bfde8c929763db91009a3c94a03a1af6e6c559bbf294903d382cb94356a98",
    "mcmkp-grid":
        "73f4b53e10ba443d421fd19aaf5617288460fef6fc4250d0012345164c32b87a",
}


STATIC_TCSA_RUN = [
    "--scenario", "tcsa", "--agents", "6", "--tasks", "300", "--cycles", "12",
    "--strategies", "fop,os:3,pc,wpp", "--budget", "nodes:2000",
    "--static-priorities", "--seeds", "7", "--workers", "1"]

STATIC_TCSA_DIGESTS = {
    "summary.csv":
        "ce74b69402001503bfc83b1d139c24a0c70b202128e23b228de4b2b64a34ac7f",
    "*.cycles.jsonl":
        "80eb76d86c05125311f1fc48444a913a6cadb2034ff1a7921a79c078a22d9001",
    "*.report.json":
        "d251ca53406ad5ac5f9da2ebce88dbb5fb42d2d96a5ea0d5dee2442860de239a",
}


def benchmark_runner():
    """``perfbench/run.py`` as a module, for its workloads and seeds."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_run", os.path.join(ROOT, "perfbench", "run.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def benchmark_run(tmp_path_factory):
    """The output directory of a workload's command line, run once."""
    bench = benchmark_runner()
    outputs = {}

    def run(workload):
        if workload not in outputs:
            seeds = ",".join(map(str, bench.timing_seeds(workload, 1)))
            base = tmp_path_factory.mktemp(workload)
            with pytest.MonkeyPatch.context() as patch:
                patch.chdir(base)
                assert main(["run", *bench.WORKLOADS[workload], "--seeds",
                             seeds, "--workers", "1", "-o", "run"]) == 0
            outputs[workload] = base / "run"
        return outputs[workload]

    return run


def test_golden_digests_cover_every_workload():
    workloads = sorted(benchmark_runner().WORKLOADS)
    assert workloads == sorted(DIGESTS) == sorted(CYCLE_DIGESTS) \
        == sorted(REPORT_DIGESTS)


@pytest.mark.parametrize("workload", sorted(DIGESTS))
def test_benchmark_command_line_writes_its_golden_summary(benchmark_run,
                                                          workload):
    out = benchmark_run(workload)
    digest = hashlib.sha256((out / "summary.csv").read_bytes()).hexdigest()
    assert digest == DIGESTS[workload]


@pytest.mark.parametrize("workload", sorted(CYCLE_DIGESTS))
def test_benchmark_command_line_writes_its_golden_cycle_lines(benchmark_run,
                                                              workload):
    out = benchmark_run(workload)
    digest = hashlib.sha256()
    for path in sorted(out.glob("*.cycles.jsonl")):
        digest.update(path.read_bytes())
    assert digest.hexdigest() == CYCLE_DIGESTS[workload]


@pytest.mark.parametrize("workload", sorted(REPORT_DIGESTS))
def test_benchmark_command_line_writes_its_golden_reports(benchmark_run,
                                                          workload):
    out = benchmark_run(workload)
    digest = hashlib.sha256()
    for path in sorted(out.glob("*.report.json")):
        digest.update(path.read_bytes())
    assert digest.hexdigest() == REPORT_DIGESTS[workload]


def test_static_priority_tcsa_run_writes_its_golden_outputs(tmp_path,
                                                            monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["run", *STATIC_TCSA_RUN, "-o", "run"]) == 0
    for pattern, want in STATIC_TCSA_DIGESTS.items():
        digest = hashlib.sha256()
        for path in sorted((tmp_path / "run").glob(pattern)):
            digest.update(path.read_bytes())
        assert digest.hexdigest() == want, pattern
