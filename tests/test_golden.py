"""Golden outputs: the benchmark's three command lines, run in this process
on the first timing seeds of ``perfbench/run.py --seed 1``, write the
``summary.csv`` files whose sha256 are pinned here.  A change meant to keep
behaviour leaves them as they are; a change that alters results records
the new digests here and says so.  tcsa-pc and mcmkp-grid have kept theirs
since the benchmark was introduced.  mcmkp-foa's changed once, when
perturbed local search took the first half of each solve's budget: its
first local search ends with budget left, where the other two spend it all.
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


def benchmark_runner():
    """``perfbench/run.py`` as a module, for its workloads and seeds."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_run", os.path.join(ROOT, "perfbench", "run.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_golden_digests_cover_every_workload():
    assert sorted(benchmark_runner().WORKLOADS) == sorted(DIGESTS)


@pytest.mark.parametrize("workload", sorted(DIGESTS))
def test_benchmark_command_line_writes_its_golden_summary(tmp_path, workload):
    bench = benchmark_runner()
    seeds = ",".join(map(str, bench.timing_seeds(workload, 1)))
    out = tmp_path / "run"
    assert main(["run", *bench.WORKLOADS[workload], "--seeds", seeds,
                 "--workers", "1", "-o", str(out)]) == 0
    digest = hashlib.sha256((out / "summary.csv").read_bytes()).hexdigest()
    assert digest == DIGESTS[workload]
