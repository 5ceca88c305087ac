"""The benchmark under ``perfbench/`` wraps public names of the package
(``engine.run_cycle``, ``engine.solve``, ``cli.execute_run``, ...) and checks
every cycle it sees.  These runs of its traced probe fail fast when a change
breaks a name or call shape that the benchmark relies on."""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PROBE = os.path.join(ROOT, "perfbench", "probe.py")

RUNS = {
    "mcmkp": ["--scenario", "mcmkp", "--agents", "4", "--tasks", "10",
              "--cycles", "5", "--agent-availability", "0.75",
              "--strategies", "foa,os:10,pc,wpp", "--budget", "nodes:300"],
    # full availability: os:40 and the fop baseline pose the same problem
    # cycle after cycle, so the probe also checks answers the solver reused
    "mcmkp-full": ["--scenario", "mcmkp", "--agents", "4", "--tasks", "10",
                   "--cycles", "5", "--strategies", "os:40",
                   "--budget", "nodes:300"],
    # partial availability: fop and os in profit mode pose the same problem
    # in the same cycle, so later jobs reuse answers across jobs
    "mcmkp-partial": ["--scenario", "mcmkp", "--agents", "4", "--tasks", "10",
                      "--cycles", "5", "--agent-availability", "0.75",
                      "--task-availability", "0.75",
                      "--strategies", "os:10,os:40", "--budget", "nodes:300"],
    "tcsa": ["--scenario", "tcsa", "--agents", "4", "--tasks", "30",
             "--cycles", "5", "--strategies", "pc,os:5", "--budget", "nodes:300"],
}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_traced_probe_runs_clean(tmp_path, name):
    record_path = tmp_path / "p.json"
    subprocess.run([sys.executable, PROBE, "traced", str(record_path), "--",
                    *RUNS[name], "--seeds", "1", "--workers", "1",
                    "-o", str(tmp_path / "run")],
                   cwd=ROOT, check=True, timeout=300)
    record = json.loads(record_path.read_text())
    assert record["exit_code"] == 0
    assert record["jobs"]
    for job in record["jobs"]:
        assert job["errors"] == [], job
