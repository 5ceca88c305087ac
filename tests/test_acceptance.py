"""Acceptance suite: seven end-to-end criteria, one test each, every
tolerance pinned in the assertions.  Each criterion prints a PASS/FAIL line
(run with ``pytest tests/test_acceptance.py -v -s`` to see them live).

The two desk-scale experiments (criteria 4 and 5) run through the real CLI
into temp directories and read back the summary CSVs, so they exercise the
whole pipeline: generators, traces, strategies, solver, engine, reporting.
"""

import math
import os
import random
import time
from contextlib import contextmanager

import pytest

from rotagap import fileio
from rotagap.cli import main as cli_main
from rotagap.scenarios import (McmkpParams, TcsaParams, generate_mcmkp,
                               generate_tcsa, generate_trace_episodic)
from rotagap.solver import (SolverBudget, branch_and_bound,
                            brute_force_oracle, greedy_construct,
                            local_search_improve)

from conftest import empty_assignment, random_gap_problem
from test_affinity import (check_perfect_rotation, check_walkthrough_cycle,
                           random_compat_instance, replay_walkthrough)
from test_scenarios import episodes, total_weight


@contextmanager
def criterion(num: int, name: str):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num} ({name}): FAIL "
              f"[{time.monotonic() - start:.1f}s]", flush=True)
        raise
    print(f"ACCEPTANCE {num} ({name}): PASS "
          f"[{time.monotonic() - start:.1f}s]", flush=True)


def summary_by_strategy(path: str) -> dict[tuple[str, int], dict]:
    rows = {}
    for row in fileio.read_summary(path):
        rows[(row["strategy"], int(row["seed"]))] = {
            "profit_pct": float(row["profit_pct_of_fop"]),
            "full": int(row["full_rotations"]),
            "avg": float(row["avg_rotations_per_task"]),
        }
    return rows


def test_criterion_1_golden_walkthrough():
    """Replaying the documented assignment sequence reproduces all four
    affinity tables and every pressure value exactly (the -1/3 entry rounds
    to -0.3 at one decimal)."""
    with criterion(1, "golden affinity walkthrough"):
        start = time.monotonic()
        seen = 0
        for k, state, expected in replay_walkthrough():
            check_walkthrough_cycle(state, expected)
            seen += 1
            if k == 2:
                mats = state.mats
                t2 = [state.affinities[mats.agent_index[a], mats.task_index["T2"]]
                      for a in "ABC"]
                ap = sum(t2) / 3 - 2.0
                assert math.isclose(ap, -1.0 / 3.0, abs_tol=1e-12)
                assert round(ap, 1) == -0.3
        assert seen == 4
        assert time.monotonic() - start < 1.0


def test_criterion_2_perfect_rotation_property():
    """On constant-availability instances, always assigning a max-affinity
    agent drives every task's pressure to exactly 0 after |C| cycles and
    keeps it there (50 random instances, n <= 10, m <= 5)."""
    with criterion(2, "perfect rotation reaches zero pressure"):
        start = time.monotonic()
        for seed in range(50):
            instance = random_compat_instance(random.Random(seed),
                                              max_agents=5, max_tasks=10)
            check_perfect_rotation(instance, cycles=13)
        assert time.monotonic() - start < 5.0


def test_criterion_3_oracle_equivalence_and_heuristic_quality():
    """On 200 random problems (m <= 3, n <= 10) branch-and-bound matches the
    exhaustive oracle exactly, and greedy + local search averages >= 95% of
    optimal."""
    with criterion(3, "solver oracle equivalence"):
        start = time.monotonic()
        ample = SolverBudget.nodes(2_000_000)
        ratios = []
        for seed in range(200):
            problem = random_gap_problem(random.Random(seed))
            oracle = brute_force_oracle(problem)
            exact = branch_and_bound(problem, empty_assignment(), ample)
            assert exact.proven_optimal
            assert exact.objective == oracle.objective
            heuristic = local_search_improve(problem, greedy_construct(problem),
                                             ample)
            if oracle.objective == 0.0:
                ratios.append(1.0)
            else:
                ratios.append(heuristic.objective / oracle.objective)
        average = sum(ratios) / len(ratios)
        assert average >= 0.95, f"heuristic average ratio {average:.4f}"
        assert time.monotonic() - start < 60.0


@pytest.fixture(scope="module")
def mcmkp_grid(tmp_path_factory):
    """Desk-scale strategy grid: 12 agents / 48 tasks, 144 cycles, full
    availability, node-limited budget, seeds 1-3, run through the CLI."""
    out = tmp_path_factory.mktemp("mcmkp-grid")
    start = time.monotonic()
    code = cli_main([
        "run", "--scenario", "mcmkp", "--agents", "12", "--tasks", "48",
        "--seeds", "1,2,3", "--strategies", "foa,os:10,os:20,os:30,os:40",
        "--budget", "nodes:20000", "--workers", "2", "-o", str(out)])
    assert code == 0
    return summary_by_strategy(str(out / "summary.csv")), time.monotonic() - start


def test_criterion_4_mcmkp_strategy_tradeoffs(mcmkp_grid):
    """Desk-scale knapsack reproduction: the profit-only baseline never
    completes a rotation; affinity-only at least doubles its average
    rotations; the switch strategy trades rotation for profit monotonically
    in its threshold (one inversion allowed per seed); the laxest threshold
    keeps >= 85% of baseline profit."""
    with criterion(4, "mcmkp strategy trade-offs"):
        seeds = (1, 2, 3)
        rows, elapsed = mcmkp_grid

        for seed in seeds:
            assert rows[("fop", seed)]["full"] == 0, f"fop rotated (seed {seed})"

        fop_avg = sum(rows[("fop", s)]["avg"] for s in seeds) / len(seeds)
        foa_avg = sum(rows[("foa", s)]["avg"] for s in seeds) / len(seeds)
        assert foa_avg > fop_avg
        assert foa_avg >= 2.0 * fop_avg, (foa_avg, fop_avg)

        gammas = ["os/10", "os/20", "os/30", "os/40"]
        for seed in seeds:
            avgs = [rows[(g, seed)]["avg"] for g in gammas]
            pcts = [rows[(g, seed)]["profit_pct"] for g in gammas]
            avg_inversions = sum(b > a + 1e-9 for a, b in zip(avgs, avgs[1:]))
            pct_inversions = sum(b < a - 1e-9 for a, b in zip(pcts, pcts[1:]))
            assert avg_inversions <= 1, (seed, avgs)
            assert pct_inversions <= 1, (seed, pcts)

        os40_pct = sum(rows[("os/40", s)]["profit_pct"] for s in seeds) / len(seeds)
        assert os40_pct >= 85.0, os40_pct
        assert elapsed < 30 * 60


@pytest.fixture(scope="module")
def tcsa_runs(tmp_path_factory):
    """Desk-scale CI-testing scenario: 20 agents, 750 tasks, 365 cycles,
    episodic availability, per-cycle priorities, one seed."""
    out = tmp_path_factory.mktemp("tcsa")
    start = time.monotonic()
    code = cli_main([
        "run", "--scenario", "tcsa", "--agents", "20", "--tasks", "750",
        "--seeds", "1", "--strategies", "pc", "--budget", "nodes:60000",
        "--workers", "2", "-o", str(out)])
    assert code == 0
    return summary_by_strategy(str(out / "summary.csv")), time.monotonic() - start


def test_criterion_5_tcsa_product_combination(tcsa_runs):
    """The product strategy keeps >= 85% of baseline profit while completing
    strictly more full rotations than the baseline.  Absolute rotation counts
    are solver-dependent; only the ordering and the profit bound are
    asserted."""
    with criterion(5, "tcsa product-combination trade-off"):
        rows, elapsed = tcsa_runs
        pc = rows[("pc", 1)]
        fop = rows[("fop", 1)]
        assert pc["profit_pct"] >= 85.0, pc
        assert pc["full"] > fop["full"], (pc["full"], fop["full"])
        assert elapsed < 60 * 60


def test_criterion_6_generator_identities():
    """Every generated knapsack instance hits the capacity identity exactly;
    weakly correlated profits stay inside the +-99 band; episodic traces have
    only 3-7 cycle outages with long-run rates within +-0.04 of target."""
    with criterion(6, "generator identities"):
        start = time.monotonic()
        for m, n in ((30, 75), (15, 45), (12, 48)):
            for corr in ("uncorrelated", "weakly_correlated"):
                for seed in (1, 2):
                    instance = generate_mcmkp(McmkpParams(
                        agents=m, tasks=n, correlation=corr, seed=seed))
                    caps = sum(a.capacity for a in instance.agents)
                    assert caps == total_weight(instance) // 2
                    if corr == "weakly_correlated":
                        for task in instance.tasks:
                            p = next(iter(task.profits.values()))
                            w = next(iter(task.weights.values()))
                            assert abs(p - w) <= 99

        params = TcsaParams(agents=10, tasks=10, cycles=10_000, seed=1)
        instance = generate_tcsa(params)
        trace = generate_trace_episodic(instance, params)
        unavailable = {"agent": 0, "task": 0}
        for kind, ids, index in (("agent", instance.agent_ids, 0),
                                 ("task", instance.task_ids, 1)):
            for entity in ids:
                series = [entity in trace.entry(k)[index]
                          for k in range(1, trace.cycles + 1)]
                unavailable[kind] += sum(not a for a in series)
                for run in episodes(series):
                    assert 3 <= run <= 7, (kind, entity, run)
        cells = trace.cycles * 10
        agent_rate = unavailable["agent"] / cells
        task_rate = unavailable["task"] / cells
        assert 0.36 <= agent_rate <= 0.44, agent_rate
        assert 0.06 <= task_rate <= 0.14, task_rate
        assert time.monotonic() - start < 30.0


def test_criterion_7_run_determinism(tmp_path):
    """Re-running an identical node-limited configuration into the same
    output directory leaves every report file byte-identical."""
    with criterion(7, "byte-identical reruns"):
        out = tmp_path / "det"
        argv = ["run", "--scenario", "mcmkp", "--agents", "6", "--tasks", "12",
                "--cycles", "18", "--seeds", "1,2",
                "--strategies", "fop,foa,os:10", "--budget", "nodes:3000",
                "-o", str(out)]
        assert cli_main(list(argv)) == 0
        first = {name: fileio.sha256_file(str(out / name))
                 for name in sorted(os.listdir(out))}
        assert any(name.endswith(".report.json") for name in first)
        assert cli_main(list(argv)) == 0
        second = {name: fileio.sha256_file(str(out / name))
                  for name in sorted(os.listdir(out))}
        assert first == second
