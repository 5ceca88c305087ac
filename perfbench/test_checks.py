"""Tests of the benchmark's own upper bound and output check.

Run from the repository root: ``python3 -m pytest -q perfbench``.
"""

import pathlib
import random
import sys

import numpy as np
import pytest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from checks import InstanceView, check_cycle, lagrangian_bound  # noqa: E402
from rotagap.domain import AgentSpec, Instance, TaskSpec  # noqa: E402
from rotagap.solver import (Assignment, GapProblem,  # noqa: E402
                            brute_force_oracle)


def random_problem(rng: random.Random, max_agents: int, max_tasks: int,
                   integral: bool) -> GapProblem:
    m = rng.randint(1, max_agents)
    n = rng.randint(1, max_tasks)
    caps = np.array([rng.randint(0, 30) for _ in range(m)], dtype=np.int64)
    weights = np.array([[rng.randint(1, 12) for _ in range(n)]
                        for _ in range(m)], dtype=np.int64)
    draw = (lambda: float(rng.randint(0, 50))) if integral \
        else (lambda: rng.uniform(0.0, 50.0))
    values = np.array([[draw() for _ in range(n)] for _ in range(m)])
    feasible = np.array([[rng.random() < 0.8 for _ in range(n)]
                         for _ in range(m)])
    return GapProblem(
        agent_ids=tuple(f"a{i:02d}" for i in range(m)),
        task_ids=tuple(f"t{j:02d}" for j in range(n)),
        agent_capacities=caps, weights=weights, values=values,
        feasible_pairs=feasible)


def bound_of(problem: GapProblem) -> float:
    return lagrangian_bound(problem.values, problem.weights,
                            problem.agent_capacities, problem.feasible_pairs)


@pytest.mark.parametrize("seed", range(60))
def test_bound_is_at_least_the_brute_force_optimum(seed):
    rng = random.Random(seed)
    problem = random_problem(rng, max_agents=3, max_tasks=8,
                             integral=seed % 2 == 0)
    optimum = brute_force_oracle(problem).objective
    assert bound_of(problem) >= optimum - 1e-9


def lp_relaxation(problem: GapProblem) -> float:
    optimize = pytest.importorskip("scipy.optimize")
    m, n = problem.values.shape
    usable = problem.feasible_pairs \
        & (problem.weights <= problem.agent_capacities[:, None])
    pairs = np.argwhere(usable)
    if len(pairs) == 0:
        return 0.0
    cost = -problem.values[pairs[:, 0], pairs[:, 1]]
    capacity_rows = np.zeros((m, len(pairs)))
    capacity_rows[pairs[:, 0], np.arange(len(pairs))] = \
        problem.weights[pairs[:, 0], pairs[:, 1]]
    task_rows = np.zeros((n, len(pairs)))
    task_rows[pairs[:, 1], np.arange(len(pairs))] = 1.0
    result = optimize.linprog(
        cost, A_ub=np.vstack([capacity_rows, task_rows]),
        b_ub=np.concatenate([problem.agent_capacities, np.ones(n)]),
        bounds=(0.0, 1.0), method="highs")
    assert result.status == 0
    return -result.fun


@pytest.mark.parametrize("seed", range(40))
def test_bound_is_at_least_the_lp_relaxation(seed):
    rng = random.Random(1000 + seed)
    problem = random_problem(rng, max_agents=6, max_tasks=30,
                             integral=seed % 2 == 0)
    assert bound_of(problem) >= lp_relaxation(problem) - 1e-6


def test_bound_is_zero_without_feasible_pairs():
    problem = random_problem(random.Random(5), 3, 5, integral=True)
    none = np.zeros_like(problem.feasible_pairs)
    assert lagrangian_bound(problem.values, problem.weights,
                            problem.agent_capacities, none) == 0.0


def small_instance() -> Instance:
    return Instance(
        agents=(AgentSpec("A", 2), AgentSpec("B", 1)),
        tasks=(TaskSpec.uniform("T1", profit=5, weight=1, compatible={"A", "B"}),
               TaskSpec.uniform("T2", profit=7, weight=1, compatible={"A"}),
               TaskSpec.uniform("T3", profit=3, weight=1, compatible={"B"})))


def small_problem(view: InstanceView, entry) -> GapProblem:
    values = np.array([[5.0, 7.0, 0.0], [5.0, 0.0, 3.0]])
    return GapProblem(agent_ids=view.agent_ids, task_ids=view.task_ids,
                      agent_capacities=[2, 1], weights=view.weights.astype(int),
                      values=values, feasible_pairs=view.feasible(entry))


def answer(pairs, objective) -> Assignment:
    return Assignment(pairs=frozenset(pairs), objective=objective,
                      proven_optimal=False, nodes_explored=0,
                      budget_exhausted=False)


def test_check_cycle_accepts_a_valid_answer_and_returns_its_profit():
    view = InstanceView(small_instance())
    entry = (frozenset({"A", "B"}), frozenset({"T1", "T2", "T3"}))
    problem = small_problem(view, entry)
    errors, profit = check_cycle(view, entry, {"T3": 9}, problem,
                                 answer({("A", "T1"), ("A", "T2"), ("B", "T3")}, 15.0),
                                 bound=15.0)
    assert errors == []
    assert profit == 5 + 7 + 9


@pytest.mark.parametrize("pairs, objective, bound, expected", [
    ({("B", "T2")}, 0.0, 20.0, "incompatible"),
    ({("A", "T1"), ("B", "T1")}, 10.0, 20.0, "assigned twice"),
    ({("B", "T1"), ("B", "T3")}, 8.0, 20.0, "over capacity"),
    ({("A", "T2")}, 6.0, 20.0, "recomputed"),
    ({("A", "T2")}, 7.0, 6.5, "upper bound"),
    ({("B", "T3")}, 3.0, 20.0, "unavailable"),
])
def test_check_cycle_reports_each_violation(pairs, objective, bound, expected):
    view = InstanceView(small_instance())
    entry = (frozenset({"A", "B"}), frozenset({"T1", "T2"}))
    problem = small_problem(view, entry)
    errors, _ = check_cycle(view, entry, None, problem,
                            answer(pairs, objective), bound)
    assert any(expected in e for e in errors), errors
