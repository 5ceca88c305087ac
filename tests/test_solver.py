import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rotagap.solver import (Assignment, GapProblem, SolverBudget,
                            branch_and_bound, brute_force_oracle,
                            greedy_construct, local_search_improve,
                            root_upper_bound, solve)

from conftest import assert_feasible, random_gap_problem

AMPLE = SolverBudget.nodes(2_000_000)


def small_problem(caps, weights, values, feasible=None):
    m, n = len(weights), len(weights[0])
    return GapProblem(
        agent_ids=tuple(f"a{i:02d}" for i in range(m)),
        task_ids=tuple(f"t{j:02d}" for j in range(n)),
        agent_capacities=np.array(caps, dtype=np.int64),
        weights=np.array(weights, dtype=np.int64),
        values=np.array(values, dtype=np.float64),
        feasible_pairs=np.ones((m, n), dtype=bool) if feasible is None
        else np.array(feasible, dtype=bool),
    )


@pytest.fixture
def two_by_three():
    # 2 agents capacity 5, 3 tasks of weight 4 valued 3/2/1 on both agents;
    # brute force over the feasible maps gives objective 5
    return small_problem([5, 5], [[4, 4, 4]] * 2, [[3, 2, 1]] * 2)


def test_budget_validation():
    with pytest.raises(ValueError):
        SolverBudget(mode="node_limit")
    with pytest.raises(ValueError):
        SolverBudget(mode="wall_clock", wall_clock_seconds=0)
    with pytest.raises(ValueError):
        SolverBudget(mode="both", node_limit=1)
    assert SolverBudget.nodes(0).node_limit == 0
    assert SolverBudget.seconds(60).wall_clock_seconds == 60


def test_parse_budget():
    assert SolverBudget.parse("nodes:500").node_limit == 500
    assert SolverBudget.parse("seconds:1.5").wall_clock_seconds == 1.5
    for bad in ("minutes:2", "nodes:lots", "nodes:-1", "seconds:0",
                "seconds:nan", "seconds:inf"):
        with pytest.raises(ValueError):
            SolverBudget.parse(bad)


BUDGETS = [SolverBudget.nodes(0), SolverBudget.nodes(20000),
           SolverBudget.seconds(60), SolverBudget.seconds(1.5),
           SolverBudget.seconds(0.1234567), SolverBudget.seconds(0.1234568),
           SolverBudget.seconds(1234567.0), SolverBudget.seconds(1e-300)]


@pytest.mark.parametrize("budget", BUDGETS, ids=lambda b: b.spec)
def test_budget_spec_round_trips(budget):
    assert SolverBudget.parse(budget.spec) == budget


def test_budget_specs_are_distinct_and_stable():
    assert len({b.spec for b in BUDGETS}) == len(BUDGETS)
    assert SolverBudget.nodes(20000).spec == "nodes:20000"
    assert SolverBudget.seconds(60.0).spec == "seconds:60"


def test_oracle_on_two_by_three(two_by_three):
    result = brute_force_oracle(two_by_three)
    assert result.objective == 5.0
    assert result.proven_optimal
    assert len(result.pairs) == 2
    assert_feasible(two_by_three, result)


def test_oracle_trivial_cases():
    one = small_problem([3], [[2]], [[9]])
    result = brute_force_oracle(one)
    assert result.pairs == {("a00", "t00")}
    heavy = small_problem([3, 2], [[9], [9]], [[5], [5]])
    result = brute_force_oracle(heavy)
    assert result.pairs == frozenset() and result.objective == 0.0


def test_oracle_size_guard():
    big = small_problem([1] * 3, [[1] * 20] * 3, [[1.0] * 20] * 3)
    with pytest.raises(ValueError, match="too large"):
        brute_force_oracle(big)


def test_greedy_examples():
    # everything fits one agent
    fits = small_problem([10], [[2, 3, 5]], [[1, 1, 1]])
    assert len(greedy_construct(fits).pairs) == 3
    # capacity-1 agent, unit weights, values 9 and 1: the 9 wins
    contested = small_problem([1], [[1, 1]], [[9, 1]])
    assert greedy_construct(contested).pairs == {("a00", "t00")}
    # equal value/weight ratios: higher value goes first
    tie = small_problem([2], [[2, 1]], [[4, 2]])
    assert ("a00", "t00") in greedy_construct(tie).pairs


def test_greedy_is_feasible_and_matches_objective(two_by_three):
    result = greedy_construct(two_by_three)
    assert_feasible(two_by_three, result)
    assert result.objective == 5.0


def test_local_search_zero_budget_returns_start(two_by_three):
    start = greedy_construct(two_by_three)
    result = local_search_improve(two_by_three, start, SolverBudget.nodes(0))
    assert result.pairs == start.pairs
    assert result.budget_exhausted


def test_local_search_from_empty_reaches_optimum(two_by_three):
    result = local_search_improve(two_by_three, Assignment.empty(), AMPLE)
    assert result.objective == 5.0
    assert_feasible(two_by_three, result)


def test_local_search_keeps_optimal_start():
    rng = random.Random(3)
    for _ in range(10):
        problem = random_gap_problem(rng)
        optimal = brute_force_oracle(problem)
        improved = local_search_improve(problem, optimal, AMPLE)
        assert improved.objective == optimal.objective


def test_local_search_uses_insert_shift_swap():
    # swap is required: t0 and t1 sit on the wrong agents for value
    problem = small_problem([2, 2], [[2, 2], [2, 2]], [[1, 8], [8, 1]])
    start_pairs = frozenset({("a00", "t00"), ("a01", "t01")})
    start = Assignment(pairs=start_pairs, objective=2.0, proven_optimal=False,
                       nodes_explored=0, budget_exhausted=False)
    result = local_search_improve(problem, start, AMPLE)
    assert result.pairs == {("a00", "t01"), ("a01", "t00")}
    assert result.objective == 16.0


def test_branch_and_bound_matches_oracle_on_random_instances():
    rng = random.Random(17)
    for _ in range(40):
        problem = random_gap_problem(rng)
        oracle = brute_force_oracle(problem)
        result = branch_and_bound(problem, Assignment.empty(), AMPLE)
        assert result.proven_optimal
        assert result.objective == oracle.objective, problem
        assert_feasible(problem, result)


def test_root_bound_dominates_optimum():
    rng = random.Random(23)
    for _ in range(25):
        problem = random_gap_problem(rng)
        assert root_upper_bound(problem) >= brute_force_oracle(problem).objective


def test_branch_and_bound_budget_exhaustion_is_anytime(two_by_three):
    start = greedy_construct(two_by_three)
    result = branch_and_bound(two_by_three, start, SolverBudget.nodes(2))
    assert not result.proven_optimal
    assert result.budget_exhausted
    assert result.objective >= start.objective


def test_solve_empty_feasible_set_is_proven():
    problem = small_problem([1], [[5, 5]], [[1, 1]])  # nothing fits
    result = solve(problem, SolverBudget.nodes(100))
    assert result.pairs == frozenset()
    assert result.objective == 0.0
    assert result.proven_optimal


def test_solve_matches_oracle_and_dominates_greedy():
    rng = random.Random(29)
    for _ in range(30):
        problem = random_gap_problem(rng)
        oracle = brute_force_oracle(problem)
        result = solve(problem, AMPLE)
        assert result.objective == oracle.objective
        assert result.objective >= greedy_construct(problem).objective
        assert_feasible(problem, result)


def test_solve_is_deterministic_under_node_limits():
    rng = random.Random(31)
    for _ in range(10):
        problem = random_gap_problem(rng)
        budget = SolverBudget.nodes(300)
        first = solve(problem, budget)
        second = solve(problem, budget)
        assert first == second


# solve() on random_gap_problem(Random(seed), 4, 14) under a node budget:
# (seed, nodes, objective, nodes_explored, proven, exhausted, agent:task pairs).
# Recorded from the solver as it stood when these were written; the budgets
# stop branch-and-bound after it improved on local search but before it
# finished, so the pairs fix the order in which it visits nodes.
TRUNCATED_SOLVES = [
    (11, 697, 492.0, 697, False, True,
     "a00:t00 a01:t01 a02:t02 a03:t03 a00:t04 a00:t05 a03:t06 a03:t07 a01:t08 "
     "a01:t09 a03:t10 a03:t11 a02:t12 a01:t13"),
    (11, 1101, 493.0, 1101, False, True,
     "a03:t00 a01:t01 a02:t02 a03:t03 a00:t04 a00:t05 a03:t06 a02:t07 a01:t08 "
     "a01:t09 a03:t10 a03:t11 a02:t12 a00:t13"),
    (11, 1304, 499.0, 1304, True, False,
     "a03:t00 a01:t01 a02:t02 a03:t03 a00:t04 a01:t05 a03:t06 a02:t07 a00:t08 "
     "a01:t09 a03:t10 a03:t11 a02:t12 a00:t13"),
    (60, 21, 168.0, 21, False, True, "a02:t00 a01:t01 a00:t02 a00:t03 a00:t04"),
    (80, 63, 191.0, 63, False, True,
     "a02:t00 a01:t01 a02:t02 a00:t03 a00:t04 a02:t05 a00:t06"),
    (83, 110, 283.0, 110, False, True,
     "a00:t00 a00:t01 a00:t02 a03:t03 a01:t05 a01:t06 a00:t07 a00:t08 a00:t09 "
     "a01:t11 a00:t12"),
    (83, 162, 284.0, 162, False, True,
     "a01:t00 a00:t01 a00:t02 a03:t03 a01:t05 a01:t06 a00:t07 a01:t08 a00:t09 "
     "a00:t12 a00:t13"),
    (83, 267, 293.0, 267, True, False,
     "a00:t00 a00:t01 a00:t03 a01:t05 a01:t06 a00:t07 a00:t08 a00:t09 a01:t11 "
     "a00:t12 a03:t13"),
    (103, 520, 433.0, 520, False, True,
     "a03:t00 a02:t01 a00:t02 a02:t03 a01:t04 a01:t05 a00:t06 a01:t07 a02:t08 "
     "a00:t09 a00:t10 a02:t11"),
    (124, 44, 259.0, 44, False, True,
     "a02:t00 a01:t01 a02:t04 a02:t05 a01:t06 a02:t07 a02:t08"),
    (134, 196, 352.0, 196, False, True,
     "a02:t00 a03:t01 a03:t02 a02:t03 a03:t04 a01:t05 a03:t06 a03:t07 a03:t08"),
    (136, 156, 278.0, 156, False, True,
     "a01:t00 a03:t01 a02:t02 a02:t03 a02:t04 a01:t05 a03:t06 a00:t07 a03:t08"),
    (136, 360, 285.0, 360, True, False,
     "a01:t00 a02:t01 a01:t02 a02:t03 a02:t04 a03:t05 a03:t06 a00:t07 a01:t08"),
]


@pytest.mark.parametrize("seed,nodes,objective,explored,proven,exhausted,pairs",
                         TRUNCATED_SOLVES)
def test_truncated_solve_is_pinned(seed, nodes, objective, explored, proven,
                                   exhausted, pairs):
    problem = random_gap_problem(random.Random(seed), max_agents=4, max_tasks=14)
    result = solve(problem, SolverBudget.nodes(nodes))
    assert result.pairs == {tuple(p.split(":")) for p in pairs.split()}
    assert (result.objective, result.nodes_explored, result.proven_optimal,
            result.budget_exhausted) == (objective, explored, proven, exhausted)
    # branch-and-bound ran and found something local search did not
    local = local_search_improve(problem, greedy_construct(problem), AMPLE)
    assert local.nodes_explored < nodes and local.objective < objective


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 100_000), nodes=st.integers(0, 500))
def test_solve_always_feasible_and_dominates_greedy(seed, nodes):
    problem = random_gap_problem(random.Random(seed))
    result = solve(problem, SolverBudget.nodes(nodes))
    assert_feasible(problem, result)
    assert result.objective >= greedy_construct(problem).objective - 1e-9


def test_heuristic_quality_on_generated_knapsack_instances():
    """Greedy + local search stays within 5% of optimal on average over small
    generated knapsack instances (exactly solvable by enumeration)."""
    import numpy as np

    from rotagap.domain import InstanceMatrices
    from rotagap.scenarios import McmkpParams, generate_mcmkp

    ratios = []
    for seed in range(20):
        instance = generate_mcmkp(McmkpParams(agents=2, tasks=8, seed=seed))
        mats = InstanceMatrices(instance)
        problem = GapProblem(
            agent_ids=tuple(mats.agent_ids), task_ids=tuple(mats.task_ids),
            agent_capacities=mats.capacities, weights=mats.weights,
            values=mats.profits.astype(np.float64), feasible_pairs=mats.compat)
        optimal = brute_force_oracle(problem)
        heuristic = local_search_improve(problem, greedy_construct(problem), AMPLE)
        assert optimal.objective > 0
        ratios.append(heuristic.objective / optimal.objective)
    assert sum(ratios) / len(ratios) >= 0.95, ratios


def test_wall_clock_budget_stops():
    rng = random.Random(37)
    problem = random_gap_problem(rng, max_agents=3, max_tasks=10)
    result = solve(problem, SolverBudget.seconds(0.05))
    assert_feasible(problem, result)


def highs_optimum(problem: GapProblem) -> float:
    """The exact optimum from HiGHS's MILP solver, an oracle independent of
    this package.  A zero relative gap: the default 1e-4 would accept a
    solution below the optimum."""
    optimize = pytest.importorskip("scipy.optimize")
    m, n = problem.values.shape
    capacity_rows = np.zeros((m, m * n))
    task_rows = np.zeros((n, m * n))
    for i in range(m):
        capacity_rows[i, i * n:(i + 1) * n] = problem.weights[i]
        task_rows[:, i * n:(i + 1) * n] = np.eye(n)
    result = optimize.milp(
        -problem.values.ravel(),
        constraints=[optimize.LinearConstraint(capacity_rows, ub=problem.agent_capacities),
                     optimize.LinearConstraint(task_rows, ub=1)],
        integrality=np.ones(m * n),
        bounds=optimize.Bounds(0, problem.feasible_pairs.ravel().astype(float)),
        options={"mip_rel_gap": 0})
    assert result.success, result.message
    return -result.fun


def test_solve_proves_the_highs_optimum_beyond_brute_force():
    for seed in range(40):
        rng = random.Random(seed)
        m, n = 6, 16
        values = [[rng.randint(0, 50) + (rng.random() if seed % 2 else 0.0)
                   for _ in range(n)] for _ in range(m)]
        problem = small_problem(
            [rng.randint(0, 30) for _ in range(m)],
            [[rng.randint(1, 10) for _ in range(n)] for _ in range(m)], values,
            [[rng.random() < 0.85 for _ in range(n)] for _ in range(m)])
        with pytest.raises(ValueError):
            brute_force_oracle(problem)  # 7**16 candidates
        optimum = highs_optimum(problem)
        result = solve(problem, SolverBudget.nodes(5_000_000))
        assert result.proven_optimal, seed
        assert result.objective == pytest.approx(optimum, rel=1e-6), seed
        assert root_upper_bound(problem) >= optimum - 1e-9, seed
