import contextlib
import hashlib
import random
import time
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from rotagap import solver
from rotagap.solver import (Assignment, GapProblem, GapShape, SolverBudget,
                            SolverError, _dense_rank, _greedy_order, _order,
                            _Work, branch_and_bound, brute_force_oracle,
                            greedy_construct, local_search_improve,
                            root_upper_bound, solve)

from conftest import (assert_feasible, copied_problem, empty_assignment,
                      mcmkp_gap_problem, random_gap_problem,
                      shuffled_gap_problem, tcsa_gap_problem)

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
    for bad in ({}, {"node_limit": 1, "wall_clock_seconds": 1.0},
                {"node_limit": -1}, {"wall_clock_seconds": 0},
                {"wall_clock_seconds": float("inf")},
                {"wall_clock_seconds": float("nan")}):
        with pytest.raises(ValueError):
            SolverBudget(**bad)
    assert SolverBudget.nodes(0).node_limit == 0
    assert SolverBudget.seconds(60).wall_clock_seconds == 60
    assert SolverBudget(node_limit=5).mode == "node_limit"
    assert SolverBudget(wall_clock_seconds=0.5).mode == "wall_clock"


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
    result = local_search_improve(two_by_three, empty_assignment(), AMPLE)
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


def test_a_swap_that_beats_each_rise_alone_is_made():
    # t0 and t1 each rise by 9 on the other agent; exchanging t0 for the
    # unassigned t2 gains 11, more than either rise, and the swap gains 18:
    # a swap's gain is bounded by the sum of two rises, not by the larger
    problem = small_problem([1, 1], [[1, 1, 1], [1, 1, 1]],
                            [[1, 10, 12], [10, 1, 0]])
    start = Assignment(pairs={("a00", "t00"), ("a01", "t01")}, objective=2.0,
                       proven_optimal=False, nodes_explored=0,
                       budget_exhausted=False)
    # one scan: 2 inserts, 2 shifts, 2 exchanges and 1 swap
    result = local_search_improve(problem, start, SolverBudget.nodes(7))
    assert result.pairs == {("a00", "t01"), ("a01", "t00")}


def test_branch_and_bound_matches_oracle_on_random_instances():
    rng = random.Random(17)
    for _ in range(40):
        problem = random_gap_problem(rng)
        oracle = brute_force_oracle(problem)
        result = branch_and_bound(problem, empty_assignment(), AMPLE)
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
    assert type(result.objective) is float  # written as 0.0, not 0
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
        # a problem built apart has a shape of its own: a second search
        second = solve(copied_problem(problem), budget)
        assert second is not first
        assert first == second


def shaped_problem(rng: random.Random, shape: str) -> GapProblem:
    if shape == "small":
        return random_gap_problem(rng)
    if shape == "shuffled":
        return shuffled_gap_problem(rng, rng.randint(1, 6), rng.randint(1, 30))
    return mcmkp_gap_problem(rng, agents=rng.randint(2, 8),
                             tasks=rng.randint(4, 30))


def recurring_problem(problem: GapProblem) -> GapProblem:
    """``problem`` on a shape of its own whose recurring values are a copy
    of its values: ``solve`` answers it once per node limit and mask."""
    shape = GapShape(problem.agent_ids, problem.task_ids,
                     problem.agent_capacities, problem.weights,
                     recurring=problem.values.copy())
    return shape.problem(shape.recurring_values, problem.feasible_pairs.copy())


@contextlib.contextmanager
def counted_searches():
    """The problems ``solve`` searches inside the block, in order: a spy on
    ``solver._Work``, which every search builds first and a reused answer
    never does."""
    searched = []
    work = solver._Work

    def spied(problem):
        searched.append(problem)
        return work(problem)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(solver, "_Work", spied)
        yield searched


def assert_same_answer(got: Assignment, want: Assignment) -> None:
    """Equal answers with equal int64, read-only positions."""
    assert got == want
    for a, b in zip(got.positions, want.positions):
        assert np.array_equal(a, b) and a.dtype == b.dtype == np.int64
        assert not a.flags.writeable


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 100_000),
       shape=st.sampled_from(["small", "shuffled", "mcmkp"]),
       nodes=st.integers(0, 5000))
def test_repeated_solve_returns_what_a_fresh_search_gives(seed, shape, nodes):
    """A problem on its shape's recurring values, posed again with an equal
    mask (a copy) and an equal node budget, is answered from the shape's
    table without a search, with what a problem built apart, with a shape
    of its own, gets from a search."""
    problem = recurring_problem(shaped_problem(random.Random(seed), shape))
    budget = SolverBudget.nodes(nodes)
    with counted_searches() as searched:
        first = solve(problem, budget)
        again = problem.shape.problem(problem.values,
                                      problem.feasible_pairs.copy())
        second = solve(again, SolverBudget.nodes(nodes))
    assert searched == [problem]
    fresh = solve(copied_problem(problem), budget)
    assert fresh is not first and second is not first
    assert_same_answer(first, fresh)
    assert_same_answer(second, fresh)


def test_a_mask_seen_two_solves_ago_is_answered_as_a_fresh_search_would():
    problem = recurring_problem(
        mcmkp_gap_problem(random.Random(9), agents=5, tasks=16))
    shape = problem.shape
    other_mask = problem.feasible_pairs.copy()
    other_mask[:, 0] = False
    budget = SolverBudget.nodes(400)
    with counted_searches() as searched:
        solve(problem, budget)
        solve(shape.problem(shape.recurring_values, other_mask), budget)
        back = shape.problem(shape.recurring_values,
                             problem.feasible_pairs.copy())
        reused = solve(back, budget)
    assert len(searched) == 2
    assert_same_answer(reused, solve(copied_problem(back), budget))


def test_an_equal_copy_of_the_recurring_values_is_searched_again():
    """Only the recurring matrix itself reaches the table: an equal array
    of another identity (as ``pc:1:0`` gives) is searched every time."""
    problem = recurring_problem(
        mcmkp_gap_problem(random.Random(10), agents=4, tasks=12))
    shape = problem.shape
    with counted_searches() as searched:
        first = solve(problem, AMPLE)
        for _ in range(2):
            copy = shape.problem(shape.recurring_values.copy(),
                                 problem.feasible_pairs)
            assert solve(copy, AMPLE) == first
    assert len(searched) == 3


def test_writing_to_the_recurring_matrix_raises():
    base = mcmkp_gap_problem(random.Random(11), agents=4, tasks=12)
    source = base.values.astype(np.int64)
    shape = GapShape(base.agent_ids, base.task_ids, base.agent_capacities,
                     base.weights, recurring=source)
    recurring = shape.recurring_values
    assert recurring is shape.recurring_values  # built once
    assert recurring.dtype == np.float64 and recurring is not source
    assert np.array_equal(recurring, source)
    with pytest.raises(ValueError, match="read-only"):
        recurring[0, 0] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        shape.problem(recurring, base.feasible_pairs).values[0, 0] = 1.0
    assert GapShape(base.agent_ids, base.task_ids, base.agent_capacities,
                    base.weights).recurring_values is None
    with pytest.raises(ValueError, match="recurring"):
        GapShape(base.agent_ids, base.task_ids, base.agent_capacities,
                 base.weights, recurring=source[:, 1:])


@pytest.mark.parametrize("bad,message", [
    (-1.5, "values must be >= 0"), (np.nan, "values must be finite"),
    (np.inf, "values must be finite")])
def test_a_bad_recurring_entry_is_refused_only_where_the_mask_holds_it(
        monkeypatch, bad, message):
    """The recurring matrix's entries are checked once, when it is built;
    a problem on it then tests only its mask, and names the defect as a
    problem on any other array does."""
    base = mcmkp_gap_problem(random.Random(12), agents=4, tasks=12)
    source = base.values.copy()
    source[2, 5] = bad
    shape = GapShape(base.agent_ids, base.task_ids, base.agent_capacities,
                     base.weights, recurring=source)
    recurring = shape.recurring_values
    checks = []
    acceptable = solver._acceptable

    def counted(*args):
        checks.append(args)
        return acceptable(*args)

    monkeypatch.setattr(solver, "_acceptable", counted)
    mask = np.ones((4, 12), dtype=bool)
    mask[2, 5] = False
    assert shape.problem(recurring, mask).values is recurring
    mask[2, 5] = True
    with pytest.raises(ValueError, match=f"^{message} on feasible pairs$"):
        shape.problem(recurring, mask)
    assert checks == []
    # an equal copy is checked in full, and refused the same way
    with pytest.raises(ValueError, match=f"^{message} on feasible pairs$"):
        shape.problem(recurring.copy(), mask)
    assert len(checks) == 1


def test_a_keyword_built_problem_indexes_its_own_ids():
    problem = shuffled_gap_problem(random.Random(2), 3, 7)
    shape = problem.shape
    assert (shape.m, shape.n) == (3, 7)
    assert shape.agent_index == {a: i for i, a in enumerate(problem.agent_ids)}
    assert shape.task_index == {t: j for j, t in enumerate(problem.task_ids)}


@pytest.mark.parametrize("field", ["values", "feasible_pairs"])
def test_mutating_a_solved_problem_in_place_searches_again(field):
    problem = mcmkp_gap_problem(random.Random(5), agents=4, tasks=12)
    first = solve(problem, AMPLE)
    rows, cols = first.positions
    if field == "values":
        problem.values[rows[0], cols[0]] += 5.0
    else:
        problem.feasible_pairs[rows[0], cols[0]] = False
    again = solve(problem, AMPLE)
    assert again is not first
    assert again == solve(copied_problem(problem), AMPLE)


@pytest.mark.parametrize("field", ["weights", "agent_capacities"])
def test_mutating_the_callers_static_arrays_changes_nothing(field):
    """A shape's weights and capacities are copies of the caller's arrays,
    held read-only: writing to them raises, and changing the caller's
    arrays after construction changes neither the problems made on it nor
    their answers, which the shape's table still serves."""
    base = mcmkp_gap_problem(random.Random(5), agents=4, tasks=12)
    arrays = {"agent_capacities": base.agent_capacities.copy(),
              "weights": base.weights.copy()}
    shape = GapShape(base.agent_ids, base.task_ids, **arrays,
                     recurring=base.values)
    problem = shape.problem(shape.recurring_values, base.feasible_pairs)
    first = solve(problem, AMPLE)
    with pytest.raises(ValueError, match="read-only"):
        getattr(problem, field)[0] += 1
    # seen, either change would make the first answer infeasible
    rows, cols = first.positions
    if field == "weights":
        arrays[field][rows[0], cols[0]] = 10**9
    else:
        arrays[field][:] = 0
    assert np.array_equal(getattr(problem, field), getattr(base, field))
    with counted_searches() as searched:
        again = solve(shape.problem(shape.recurring_values,
                                    base.feasible_pairs), AMPLE)
    assert searched == []
    assert_same_answer(again, first)
    assert solve(copied_problem(problem), AMPLE) == first


def test_another_node_budget_searches_again():
    """The table is keyed by the node limit as well as the mask, and keeps
    the answers of both limits."""
    problem = recurring_problem(
        mcmkp_gap_problem(random.Random(6), agents=4, tasks=12))
    with counted_searches() as searched:
        first = solve(problem, SolverBudget.nodes(300))
        other = solve(problem, SolverBudget.nodes(301))
        assert len(searched) == 2
        assert other == solve(copied_problem(problem), SolverBudget.nodes(301))
        searched.clear()
        assert_same_answer(solve(problem, SolverBudget.nodes(301)), other)
        assert_same_answer(solve(problem, SolverBudget.nodes(300)), first)
    assert searched == []


def test_wall_clock_budgets_never_reuse_or_store_an_answer():
    problem = recurring_problem(
        mcmkp_gap_problem(random.Random(7), agents=4, tasks=12))
    with counted_searches() as searched:
        first = solve(problem, SolverBudget.seconds(5.0))
        second = solve(problem, SolverBudget.seconds(5.0))
        assert len(searched) == 2 and first is not second
        assert problem.shape._answers == {}
        by_nodes = solve(problem, AMPLE)
        assert len(searched) == 3
        solve(problem, SolverBudget.seconds(5.0))
        assert len(searched) == 4
        # the node-budget answer is still the one kept
        assert_same_answer(solve(problem, AMPLE), by_nodes)
    assert len(searched) == 4 and len(problem.shape._answers) == 1


def test_a_reused_answer_is_checked_against_the_new_problem(monkeypatch):
    problem = recurring_problem(
        mcmkp_gap_problem(random.Random(8), agents=4, tasks=12))
    first = solve(problem, AMPLE)
    checked = []
    verify = solver._verify

    def spied(checked_problem, rows, cols):
        checked.append((checked_problem, rows, cols))
        verify(checked_problem, rows, cols)

    monkeypatch.setattr(solver, "_verify", spied)
    repeat = problem.shape.problem(problem.values,
                                   problem.feasible_pairs.copy())
    with counted_searches() as searched:
        reused = solve(repeat, AMPLE)
    assert searched == []
    assert_same_answer(reused, first)
    assert len(checked) == 1
    checked_problem, rows, cols = checked[0]
    assert checked_problem is repeat
    assert rows is reused.positions[0] and cols is reused.positions[1]


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 100_000))
def test_a_shape_derives_what_a_fresh_computation_gives(seed):
    """A shape's ranks are Python's sorted order of its ids, and its
    ``positive`` and ``fits`` masks those of the weights and capacities."""
    rng = random.Random(seed)
    problem = shuffled_gap_problem(rng, rng.randint(1, 8), rng.randint(0, 40))
    shape = problem.shape
    for ids, ranks in ((shape.agent_ids, shape.agent_rank),
                       (shape.task_ids, shape.task_rank)):
        assert [ids[k] for k in np.argsort(ranks)] == sorted(ids)
    weights, caps = problem.weights, problem.agent_capacities
    assert np.array_equal(shape.positive, weights > 0)
    assert np.array_equal(shape.fits, weights <= caps[:, None])
    for array in (shape.agent_rank, shape.task_rank, shape.positive,
                  shape.fits, shape.weights, shape.agent_capacities):
        assert not array.flags.writeable


def test_solver_positions_are_read_only():
    problem = mcmkp_gap_problem(random.Random(9), agents=4, tasks=12)
    for result in (greedy_construct(problem), solve(problem, AMPLE)):
        for array in result.positions:
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0


# Greedy, local search without perturbed rounds, then branch-and-bound with
# the rest, on random_gap_problem(Random(seed), 4, 14) under a node budget:
# (seed, nodes, objective, nodes_explored, proven, exhausted, agent:task
# pairs).  Recorded from solve when it ran that chain, before the perturbed
# rounds; the budgets stop branch-and-bound after it improved on local
# search but before it finished, so the pairs fix the order in which it
# visits nodes after a local search on the same budget.
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


# solve() on the same problems: (seed, nodes, objective, nodes_explored,
# proven, exhausted, agent:task pairs).  Recorded from reference_solve, the
# unit-charged loops of greedy, iterated local search and branch-and-bound;
# the budgets stop branch-and-bound after it improved on the iterated local
# search of the same budget, or just after it finished, so the pairs fix
# the order in which the perturbed rounds and the search visit their moves
# and nodes.
ITERATED_SOLVES = [
    (11, 510, 492.0, 510, False, True,
     "a00:t00 a01:t01 a02:t02 a03:t03 a00:t04 a00:t05 a03:t06 a03:t07 a01:t08 "
     "a01:t09 a03:t10 a03:t11 a02:t12 a01:t13"),
    (11, 1544, 493.0, 1544, False, True,
     "a03:t00 a01:t01 a02:t02 a03:t03 a00:t04 a00:t05 a03:t06 a02:t07 a01:t08 "
     "a01:t09 a03:t10 a03:t11 a02:t12 a00:t13"),
    (11, 1803, 499.0, 1803, True, False,
     "a03:t00 a01:t01 a02:t02 a03:t03 a00:t04 a01:t05 a03:t06 a02:t07 a00:t08 "
     "a01:t09 a03:t10 a03:t11 a02:t12 a00:t13"),
    (60, 17, 168.0, 17, False, True,
     "a02:t00 a01:t01 a00:t02 a00:t03 a00:t04"),
    (80, 226, 193.0, 226, False, True,
     "a01:t00 a01:t01 a02:t02 a01:t03 a00:t04 a00:t05 a02:t06"),
    (83, 106, 283.0, 106, False, True,
     "a00:t00 a00:t01 a00:t02 a03:t03 a01:t05 a01:t06 a00:t07 a00:t08 a00:t09 "
     "a01:t11 a00:t12"),
    (83, 477, 293.0, 477, False, True,
     "a00:t00 a00:t01 a00:t03 a01:t05 a01:t06 a00:t07 a00:t08 a00:t09 a01:t11 "
     "a00:t12 a03:t13"),
    (83, 570, 293.0, 570, True, False,
     "a00:t00 a00:t01 a00:t03 a01:t05 a01:t06 a00:t07 a00:t08 a00:t09 a01:t11 "
     "a00:t12 a03:t13"),
    (103, 492, 433.0, 492, False, True,
     "a03:t00 a02:t01 a00:t02 a02:t03 a01:t04 a01:t05 a00:t06 a01:t07 a02:t08 "
     "a00:t09 a00:t10 a02:t11"),
    (124, 35, 259.0, 35, False, True,
     "a02:t00 a01:t01 a02:t04 a02:t05 a01:t06 a02:t07 a02:t08"),
    (134, 192, 352.0, 192, False, True,
     "a02:t00 a03:t01 a03:t02 a02:t03 a03:t04 a01:t05 a03:t06 a03:t07 a03:t08"),
    (136, 145, 278.0, 145, False, True,
     "a01:t00 a03:t01 a02:t02 a02:t03 a02:t04 a01:t05 a03:t06 a00:t07 a03:t08"),
    (136, 572, 285.0, 572, True, False,
     "a01:t00 a02:t01 a01:t02 a02:t03 a02:t04 a03:t05 a03:t06 a00:t07 a01:t08"),
]


def plain_solve(problem: GapProblem, nodes: int) -> Assignment:
    """Greedy, local search without perturbed rounds, and branch-and-bound
    with the units it left, as one solve's answer and total units."""
    local = plain_local_search(problem, nodes)
    rest = branch_and_bound(
        problem, local, SolverBudget.nodes(nodes - local.nodes_explored))
    return Assignment(pairs=rest.pairs, objective=rest.objective,
                      proven_optimal=rest.proven_optimal,
                      nodes_explored=local.nodes_explored + rest.nodes_explored,
                      budget_exhausted=rest.budget_exhausted)


def assert_pinned(result, objective, explored, proven, exhausted, pairs):
    assert result.pairs == {tuple(p.split(":")) for p in pairs.split()}
    assert (result.objective, result.nodes_explored, result.proven_optimal,
            result.budget_exhausted) == (objective, explored, proven, exhausted)


@pytest.mark.parametrize("seed,nodes,objective,explored,proven,exhausted,pairs",
                         TRUNCATED_SOLVES)
def test_truncated_solve_is_pinned(seed, nodes, objective, explored, proven,
                                   exhausted, pairs):
    problem = random_gap_problem(random.Random(seed), max_agents=4, max_tasks=14)
    assert_pinned(plain_solve(problem, nodes), objective, explored, proven,
                  exhausted, pairs)
    # branch-and-bound ran and found something local search did not
    local = plain_local_search(problem, AMPLE.node_limit)
    assert local.nodes_explored < nodes and local.objective < objective
    # solve, with its perturbed rounds, on the same budget
    assert solve(problem, SolverBudget.nodes(nodes)) \
        == reference_solve(problem, nodes)


@pytest.mark.parametrize("seed,nodes,objective,explored,proven,exhausted,pairs",
                         ITERATED_SOLVES)
def test_truncated_iterated_solve_is_pinned(seed, nodes, objective, explored,
                                            proven, exhausted, pairs):
    problem = random_gap_problem(random.Random(seed), max_agents=4, max_tasks=14)
    result = solve(problem, SolverBudget.nodes(nodes))
    assert_pinned(result, objective, explored, proven, exhausted, pairs)
    assert result == reference_solve(problem, nodes)
    # branch-and-bound ran and found something the iterated local search
    # it continues did not
    local = local_search_improve(problem, greedy_construct(problem),
                                 SolverBudget.nodes(nodes))
    assert local.nodes_explored < nodes and local.objective < objective


def pairs_digest(pairs) -> str:
    return hashlib.sha256(" ".join(
        sorted(f"{a}:{t}" for a, t in pairs)).encode()).hexdigest()[:16]


# local_search_improve on shuffled_gap_problem(Random(seed), 20, 200) from
# greedy or from empty: (seed, start, nodes, objective, nodes_explored,
# exhausted, pairs_digest).  Recorded from the unit-by-unit scans the
# vectorised ones replaced.  From greedy, seed 1's first scan charges insert
# [0, 445), shift [445, 2143), exchange [2143, 6033) and swap
# [6033, 18117); seed 3's [0, 363), [363, 2310), [2310, 5521) and
# [5521, 18838).  Within a scan the kept move changes at 1831 and 1957
# (seed 1, shift), 4083 (seed 1, exchange), 2390-3990 (seed 3, exchange) and
# 5853 and 13157 (seed 3, swap); from empty, the first scan is all inserts.
LOCAL_SEARCH_PINS = [
    (1, "greedy", 1900, 1420.8000000000002, 1900, True, "0fd6deb1403a7f4c"),
    (1, "greedy", 4000, 1423.2, 4000, True, "de2dc4a6733cec53"),
    (1, "greedy", 4100, 1424.1000000000001, 4100, True, "3e755a056109fe67"),
    (1, "greedy", 18117, 1424.1000000000001, 18117, True, "3e755a056109fe67"),
    (1, "greedy", 30000, 1426.5000000000002, 30000, True, "a8e584e344f0492a"),
    (1, "greedy", 126708, 1431.8999999999999, 126708, False,
     "ab23e4f43db83a42"),
    (3, "greedy", 2600, 1464.0, 2600, True, "bd9d6a93bd8b4712"),
    (3, "greedy", 5900, 1465.5, 5900, True, "03b947eda10c5ff9"),
    (3, "greedy", 13200, 1466.7, 13200, True, "983398e35f33ab80"),
    (3, "greedy", 22000, 1468.5, 22000, True, "b6cbf9a9ff8b1de7"),
    (1, "empty", 100, 11.7, 100, True, "cd69d9667e15aa2b"),
    (1, "empty", 2400, 23.7, 2400, True, "42ff8dd081088fd2"),
    (3, "empty", 100, 12.0, 100, True, "e9a393a53a13499c"),
    (3, "empty", 2560, 24.0, 2560, True, "8ab0d088fbb70cb8"),
]

# solve() on the same problems: (seed, nodes, objective, nodes_explored,
# exhausted, proven, pairs_digest).  Local search reaches its local optimum
# after exactly 126708 (seed 1) and 113067 (seed 3) units, more than half of
# each budget, so no perturbed round starts; beyond that branch-and-bound
# spends the rest without improving.
SOLVE_PINS = [
    (1, 1900, 1420.8000000000002, 1900, True, False, "0fd6deb1403a7f4c"),
    (1, 4100, 1424.1000000000001, 4100, True, False, "3e755a056109fe67"),
    (1, 18117, 1424.1000000000001, 18117, True, False, "3e755a056109fe67"),
    (1, 126708, 1431.8999999999999, 126708, True, False, "ab23e4f43db83a42"),
    (1, 129708, 1431.8999999999999, 129708, True, False, "ab23e4f43db83a42"),
    (3, 5900, 1465.5, 5900, True, False, "03b947eda10c5ff9"),
    (3, 13200, 1466.7, 13200, True, False, "983398e35f33ab80"),
    (3, 113067, 1473.6, 113067, True, False, "9c286aae47931815"),
    (3, 116067, 1473.6, 116067, True, False, "9c286aae47931815"),
]


@pytest.mark.parametrize("seed,start,nodes,objective,explored,exhausted,digest",
                         LOCAL_SEARCH_PINS)
def test_local_search_truncation_is_pinned(seed, start, nodes, objective,
                                           explored, exhausted, digest):
    problem = shuffled_gap_problem(random.Random(seed), 20, 200)
    start = greedy_construct(problem) if start == "greedy" \
        else empty_assignment()
    result = local_search_improve(problem, start, SolverBudget.nodes(nodes))
    assert (result.objective, result.nodes_explored, result.budget_exhausted,
            pairs_digest(result.pairs)) == (objective, explored, exhausted,
                                            digest)


@pytest.mark.parametrize("seed,nodes,objective,explored,exhausted,proven,digest",
                         SOLVE_PINS)
def test_solve_truncation_is_pinned(seed, nodes, objective, explored,
                                    exhausted, proven, digest):
    problem = shuffled_gap_problem(random.Random(seed), 20, 200)
    result = solve(problem, SolverBudget.nodes(nodes))
    assert (result.objective, result.nodes_explored, result.budget_exhausted,
            result.proven_optimal, pairs_digest(result.pairs)) \
        == (objective, explored, exhausted, proven, digest)


def reference_candidates(problem: GapProblem):
    """The statically feasible pairs as a nested list, and each task's
    agents among them by value, then id."""
    m, n = len(problem.agent_ids), len(problem.task_ids)
    v = problem.values.tolist()
    feas = (problem.feasible_pairs
            & (problem.weights <= problem.agent_capacities[:, None])).tolist()
    by_task = [sorted((i for i in range(m) if feas[i][j]),
                      key=lambda i: (-v[i][j], problem.agent_ids[i]))
               for j in range(n)]
    return feas, by_task


def reference_greedy_key(problem: GapProblem):
    """Greedy's sort key of a candidate ``(i, j)``: ratio descending, then
    value descending, agent id, task id."""
    w, v = problem.weights.tolist(), problem.values.tolist()
    agent_ids, task_ids = problem.agent_ids, problem.task_ids
    return lambda p: (-v[p[0]][p[1]] / w[p[0]][p[1]], -v[p[0]][p[1]],
                      agent_ids[p[0]], task_ids[p[1]])


def tie_heavy_problem(rng: random.Random, agents: int,
                      tasks: int) -> GapProblem:
    """Problem built to stress the candidate orders: shuffled ids, values
    in multiples of 0.3, ``-0.0`` mixed with ``0.0``, and exact multiples
    of the weight, so that equal ratios carry different values."""
    weights = [[rng.choice((1, 2, 3, 4, 8)) for _ in range(tasks)]
               for _ in range(agents)]
    values = [[rng.choice((-0.0, 0.0, rng.randint(0, 12) * 0.3,
                           rng.randint(1, 6) * 0.5 * weight))
               for weight in row] for row in weights]
    return GapProblem(
        agent_ids=tuple(f"a{k:02d}" for k in rng.sample(range(agents), agents)),
        task_ids=tuple(f"t{k:03d}" for k in rng.sample(range(tasks), tasks)),
        agent_capacities=np.array([rng.randint(2, 12) for _ in range(agents)]),
        weights=np.array(weights), values=np.array(values),
        feasible_pairs=np.array([[rng.random() < 0.8 for _ in range(tasks)]
                                 for _ in range(agents)]))


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 100_000))
def test_candidate_and_greedy_orders_match_python_sorted(seed):
    rng = random.Random(seed)
    problem = tie_heavy_problem(rng, rng.randint(1, 8), rng.randint(1, 40))
    work = _Work(problem)
    _, by_task = reference_candidates(problem)
    candidates = [(i, j) for j in range(len(problem.task_ids))
                  for i in by_task[j]]
    assert list(zip(work.cand_agent.tolist(), work.cand_task.tolist())) \
        == candidates
    assert work.cand_v.tolist() \
        == [problem.values[i, j] for i, j in candidates]
    order = _greedy_order(work).tolist()
    assert [candidates[k] for k in order] \
        == sorted(candidates, key=reference_greedy_key(problem))


class TrippedId(str):
    """A task id that refuses ``<`` while ``armed``."""

    armed = False

    def __lt__(self, other):
        if TrippedId.armed:
            raise AssertionError("a task id was compared")
        return str.__lt__(self, other)


def test_branch_and_bound_compares_no_task_id_once_the_shape_ranked_them(
        monkeypatch):
    # tasks of equal best value tie on the first part of branch-and-bound's
    # task order, so a key holding the ids would compare them
    rng = random.Random(5)
    for _ in range(10):
        agents, tasks = rng.randint(1, 4), rng.randint(2, 12)
        plain = small_problem(
            [rng.randint(2, 12) for _ in range(agents)],
            [[rng.choice((1, 2, 3)) for _ in range(tasks)]] * agents,
            [[rng.choice((1.0, 2.0)) for _ in range(tasks)]] * agents)
        problem = GapProblem(plain.agent_ids,
                             tuple(map(TrippedId, plain.task_ids)),
                             plain.agent_capacities, plain.weights,
                             plain.values, plain.feasible_pairs)
        with monkeypatch.context() as patch:
            patch.setattr(TrippedId, "armed", True)
            result = solve(problem, AMPLE)
        assert result == solve(plain, AMPLE)
        assert result.proven_optimal


def nonzero_candidates(work: _Work) -> tuple[np.ndarray, ...]:
    """The candidate arrays as built from the 2-D ``np.nonzero`` of the
    statically feasible mask."""
    agents, tasks = np.nonzero(work.feasible)
    v = work.values[agents, tasks]
    v_rank, levels = _dense_rank(-v)
    order = _order((tasks, work.n), (v_rank, levels),
                   (work.agent_rank[agents], work.m))
    agents, tasks = agents[order], tasks[order]
    return (agents, tasks, v[order], v_rank[order],
            work.weights[agents, tasks])


def empty_problem(m: int, n: int) -> GapProblem:
    return GapProblem(agent_ids=tuple(f"a{i}" for i in range(m)),
                      task_ids=tuple(f"t{j}" for j in range(n)),
                      agent_capacities=np.full(m, 5),
                      weights=np.ones((m, n)), values=np.ones((m, n)),
                      feasible_pairs=np.zeros((m, n), dtype=bool))


def candidate_problems():
    """Problems without agents, tasks or feasible pairs, and problems whose
    ids are not in sorted order."""
    yield from (empty_problem(0, 4), empty_problem(3, 0), empty_problem(0, 0),
                empty_problem(3, 4), small_problem([1], [[5, 5]], [[1, 1]]))
    rng = random.Random(7)
    for _ in range(20):
        yield tie_heavy_problem(rng, rng.randint(1, 8), rng.randint(1, 40))
    for _ in range(10):
        yield shuffled_gap_problem(rng, rng.randint(1, 6), rng.randint(1, 30))
    yield tcsa_gap_problem(rng, agents=7, tasks=60)


def test_candidates_from_flat_positions_match_the_2d_nonzero():
    for problem in candidate_problems():
        work = _Work(problem)
        got = (work.cand_agent, work.cand_task, work.cand_v,
               work.cand_v_rank, work.cand_w)
        for have, want in zip(got, nonzero_candidates(work), strict=True):
            assert have.dtype == want.dtype and have.shape == want.shape
            assert have.tobytes() == want.tobytes()


@pytest.mark.parametrize("m,n", [(20, 750), (12, 48), (2**16, 2**16),
                                 (1, 3 * 10**9), (3 * 10**9, 1)])
def test_order_keys_cannot_overflow_at_the_largest_ranks(m, n):
    # an m x n problem has at most m * n candidates, and as many distinct
    # ratios and values; entries take each part's extremes, so a key that
    # wrapped past int64 would sort out of place
    k = m * n
    for sizes in ((n, k, m), (k, k, m, n)):  # the candidate and greedy keys
        rng = random.Random(k)
        rows = sorted({tuple(rng.choice((0, size // 2, size - 1))
                             for size in sizes) for _ in range(64)})
        rng.shuffle(rows)
        parts = [(np.array(column, dtype=np.int64), size)
                 for column, size in zip(zip(*rows), sizes)]
        assert _order(*parts).tolist() \
            == sorted(range(len(rows)), key=rows.__getitem__)


class UnitClock:
    """A node limit charged one unit at a time, as the reference loops
    charge it."""

    def __init__(self, nodes: int):
        self.nodes, self.used, self.exhausted = nodes, 0, False

    def charge(self) -> bool:
        self.exhausted = self.exhausted or self.used >= self.nodes
        self.used += not self.exhausted
        return not self.exhausted


def reference_greedy(problem: GapProblem) -> list:
    """Ratio greedy as a list over tasks of agent positions, None for
    unassigned."""
    w = problem.weights.tolist()
    _, by_task = reference_candidates(problem)
    candidates = sorted(((i, j) for j in range(len(problem.task_ids))
                         for i in by_task[j]),
                        key=reference_greedy_key(problem))
    rem, assigned = problem.agent_capacities.tolist(), [None] * len(by_task)
    for i, j in candidates:
        if assigned[j] is None and rem[i] >= w[i][j]:
            assigned[j], rem[i] = i, rem[i] - w[i][j]
    return assigned


def reference_local_search(problem: GapProblem, assigned: list,
                           clock: UnitClock) -> list:
    """Local search scanning move by move and charging one unit at a time:
    the loop the vectorised solver replaced, kept as its reference.
    Improves ``assigned`` in place until a local optimum or the clock
    runs out, and returns it."""
    n = len(problem.task_ids)
    w, v = problem.weights.tolist(), problem.values.tolist()
    feas, by_task = reference_candidates(problem)
    rem = problem.agent_capacities.tolist()
    for j, i in enumerate(assigned):
        if i is not None:
            rem[i] -= w[i][j]
    while not clock.exhausted:
        best, move = 1e-9, None
        held = [j for j in range(n) if assigned[j] is not None]
        free = [j for j in range(n) if assigned[j] is None]
        scans = (
            (("insert", j, i, v[i][j], rem[i] >= w[i][j])
             for j in free for i in by_task[j]),
            (("shift", j, i, v[i][j] - v[assigned[j]][j], rem[i] >= w[i][j])
             for j in held for i in by_task[j] if i != assigned[j]),
            (("exchange", j1, j2, v[i][j2] - v[i][j1],
              w[i][j2] <= rem[i] + w[i][j1])
             for j1 in held for i in [assigned[j1]] for j2 in free
             if feas[i][j2]),
            (("swap", j1, j2, v[i2][j1] + v[i1][j2] - v[i1][j1] - v[i2][j2],
              feas[i2][j1] and feas[i1][j2]
              and rem[i1] + w[i1][j1] >= w[i1][j2]
              and rem[i2] + w[i2][j2] >= w[i2][j1])
             for a, j1 in enumerate(held) for j2 in held[a + 1:]
             for i1, i2 in [(assigned[j1], assigned[j2])] if i1 != i2))
        for kind, x, y, delta, ok in (c for scan in scans for c in scan):
            if not clock.charge():
                break
            if ok and delta > best:
                best, move = delta, (kind, x, y)
        if move is None:
            break
        kind, x, y = move
        if kind == "insert":
            assigned[x], rem[y] = y, rem[y] - w[y][x]
        elif kind == "shift":
            rem[assigned[x]] += w[assigned[x]][x]
            assigned[x], rem[y] = y, rem[y] - w[y][x]
        elif kind == "exchange":
            i = assigned[x]
            rem[i] += w[i][x] - w[i][y]
            assigned[x], assigned[y] = None, i
        else:
            i1, i2 = assigned[x], assigned[y]
            rem[i1] += w[i1][x] - w[i1][y]
            rem[i2] += w[i2][y] - w[i2][x]
            assigned[x], assigned[y] = i2, i1
    return assigned


def reference_objective(problem: GapProblem, assigned: list) -> float:
    v = problem.values.tolist()
    return sum([v[i][j] for j, i in enumerate(assigned) if i is not None])


def reference_assignment(problem: GapProblem, assigned: list,
                         clock: UnitClock) -> Assignment:
    return Assignment(
        pairs=frozenset((problem.agent_ids[i], problem.task_ids[j])
                        for j, i in enumerate(assigned) if i is not None),
        objective=reference_objective(problem, assigned),
        proven_optimal=False, nodes_explored=clock.used,
        budget_exhausted=clock.exhausted)


def reference_greedy_and_local_search(problem: GapProblem, nodes: int):
    """Ratio greedy, then one local search to its local optimum or the end
    of ``nodes`` units.  Returns the greedy pairs and the improved
    assignment, as :func:`plain_local_search` gives them."""
    assigned = reference_greedy(problem)
    greedy = reference_assignment(problem, assigned, UnitClock(0)).pairs
    clock = UnitClock(nodes)
    reference_local_search(problem, assigned, clock)
    return greedy, reference_assignment(problem, assigned, clock)


def reference_iterated_local_search(problem: GapProblem, start: list,
                                    nodes: int) -> Assignment:
    """Local search from ``start``, then its perturbed rounds, written
    out from the rules: round r charges one unit, un-assigns 4 of the best
    assignment's tasks drawn by ``random.Random(r).sample`` from its
    assigned tasks in task order, and reruns local search on the same
    units; a result is kept only if it is better by more than 1e-9.  No
    round starts once the units are spent, half of them are used, or two
    rounds in a row did not improve.  What ``local_search_improve`` gives
    from ``start``."""
    clock = UnitClock(nodes)
    best = reference_local_search(problem, list(start), clock)
    best_val = reference_objective(problem, best)
    r = fails = 0
    while fails < 2 and not clock.exhausted and 2 * clock.used < nodes \
            and clock.charge():
        r += 1
        held = [j for j, i in enumerate(best) if i is not None]
        kicked = list(best)
        for j in random.Random(r).sample(held, min(4, len(held))):
            kicked[j] = None
        candidate = reference_local_search(problem, kicked, clock)
        value = reference_objective(problem, candidate)
        if value > best_val + 1e-9:
            best, best_val, fails = candidate, value, 0
        else:
            fails += 1
    return reference_assignment(problem, best, clock)


def reference_solve(problem: GapProblem, nodes: int) -> Assignment:
    """Greedy, iterated local search, then branch-and-bound with the rest
    of ``nodes``: what ``solve`` gives, from the reference loops alone."""
    local = reference_iterated_local_search(problem, reference_greedy(problem),
                                            nodes)
    return reference_branch_and_bound(problem, local, nodes,
                                      used=local.nodes_explored)


def plain_local_search(problem: GapProblem, nodes: int) -> Assignment:
    """Greedy, then the solver's local search without perturbed rounds,
    on a clock of ``nodes`` units."""
    work = _Work(problem)
    clock = solver._BudgetClock(SolverBudget.nodes(nodes))
    assigned, _ = solver._local_search(work, solver._greedy(work), clock)
    return work.to_assignment(assigned, proven=False, nodes=clock.used,
                              exhausted=clock.exhausted)


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 100_000), nodes=st.integers(0, 3000))
def test_greedy_and_local_search_match_the_unit_scan(seed, nodes):
    rng = random.Random(seed)
    problem = shuffled_gap_problem(rng, rng.randint(1, 6), rng.randint(1, 30))
    greedy = greedy_construct(problem)
    assert (greedy.pairs, plain_local_search(problem, nodes)) \
        == reference_greedy_and_local_search(problem, nodes)
    budget = SolverBudget.nodes(nodes)
    local = reference_iterated_local_search(problem, reference_greedy(problem),
                                            nodes)
    assert local_search_improve(problem, greedy, budget) == local
    assert solve(problem, budget) == reference_branch_and_bound(
        problem, local, nodes, used=local.nodes_explored)


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 100_000),
       shape=st.sampled_from(["small", "shuffled", "mcmkp"]),
       nodes=st.one_of(st.integers(0, 100), st.integers(0, 600),
                       st.integers(0, 20_000)))
def test_solve_keeps_what_plain_local_search_reaches(seed, shape, nodes):
    """``solve`` never falls below the local optimum that local search
    without perturbed rounds reaches from greedy on the same budget; where
    that local search is cut by the budget, no round runs, and ``solve`` is
    greedy, that local search and branch-and-bound with the rest."""
    problem = shaped_problem(random.Random(seed), shape)
    plain = plain_local_search(problem, nodes)
    result = solve(problem, SolverBudget.nodes(nodes))
    assert result.objective >= plain.objective
    if plain.budget_exhausted:
        rest = branch_and_bound(
            problem, plain, SolverBudget.nodes(nodes - plain.nodes_explored))
        assert (result.pairs, result.objective, result.proven_optimal,
                result.budget_exhausted) == (rest.pairs, rest.objective,
                                             rest.proven_optimal,
                                             rest.budget_exhausted)
        assert result.nodes_explored \
            == plain.nodes_explored + rest.nodes_explored
        for got, want in zip(result.positions, rest.positions):
            assert got.tobytes() == want.tobytes()


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 100_000))
def test_solve_proves_criterion_3_sized_problems(seed):
    # acceptance criterion 3's problems and budget: the rounds stop by
    # patience long before half of it, and branch-and-bound finishes
    problem = random_gap_problem(random.Random(seed))
    result = solve(problem, AMPLE)
    assert result.proven_optimal
    assert result.objective == brute_force_oracle(problem).objective


@pytest.mark.parametrize("patience", [solver._PATIENCE, 10**9])
def test_wall_clock_solve_leaves_branch_and_bound_time(monkeypatch, patience):
    # local search converges after 3538 units; branch-and-bound is not
    # finished after 5,000,000 nodes.  With patience that never runs out,
    # only the half-time rule ends the rounds.
    monkeypatch.setattr(solver, "_PATIENCE", patience)
    problem = mcmkp_gap_problem(random.Random(3))
    search, phases = solver._branch_and_bound, []

    def timed(work, incumbent, clock):
        started, used = time.monotonic() - clock.start, clock.used
        out = search(work, incumbent, clock)
        phases.append((started, clock.used - used))
        return out

    monkeypatch.setattr(solver, "_branch_and_bound", timed)
    start = time.monotonic()
    result = solve(problem, SolverBudget.seconds(0.2))
    assert time.monotonic() - start < 2.0
    assert_feasible(problem, result)
    assert result.budget_exhausted and not result.proven_optimal
    [(started, nodes)] = phases
    assert nodes > 0
    if patience > solver._PATIENCE:
        assert started >= 0.1


def reference_branch_and_bound(problem: GapProblem, start: Assignment,
                               nodes: int, used: int = 0) -> Assignment:
    """Branch-and-bound charging one unit per node, as the solver did before
    it took nodes from the clock in batches and shortcut nodes where no
    agent has room; kept as its reference.  Continues a budget of ``nodes``
    units of which ``used`` are spent, so it gives what
    ``branch_and_bound`` gives (``used=0``) or, from local search's result
    and units, what ``solve`` gives.  A leaf beats the incumbent by its sum
    in depth order; where its objective, summed in task order, is below the
    start's, the start is the answer."""
    n = len(problem.task_ids)
    v, w = problem.values.tolist(), problem.weights.tolist()
    _, by_task = reference_candidates(problem)
    agent_index = {a: i for i, a in enumerate(problem.agent_ids)}
    task_index = {t: j for j, t in enumerate(problem.task_ids)}
    exhausted = False

    def charge():
        nonlocal used, exhausted
        exhausted = exhausted or used >= nodes
        used += not exhausted
        return not exhausted

    def objective(assigned):
        return sum([v[i][j] for j, i in enumerate(assigned) if i is not None])

    def result(assigned, proven):
        if objective(assigned) < objective(incumbent):
            assigned = incumbent
        return Assignment(
            pairs=frozenset((problem.agent_ids[i], problem.task_ids[j])
                            for j, i in enumerate(assigned) if i is not None),
            objective=objective(assigned), proven_optimal=proven,
            nodes_explored=used, budget_exhausted=exhausted)

    best = [None] * n
    for agent_id, task_id in start.pairs:
        best[task_index[task_id]] = agent_index[agent_id]
    incumbent = best
    if not charge():
        return result(best, False)
    best_value = [v[by_task[j][0]][j] if by_task[j] else 0.0
                  for j in range(n)]
    order = sorted(range(n), key=lambda j: (-best_value[j],
                                            problem.task_ids[j]))
    suffix = [0.0] * (n + 1)
    for d in range(n - 1, -1, -1):
        suffix[d] = suffix[d + 1] + best_value[order[d]]

    best_val = objective(best)
    rem = problem.agent_capacities.tolist()
    val = 0.0
    untried = [[] for _ in range(n)]
    applied = [None] * n
    d = 0
    while True:
        if d == n:
            if val > best_val:
                best_val = val
                best = [None] * n
                for depth, agent in enumerate(applied):
                    best[order[depth]] = agent
        elif val + suffix[d] > best_val:
            j = order[d]
            options = [i for i in reversed(by_task[j]) if rem[i] >= w[i][j]]
            options.insert(0, None)
            untried[d] = options
            applied[d] = None
            d += 1
        while True:
            d -= 1
            if d < 0:
                return result(best, True)
            j = order[d]
            i = applied[d]
            if i is not None:
                rem[i] += w[i][j]
                val -= v[i][j]
            if untried[d]:
                break
        i = untried[d].pop()
        if i is not None:
            rem[i] -= w[i][j]
            val += v[i][j]
        applied[d] = i
        d += 1
        if not charge():
            return result(best, False)


def with_signed_zeros(rng: random.Random, problem: GapProblem) -> GapProblem:
    """The same problem with about 15% of its values -0.0."""
    values = problem.values.copy()
    for cell in np.ndindex(values.shape):
        if rng.random() < 0.15:
            values[cell] = -0.0
    return GapProblem(problem.agent_ids, problem.task_ids,
                      problem.agent_capacities, problem.weights, values,
                      problem.feasible_pairs)


def test_negative_values_on_feasible_pairs_are_rejected():
    # the bounds and greedy assume values >= 0; solved, this problem would
    # give -2.0 "proven optimal" where task t01 alone gives 3.0
    with pytest.raises(ValueError, match="values must be >= 0"):
        small_problem([10], [[1, 1]], [[-5.0, 3.0]])
    rng = random.Random(5)
    problem = shuffled_gap_problem(rng, 4, 14)
    values = problem.values.copy()
    cells = np.argwhere(problem.feasible_pairs)
    for i, j in cells[rng.sample(range(len(cells)), 3)]:
        values[i, j] = -rng.randint(1, 9) * 0.7
    with pytest.raises(ValueError, match="values must be >= 0"):
        GapProblem(problem.agent_ids, problem.task_ids,
                   problem.agent_capacities, problem.weights, values,
                   problem.feasible_pairs)
    # off the mask a negative value is never read, and -0.0 is not negative
    values = np.where(problem.feasible_pairs, -0.0, -1.0)
    zeros = GapProblem(problem.agent_ids, problem.task_ids,
                       problem.agent_capacities, problem.weights, values,
                       problem.feasible_pairs)
    assert solve(zeros, AMPLE).objective == 0.0


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_non_finite_values_on_feasible_pairs_are_rejected(bad):
    with pytest.raises(ValueError, match="values must be finite"):
        small_problem([10], [[1, 1]], [[bad, 3.0]])
    # off the mask a non-finite value is never read
    problem = small_problem([10], [[1, 1]], [[bad, 3.0]], [[False, True]])
    assert solve(problem, AMPLE).objective == 3.0


def first_defect(values, weights, feasible) -> str | None:
    """The message of the first defect on the feasible pairs, checked one
    rule at a time: finite values, then values >= 0, then weights > 0."""
    used = values[feasible]
    if not np.isfinite(used).all():
        return "values must be finite on feasible pairs"
    if (used < 0).any():
        return "values must be >= 0 on feasible pairs"
    if (weights[feasible] <= 0).any():
        return "weights must be positive on feasible pairs"
    return None


@pytest.mark.parametrize("nan,negative,zero", [
    (True, False, False), (False, True, False), (False, False, True),
    (True, True, False), (True, False, True), (False, True, True),
    (True, True, True)])
def test_the_first_defect_on_feasible_pairs_is_named(nan, negative, zero):
    ids = ("a0", "a1"), ("t0", "t1", "t2")
    values, weights = np.ones((2, 3)), np.ones((2, 3), dtype=np.int64)
    if nan:
        values[1, 2] = np.nan
    if negative:
        values[0, 1] = -2.0
    if zero:
        weights[0, 0] = 0
    feasible = np.ones((2, 3), dtype=bool)
    message = first_defect(values, weights, feasible)
    assert message == ("values must be finite" if nan else "values must be >= 0"
                       if negative else "weights must be positive") \
        + " on feasible pairs"
    with pytest.raises(ValueError, match=f"^{message}$"):
        GapProblem(*ids, np.array([5, 5]), weights, values, feasible)
    # off the feasible pairs the same defects are never read
    GapProblem(*ids, np.array([5, 5]), weights, values,
               np.isfinite(values) & (values >= 0) & (weights > 0))


@settings(max_examples=300, deadline=None)
@given(data=st.data(), m=st.integers(1, 4), n=st.integers(1, 6))
def test_gap_problem_names_the_defect_the_one_rule_checks_name(data, m, n):
    cells = st.lists(st.tuples(st.integers(0, m - 1), st.integers(0, n - 1)),
                     max_size=4)
    values = np.ones((m, n))
    weights = np.ones((m, n), dtype=np.int64)
    for bad in (np.nan, np.inf, -np.inf, -1.5, -0.0):
        for cell in data.draw(cells):
            values[cell] = bad
    for bad in (0, -3):
        for cell in data.draw(cells):
            weights[cell] = bad
    feasible = np.array(data.draw(st.lists(st.booleans(), min_size=m * n,
                                           max_size=m * n))).reshape(m, n)
    message = first_defect(values, weights, feasible)
    ids = tuple(f"a{i}" for i in range(m)), tuple(f"t{j}" for j in range(n))
    capacities = np.full(m, 5)
    if message is None:
        GapProblem(*ids, capacities, weights, values, feasible)
    else:
        with pytest.raises(ValueError, match=f"^{message}$"):
            GapProblem(*ids, capacities, weights, values, feasible)


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 100_000), shape=st.sampled_from(["small", "mcmkp"]),
       nodes=st.one_of(st.sampled_from([0, 1, 2, 256, 257, 258, 513]),
                       st.integers(0, 20_000), st.just(AMPLE.node_limit)),
       signed=st.booleans())
def test_branch_and_bound_matches_the_unit_charged_loop(seed, shape, nodes,
                                                        signed):
    rng = random.Random(seed)
    if shape == "small":
        problem = shuffled_gap_problem(rng, rng.randint(1, 4),
                                       rng.randint(1, 14))
    else:  # its search never finishes; keep the reference's run short
        problem = mcmkp_gap_problem(rng)
        nodes = min(nodes, 20_000)
    if signed:
        problem = with_signed_zeros(rng, problem)
    budget = SolverBudget.nodes(nodes)
    greedy = greedy_construct(problem)
    for start in (empty_assignment(), greedy):
        assert branch_and_bound(problem, start, budget) \
            == reference_branch_and_bound(problem, start, nodes)
    local = local_search_improve(problem, greedy, budget)
    assert solve(problem, budget) == reference_branch_and_bound(
        problem, local, nodes, used=local.nodes_explored)


# branch_and_bound from local search's optimum ("bnb"), or solve, on
# mcmkp_gap_problem(Random(seed)): (seed, route, nodes, objective,
# nodes_explored, exhausted, pairs_digest).  Recorded from the unit-charged
# loop.  Local search stops at objective 132.6 after 3538 units (seed 3) and
# 108.6 after 3468 (seed 5).  From there branch-and-bound improves at its
# 49th node on both, then at nodes 4546, 8400 (by float rounding only) and
# 12129 (seed 3) and 197, 3289, 3651, 5203 and 5626 (seed 5).  Nodes are
# taken from the clock in batches: 257 is the root and one whole batch, and
# 512 and 12800 end in a part batch at a multiple of 256.  In solve the
# perturbed rounds come first.  On seed 3 two rounds bring nothing and stop
# at 15076 units, so solve at 27205 = 15076 + 12129 ends where the search
# above does.  On seed 5 the second round, started before half of 22143,
# lifts the incumbent to 112.2 at 17022 units, and solve at 22143 = 17022 +
# 1 + 20 * 256 ends on a whole batch after it.
BNB_PINS = [
    (3, "bnb", 257, 132.89999999999995, 257, True, "82a1ac7ce4f65cc2"),
    (3, "bnb", 4546, 135.59999999999994, 4546, True, "3e7d993107cf0923"),
    (3, "bnb", 8400, 135.59999999999997, 8400, True, "3dab6be92b2ecd3c"),
    (3, "bnb", 12800, 136.49999999999997, 12800, True, "2e088ebb137c6379"),
    (5, "bnb", 197, 117.0, 197, True, "9051af59ccd6ca86"),
    (5, "bnb", 512, 117.0, 512, True, "9051af59ccd6ca86"),
    (5, "bnb", 3651, 117.6, 3651, True, "cf4db2f89f88e4c1"),
    (5, "bnb", 5626, 119.1, 5626, True, "a40c22590716be09"),
    (3, "solve", 27205, 136.49999999999997, 27205, True, "2e088ebb137c6379"),
    (5, "solve", 22143, 117.6, 22143, True, "cf4db2f89f88e4c1"),
]


@pytest.mark.parametrize("seed,route,nodes,objective,explored,exhausted,digest",
                         BNB_PINS)
def test_branch_and_bound_truncation_is_pinned(seed, route, nodes, objective,
                                               explored, exhausted, digest):
    problem = mcmkp_gap_problem(random.Random(seed))
    budget = SolverBudget.nodes(nodes)
    if route == "bnb":
        local = plain_local_search(problem, AMPLE.node_limit)
        result = branch_and_bound(problem, local, budget)
    else:
        # the incumbent solve hands to branch-and-bound
        local = local_search_improve(problem, greedy_construct(problem),
                                     budget)
        result = solve(problem, budget)
        assert result == reference_solve(problem, nodes)
    assert (result.objective, result.nodes_explored, result.budget_exhausted,
            pairs_digest(result.pairs)) == (objective, explored, exhausted,
                                            digest)
    assert result.objective > local.objective and not result.proven_optimal


def test_branch_and_bound_charges_nodes_in_batches(monkeypatch):
    problem = mcmkp_gap_problem(random.Random(3))
    clock_type = solver._BudgetClock
    charge, calls = clock_type.charge, []

    def counted(self, k=1):
        calls.append(k)
        return charge(self, k)

    monkeypatch.setattr(clock_type, "charge", counted)
    result = branch_and_bound(problem, greedy_construct(problem),
                              SolverBudget.nodes(20_000))
    assert (result.nodes_explored, result.budget_exhausted) == (20_000, True)
    # the root, 79 batches of at most 256 and the one that finds none left
    assert len(calls) <= -(-20_000 // 256) + 2


def test_wall_clock_budget_stops_an_unfinished_search():
    # this search is not finished after 5,000,000 nodes
    problem = mcmkp_gap_problem(random.Random(3))
    start = time.monotonic()
    result = branch_and_bound(problem, greedy_construct(problem),
                              SolverBudget.seconds(0.2))
    assert time.monotonic() - start < 2.0
    assert_feasible(problem, result)
    assert result.budget_exhausted and not result.proven_optimal
    assert result.nodes_explored > 0


def tight_gap_problem(rng: random.Random, agents: int, tasks: int,
                      equal: bool = False) -> GapProblem:
    """Problem whose capacities hold one or two tasks each, so that most
    branch-and-bound nodes have no agent with room for their task and sit in
    runs that leave tasks out: agent-independent weights in [10, 60], values
    in multiples of 0.3 with ties, shuffled ids and about 20% of the pairs
    masked off.  ``equal`` gives every agent the same capacity, so that
    several agents tie for the largest free capacity."""
    weights = [rng.randint(10, 60) for _ in range(tasks)]
    low, high = min(weights), 2 * max(weights)
    cap = rng.randint(low, high)
    caps = np.array([cap if equal else rng.randint(low, high)
                     for _ in range(agents)])
    base = [rng.randint(1, 20) for _ in range(tasks)]
    values = np.array([[(b + rng.randint(0, 2)) * 0.3 for b in base]
                       for _ in range(agents)])
    feasible = np.array([[rng.random() < 0.8 for _ in range(tasks)]
                         for _ in range(agents)])
    return GapProblem(
        agent_ids=tuple(f"a{k:02d}" for k in rng.sample(range(agents), agents)),
        task_ids=tuple(f"t{k:03d}" for k in rng.sample(range(tasks), tasks)),
        agent_capacities=caps, weights=np.tile(weights, (agents, 1)),
        values=values, feasible_pairs=feasible)


def assert_matches_the_unit_charged_loop(problem: GapProblem, nodes: int):
    budget = SolverBudget.nodes(nodes)
    greedy = greedy_construct(problem)
    for start in (empty_assignment(), greedy):
        assert branch_and_bound(problem, start, budget) \
            == reference_branch_and_bound(problem, start, nodes)
    local = local_search_improve(problem, greedy, budget)
    assert solve(problem, budget) == reference_branch_and_bound(
        problem, local, nodes, used=local.nodes_explored)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 100_000), agents=st.integers(1, 5),
       tasks=st.integers(1, 16), equal=st.booleans(),
       nodes=st.one_of(st.sampled_from([0, 1, 2, 3, 256, 257]),
                       st.integers(0, 20_000)))
def test_tight_searches_match_the_unit_charged_loop(seed, agents, tasks,
                                                    equal, nodes):
    problem = tight_gap_problem(random.Random(seed), agents, tasks, equal)
    assert_matches_the_unit_charged_loop(problem, nodes)


@pytest.mark.parametrize("seed", range(12))
def test_agents_tied_for_the_largest_capacity_match_the_unit_charged_loop(
        seed):
    rng = random.Random(seed)
    problem = tight_gap_problem(rng, rng.randint(2, 5), rng.randint(8, 14),
                                equal=True)
    assert len(set(problem.agent_capacities.tolist())) == 1
    assert_matches_the_unit_charged_loop(problem, AMPLE.node_limit)


def test_every_node_limit_matches_the_unit_charged_loop():
    # the full search takes 2462 nodes from the empty start; from either
    # start, 219 of these limits end part-way through a run of nodes that
    # leave their tasks out
    problem = tight_gap_problem(random.Random(0), 4, 14)
    greedy = greedy_construct(problem)
    for nodes in range(1, 601):
        budget = SolverBudget.nodes(nodes)
        for start in (empty_assignment(), greedy):
            result = branch_and_bound(problem, start, budget)
            assert result == reference_branch_and_bound(problem, start, nodes)
            assert result.budget_exhausted


def test_a_budget_that_ends_inside_a_run_keeps_the_incumbent():
    # one agent that holds one task: the root (node 1) places t00 (node 2),
    # then no task fits and a run of 6 leave-out nodes ends at the leaf
    # (node 8) that improves on the empty start; leaving t00 out instead
    # (node 9) is pruned
    problem = small_problem([10], [[10] * 7], [[9.0] + [1.0] * 6])
    for nodes in range(11):
        result = branch_and_bound(problem, empty_assignment(),
                                  SolverBudget.nodes(nodes))
        assert result == reference_branch_and_bound(
            problem, empty_assignment(), nodes)
        assert (result.objective, result.nodes_explored,
                result.budget_exhausted, result.proven_optimal) \
            == (9.0 if nodes >= 8 else 0, min(nodes, 9), nodes < 9, nodes >= 9)


def test_wall_clock_budget_stops_an_unfinished_tight_search():
    # this search is not finished after 3,000,000 nodes
    problem = tight_gap_problem(random.Random(3), 6, 40)
    greedy = greedy_construct(problem)
    start = time.monotonic()
    result = branch_and_bound(problem, greedy, SolverBudget.seconds(0.2))
    assert time.monotonic() - start < 2.0
    assert_feasible(problem, result)
    assert result.budget_exhausted and not result.proven_optimal
    assert result.nodes_explored > 0 and result.objective >= greedy.objective


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 100_000), agents=st.integers(2, 6),
       tasks=st.integers(4, 24),
       nodes=st.one_of(st.sampled_from([1, 2, 256, 257]),
                       st.integers(0, 20_000)))
def test_integer_foa_shaped_searches_match_the_unit_charged_loop(
        seed, agents, tasks, nodes):
    # integer values add exactly, so bounds and leaves tie the incumbent
    # often, and a tie must neither expand nor improve
    problem = mcmkp_gap_problem(random.Random(seed), agents, tasks, unit=1.0)
    assert_matches_the_unit_charged_loop(problem, nodes)


def test_every_node_limit_matches_across_backups_after_improving_leaves():
    # from either start, the leaves at nodes 15 and 70 improve on the
    # incumbent through a placed task; backing up from each returns to that
    # task's depth with another agent that has room still untried
    problem = tight_gap_problem(random.Random(7), 4, 14)
    greedy = greedy_construct(problem)
    for nodes in range(1, 601):
        budget = SolverBudget.nodes(nodes)
        for start in (empty_assignment(), greedy):
            assert branch_and_bound(problem, start, budget) \
                == reference_branch_and_bound(problem, start, nodes)


def test_a_wall_clock_search_stops_where_a_node_limit_would():
    # unfinished after 3,000,000 nodes; the deadline stops the search on a
    # batch boundary, and the nodes taken by then as a node limit give the
    # same answer, node count and flags
    problem = tight_gap_problem(random.Random(3), 6, 40)
    for start in (empty_assignment(), greedy_construct(problem)):
        result = branch_and_bound(problem, start, SolverBudget.seconds(0.02))
        assert result.budget_exhausted and not result.proven_optimal
        assert result == reference_branch_and_bound(problem, start,
                                                    result.nodes_explored)


def first_scan_rows(problem: GapProblem, start: Assignment):
    """Where local search's first scan from ``start`` ends each row of its
    exchange and of its swap neighbourhood, in work units used."""
    feas, by_task = reference_candidates(problem)
    agent_index = {a: i for i, a in enumerate(problem.agent_ids)}
    task_index = {t: j for j, t in enumerate(problem.task_ids)}
    assigned = [None] * len(problem.task_ids)
    for agent_id, task_id in start.pairs:
        assigned[task_index[task_id]] = agent_index[agent_id]
    held = [j for j, i in enumerate(assigned) if i is not None]
    free = [j for j, i in enumerate(assigned) if i is None]
    units = sum(len(by_task[j]) for j in free) \
        + sum(len(by_task[j]) - 1 for j in held)
    exchange, swap = [], []
    for j1 in held:
        units += sum(feas[assigned[j1]][j2] for j2 in free)
        exchange.append(units)
    for a, j1 in enumerate(held[:-1]):
        units += sum(assigned[j2] != assigned[j1] for j2 in held[a + 1:])
        swap.append(units)
    return exchange, swap


def inside(ends: list[int], k: int) -> int:
    """A unit strictly inside the first row from the k-th on that has
    one."""
    while ends[k] - ends[k - 1] < 2:
        k += 1
    return (ends[k - 1] + ends[k]) // 2


# tcsa-shaped problems (seed, tasks, values[, weights]) whose exchange and
# swap neighbourhoods span several blocks, even at 200 tasks; on the
# "priority" ones every shift and swap neighbourhood is skipped by its
# bound; on the "per-agent" ones a capacity test that reads another agent's
# weight picks other moves, in a swap on both and in an exchange on the
# second
MULTI_BLOCK_SHAPES = [(1, 750, "integer"), (2, 600, "tenths"),
                      (3, 450, "uniform"), (4, 300, "integer"),
                      (5, 200, "uniform"), (6, 250, "tenths"),
                      (7, 600, "priority"), (8, 250, "priority"),
                      (10, 250, "uniform", "per-agent"),
                      (12, 250, "integer", "per-agent")]


@pytest.mark.parametrize("shape", MULTI_BLOCK_SHAPES,
                         ids=lambda shape: "-".join(map(str, shape)))
def test_multi_block_local_search_matches_the_unit_scan(shape):
    seed, tasks, values, *weights = shape
    problem = tcsa_gap_problem(random.Random(seed), tasks=tasks,
                               values=values,
                               weights=weights[0] if weights else "shared")
    greedy = greedy_construct(problem)
    exchange, swap = first_scan_rows(problem, greedy)
    budgets = [inside(exchange, len(exchange) // 2),
               exchange[len(exchange) // 3],
               inside(swap, len(swap) // 8),
               swap[len(swap) // 10],
               swap[-1] + exchange[0]]
    if tasks <= 300:
        budgets.append(AMPLE.node_limit)
    for nodes in budgets:
        greedy_pairs, local = reference_greedy_and_local_search(problem, nodes)
        assert greedy_pairs == greedy.pairs
        assert plain_local_search(problem, nodes) == local
        # perturbed rounds follow only a local search that finished
        assert local_search_improve(problem, greedy, SolverBudget.nodes(nodes)) \
            == (local if local.budget_exhausted else
                reference_iterated_local_search(
                    problem, reference_greedy(problem), nodes))
        # solve: branch-and-bound gets what local search leaves, or 2,000
        # nodes after a finished local search, which has used more than
        # half the budget, so no perturbed round runs
        nodes = min(nodes, local.nodes_explored + 2000)
        assert solve(problem, SolverBudget.nodes(nodes)) \
            == reference_branch_and_bound(problem, local, nodes,
                                          used=local.nodes_explored)


# local_search_improve from greedy ("local"), or solve, on
# tcsa_gap_problem(Random(seed), values=values), 20 x 750: (seed, values,
# route, nodes, objective, nodes_explored, exhausted, pairs_digest).
# Recorded from the scan that charged every block of 4,096 cells and
# evaluated them all.  From greedy the first scan's swap neighbourhood
# starts at unit 25042 (seed 1) and 21371 (seed 3); its kept move changes
# at 64086 and 177195 (seed 1, swap) and 16354 (seed 3, exchange).  Local
# search ends after 4815086 (seed 1) and 6676958 (seed 3) units.
TCSA_PINS = [
    (1, "integer", "local", 64085, 2645227.0, 64085, True, "07c2525156ca7b87"),
    (1, "integer", "local", 64086, 2645339.0, 64086, True, "26e07e7fff85993c"),
    (1, "integer", "local", 177195, 2646042.0, 177195, True,
     "01fc770a88663af5"),
    (1, "integer", "solve", 4818086, 2652518.0, 4818086, True,
     "a824522b8fde225c"),
    (3, "uniform", "local", 16353, 577.0865423363817, 16353, True,
     "32f168794364f5e5"),
    (3, "uniform", "local", 16354, 577.1192707619576, 16354, True,
     "988bee97f3a60780"),
    (3, "uniform", "local", 400000, 577.6242367732898, 400000, True,
     "ef32402376edb77b"),
    (3, "uniform", "solve", 6679958, 581.1623811133963, 6679958, True,
     "5eb6bf359adae56d"),
]


@pytest.mark.parametrize(
    "seed,values,route,nodes,objective,explored,exhausted,digest", TCSA_PINS)
def test_multi_block_truncation_is_pinned(seed, values, route, nodes,
                                          objective, explored, exhausted,
                                          digest):
    problem = tcsa_gap_problem(random.Random(seed), values=values)
    budget = SolverBudget.nodes(nodes)
    result = local_search_improve(problem, greedy_construct(problem), budget) \
        if route == "local" else solve(problem, budget)
    assert (result.objective, result.nodes_explored, result.budget_exhausted,
            result.proven_optimal, pairs_digest(result.pairs)) \
        == (objective, explored, exhausted, False, digest)


@contextlib.contextmanager
def computed_gains():
    """The gains local search computes in multi-block scans inside the
    block, one entry per block: ``(kind, rows, cells)``, the block's row
    tasks and the ``(row task, column task)`` cells whose gains it
    computed, in scan order."""
    computed = []
    neighbourhoods = solver._neighbourhoods

    def spied(*args):
        for kind, cap, tables in neighbourhoods(*args):
            def build(kind=kind, tables=tables):
                cells, rows = tables()
                if rows is None:
                    return cells, rows

                def block(r):
                    charged, allowed, gain, x, y = cells(r)
                    entry = (kind, x.tolist(), [])
                    computed.append(entry)

                    def counted(rows, cols):
                        entry[2].extend(zip(x[rows].tolist(),
                                            y[cols].tolist()))
                        return gain(rows, cols)

                    return charged, allowed, counted, x, y

                return block, rows
            yield kind, cap, build

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(solver, "_neighbourhoods", spied)
        yield computed


def test_multi_block_gains_are_computed_only_on_allowed_cells():
    """In the first scan from greedy, a block computes gains for exactly its
    charged cells that keep the mask and both capacities, up to the last
    granted unit; checked cell by cell against the rules, with a budget
    that ends inside an evaluated swap row."""
    problem = tcsa_gap_problem(random.Random(1))
    greedy = greedy_construct(problem)
    exchange, swap = first_scan_rows(problem, greedy)
    feas, _ = reference_candidates(problem)
    w = problem.weights.tolist()
    agent_index = {a: i for i, a in enumerate(problem.agent_ids)}
    task_index = {t: j for j, t in enumerate(problem.task_ids)}
    assigned = [None] * len(problem.task_ids)
    rem = problem.agent_capacities.tolist()
    for agent_id, task_id in greedy.pairs:
        i, j = agent_index[agent_id], task_index[task_id]
        assigned[j] = i
        rem[i] -= w[i][j]
    held = [j for j, i in enumerate(assigned) if i is not None]
    free = [j for j, i in enumerate(assigned) if i is None]
    after = {j: held[a + 1:] for a, j in enumerate(held)}
    # each swap row's first unit, past the exchange's
    start = dict(zip(held, [exchange[-1]] + swap))

    def fits(i, j_in, j_out):  # j_in onto agent i, which j_out leaves
        return feas[i][j_in] and w[i][j_in] <= rem[i] + w[i][j_out]

    def expected(kind, rows, nodes):
        cells = []
        for j1 in rows:
            i1 = assigned[j1]
            if kind == "exchange":
                cells += [(j1, j2) for j2 in free if fits(i1, j2, j1)]
                continue
            unit = start[j1]
            for j2 in after[j1]:
                i2 = assigned[j2]
                if i2 == i1:
                    continue
                unit += 1
                if unit <= nodes and fits(i1, j2, j1) and fits(i2, j1, j2):
                    cells.append((j1, j2))
        return cells

    def first_scan(nodes):
        with computed_gains() as computed:
            local_search_improve(problem, greedy, SolverBudget.nodes(nodes))
        kinds = [kind for kind, _, _ in computed]
        assert kinds == sorted(kinds) and set(kinds) == {"exchange", "swap"}
        for kind, rows, cells in computed:
            assert cells == expected(kind, rows, nodes)
        return computed

    # to the end of the first scan, which the budget then ends
    evaluated = [j for kind, rows, _ in first_scan(swap[-1])
                 if kind == "swap" for j in rows]
    row = next(a for a, j in enumerate(held[:-1])
               if j in evaluated and swap[a] - start[j] > 1)
    computed = first_scan(inside([exchange[-1]] + swap, row + 1))
    assert held[row] == computed[-1][1][-1]
    # mcmkp-shaped problems scan every neighbourhood in one block
    for seed in range(6):
        problem = mcmkp_gap_problem(random.Random(seed))
        with computed_gains() as computed:
            solve(problem, SolverBudget.nodes(20_000))
        assert computed == []


def test_local_search_charges_each_neighbourhood_once(monkeypatch):
    problem = tcsa_gap_problem(random.Random(1))
    clock_type = solver._BudgetClock
    charge, calls = clock_type.charge, []

    def counted(self, k=1):
        calls.append(k)
        return charge(self, k)

    monkeypatch.setattr(clock_type, "charge", counted)
    result = local_search_improve(problem, greedy_construct(problem),
                                  SolverBudget.nodes(100_000))
    assert (result.nodes_explored, result.budget_exhausted) == (100_000, True)
    # insert, shift, exchange, then the swap neighbourhood the budget cuts
    assert len(calls) <= 4


@pytest.mark.parametrize("values,built", [
    ("priority", ["insert", "exchange"]),
    ("integer", ["insert", "shift", "exchange", "swap"])])
def test_a_neighbourhood_that_cannot_gain_is_charged_but_not_built(
        monkeypatch, values, built):
    # with one value per task on every agent no shift or swap gains; a
    # budget that ends inside the first scan's swap still takes its full
    # count in the one charge, as it does where the swap is built
    problem = tcsa_gap_problem(random.Random(1), values=values)
    greedy = greedy_construct(problem)
    exchange, swap = first_scan_rows(problem, greedy)
    clock_type = solver._BudgetClock
    charge, calls, tables_built = clock_type.charge, [], []

    def counted(self, k=1):
        calls.append(k)
        return charge(self, k)

    neighbourhoods = solver._neighbourhoods

    def spied(*args):
        for kind, cap, tables in neighbourhoods(*args):
            def build(kind=kind, tables=tables):
                tables_built.append(kind)
                return tables()
            yield kind, cap, build

    monkeypatch.setattr(clock_type, "charge", counted)
    monkeypatch.setattr(solver, "_neighbourhoods", spied)
    nodes = inside(swap, len(swap) // 2)
    result = local_search_improve(problem, greedy, SolverBudget.nodes(nodes))
    assert (result.nodes_explored, result.budget_exhausted) == (nodes, True)
    assert tables_built == built
    # insert, shift, exchange, then the whole swap neighbourhood
    assert len(calls) == 4 and sum(calls[:3]) == exchange[-1]
    assert calls[3] == swap[-1] - exchange[-1]


def test_wall_clock_budget_stops_an_unfinished_local_search():
    # from empty, local search needs 63,086,021 units on this problem
    problem = tcsa_gap_problem(random.Random(1))
    start = time.monotonic()
    result = local_search_improve(problem, empty_assignment(),
                                  SolverBudget.seconds(0.05))
    assert time.monotonic() - start < 2.0
    assert_feasible(problem, result)
    assert result.budget_exhausted and result.nodes_explored > 0


@settings(max_examples=200, deadline=None)
@given(limit=st.integers(0, 60),
       charges=st.lists(st.integers(0, 25), max_size=8))
def test_bulk_charge_matches_unit_charging(limit, charges):
    clock = solver._BudgetClock(SolverBudget.nodes(limit))
    used, exhausted = 0, False  # charged one unit at a time
    for k in charges:
        expected = 0 if exhausted else min(k, limit - used)
        granted = 0
        for _ in range(k):
            if exhausted or used >= limit:
                exhausted = True
                break
            used += 1
            granted += 1
        assert clock.charge(k) == granted == expected
        assert (clock.used, clock.exhausted) == (used, exhausted)
        assert clock.used <= limit
    assert clock.charge() == (0 if exhausted or used >= limit else 1)


def test_verify_rejects_infeasible_starts():
    problem = small_problem([5, 5], [[4, 4, 4]] * 2, [[3, 2, 1]] * 2,
                            feasible=[[1, 1, 0], [1, 1, 1]])

    def start(*pairs):
        return Assignment(pairs=frozenset(pairs), objective=0.0,
                          proven_optimal=False, nodes_explored=0,
                          budget_exhausted=False)

    masked = start(("a00", "t02"))
    overloaded = start(("a00", "t00"), ("a01", "t01"), ("a01", "t02"))
    for improve in (local_search_improve, branch_and_bound):
        with pytest.raises(SolverError, match=r"\(a00, t02\) violates"):
            improve(problem, masked, AMPLE)
        with pytest.raises(SolverError, match=r"agent a01 overloaded: 8 > 5"):
            improve(problem, overloaded, AMPLE)


@pytest.mark.parametrize("seed", range(12))
def test_values_outside_the_mask_are_never_read(seed):
    rng = random.Random(seed)
    problem = shuffled_gap_problem(rng, rng.randint(1, 8), rng.randint(1, 40))
    outside = ~problem.feasible_pairs
    junk = np.array([np.inf, -np.inf, np.nan])[
        [rng.randrange(3) for _ in range(outside.sum())]]
    values, weights = problem.values.copy(), problem.weights.copy()
    values[outside], weights[outside] = 0.0, 0
    zeros = GapProblem(problem.agent_ids, problem.task_ids,
                       problem.agent_capacities, weights, values,
                       problem.feasible_pairs)
    values[outside] = junk
    weights[outside] = [rng.choice([0, -1, -7]) for _ in range(outside.sum())]
    junky = GapProblem(problem.agent_ids, problem.task_ids,
                       problem.agent_capacities, weights, values,
                       problem.feasible_pairs)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert root_upper_bound(junky) == root_upper_bound(zeros)
        assert greedy_construct(junky) == greedy_construct(zeros)
        for nodes in (0, 50, 500, 5000):
            budget = SolverBudget.nodes(nodes)
            assert solve(junky, budget) == solve(zeros, budget)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 100_000),
       shape=st.sampled_from(["small", "shuffled", "mcmkp"]),
       nodes=st.integers(0, 5000))
# local search keeps greedy's 43.2; branch-and-bound reaches a leaf whose
# depth-order sum rounds above it and whose task-order sum is one ulp below
@example(seed=589, shape="mcmkp", nodes=140)
def test_solve_always_feasible_and_dominates_greedy(seed, shape, nodes):
    """``solve`` gives a feasible answer, never below greedy, whose
    objective is exactly the left-to-right sum of its pairs' values, pairs
    in task order."""
    problem = shaped_problem(random.Random(seed), shape)
    result = solve(problem, SolverBudget.nodes(nodes))
    assert_feasible(problem, result)
    assert result.objective >= greedy_construct(problem).objective
    agent_index = {a: i for i, a in enumerate(problem.agent_ids)}
    task_index = {t: j for j, t in enumerate(problem.task_ids)}
    total = 0
    for agent_id, task_id in sorted(result.pairs,
                                    key=lambda p: task_index[p[1]]):
        total += float(problem.values[agent_index[agent_id],
                                      task_index[task_id]])
    assert result.objective == total


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
            agent_capacities=mats.agent_capacities,
            weights=mats.weights,
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


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 100_000), nodes=st.integers(0, 3000))
def test_solver_positions_match_pairs(seed, nodes):
    """A solver-built assignment's positions name exactly its pairs, tasks
    ascending, and it equals one built from those pairs."""
    rng = random.Random(seed)
    problem = shuffled_gap_problem(rng, rng.randint(1, 6), rng.randint(1, 25))
    for result in (greedy_construct(problem),
                   solve(problem, SolverBudget.nodes(nodes))):
        rows, cols = result.positions
        assert np.all(np.diff(cols) > 0)
        assert len(result.pairs) == len(cols)
        assert result.pairs == {(problem.agent_ids[i], problem.task_ids[j])
                                for i, j in zip(rows.tolist(), cols.tolist())}
        rebuilt = Assignment(pairs=result.pairs, objective=result.objective,
                             proven_optimal=result.proven_optimal,
                             nodes_explored=result.nodes_explored,
                             budget_exhausted=result.budget_exhausted)
        assert rebuilt.positions is None
        assert rebuilt == result and result == rebuilt
        assert hash(rebuilt) == hash(result)
        assert rebuilt != Assignment(
            pairs=result.pairs, objective=result.objective,
            proven_optimal=result.proven_optimal,
            nodes_explored=result.nodes_explored + 1,
            budget_exhausted=result.budget_exhausted)


MALFORMED_PROBLEMS = [
    ("agent_capacities", [5], "agent_capacities must have shape"),
    ("weights", np.ones((3, 2), int), "weights must have shape"),
    ("values", np.ones((2, 2)), "values must have shape"),
    ("feasible_pairs", np.ones(3, bool), "feasible_pairs must have shape"),
    ("agent_capacities", [5, -1], "capacities must be >= 0"),
    ("weights", [[1, 0, 1], [1, 1, 1]], "weights must be positive"),
    ("weights", [[1, 1, 1], [1, 1, -2]], "weights must be positive"),
    ("values", [[1, np.nan, 1], [1, 1, 1]], "values must be finite"),
    ("values", [[1, 1, 1], [-np.inf, 1, 1]], "values must be finite"),
    ("values", [[1, 1, 1], [1, 1, -0.5]], "values must be >= 0"),
]


@pytest.mark.parametrize("field,value,message", MALFORMED_PROBLEMS,
                         ids=[f"{f}-{k}" for k, (f, _, _) in
                              enumerate(MALFORMED_PROBLEMS)])
def test_gap_problem_refuses_malformed_input(field, value, message):
    ids = ("a0", "a1"), ("t0", "t1", "t2")
    good = {"agent_capacities": [5, 5], "weights": np.ones((2, 3), int),
            "values": np.ones((2, 3)), "feasible_pairs": np.ones((2, 3), bool)}
    with pytest.raises(ValueError, match=message):
        GapProblem(*ids, **{**good, field: value})
    # off the feasible pairs a weight is never read
    if message == "weights must be positive":
        problem = GapProblem(*ids, **{**good, field: value,
                                      "feasible_pairs": np.array(value) > 0})
        assert solve(problem, AMPLE).objective == 3.0


def test_local_search_refuses_a_start_that_assigns_a_task_twice(two_by_three):
    start = Assignment(pairs={("a00", "t00"), ("a01", "t00")}, objective=6.0,
                       proven_optimal=False, nodes_explored=0,
                       budget_exhausted=False)
    with pytest.raises(SolverError, match="task t00 assigned twice"):
        local_search_improve(two_by_three, start, AMPLE)
