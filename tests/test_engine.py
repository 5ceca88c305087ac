import pickle
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rotagap import engine, fileio, solver
from rotagap.affinity import init_affinities
from rotagap.domain import IdInts, InstanceMatrices, ScenarioTrace
from rotagap.engine import (_profit_matrix, profit_pct, rotation_metrics,
                            run_cycle, run_scenario)
from rotagap.scenarios import (McmkpParams, TcsaParams, generate_mcmkp,
                               generate_tcsa, generate_trace_bernoulli,
                               derive_seed, generate_trace_episodic,
                               make_tcsa_priority_hook)
from rotagap.solver import Assignment, SolverBudget
from rotagap.strategies import StrategyConfig

from conftest import (copied_problem, make_instance, update_from_pairs,
                      worked_example_fixture)

BUDGET = SolverBudget.nodes(5000)
FOP = StrategyConfig(kind="fop")
FOA = StrategyConfig(kind="foa")


def counts_matrix(columns: dict[str, dict[str, int]], agents: list[str],
                  tasks: list[str]):
    counts = np.zeros((len(agents), len(tasks)), dtype=np.int64)
    compat = np.zeros_like(counts, dtype=bool)
    for j, task in enumerate(tasks):
        for agent, c in columns[task].items():
            counts[agents.index(agent), j] = c
            compat[agents.index(agent), j] = True
    return counts, compat


def test_rotation_metrics_examples():
    counts, compat = counts_matrix(
        {"T1": {"A": 2, "B": 3}, "T2": {"A": 2, "B": 2, "C": 2}},
        ["A", "B", "C"], ["T1", "T2"])
    assert rotation_metrics(counts, compat) == (2, 2.0)

    counts, compat = counts_matrix(
        {"T1": {"A": 1, "B": 5}, "T2": {"A": 4, "B": 4}},
        ["A", "B"], ["T1", "T2"])
    assert rotation_metrics(counts, compat) == (1, 2.5)

    # a never-used compatible agent pins the full count to zero
    counts, compat = counts_matrix(
        {"T1": {"A": 9, "B": 0}, "T2": {"A": 9, "B": 9}},
        ["A", "B"], ["T1", "T2"])
    assert rotation_metrics(counts, compat)[0] == 0


def test_run_cycle_reports_pressure_before_assignment():
    instance, trace = worked_example_fixture()
    state = init_affinities(instance)
    assignment, next_state, report = run_cycle(instance, trace.entry(1), state,
                                               FOP, BUDGET)
    assert report.max_ap == -0.5
    assert report.cycle == 1
    assert next_state.cycle == 2
    assert report.assigned_count == len(assignment.pairs) == 3
    assert report.profit == 3  # unit profits
    assert (report.proven_optimal, report.nodes_explored) \
        == (assignment.proven_optimal, assignment.nodes_explored)


def test_run_cycle_with_nothing_fitting():
    instance = make_instance({"A": 1}, {"T1": (5, 3, {"A"})})  # weight > capacity
    state = init_affinities(instance)
    assignment, _, report = run_cycle(instance, ({"A"}, {"T1"}), state, FOP, BUDGET)
    assert assignment.pairs == frozenset()
    assert report.profit == 0 and report.assigned_count == 0


def test_foa_alternates_agents_on_fresh_two_agent_task():
    instance = make_instance({"A": 1, "B": 1}, {"T1": (5, 1, {"A", "B"})})
    state = init_affinities(instance)
    seen = []
    for _ in range(6):
        assignment, state, _ = run_cycle(instance, ({"A", "B"}, {"T1"}), state,
                                         FOA, BUDGET)
        seen.append(next(iter(assignment.pairs))[0])
    assert seen[0] != seen[1]
    for i in range(2, 6):
        assert seen[i] == seen[i - 2]  # strict alternation once it starts


def test_run_cycle_applies_priority_overrides():
    instance = make_instance({"A": 2}, {"T1": (1, 1, {"A"}), "T2": (1, 1, {"A"})})
    state = init_affinities(instance)
    _, _, report = run_cycle(instance, ({"A"}, {"T1", "T2"}), state, FOP, BUDGET,
                             profit_overrides={"T1": 700, "T2": 40})
    assert report.profit == 740


def test_profit_overrides_reject_negative_profits_and_unknown_tasks():
    instance, _ = worked_example_fixture()
    mats = InstanceMatrices(instance)
    with pytest.raises(ValueError, match="task T1 is negative"):
        _profit_matrix(mats, {"T1": -5, "T2": 7})
    with pytest.raises(ValueError, match="unknown task T9"):
        _profit_matrix(mats, {"T2": 7, "T9": 3})
    # overrides apply on compatible agents only; other tasks keep theirs
    profits = _profit_matrix(mats, {"T3": 0, "T2": 7})
    assert profits.tolist() == [[1, 7, 0], [1, 7, 0], [0, 7, 0]]


TCSA_INSTANCES = {tasks: generate_tcsa(TcsaParams(agents=3, tasks=tasks,
                                                   seed=tasks))
                  for tasks in (1, 2, 7, 40)}


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**40), cycle=st.integers(0, 400),
       tasks=st.sampled_from(sorted(TCSA_INSTANCES)),
       strangers=st.lists(st.text(max_size=4), max_size=4))
def test_priority_views_behave_as_the_dicts_they_replace(seed, cycle, tasks,
                                                         strangers):
    instance = TCSA_INSTANCES[tasks]
    view = make_tcsa_priority_hook(instance, seed)(cycle)
    rng = random.Random(derive_seed(seed, "tcsa", "cycle-priorities", cycle))
    drawn = {t: rng.randint(10, 1000) for t in instance.task_ids}
    assert isinstance(view, IdInts)
    assert view == drawn and drawn == view
    assert not (view != drawn) and not (drawn != view)
    first = instance.task_ids[0]
    changed = {**drawn, first: drawn[first] + 1}
    assert view != changed and changed != view
    # iteration, items and lookups in instance task order
    assert list(view) == list(instance.task_ids)
    assert list(view.items()) == list(drawn.items())
    assert all(type(view[t]) is int for t in view)
    assert len(view) == len(drawn)
    for probe in [*strangers, *instance.task_ids, 1, 0, None, 2.5, b"T", ("T",)]:
        assert (probe in view) == (probe in drawn), probe
    with pytest.raises(KeyError):
        view["no such task"]
    assert type(dict(view)) is dict and dict(view) == drawn
    copy = pickle.loads(pickle.dumps(view))
    assert isinstance(copy, IdInts) and copy == drawn
    assert list(copy) == list(drawn)
    # the matrix is the one the dict gives, without a copy and read-only
    mats = instance.matrices
    profits = _profit_matrix(mats, view)
    assert np.array_equal(profits, _profit_matrix(mats, drawn))
    assert not profits.flags.writeable
    with pytest.raises(ValueError):
        profits[0, 0] = 1
    # a view over another id order takes the dict's path
    ids = view.ids[::-1]
    turned = IdInts(ids, {t: j for j, t in enumerate(ids)}, view.row[::-1])
    assert np.array_equal(_profit_matrix(mats, turned), profits)


def test_a_negative_priority_in_a_view_is_refused_as_in_a_dict():
    instance = TCSA_INSTANCES[7]
    view = make_tcsa_priority_hook(instance, 3)(1)
    row = view.row.copy()
    row[[2, 5]] = -4, -1
    negative = IdInts(view.ids, view.index, row)
    messages = []
    for overrides in (negative, dict(negative)):
        with pytest.raises(ValueError, match="is negative") as error:
            _profit_matrix(instance.matrices, overrides)
        messages.append(str(error.value))
    assert messages[0] == messages[1]
    assert messages[0] == (f"profit override for task {view.ids[2]} "
                           f"is negative: -4")


def test_a_tcsa_run_looks_up_no_id(monkeypatch):
    """Each cycle's availability and priorities reach the solver as
    positions: no cycle maps an id to its position."""
    params = TcsaParams(agents=4, tasks=12, cycles=5, seed=9)
    instance = generate_tcsa(params)
    trace = generate_trace_episodic(instance, params)
    hook = make_tcsa_priority_hook(instance, 9)
    pc = StrategyConfig(kind="pc")
    by_dicts = run_scenario(instance, trace, pc, BUDGET,
                            priority_hook=lambda k: dict(hook(k)))

    def refuse(index, ids):
        raise AssertionError("an id was looked up")

    monkeypatch.setattr(InstanceMatrices, "positions", staticmethod(refuse))
    by_views = run_scenario(instance, trace, pc, BUDGET, priority_hook=hook)
    assert by_views.per_cycle == by_dicts.per_cycle
    assert np.array_equal(by_views.final_counts, by_dicts.final_counts)


def fixture_run(strategy, cycles=4):
    instance, trace = worked_example_fixture()
    limited = ScenarioTrace(cycles=cycles,
                            available_agents=trace.available_agents[:cycles],
                            available_tasks=trace.available_tasks[:cycles],
                            seed=trace.seed)
    return run_scenario(instance, limited, strategy, BUDGET)


def test_single_cycle_gives_no_full_rotation():
    report = fixture_run(FOP, cycles=1)
    assert report.full_rotations == 0
    assert report.total_profit == sum(c.profit for c in report.per_cycle)


def test_run_report_invariants():
    report = fixture_run(FOA)
    assert report.full_rotations <= report.avg_rotations_per_task
    assert int(report.final_counts.sum()) == \
        sum(c.assigned_count for c in report.per_cycle)
    assert len(report.per_cycle) == 4


def test_raw_profit_accounting_under_foa():
    # objective follows affinity values, profit stays the raw profit sum
    instance = make_instance({"A": 1, "B": 1}, {"T1": (5, 1, {"A", "B"})})
    state = init_affinities(instance)
    _, state, _ = run_cycle(instance, ({"A", "B"}, {"T1"}), state, FOA, BUDGET)
    assignment, _, report = run_cycle(instance, ({"A", "B"}, {"T1"}), state,
                                      FOA, BUDGET)
    assert report.objective == 2.0  # the affinity of the chosen pair
    assert report.profit == 5


def test_run_scenario_is_deterministic():
    params = McmkpParams(agents=5, tasks=12, seed=21)
    instance = generate_mcmkp(params)
    trace = generate_trace_bernoulli(instance, 15, 0.8, 0.8, seed=21)
    a = run_scenario(instance, trace, FOA, BUDGET)
    b = run_scenario(instance, trace, FOA, BUDGET)
    assert a.total_profit == b.total_profit
    assert a.full_rotations == b.full_rotations
    assert a.avg_rotations_per_task == b.avg_rotations_per_task
    assert [c.__dict__ for c in a.per_cycle] == [c.__dict__ for c in b.per_cycle]
    assert np.array_equal(a.final_counts, b.final_counts)
    assert a.provenance == b.provenance


def test_fop_ignores_affinity_perturbations():
    instance = generate_mcmkp(McmkpParams(agents=4, tasks=10, seed=23))
    entry = (frozenset(instance.agent_ids), frozenset(instance.task_ids))
    baseline_state = init_affinities(instance)
    perturbed = init_affinities(instance)
    perturbed.affinities[perturbed.mats.compat] += \
        np.arange(int(perturbed.mats.compat.sum()), dtype=np.int64) % 7
    base_pairs = []
    pert_pairs = []
    state_a, state_b = baseline_state, perturbed
    for _ in range(3):
        assignment_a, state_a, _ = run_cycle(instance, entry, state_a, FOP, BUDGET)
        assignment_b, state_b, _ = run_cycle(instance, entry, state_b, FOP, BUDGET)
        base_pairs.append(assignment_a.pairs)
        pert_pairs.append(assignment_b.pairs)
    assert base_pairs == pert_pairs


def test_compare_to_baseline():
    report = fixture_run(FOP)
    assert profit_pct(report.total_profit, report.total_profit) == 100.0
    other = fixture_run(FOA)
    assert profit_pct(other.total_profit, report.total_profit) <= 100.0


def test_tcsa_priority_hook_changes_profit_stream():
    params = TcsaParams(agents=4, tasks=8, cycles=6, seed=31)
    instance = generate_tcsa(params)
    trace = generate_trace_episodic(instance, params)
    hook = make_tcsa_priority_hook(instance, 31)
    with_hook = run_scenario(instance, trace, FOP, BUDGET, priority_hook=hook)
    static = run_scenario(instance, trace, FOP, BUDGET)
    assert with_hook.provenance["priorities"] == "per-cycle"
    assert static.provenance["priorities"] == "static"
    assert with_hook.total_profit != static.total_profit


def test_run_cycle_positions_agree_with_pairs():
    params = TcsaParams(agents=5, tasks=40, cycles=6, seed=7)
    instance = generate_tcsa(params)
    trace = generate_trace_episodic(instance, params)
    hook = make_tcsa_priority_hook(instance, 7)
    state = init_affinities(instance)
    mats = state.mats
    for k in range(1, trace.cycles + 1):
        entry, overrides = trace.entry(k), hook(k)
        assignment, next_state, report = run_cycle(
            instance, entry, state, StrategyConfig(kind="pc"), BUDGET,
            profit_overrides=overrides)
        profits = _profit_matrix(mats, overrides)
        assert report.profit == sum(
            int(profits[mats.agent_index[a], mats.task_index[t]])
            for a, t in assignment.pairs)
        assert report.assigned_count == len(assignment.pairs)
        expected = update_from_pairs(state, mats.available_pairs(*entry),
                                     assignment.pairs)
        assert np.array_equal(next_state.affinities, expected.affinities)
        assert np.array_equal(next_state.assignment_counts,
                              expected.assignment_counts)
        state = next_state


def test_run_scenario_never_builds_id_pairs(monkeypatch):
    """Each cycle's assignment stays in positions from the solve to the
    affinity update; no (agent_id, task_id) pairs are built."""
    built = []
    pairs = Assignment.pairs

    def counted(assignment):
        built.append(assignment)
        return pairs.fget(assignment)

    monkeypatch.setattr(Assignment, "pairs", property(counted))
    params = TcsaParams(agents=4, tasks=8, cycles=6, seed=31)
    instance = generate_tcsa(params)
    trace = generate_trace_episodic(instance, params)
    report = run_scenario(instance, trace, FOA, BUDGET,
                          priority_hook=make_tcsa_priority_hook(instance, 31))
    assert len(report.per_cycle) == 6 and report.total_profit > 0
    assert built == []


def test_repeated_cycles_reuse_one_search(monkeypatch):
    """A full-availability fop run poses the same problem every cycle: it
    searches once, yet reports every cycle as a run that searches every
    cycle does."""
    instance = generate_mcmkp(McmkpParams(agents=4, tasks=10, seed=3))
    trace = generate_trace_bernoulli(instance, 8, 1.0, 1.0, seed=3)
    builds = []
    work = solver._Work

    def counted(problem):
        builds.append(problem)
        return work(problem)

    monkeypatch.setattr(solver, "_Work", counted)
    reused = run_scenario(instance, trace, FOP, BUDGET)
    assert len(builds) == 1
    solve = engine.solve

    def searching(problem, budget):
        # an equal problem on a shape of its own: the memo cannot answer
        return solve(copied_problem(problem), budget)

    monkeypatch.setattr(engine, "solve", searching)
    searched = run_scenario(instance, trace, FOP, BUDGET)
    assert len(builds) == 1 + trace.cycles
    assert searched.per_cycle == reused.per_cycle
    assert np.array_equal(searched.final_counts, reused.final_counts)


def test_ranks_are_sorted_once_per_instance(monkeypatch):
    """Every cycle's problem is made on the instance's one shape, so the id
    ranks are sorted once per id tuple of the instance, not once per cycle
    or per run."""
    sorted_ids = []
    ranks = solver._ranks

    def counted(ids):
        sorted_ids.append(ids)
        return ranks(ids)

    monkeypatch.setattr(solver, "_ranks", counted)
    params = TcsaParams(agents=4, tasks=30, cycles=12, seed=8)
    instance = generate_tcsa(params)
    trace = generate_trace_episodic(instance, params)
    hook = make_tcsa_priority_hook(instance, 8)
    for spec in ("fop", "foa", "pc", "wpp"):
        report = run_scenario(instance, trace, StrategyConfig.parse(spec),
                              BUDGET, priority_hook=hook)
        assert len(report.per_cycle) == 12
    mats = instance.matrices
    assert sorted_ids == [mats.agent_ids, mats.task_ids]


def test_every_problem_of_a_run_is_made_on_the_instance_matrices(
        monkeypatch):
    """The instance's matrices are the shape of every cycle's problem, in
    every run on it."""
    shapes = []
    solve = engine.solve

    def spied(problem, budget):
        shapes.append(problem.shape)
        return solve(problem, budget)

    monkeypatch.setattr(engine, "solve", spied)
    params = TcsaParams(agents=3, tasks=12, cycles=5, seed=4)
    instance = generate_tcsa(params)
    trace = generate_trace_episodic(instance, params)
    for spec in ("fop", "pc"):
        run_scenario(instance, trace, StrategyConfig.parse(spec), BUDGET,
                     priority_hook=make_tcsa_priority_hook(instance, 4))
    assert len(shapes) == 2 * trace.cycles
    assert all(shape is instance.matrices for shape in shapes)


def test_a_run_reads_the_trace_sets_in_any_id_order():
    """The same sets over another id order, or over only the ids they name
    (as a trace read from a file holds them), give the same run."""
    instance = generate_mcmkp(McmkpParams(agents=4, tasks=9, seed=4))
    trace = generate_trace_bernoulli(instance, 10, 0.3, 0.1, seed=4)
    loaded = fileio.trace_from_lines(fileio.trace_to_lines(trace))
    assert len(loaded.available_tasks.ids) < len(instance.tasks)
    shuffled = ScenarioTrace(
        cycles=trace.cycles, seed=trace.seed,
        available_agents=trace.available_agents.over(
            tuple(reversed(instance.agent_ids))),
        available_tasks=trace.available_tasks.over(
            ("T99", *reversed(instance.task_ids))))
    runs = [run_scenario(instance, t, StrategyConfig(kind="pc"), BUDGET)
            for t in (trace, loaded, shuffled)]
    for run in runs[1:]:
        assert run.per_cycle == runs[0].per_cycle
        assert np.array_equal(run.final_counts, runs[0].final_counts)
