import random

import numpy as np
import pytest

from rotagap.affinity import update_affinities
from rotagap.domain import AgentSpec, Instance, ScenarioTrace, TaskSpec
from rotagap.solver import Assignment, GapProblem


def make_instance(agents: dict[str, int], tasks: dict[str, tuple[int, int, set[str]]],
                  metadata: dict | None = None) -> Instance:
    """Terse instance builder: tasks map id -> (profit, weight, compatible)."""
    return Instance(
        agents=tuple(AgentSpec(id=a, capacity=c) for a, c in agents.items()),
        tasks=tuple(TaskSpec.uniform(t, profit=p, weight=w, compatible=compat)
                    for t, (p, w, compat) in tasks.items()),
        metadata=metadata or {},
    )


def worked_example_fixture() -> tuple[Instance, ScenarioTrace]:
    """Canonical 3-task / 3-agent walkthrough used by the golden tests.

    Tasks T1 (compatible A,B), T2 (A,B,C) and T3 (B,C) with unit weights and
    unit capacities, over four cycles in which T3 is unavailable in cycle 3
    and everything else is always available.  The assignment sequence itself
    is forced by the test harness, not the solver.
    """
    instance = make_instance(
        {"A": 1, "B": 1, "C": 1},
        {"T1": (1, 1, {"A", "B"}), "T2": (1, 1, {"A", "B", "C"}),
         "T3": (1, 1, {"B", "C"})},
        metadata={"generator": "worked-example", "seed": 0})
    all_agents = frozenset("ABC")
    all_tasks = frozenset({"T1", "T2", "T3"})
    trace = ScenarioTrace(
        cycles=4,
        available_agents=(all_agents,) * 4,
        available_tasks=(all_tasks, all_tasks, all_tasks - {"T3"}, all_tasks),
        seed=0,
    )
    return instance, trace


def update_from_pairs(state, available, pairs):
    """``update_affinities`` for a caller holding ``(agent_id, task_id)``
    pairs, converted to row and column positions."""
    mats = state.mats
    agent_ids, task_ids = tuple(zip(*pairs)) or ((), ())
    return update_affinities(state, available,
                             mats.positions(mats.agent_index, agent_ids),
                             mats.positions(mats.task_index, task_ids))


def empty_assignment() -> Assignment:
    """The assignment of no task, as a start for the improving phases."""
    return Assignment(pairs=frozenset(), objective=0.0, proven_optimal=False,
                      nodes_explored=0, budget_exhausted=False)


def copied_problem(problem: GapProblem) -> GapProblem:
    """An equal problem that shares no array with ``problem``, on a shape of
    its own: ``solve`` searches it, whatever it answered ``problem``."""
    return GapProblem(problem.agent_ids, problem.task_ids,
                      problem.agent_capacities.copy(), problem.weights.copy(),
                      problem.values.copy(), problem.feasible_pairs.copy())


def random_gap_problem(rng: random.Random, max_agents: int = 3,
                       max_tasks: int = 10) -> GapProblem:
    """Small random problem with integer-valued objectives so float sums are
    exact and oracle comparisons can assert equality."""
    m = rng.randint(1, max_agents)
    n = rng.randint(1, max_tasks)
    # capacities hold several tasks each, so the feasible trees are deep
    caps = np.array([rng.randint(0, 30) for _ in range(m)], dtype=np.int64)
    weights = np.array([[rng.randint(1, 10) for _ in range(n)] for _ in range(m)],
                       dtype=np.int64)
    values = np.array([[float(rng.randint(0, 50)) for _ in range(n)] for _ in range(m)])
    feasible = np.array([[rng.random() < 0.85 for _ in range(n)] for _ in range(m)])
    return GapProblem(
        agent_ids=tuple(f"a{i:02d}" for i in range(m)),
        task_ids=tuple(f"t{j:02d}" for j in range(n)),
        agent_capacities=caps, weights=weights, values=values,
        feasible_pairs=feasible,
    )


def shuffled_gap_problem(rng: random.Random, agents: int,
                         tasks: int) -> GapProblem:
    """Random problem whose id order differs from its index order, with
    non-integer values full of ties (multiples of 0.3) and about 30% of the
    pairs masked off."""
    caps = np.array([rng.randint(3, 20) for _ in range(agents)])
    weights = np.array([[rng.randint(1, 10) for _ in range(tasks)]
                        for _ in range(agents)])
    values = np.array([[rng.randint(0, 40) * 0.3 for _ in range(tasks)]
                       for _ in range(agents)])
    feasible = np.array([[rng.random() < 0.7 for _ in range(tasks)]
                         for _ in range(agents)])
    return GapProblem(
        agent_ids=tuple(f"a{k:02d}" for k in rng.sample(range(agents), agents)),
        task_ids=tuple(f"t{k:03d}" for k in rng.sample(range(tasks), tasks)),
        agent_capacities=caps, weights=weights, values=values,
        feasible_pairs=feasible,
    )


def mcmkp_gap_problem(rng: random.Random, agents: int = 12,
                      tasks: int = 48, unit: float = 0.3) -> GapProblem:
    """Problem shaped like an mcmkp cycle: agent-independent weights in
    [10, 1000], capacities that together hold about half the total weight,
    shuffled ids, about 10% of the pairs masked off, and values in multiples
    of ``unit`` with ties: a per-task base plus a small per-agent part, so
    local search stalls where branch-and-bound still finds better answers.
    ``unit=1.0`` gives integer values, whose sums are exact."""
    weights = [rng.randint(10, 1000) for _ in range(tasks)]
    share = sum(weights) // (2 * agents)
    caps = np.array([rng.randint(share // 2, share * 3 // 2)
                     for _ in range(agents)])
    base = [rng.randint(1, 20) for _ in range(tasks)]
    values = np.array([[(b + rng.randint(0, 2)) * unit for b in base]
                       for _ in range(agents)])
    feasible = np.array([[rng.random() < 0.9 for _ in range(tasks)]
                         for _ in range(agents)])
    return GapProblem(
        agent_ids=tuple(f"a{k:02d}" for k in rng.sample(range(agents), agents)),
        task_ids=tuple(f"t{k:03d}" for k in rng.sample(range(tasks), tasks)),
        agent_capacities=caps, weights=np.tile(weights, (agents, 1)),
        values=values, feasible_pairs=feasible,
    )


def tcsa_gap_problem(rng: random.Random, agents: int = 20, tasks: int = 750,
                     values: str = "integer",
                     weights: str = "shared") -> GapProblem:
    """Problem shaped like a tcsa cycle: agent-independent weights in
    [1, 21], each task compatible with 6 of the agents, capacities that
    together hold about 80% of the total weight and shuffled ids.  Local
    search's exchange and swap neighbourhoods span many blocks here.

    ``values`` is ``"integer"`` (a per-task priority times a small per-pair
    affinity, as ``pc`` gives), ``"priority"`` (the per-task priority alone,
    the same on every agent, as ``fop`` gives), ``"tenths"`` (multiples of
    0.1, full of ties) or ``"uniform"`` (uniform floats on a random scale
    from 1e-3 to 1e6).

    ``weights`` is ``"shared"`` (one weight per task, as tcsa has) or
    ``"per-agent"``: each agent then has a speed of 1, 2 or 3, drawn after
    everything else, and a task weighs half its shared weight times the
    speed, rounded up, so the problem is the shared one reweighed."""
    task_weight = [rng.randint(1, 21) for _ in range(tasks)]
    share = sum(task_weight) * 4 // (5 * agents)
    caps = np.array([rng.randint(share * 9 // 10, share * 11 // 10)
                     for _ in range(agents)])
    feasible = np.zeros((agents, tasks), dtype=bool)
    for j in range(tasks):
        feasible[rng.sample(range(agents), min(6, agents)), j] = True
    if values == "integer":
        priority = [rng.randint(10, 1000) for _ in range(tasks)]
        table = np.array([[float(p * rng.randint(1, 8)) for p in priority]
                          for _ in range(agents)])
    elif values == "priority":
        priority = [float(rng.randint(10, 1000)) for _ in range(tasks)]
        table = np.tile(priority, (agents, 1))
    elif values == "tenths":
        table = np.array([[rng.randint(0, 30) * 0.1 for _ in range(tasks)]
                          for _ in range(agents)])
    else:
        scale = 10.0 ** rng.randint(-3, 6)
        table = np.array([[rng.random() * scale for _ in range(tasks)]
                          for _ in range(agents)])
    agent_ids = tuple(f"a{k:02d}" for k in rng.sample(range(agents), agents))
    task_ids = tuple(f"t{k:03d}" for k in rng.sample(range(tasks), tasks))
    table_w = np.tile(task_weight, (agents, 1))
    if weights == "per-agent":
        speed = np.array([rng.randint(1, 3) for _ in range(agents)])
        table_w = -(-table_w * speed[:, None] // 2)
    return GapProblem(
        agent_ids=agent_ids, task_ids=task_ids, agent_capacities=caps,
        weights=table_w, values=table, feasible_pairs=feasible,
    )


def assert_feasible(problem: GapProblem, assignment) -> None:
    """Independent feasibility re-check used by solver tests (does not rely
    on the solver's own verifier)."""
    loads = {a: 0 for a in problem.agent_ids}
    tasks_seen = set()
    agent_index = {a: i for i, a in enumerate(problem.agent_ids)}
    task_index = {t: j for j, t in enumerate(problem.task_ids)}
    for agent_id, task_id in assignment.pairs:
        i, j = agent_index[agent_id], task_index[task_id]
        assert problem.feasible_pairs[i, j], (agent_id, task_id)
        assert task_id not in tasks_seen
        tasks_seen.add(task_id)
        loads[agent_id] += int(problem.weights[i, j])
    for agent_id, load in loads.items():
        assert load <= int(problem.agent_capacities[agent_index[agent_id]])
    recomputed = sum(float(problem.values[agent_index[a], task_index[t]])
                     for a, t in assignment.pairs)
    assert assignment.objective == pytest.approx(recomputed, rel=1e-9, abs=1e-12)
