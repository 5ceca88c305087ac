"""Immutable problem data shared by all modules: agents, tasks, instances,
and per-cycle availability traces.

Conventions used throughout the package:
  * agent and task ids are opaque strings; the order of the ``agents`` and
    ``tasks`` lists defines matrix row/column order everywhere,
  * capacities, weights and profits are integers (feasibility arithmetic is
    exact); only strategy-produced objective values are real-valued,
  * weights and profits may differ per agent, even though the built-in
    generators draw agent-independent values.
"""

from dataclasses import dataclass, field
from typing import Iterable, Mapping

import numpy as np


def spec_number(x: float) -> str:
    """Shortest text that ``float()`` reads back to exactly ``x``, without a
    trailing ``.0``: ``10``, ``0.5``, ``1e+16``.  Used in config specs."""
    text = repr(float(x))
    return text[:-2] if text.endswith(".0") else text


@dataclass(frozen=True)
class AgentSpec:
    """A capacity-constrained resource (knapsack, test machine, ...)."""

    id: str
    capacity: int


@dataclass(frozen=True)
class TaskSpec:
    """An assignable item with per-agent profits/weights and a compatibility set.

    ``profits`` and ``weights`` must be defined for exactly the agent ids in
    ``compatible``; weights are strictly positive, profits non-negative.
    """

    id: str
    profits: Mapping[str, int]
    weights: Mapping[str, int]
    compatible: frozenset[str]

    def __post_init__(self):
        object.__setattr__(self, "compatible", frozenset(self.compatible))
        object.__setattr__(self, "profits", dict(self.profits))
        object.__setattr__(self, "weights", dict(self.weights))

    @classmethod
    def uniform(cls, id: str, profit: int, weight: int,
                compatible: Iterable[str]) -> "TaskSpec":
        """Build a task whose profit and weight are identical on every
        compatible agent."""
        compat = frozenset(compatible)
        return cls(id=id,
                   profits={a: profit for a in compat},
                   weights={a: weight for a in compat},
                   compatible=compat)


@dataclass(frozen=True)
class Instance:
    """One assignment problem: m agents, n tasks, plus provenance metadata."""

    agents: tuple[AgentSpec, ...]
    tasks: tuple[TaskSpec, ...]
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "agents", tuple(self.agents))
        object.__setattr__(self, "tasks", tuple(self.tasks))

    @property
    def agent_ids(self) -> list[str]:
        return [a.id for a in self.agents]

    @property
    def task_ids(self) -> list[str]:
        return [t.id for t in self.tasks]


@dataclass(frozen=True)
class ScenarioTrace:
    """Pre-generated per-cycle availability, replayed identically across
    strategies so that availability never depends on the strategy under test."""

    cycles: int
    available_agents: tuple[frozenset[str], ...]
    available_tasks: tuple[frozenset[str], ...]
    seed: int

    def __post_init__(self):
        object.__setattr__(self, "available_agents",
                           tuple(frozenset(s) for s in self.available_agents))
        object.__setattr__(self, "available_tasks",
                           tuple(frozenset(s) for s in self.available_tasks))

    def entry(self, cycle: int) -> tuple[frozenset[str], frozenset[str]]:
        """Availability sets for 1-based cycle index."""
        return self.available_agents[cycle - 1], self.available_tasks[cycle - 1]


def validate_instance(instance: Instance) -> list[str]:
    """Check every structural invariant; returns one message per violation.

    Total by design: never raises on structurally parseable input, an empty
    list means the instance is well-formed.
    """
    problems: list[str] = []
    agent_ids = [a.id for a in instance.agents]
    known = set(agent_ids)

    if len(instance.agents) < 1:
        problems.append("instance: needs at least one agent")
    if len(instance.tasks) < 1:
        problems.append("instance: needs at least one task")
    if len(known) != len(agent_ids):
        dupes = sorted({a for a in agent_ids if agent_ids.count(a) > 1})
        problems.append(f"agents: duplicate ids {dupes}")
    task_ids = [t.id for t in instance.tasks]
    if len(set(task_ids)) != len(task_ids):
        dupes = sorted({t for t in task_ids if task_ids.count(t) > 1})
        problems.append(f"tasks: duplicate ids {dupes}")

    for agent in instance.agents:
        if agent.capacity < 0:
            problems.append(f"agent {agent.id}: capacity {agent.capacity} < 0")

    for task in instance.tasks:
        if not task.compatible:
            problems.append(f"task {task.id}: empty compatible set")
        unknown = sorted(task.compatible - known)
        if unknown:
            problems.append(f"task {task.id}: unknown agent ids {unknown}")
        for name, mapping in (("profits", task.profits), ("weights", task.weights)):
            keys = set(mapping)
            if keys != set(task.compatible):
                problems.append(
                    f"task {task.id}: {name} keys do not match compatible set")
        for agent_id, w in task.weights.items():
            if w <= 0:
                problems.append(f"task {task.id}: weight {w} on {agent_id} is not > 0")
        for agent_id, p in task.profits.items():
            if p < 0:
                problems.append(f"task {task.id}: profit {p} on {agent_id} is < 0")
    return problems


def validate_trace(trace: ScenarioTrace, instance: Instance) -> list[str]:
    """Check a trace against its instance; same reporting style as
    :func:`validate_instance`."""
    problems: list[str] = []
    if trace.cycles < 1:
        problems.append("trace: cycle count must be >= 1")
    for name, entries in (("agents", trace.available_agents),
                          ("tasks", trace.available_tasks)):
        if len(entries) != trace.cycles:
            problems.append(
                f"trace: {len(entries)} {name} entries for {trace.cycles} cycles")
    known_agents = set(instance.agent_ids)
    known_tasks = set(instance.task_ids)
    for k, (agents, tasks) in enumerate(
            zip(trace.available_agents, trace.available_tasks), start=1):
        if not agents:
            problems.append(f"trace cycle {k}: no available agents")
        if not tasks:
            problems.append(f"trace cycle {k}: no available tasks")
        bad_a = sorted(agents - known_agents)
        bad_t = sorted(tasks - known_tasks)
        if bad_a:
            problems.append(f"trace cycle {k}: unknown agent ids {bad_a}")
        if bad_t:
            problems.append(f"trace cycle {k}: unknown task ids {bad_t}")
    return problems


class InstanceMatrices:
    """Index-space view of an instance: row = agent position, column = task
    position, following list order.  Built once per run and shared read-only;
    ``agent_ids`` and ``task_ids`` are tuples, passed as they are to every
    cycle's ``GapProblem``.
    """

    def __init__(self, instance: Instance):
        self.agent_ids = tuple(instance.agent_ids)
        self.task_ids = tuple(instance.task_ids)
        self.agent_index = {a: i for i, a in enumerate(self.agent_ids)}
        self.task_index = {t: j for j, t in enumerate(self.task_ids)}
        m, n = len(self.agent_ids), len(self.task_ids)
        self.capacities = np.array([a.capacity for a in instance.agents],
                                   dtype=np.int64)
        self.compat = np.zeros((m, n), dtype=bool)
        self.profits = np.zeros((m, n), dtype=np.int64)
        self.weights = np.zeros((m, n), dtype=np.int64)
        for j, task in enumerate(instance.tasks):
            for agent_id in task.compatible:
                i = self.agent_index[agent_id]
                self.compat[i, j] = True
                self.profits[i, j] = task.profits[agent_id]
                self.weights[i, j] = task.weights[agent_id]

    @property
    def m(self) -> int:
        return len(self.agent_ids)

    @property
    def n(self) -> int:
        return len(self.task_ids)

    @staticmethod
    def positions(index: Mapping[str, int], ids: Iterable[str]) -> np.ndarray:
        """Positions of ``ids`` under ``index`` (``agent_index`` or
        ``task_index``), in iteration order; ``KeyError`` for an unknown
        id."""
        return np.fromiter(map(index.__getitem__, ids), dtype=np.intp)

    def available_pairs(self, agent_ids: Iterable[str],
                        task_ids: Iterable[str]) -> np.ndarray:
        """The m x n mask of compatible pairs whose agent is in
        ``agent_ids`` and whose task is in ``task_ids``; ``KeyError`` for
        an unknown id."""
        rows = np.zeros(self.m, dtype=bool)
        rows[self.positions(self.agent_index, agent_ids)] = True
        cols = np.zeros(self.n, dtype=bool)
        cols[self.positions(self.task_index, task_ids)] = True
        return self.compat & rows[:, None] & cols[None, :]
