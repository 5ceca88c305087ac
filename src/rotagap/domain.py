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

from collections.abc import Iterable, Mapping, Sequence, Set
from dataclasses import dataclass, field
from functools import cached_property
from itertools import compress

import numpy as np

from .solver import GapShape


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

    @cached_property
    def matrices(self) -> "InstanceMatrices":
        """Its read-only :class:`InstanceMatrices`, built once, on first use."""
        return InstanceMatrices(self)


class IdSet(Set):
    """A read-only set of ids: those of the tuple ``ids`` whose position is
    true in the boolean ``mask``, with ``index`` mapping each id to its
    position.  It tests membership, iterates (in ``ids`` order), counts,
    compares equal, subtracts and hashes as the frozenset of the same ids
    does; a set operation returns a frozenset."""

    __slots__ = ("ids", "index", "mask")

    def __init__(self, ids: tuple[str, ...], index: Mapping[str, int],
                 mask: np.ndarray):
        self.ids = ids
        self.index = index
        self.mask = mask

    def __contains__(self, item) -> bool:
        position = self.index.get(item)
        return position is not None and bool(self.mask[position])

    def __iter__(self):
        return compress(self.ids, self.mask.tolist())

    def __len__(self) -> int:
        return int(np.count_nonzero(self.mask))

    def __hash__(self) -> int:
        return hash(frozenset(self))

    def __repr__(self) -> str:
        return f"IdSet({set(self)!r})"

    @classmethod
    def _from_iterable(cls, items) -> frozenset:
        return frozenset(items)


@dataclass(frozen=True, eq=False, slots=True)
class IdInts(Mapping):
    """A read-only mapping from each id of the tuple ``ids`` to the integer
    at its position in the int64 ``row``, with ``index`` mapping each id to
    its position.  It looks up, iterates (in ``ids`` order), counts and
    compares equal as the dict of the same items does."""

    ids: tuple[str, ...]
    index: Mapping[str, int]
    row: np.ndarray

    def __getitem__(self, key) -> int:
        return int(self.row[self.index[key]])

    def __iter__(self):
        return iter(self.ids)

    def __len__(self) -> int:
        return len(self.ids)


class IdSets(Sequence):
    """An immutable sequence of id sets over one tuple of ``ids``, held as
    one row of bits per set; item ``k`` is an :class:`IdSet` view of row
    ``k``, and a slice is a tuple of views.  ``masks`` is a boolean array
    with one row per set and one column per id."""

    def __init__(self, ids: Iterable[str], masks: np.ndarray):
        self.ids = tuple(ids)
        self.index = {x: i for i, x in enumerate(self.ids)}
        self.bits = np.packbits(np.asarray(masks, dtype=bool), axis=1)
        self.bits.flags.writeable = False

    @classmethod
    def of(cls, sets: Iterable[Iterable[str]]) -> "IdSets":
        """The sets ``sets``, each an iterable of ids, over all their ids in
        sorted order."""
        if isinstance(sets, IdSets):
            return sets
        sets = [list(s) for s in sets]
        ids = sorted(set().union(*sets))
        index = {x: i for i, x in enumerate(ids)}
        masks = np.zeros((len(sets), len(ids)), dtype=bool)
        rows = np.repeat(np.arange(len(sets)), [len(s) for s in sets])
        masks[rows, [index[x] for s in sets for x in s]] = True
        return cls(ids, masks)

    def __len__(self) -> int:
        return len(self.bits)

    def __getitem__(self, k):
        if isinstance(k, slice):
            return tuple(self[i] for i in range(*k.indices(len(self))))
        mask = np.unpackbits(self.bits[k], count=len(self.ids)).view(bool)
        mask.flags.writeable = False
        return IdSet(self.ids, self.index, mask)

    def __eq__(self, other) -> bool:
        if not isinstance(other, IdSets):
            return NotImplemented
        return tuple(self) == tuple(other)

    def __hash__(self) -> int:
        return hash(tuple(self))

    def over(self, ids: tuple[str, ...]) -> "IdSets":
        """The same sets over ``ids``, which must hold each id that is in
        one of them (``KeyError`` otherwise); itself when ``ids`` equals
        its own."""
        if ids == self.ids:
            return self
        old = np.unpackbits(self.bits, axis=1, count=len(self.ids)).view(bool)
        used = np.flatnonzero(old.any(axis=0))
        index = {x: i for i, x in enumerate(ids)}
        masks = np.zeros((len(self), len(ids)), dtype=bool)
        masks[:, [index[self.ids[i]] for i in used.tolist()]] = old[:, used]
        return IdSets(ids, masks)


@dataclass(frozen=True)
class ScenarioTrace:
    """Pre-generated per-cycle availability, replayed identically across
    strategies so that availability never depends on the strategy under test.

    ``available_agents`` and ``available_tasks`` hold one id set per cycle
    as :class:`IdSets`: one tuple of ids and a row of bits per cycle.  Any
    other sequence of id sets given for them is converted.
    """

    cycles: int
    available_agents: IdSets
    available_tasks: IdSets
    seed: int

    def __post_init__(self):
        object.__setattr__(self, "available_agents",
                           IdSets.of(self.available_agents))
        object.__setattr__(self, "available_tasks",
                           IdSets.of(self.available_tasks))

    def entry(self, cycle: int) -> tuple[IdSet, IdSet]:
        """Availability sets for 1-based cycle index, as read-only views."""
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
    for side, ids in (("agents", agent_ids), ("tasks", instance.task_ids)):
        if len(set(ids)) != len(ids):
            dupes = sorted({x for x in ids if ids.count(x) > 1})
            problems.append(f"{side}: duplicate ids {dupes}")

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
    # (cycle, rank within the cycle, message); each side's unknown ids are
    # found once, as columns of its bit rows
    found = []
    cycles = min(len(trace.available_agents), len(trace.available_tasks))
    for rank, (side, sets, known) in enumerate((
            ("agent", trace.available_agents, set(instance.agent_ids)),
            ("task", trace.available_tasks, set(instance.task_ids)))):
        masks = np.unpackbits(sets.bits[:cycles], axis=1,
                              count=len(sets.ids)).view(bool)
        for k in np.flatnonzero(~masks.any(axis=1)).tolist():
            found.append((k + 1, rank, f"trace cycle {k + 1}: no available {side}s"))
        unknown = sorted((x, p) for p, x in enumerate(sets.ids) if x not in known)
        hits = masks[:, [p for _, p in unknown]]
        for k in np.flatnonzero(hits.any(axis=1)).tolist():
            ids = list(compress([x for x, _ in unknown], hits[k].tolist()))
            found.append((k + 1, 2 + rank,
                          f"trace cycle {k + 1}: unknown {side} ids {ids}"))
    problems += [message for _, _, message in sorted(found)]
    return problems


class InstanceMatrices(GapShape):
    """Index-space view of an instance: row = agent position, column = task
    position, following list order.  Built once per instance, its arrays
    read-only, and shared by every run on it (``Instance.matrices``).  It
    is the :class:`~rotagap.solver.GapShape` of its ids, capacities and
    weights, on which every cycle's ``GapProblem`` is made, and adds the
    ``compat`` and ``profits`` matrices.  Its recurring values are the
    profits as float64, built on first use: every cycle whose values are
    the instance's own profits, in any job on the instance in this process,
    passes that one matrix, so the solver answers such a problem once per
    budget and availability mask.
    """

    def __init__(self, instance: Instance):
        row = {a.id: i for i, a in enumerate(instance.agents)}
        m, n = len(instance.agents), len(instance.tasks)
        # every compatible pair's position, profit and weight, task by task,
        # then one fancy assignment per array
        rows, cols, profits, weights = [], [], [], []
        for j, task in enumerate(instance.tasks):
            agents = list(task.compatible)
            rows += map(row.__getitem__, agents)
            cols += [j] * len(agents)
            profits += map(task.profits.__getitem__, agents)
            weights += map(task.weights.__getitem__, agents)
        pairs = (np.array(rows, dtype=np.intp), np.array(cols, dtype=np.intp))
        self.compat = np.zeros((m, n), dtype=bool)
        self.profits = np.zeros((m, n), dtype=np.int64)
        weight_matrix = np.zeros((m, n), dtype=np.int64)
        self.compat[pairs] = True
        self.profits[pairs] = profits
        weight_matrix[pairs] = weights
        self.compat.flags.writeable = self.profits.flags.writeable = False
        super().__init__(instance.agent_ids, instance.task_ids,
                         [a.capacity for a in instance.agents], weight_matrix,
                         recurring=self.profits)

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
        an unknown id.  An :class:`IdSet` over this instance's own id tuple
        gives its mask as it is, with no id looked up."""
        rows = self._mask(agent_ids, self.agent_ids, self.agent_index)
        cols = self._mask(task_ids, self.task_ids, self.task_index)
        return self.compat & rows[:, None] & cols[None, :]

    @classmethod
    def _mask(cls, ids: Iterable[str], order: tuple[str, ...],
              index: Mapping[str, int]) -> np.ndarray:
        if isinstance(ids, IdSet) and ids.ids == order:
            return ids.mask
        mask = np.zeros(len(order), dtype=bool)
        mask[cls.positions(index, ids)] = True
        return mask
