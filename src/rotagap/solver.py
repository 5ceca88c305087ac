"""Single-cycle assignment solver under a work budget.

Maximizes the summed values of assigned tasks subject to agent capacities,
one-agent-per-task, and a feasibility mask.  Three routes are provided:

  * :func:`brute_force_oracle` -- exhaustive enumeration, for verification
    only (guarded by a size limit),
  * :func:`greedy_construct` + :func:`local_search_improve` -- anytime
    heuristic (value/weight ratio construction, then best-improvement over
    insert/shift/exchange/swap moves),
  * :func:`branch_and_bound` -- exact depth-first search with a
    capacity-relaxed upper bound, anytime under the budget.

:func:`solve` chains greedy, local search and branch-and-bound over one
shared budget, so its objective never falls below the greedy floor.

Budgets are counted in deterministic work units ("nodes"): one unit per
branch-and-bound node and one per evaluated local-search move.  In
``node_limit`` mode identical inputs therefore yield identical assignments;
``wall_clock`` mode trades that determinism for a real-time contract.

Tie-breaking everywhere is by value first, then lexicographic ids.
"""

import math
import time
from dataclasses import dataclass

import numpy as np

from .domain import spec_number

BRUTE_FORCE_LIMIT = 10_000_000
_EPS = 1e-9


class SolverError(RuntimeError):
    """A produced assignment failed independent feasibility verification."""


@dataclass(frozen=True)
class SolverBudget:
    """Work limit for one solve: a node count or a wall-clock deadline."""

    mode: str  # "node_limit" | "wall_clock"
    node_limit: int | None = None
    wall_clock_seconds: float | None = None

    def __post_init__(self):
        if self.mode == "node_limit":
            if self.node_limit is None or self.node_limit < 0 \
                    or self.wall_clock_seconds is not None:
                raise ValueError("node_limit mode needs node_limit >= 0 only")
        elif self.mode == "wall_clock":
            if self.wall_clock_seconds is None \
                    or not 0 < self.wall_clock_seconds < math.inf \
                    or self.node_limit is not None:
                raise ValueError("wall_clock mode needs finite "
                                 "wall_clock_seconds > 0 only")
        else:
            raise ValueError(f"unknown budget mode {self.mode!r}")

    @classmethod
    def nodes(cls, n: int) -> "SolverBudget":
        return cls(mode="node_limit", node_limit=n)

    @classmethod
    def seconds(cls, s: float) -> "SolverBudget":
        return cls(mode="wall_clock", wall_clock_seconds=s)

    @classmethod
    def parse(cls, text: str) -> "SolverBudget":
        """Read ``nodes:<int>`` or ``seconds:<float>``; raises ``ValueError``."""
        kind, _, value = text.partition(":")
        try:
            if kind == "nodes":
                return cls.nodes(int(value))
            if kind == "seconds":
                return cls.seconds(float(value))
        except ValueError as exc:
            raise ValueError(f"bad budget {text!r}: {exc}") from exc
        raise ValueError(
            f"budget must be nodes:<int> or seconds:<float>, got {text!r}")

    @property
    def spec(self) -> str:
        """The text :meth:`parse` reads back to an equal budget."""
        if self.mode == "node_limit":
            return f"nodes:{self.node_limit}"
        return f"seconds:{spec_number(self.wall_clock_seconds)}"

    def start(self) -> "_BudgetClock":
        return _BudgetClock(self)


class _BudgetClock:
    """Mutable work counter shared by the phases of one solve."""

    __slots__ = ("limit", "deadline", "used", "exhausted", "_countdown")

    _TIME_CHECK_INTERVAL = 256

    def __init__(self, budget: SolverBudget):
        self.limit = budget.node_limit
        self.deadline = None
        if budget.wall_clock_seconds is not None:
            self.deadline = time.monotonic() + budget.wall_clock_seconds
        self.used = 0
        self.exhausted = False
        self._countdown = 1

    def charge(self) -> bool:
        """Consume one work unit; False once the budget is exhausted."""
        if self.exhausted:
            return False
        if self.limit is not None and self.used >= self.limit:
            self.exhausted = True
            return False
        if self.deadline is not None:
            self._countdown -= 1
            if self._countdown <= 0:
                self._countdown = self._TIME_CHECK_INTERVAL
                if time.monotonic() >= self.deadline:
                    self.exhausted = True
                    return False
        self.used += 1
        return True


@dataclass(eq=False)
class GapProblem:
    """One cycle's assignment problem in index space.

    ``feasible_pairs`` already combines compatibility and availability; rows
    and columns are labeled by ``agent_ids`` / ``task_ids``.
    """

    agent_ids: tuple[str, ...]
    task_ids: tuple[str, ...]
    agent_capacities: np.ndarray  # int64 (m,)
    weights: np.ndarray           # int64 (m, n)
    values: np.ndarray            # float64 (m, n)
    feasible_pairs: np.ndarray    # bool (m, n)

    def __post_init__(self):
        self.agent_ids = tuple(self.agent_ids)
        self.task_ids = tuple(self.task_ids)
        self.agent_capacities = np.asarray(self.agent_capacities, dtype=np.int64)
        self.weights = np.asarray(self.weights, dtype=np.int64)
        self.values = np.asarray(self.values, dtype=np.float64)
        self.feasible_pairs = np.asarray(self.feasible_pairs, dtype=bool)
        m, n = len(self.agent_ids), len(self.task_ids)
        shape = (m, n)
        for name in ("weights", "values", "feasible_pairs"):
            if getattr(self, name).shape != shape:
                raise ValueError(f"{name} must have shape {shape}")
        if self.agent_capacities.shape != (m,):
            raise ValueError(f"agent_capacities must have shape ({m},)")
        if (self.agent_capacities < 0).any():
            raise ValueError("capacities must be >= 0")
        if not np.isfinite(self.values[self.feasible_pairs]).all():
            raise ValueError("values must be finite on feasible pairs")
        if (self.weights[self.feasible_pairs] <= 0).any():
            raise ValueError("weights must be positive on feasible pairs")


@dataclass(frozen=True)
class Assignment:
    """One cycle's solution: feasible (agent_id, task_id) pairs plus solver
    metadata."""

    pairs: frozenset[tuple[str, str]]
    objective: float
    proven_optimal: bool
    nodes_explored: int
    budget_exhausted: bool

    @classmethod
    def empty(cls) -> "Assignment":
        return cls(pairs=frozenset(), objective=0.0, proven_optimal=False,
                   nodes_explored=0, budget_exhausted=False)


class _Work:
    """Problem unpacked into plain lists for the solver hot loops."""

    def __init__(self, problem: GapProblem):
        self.problem = problem
        self.m = len(problem.agent_ids)
        self.n = len(problem.task_ids)
        self.caps = [int(c) for c in problem.agent_capacities]
        self.w = problem.weights.tolist()
        self.v = problem.values.tolist()
        # statically infeasible pairs (weight above total capacity) can never
        # be assigned; dropping them tightens the relaxed bound for free
        feasible = problem.feasible_pairs \
            & (problem.weights <= problem.agent_capacities[:, None])
        self.feas = feasible.tolist()
        agent_ids = problem.agent_ids
        self.agents_by_task: list[list[int]] = []
        for j in range(self.n):
            idxs = [i for i in range(self.m) if feasible[i, j]]
            idxs.sort(key=lambda i, j=j: (-self.v[i][j], agent_ids[i]))
            self.agents_by_task.append(idxs)
        # per-task best value over statically feasible agents (bound term)
        self.best_value = [
            (self.v[idxs[0]][j] if idxs else 0.0)
            for j, idxs in enumerate(self.agents_by_task)
        ]

    def objective(self, assigned: list[int | None]) -> float:
        return sum(self.v[i][j] for j, i in enumerate(assigned) if i is not None)

    def to_assignment(self, assigned: list[int | None], *, proven: bool,
                      nodes: int, exhausted: bool) -> Assignment:
        ids = self.problem
        pairs = frozenset(
            (ids.agent_ids[i], ids.task_ids[j])
            for j, i in enumerate(assigned) if i is not None)
        return Assignment(pairs=pairs, objective=self.objective(assigned),
                          proven_optimal=proven, nodes_explored=nodes,
                          budget_exhausted=exhausted)

    def from_assignment(self, assignment: Assignment) -> list[int | None]:
        agent_index = {a: i for i, a in enumerate(self.problem.agent_ids)}
        task_index = {t: j for j, t in enumerate(self.problem.task_ids)}
        assigned: list[int | None] = [None] * self.n
        for agent_id, task_id in assignment.pairs:
            j = task_index[task_id]
            if assigned[j] is not None:
                raise SolverError(f"task {task_id} assigned twice")
            assigned[j] = agent_index[agent_id]
        return assigned

    def verify(self, assigned: list[int | None]) -> None:
        """Independent feasibility check run after every solve."""
        problem = self.problem
        loads = [0] * self.m
        for j, i in enumerate(assigned):
            if i is None:
                continue
            if not problem.feasible_pairs[i, j]:
                raise SolverError(
                    f"pair ({problem.agent_ids[i]}, {problem.task_ids[j]}) "
                    f"violates the feasibility mask")
            loads[i] += int(problem.weights[i, j])
        for i, load in enumerate(loads):
            if load > int(problem.agent_capacities[i]):
                raise SolverError(
                    f"agent {problem.agent_ids[i]} overloaded: "
                    f"{load} > {int(problem.agent_capacities[i])}")


def brute_force_oracle(problem: GapProblem) -> Assignment:
    """Enumerate every task -> (agent | none) map and return a maximal
    feasible one.  Verification oracle only: refuses problems with more than
    ``BRUTE_FORCE_LIMIT`` candidate maps.

    Branches that already violate a capacity are abandoned early; that skips
    exactly the maps the feasibility filter would reject, nothing else.
    """
    work = _Work(problem)
    m, n = work.m, work.n
    if (m + 1) ** n > BRUTE_FORCE_LIMIT:
        raise ValueError(
            f"instance too large for exhaustive enumeration: "
            f"({m}+1)**{n} > {BRUTE_FORCE_LIMIT}")
    w, v, feas = work.w, work.v, work.feas
    rem = list(work.caps)
    current: list[int | None] = [None] * n
    best_val = -float("inf")
    best: list[int | None] = [None] * n
    nodes = 0

    def explore(j: int, val: float) -> None:
        nonlocal best_val, best, nodes
        nodes += 1
        if j == n:
            if val > best_val:
                best_val = val
                best = current.copy()
            return
        feas_j, w_j, v_j = feas, w, v
        for i in range(m):
            if feas_j[i][j] and rem[i] >= w_j[i][j]:
                rem[i] -= w_j[i][j]
                current[j] = i
                explore(j + 1, val + v_j[i][j])
                rem[i] += w_j[i][j]
        current[j] = None
        explore(j + 1, val)

    explore(0, 0.0)
    work.verify(best)
    return work.to_assignment(best, proven=True, nodes=nodes, exhausted=False)


def _greedy(work: _Work) -> list[int | None]:
    problem = work.problem
    agent_ids, task_ids = problem.agent_ids, problem.task_ids
    v, w = work.v, work.w
    pairs = [(i, j) for j in range(work.n) for i in work.agents_by_task[j]]
    pairs.sort(key=lambda p: (-v[p[0]][p[1]] / w[p[0]][p[1]],
                              -v[p[0]][p[1]], agent_ids[p[0]], task_ids[p[1]]))
    rem = list(work.caps)
    assigned: list[int | None] = [None] * work.n
    for i, j in pairs:
        if assigned[j] is None and rem[i] >= w[i][j]:
            assigned[j] = i
            rem[i] -= w[i][j]
    return assigned


def greedy_construct(problem: GapProblem) -> Assignment:
    """Ratio-greedy construction: feasible pairs in non-increasing v/w order
    (ties: higher value, then lexicographic ids); a task is assigned to the
    first agent with remaining capacity."""
    work = _Work(problem)
    assigned = _greedy(work)
    work.verify(assigned)
    return work.to_assignment(assigned, proven=False, nodes=0, exhausted=False)


def _local_search(work: _Work, assigned: list[int | None],
                  clock: _BudgetClock) -> list[int | None]:
    """Best-improvement over insert / shift / exchange / swap moves until a
    local optimum or budget exhaustion; the objective never decreases.

    Exchange replaces an assigned task with an unassigned one on the same
    agent; without it, full agents are frozen and tight knapsack-style
    instances stall well below optimum.
    """
    n = work.n
    v, w, feas = work.v, work.w, work.feas
    rem = list(work.caps)
    for j, i in enumerate(assigned):
        if i is not None:
            rem[i] -= w[i][j]

    while True:
        best_delta = _EPS
        best_move = None
        out_of_budget = False
        assigned_tasks = [j for j in range(n) if assigned[j] is not None]
        unassigned_tasks = [j for j in range(n) if assigned[j] is None]

        for j in unassigned_tasks:
            for i in work.agents_by_task[j]:
                if not clock.charge():
                    out_of_budget = True
                    break
                if rem[i] >= w[i][j] and v[i][j] > best_delta:
                    best_delta = v[i][j]
                    best_move = ("insert", j, i)
            if out_of_budget:
                break

        if not out_of_budget:
            for j in assigned_tasks:
                i0 = assigned[j]
                v0 = v[i0][j]
                for i in work.agents_by_task[j]:
                    if i == i0:
                        continue
                    if not clock.charge():
                        out_of_budget = True
                        break
                    if rem[i] >= w[i][j] and v[i][j] - v0 > best_delta:
                        best_delta = v[i][j] - v0
                        best_move = ("shift", j, i)
                if out_of_budget:
                    break

        if not out_of_budget:
            for j1 in assigned_tasks:
                i1 = assigned[j1]
                headroom = rem[i1] + w[i1][j1]
                v11 = v[i1][j1]
                feas_row = feas[i1]
                for j2 in unassigned_tasks:
                    if not feas_row[j2]:
                        continue
                    if not clock.charge():
                        out_of_budget = True
                        break
                    if w[i1][j2] <= headroom and v[i1][j2] - v11 > best_delta:
                        best_delta = v[i1][j2] - v11
                        best_move = ("exchange", j1, j2)
                if out_of_budget:
                    break

        if not out_of_budget:
            for a in range(len(assigned_tasks)):
                j1 = assigned_tasks[a]
                i1 = assigned[j1]
                w11, v11 = w[i1][j1], v[i1][j1]
                feas_row1 = feas[i1]
                for b in range(a + 1, len(assigned_tasks)):
                    j2 = assigned_tasks[b]
                    i2 = assigned[j2]
                    if i1 == i2:
                        continue
                    if not clock.charge():
                        out_of_budget = True
                        break
                    if not (feas[i2][j1] and feas_row1[j2]):
                        continue
                    delta = v[i2][j1] + v[i1][j2] - v11 - v[i2][j2]
                    if delta <= best_delta:
                        continue
                    if rem[i1] + w11 - w[i1][j2] < 0:
                        continue
                    if rem[i2] + w[i2][j2] - w[i2][j1] < 0:
                        continue
                    best_delta = delta
                    best_move = ("swap", j1, j2)
                if out_of_budget:
                    break

        if best_move is not None:
            kind, x, y = best_move
            if kind == "insert":
                assigned[x] = y
                rem[y] -= w[y][x]
            elif kind == "shift":
                i0 = assigned[x]
                rem[i0] += w[i0][x]
                assigned[x] = y
                rem[y] -= w[y][x]
            elif kind == "exchange":
                i0 = assigned[x]
                rem[i0] += w[i0][x] - w[i0][y]
                assigned[x] = None
                assigned[y] = i0
            else:  # swap
                i1, i2 = assigned[x], assigned[y]
                rem[i1] += w[i1][x] - w[i1][y]
                rem[i2] += w[i2][y] - w[i2][x]
                assigned[x], assigned[y] = i2, i1
        if out_of_budget or best_move is None:
            return assigned


def local_search_improve(problem: GapProblem, start: Assignment,
                         budget: SolverBudget) -> Assignment:
    """Improve a feasible assignment; returns when no improving move exists
    or the budget runs out.  One work unit per evaluated candidate move."""
    work = _Work(problem)
    assigned = work.from_assignment(start)
    work.verify(assigned)
    clock = budget.start()
    assigned = _local_search(work, assigned, clock)
    work.verify(assigned)
    return work.to_assignment(assigned, proven=False, nodes=clock.used,
                              exhausted=clock.exhausted)


def _branch_and_bound(work: _Work, incumbent: list[int | None],
                      clock: _BudgetClock) -> tuple[list[int | None], bool]:
    """Depth-first task-ordered search.  Returns (best, completed).

    The upper bound at a node is the value of the fixed prefix plus, for each
    remaining task, its best value over statically feasible agents with the
    capacity constraint relaxed; subtrees whose bound cannot beat the
    incumbent are pruned.

    Depth ``d`` fixes task ``order[d]``; ``applied[d]`` is the agent it is
    placed on (None: left out) and ``untried[d]`` its remaining options,
    last one next.
    """
    n = work.n
    v, w = work.v, work.w
    task_ids = work.problem.task_ids
    order = sorted(range(n), key=lambda j: (-work.best_value[j], task_ids[j]))
    suffix = [0.0] * (n + 1)
    for d in range(n - 1, -1, -1):
        suffix[d] = suffix[d + 1] + work.best_value[order[d]]

    best = incumbent.copy()
    best_val = work.objective(incumbent)
    rem = list(work.caps)
    val = 0.0
    untried: list[list] = [[] for _ in range(n)]
    applied: list[int | None] = [None] * n
    d = 0
    while True:
        # visit the node whose tasks order[:d] are placed
        if not clock.charge():
            return best, False
        if d == n:
            if val > best_val:
                best_val = val
                best = [None] * n
                for depth in range(n):
                    best[order[depth]] = applied[depth]
        elif val + suffix[d] > best_val:
            j = order[d]
            options: list = [i for i in reversed(work.agents_by_task[j])
                             if rem[i] >= w[i][j]]
            options.insert(0, None)
            untried[d] = options
            applied[d] = None
            d += 1  # the backtrack below starts at this node's own depth
        # back up to the deepest depth with an untried option
        while True:
            d -= 1
            if d < 0:
                return best, True
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


def branch_and_bound(problem: GapProblem, incumbent: Assignment,
                     budget: SolverBudget) -> Assignment:
    """Exact search from a feasible incumbent; anytime under the budget.
    ``proven_optimal`` is set only if the tree was exhausted in budget."""
    work = _Work(problem)
    start = work.from_assignment(incumbent)
    work.verify(start)
    clock = budget.start()
    best, completed = _branch_and_bound(work, start, clock)
    work.verify(best)
    return work.to_assignment(best, proven=completed, nodes=clock.used,
                              exhausted=clock.exhausted)


def root_upper_bound(problem: GapProblem) -> float:
    """Capacity-relaxed bound at the root: sum of per-task best values."""
    work = _Work(problem)
    return sum(work.best_value)


def solve(problem: GapProblem, budget: SolverBudget) -> Assignment:
    """Greedy construction, local search, then branch-and-bound over one
    shared budget.  The result is feasible, never worse than greedy, and
    marked proven optimal only when branch-and-bound finished."""
    work = _Work(problem)
    clock = budget.start()
    assigned = _greedy(work)
    work.verify(assigned)
    assigned = _local_search(work, assigned, clock)
    work.verify(assigned)
    best, completed = _branch_and_bound(work, assigned, clock)
    work.verify(best)
    return work.to_assignment(best, proven=completed, nodes=clock.used,
                              exhausted=clock.exhausted)
