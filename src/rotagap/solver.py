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

Budgets are counted in deterministic work units ("nodes"): one per
branch-and-bound node, and one per local-search candidate move scanned --
every insert, every shift except onto the task's current agent, every
exchange onto a statically feasible pair, and every swap between tasks on
different agents (charged before its mask is read).  Local search charges
each neighbourhood in bulk, with one charge and exactly that per-move
accounting, then evaluates the granted moves in numpy blocks; rows of a
neighbourhood whose gain bound cannot beat the best move so far are not
evaluated.  A deadline is checked once per neighbourhood.  Branch-and-bound
takes nodes from the clock in batches of at most 256 (never more than a node
limit has left), keeps one unit per node it visits and hands back what it
did not use.  In ``node_limit`` mode identical inputs therefore yield
identical assignments; ``wall_clock`` mode trades that determinism for a
real-time contract.

Values must be non-negative on feasible pairs (``GapProblem`` refuses
others): the capacity-relaxed bound and the local-search row bounds rely on
it.

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

    def charge(self, k: int = 1) -> int:
        """Consume up to ``k`` work units; returns how many were granted.

        A node limit grants ``min(k, remaining)`` and marks the clock
        exhausted when that is fewer than ``k``, exactly where charging unit
        by unit would first have failed.  A deadline is checked about every
        ``_TIME_CHECK_INTERVAL`` units and grants nothing once passed.
        """
        if self.exhausted:
            return 0
        if self.limit is not None and self.used + k > self.limit:
            k = self.limit - self.used
            self.exhausted = True
        elif self.deadline is not None:
            self._countdown -= k
            if self._countdown <= 0:
                self._countdown = self._TIME_CHECK_INTERVAL
                if time.monotonic() >= self.deadline:
                    self.exhausted = True
                    return 0
        self.used += k
        return k

    def charge_batch(self) -> int:
        """Take units in advance for a caller that spends one per step and
        hands the rest back with :meth:`refund`: up to
        ``_TIME_CHECK_INTERVAL``, never more than a node limit has left, so
        a batch grants 0 and sets ``exhausted`` only where charging unit by
        unit would."""
        k = self._TIME_CHECK_INTERVAL
        if self.limit is not None:
            k = max(1, min(k, self.limit - self.used))
        return self.charge(k)

    def refund(self, k: int) -> None:
        """Give back ``k`` units taken by :meth:`charge_batch` and unspent."""
        self.used -= k


@dataclass(eq=False)
class GapProblem:
    """One cycle's assignment problem in index space.

    ``feasible_pairs`` already combines compatibility and availability; rows
    and columns are labeled by ``agent_ids`` / ``task_ids``.  On feasible
    pairs values are finite and non-negative (``-0.0`` included) and weights
    positive; entries off them are never read.
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
        used = self.values[self.feasible_pairs]
        if not np.isfinite(used).all():
            raise ValueError("values must be finite on feasible pairs")
        if (used < 0).any():
            raise ValueError("values must be >= 0 on feasible pairs")
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


def _ranks(ids: tuple[str, ...]) -> np.ndarray:
    """Each id's position in Python's sorted order of ``ids``."""
    ranks = np.empty(len(ids), dtype=np.int64)
    ranks[sorted(range(len(ids)), key=ids.__getitem__)] = np.arange(len(ids))
    return ranks


class _Work:
    """Problem unpacked for the solver.  An assignment is an int array over
    tasks holding the agent index, -1 for unassigned.

    The candidates are the statically feasible pairs as flat arrays, task by
    task, each task's agents by value then id; ``offsets[j]:offsets[j + 1]``
    is task ``j``'s slice.
    """

    def __init__(self, problem: GapProblem):
        self.problem = problem
        self.m = len(problem.agent_ids)
        self.n = len(problem.task_ids)
        self.caps = problem.agent_capacities.tolist()
        self.weights = problem.weights
        # statically infeasible pairs (weight above total capacity) can never
        # be assigned; dropping them tightens the relaxed bound for free
        self.feasible = problem.feasible_pairs \
            & (problem.weights <= problem.agent_capacities[:, None])
        # 0.0 off the feasible pairs, so whole blocks can be computed on
        self.values = np.where(self.feasible, problem.values, 0.0)
        self.agent_rank = _ranks(problem.agent_ids)
        self.task_rank = _ranks(problem.task_ids)
        agents, tasks = np.nonzero(self.feasible)
        order = np.lexsort((self.agent_rank[agents],
                            -self.values[agents, tasks], tasks))
        self.cand_agent, self.cand_task = agents[order], tasks[order]
        self.cand_v = self.values[self.cand_agent, self.cand_task]
        self.cand_w = self.weights[self.cand_agent, self.cand_task]
        self.offsets = np.searchsorted(self.cand_task, np.arange(self.n + 1))
        # per-task best value over statically feasible agents (bound term)
        best = np.zeros(self.n)
        has = self.offsets[1:] > self.offsets[:-1]
        best[has] = self.cand_v[self.offsets[:-1][has]]
        self.best_value = best

    def objective(self, assigned: np.ndarray) -> float:
        tasks = np.flatnonzero(assigned >= 0)
        return sum(self.values[assigned[tasks], tasks].tolist())

    def to_assignment(self, assigned: np.ndarray, *, proven: bool,
                      nodes: int, exhausted: bool) -> Assignment:
        ids = self.problem
        tasks = np.flatnonzero(assigned >= 0)
        pairs = frozenset(
            (ids.agent_ids[i], ids.task_ids[j])
            for i, j in zip(assigned[tasks].tolist(), tasks.tolist()))
        return Assignment(pairs=pairs, objective=self.objective(assigned),
                          proven_optimal=proven, nodes_explored=nodes,
                          budget_exhausted=exhausted)

    def from_assignment(self, assignment: Assignment) -> np.ndarray:
        agent_index = {a: i for i, a in enumerate(self.problem.agent_ids)}
        task_index = {t: j for j, t in enumerate(self.problem.task_ids)}
        assigned = np.full(self.n, -1, dtype=np.int64)
        for agent_id, task_id in assignment.pairs:
            j = task_index[task_id]
            if assigned[j] >= 0:
                raise SolverError(f"task {task_id} assigned twice")
            assigned[j] = agent_index[agent_id]
        return assigned

    def verify(self, assigned: np.ndarray) -> None:
        """Independent feasibility check run after every solve."""
        problem = self.problem
        tasks = np.flatnonzero(assigned >= 0)
        agents = assigned[tasks]
        outside = ~problem.feasible_pairs[agents, tasks]
        if outside.any():
            k = int(np.argmax(outside))
            raise SolverError(
                f"pair ({problem.agent_ids[agents[k]]}, "
                f"{problem.task_ids[tasks[k]]}) violates the feasibility mask")
        loads = np.zeros(self.m, dtype=np.int64)
        np.add.at(loads, agents, problem.weights[agents, tasks])
        over = loads > problem.agent_capacities
        if over.any():
            i = int(np.argmax(over))
            raise SolverError(
                f"agent {problem.agent_ids[i]} overloaded: "
                f"{loads[i]} > {problem.agent_capacities[i]}")


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
    w, v = work.weights.tolist(), work.values.tolist()
    feas = work.feasible.tolist()
    rem = list(work.caps)
    current = [-1] * n
    best_val = -float("inf")
    best = [-1] * n
    nodes = 0

    def explore(j: int, val: float) -> None:
        nonlocal best_val, best, nodes
        nodes += 1
        if j == n:
            if val > best_val:
                best_val = val
                best = current.copy()
            return
        for i in range(m):
            if feas[i][j] and rem[i] >= w[i][j]:
                rem[i] -= w[i][j]
                current[j] = i
                explore(j + 1, val + v[i][j])
                rem[i] += w[i][j]
        current[j] = -1
        explore(j + 1, val)

    explore(0, 0.0)
    best = np.array(best, dtype=np.int64)
    work.verify(best)
    return work.to_assignment(best, proven=True, nodes=nodes, exhausted=False)


def _greedy(work: _Work) -> np.ndarray:
    agents, tasks = work.cand_agent, work.cand_task
    v, w = work.cand_v, work.cand_w
    order = np.lexsort((work.task_rank[tasks], work.agent_rank[agents],
                        -v, -v / w))
    rem = list(work.caps)
    assigned = [-1] * work.n
    for i, j, w_ij in zip(agents[order].tolist(), tasks[order].tolist(),
                          w[order].tolist()):
        if assigned[j] < 0 and rem[i] >= w_ij:
            assigned[j] = i
            rem[i] -= w_ij
    return np.array(assigned, dtype=np.int64)


def greedy_construct(problem: GapProblem) -> Assignment:
    """Ratio-greedy construction: feasible pairs in non-increasing v/w order
    (ties: higher value, then lexicographic ids); a task is assigned to the
    first agent with remaining capacity."""
    work = _Work(problem)
    assigned = _greedy(work)
    work.verify(assigned)
    return work.to_assignment(assigned, proven=False, nodes=0, exhausted=False)


_BLOCK = 4096  # cells per block of an exchange / swap scan


def _neighbourhoods(work: _Work, assigned: np.ndarray, rem: np.ndarray):
    """Local search's scan, in order, one neighbourhood at a time, as
    ``(kind, block, rows)``.

    ``block(r)`` gives the cells of rows ``r`` as equal-shaped arrays
    ``(charged, gain, ok, x, y)``: the cells that cost a work unit (scanned
    row by row), each move's gain, whether it keeps the mask and every
    capacity, and its two arguments, ``x`` by row and ``y`` by column.  For
    a neighbourhood that fits in one block ``rows`` is the slice of all its
    rows; otherwise ``r`` is an ascending index array and ``rows()`` gives,
    per row, its number of charged cells, a bound that none of its gains
    exceeds and its width in cells.  Insert and shift are one row each.
    """
    values, weights, feasible = work.values, work.weights, work.feasible
    agent, task = work.cand_agent, work.cand_task
    holder = assigned[task]
    fits = rem[agent] >= work.cand_w
    # insert: every candidate of an unassigned task
    yield ("insert", lambda r: (holder < 0, work.cand_v, fits, task, agent),
           slice(None))
    # shift: every candidate of an assigned task but its current agent
    yield ("shift", lambda r: ((holder >= 0) & (holder != agent),
                               work.cand_v - values[holder, task], fits,
                               task, agent), slice(None))

    free = np.flatnonzero(assigned < 0)
    held = np.flatnonzero(assigned >= 0)
    own = assigned[held]
    v_own = values[own, held]
    slack = rem[own] + weights[own, held]
    h, f = len(held), len(free)
    # exchange: assigned j1 out, unassigned j2 in on j1's agent; each
    # statically feasible (agent, j2) pair
    if h and f:
        vals, wts, feas = values[:, free], weights[:, free], feasible[:, free]

        def exchange(r):
            i = own[r]
            return (feas[i], vals[i] - v_own[r, None],
                    wts[i] <= slack[r, None], held[r], free)

        def exchange_rows():
            # exact: a gain is one subtraction, and rounding is monotone;
            # values are >= 0, so the 0.0 off the mask never raises the
            # maximum of a row that has charged cells
            return feas.sum(1)[own], vals.max(1)[own] - v_own, np.full(h, f)

        yield ("exchange", exchange,
               slice(None) if h * f <= _BLOCK else exchange_rows)

    # swap: assigned j1 before j2 trade agents; each pair on different
    # agents, charged before the mask is read
    if h > 1:
        vals, wts, feas = values[:, held], weights[:, held], feasible[:, held]
        pos = np.arange(h)

        def swap(r):
            rc = pos[r, None]
            lo = int(rc[0, 0]) + 1
            i1, i2 = own[r], own[lo:]
            ok = feas[i1, lo:] & feas[:, r][i2].T \
                & (slack[r, None] >= wts[i1, lo:]) \
                & (slack[lo:] >= wts[:, r][i2].T)
            gain = vals[:, r][i2].T + vals[i1, lo:] - v_own[r, None] \
                - v_own[lo:]
            return ((pos[lo:] > rc) & (i1[:, None] != i2), gain, ok, held[r],
                    held[lo:])

        def swap_rows():
            # row s charges the later held tasks on other agents: all later
            # ones but those that follow it in its agent's run of `order`
            order = np.argsort(own, kind="stable")
            later = np.empty(h, dtype=np.int64)
            later[order] = np.cumsum(np.bincount(own))[own[order]] - pos
            # a gain (values[own[t], j1] + values[own[s], j2]) - v_own[s] -
            # v_own[t] is at most best_value[j1] - v_own[s] plus the largest
            # values[own[s], j2] - v_own[t] over the later t that can keep
            # the mask on another agent: a suffix maximum per agent.  The
            # gain and the bound add the same values in different orders;
            # together they round by less than 7 ulps of the largest value,
            # which the margin covers.
            second = np.where(feas, vals - v_own, -np.inf)
            second[own, pos] = -np.inf
            second = np.maximum.accumulate(second[:, ::-1], axis=1)[:, ::-1]
            margin = 16 * np.finfo(float).eps * values.max()
            bound = (work.best_value[held[:-1]] - v_own[:-1]) \
                + second[own[:-1], pos[1:]] + margin
            return (h - pos - later)[:-1], bound, h - 1 - pos[:-1]

        yield ("swap", swap,
               slice(0, h - 1) if (h - 1) * (h - 1) <= _BLOCK else swap_rows)


def _best_cell(best: float, drop: int, charged, gain, ok, x, y):
    """The first largest gain above ``best`` among the charged cells in
    scan order, all but the last ``drop`` of them: ``(gain, (x, y))``, or
    ``(best, None)`` where none is larger."""
    gain = np.where(charged & ok, gain, -np.inf).ravel()
    if drop:  # up to the last cell kept
        keep = np.flatnonzero(charged)[:-drop]
        gain = gain[:keep[-1] + 1 if len(keep) else 0]
    if len(gain):
        k = int(np.argmax(gain))
        if gain[k] > best:
            at = np.unravel_index(k, charged.shape)
            return gain[k], (int(x[at[0]]), int(y[at[-1]]))
    return best, None


def _scan(clock: _BudgetClock, best: float, block, rows):
    """Charge one neighbourhood with a single ``charge`` and find the first
    largest gain above ``best`` among its granted cells; returns ``(best,
    (x, y) or None, cut)``.

    A neighbourhood that fits in one block is that block with every row
    live.  Otherwise the fully granted rows are found from the per-row
    counts, of a partly granted last row only its granted cells count, and
    a row is evaluated only while its bound beats the best gain so far:
    live rows in scan order, in blocks of at most ``_BLOCK`` cells.
    """
    if isinstance(rows, slice):
        charged, gain, ok, x, y = block(rows)
        total = int(np.count_nonzero(charged))
        granted = clock.charge(total)
        best, move = _best_cell(best, total - granted, charged, gain, ok, x, y)
        return best, move, granted < total
    counts, bound, width = rows()
    ends = np.cumsum(counts)
    total = int(ends[-1])
    granted = clock.charge(total)
    full = int(np.searchsorted(ends, granted, "right"))
    part = granted - (int(ends[full - 1]) if full else 0)  # of row `full`
    live = np.flatnonzero(bound[:full + (part > 0)] > best)
    move = None
    while len(live):
        k = max(1, _BLOCK // int(width[live[0]]))
        r, live = live[:k], live[k:]
        drop = int(counts[full]) - part if r[-1] == full else 0
        best, found = _best_cell(best, drop, *block(r))
        if found is not None:
            move = found
            live = live[bound[live] > best]
    return best, move, granted < total


def _local_search(work: _Work, assigned: np.ndarray,
                  clock: _BudgetClock) -> np.ndarray:
    """Best-improvement over insert / shift / exchange / swap moves until a
    local optimum or budget exhaustion; the objective never decreases.

    Exchange replaces an assigned task with an unassigned one on the same
    agent; without it, full agents are frozen and tight knapsack-style
    instances stall well below optimum.

    Each neighbourhood is charged in bulk and only its granted cells are
    considered (see :func:`_scan`).  The move kept is the first largest gain
    above the best so far, which is what a cell-by-cell scan keeping strict
    improvements picks.
    """
    weights = work.weights
    rem = work.problem.agent_capacities.copy()
    held = np.flatnonzero(assigned >= 0)
    np.subtract.at(rem, assigned[held], weights[assigned[held], held])
    while True:
        best_delta, move, cut = _EPS, None, False
        for kind, block, rows in _neighbourhoods(work, assigned, rem):
            best_delta, found, cut = _scan(clock, best_delta, block, rows)
            if found is not None:
                move = (kind, *found)
            if cut:
                break

        if move is not None:
            kind, x, y = move
            if kind == "insert":
                assigned[x] = y
                rem[y] -= weights[y, x]
            elif kind == "shift":
                i0 = assigned[x]
                rem[i0] += weights[i0, x]
                assigned[x] = y
                rem[y] -= weights[y, x]
            elif kind == "exchange":
                i0 = assigned[x]
                rem[i0] += weights[i0, x] - weights[i0, y]
                assigned[x] = -1
                assigned[y] = i0
            else:  # swap
                i1, i2 = assigned[x], assigned[y]
                rem[i1] += weights[i1, x] - weights[i1, y]
                rem[i2] += weights[i2, y] - weights[i2, x]
                assigned[x], assigned[y] = i2, i1
        if cut or move is None:
            return assigned


def local_search_improve(problem: GapProblem, start: Assignment,
                         budget: SolverBudget) -> Assignment:
    """Improve a feasible assignment; returns when no improving move exists
    or the budget runs out.  One work unit per charged candidate move (see
    the module docstring)."""
    work = _Work(problem)
    assigned = work.from_assignment(start)
    work.verify(assigned)
    clock = budget.start()
    assigned = _local_search(work, assigned, clock)
    work.verify(assigned)
    return work.to_assignment(assigned, proven=False, nodes=clock.used,
                              exhausted=clock.exhausted)


def _branch_and_bound(work: _Work, incumbent: np.ndarray,
                      clock: _BudgetClock) -> tuple[np.ndarray, bool]:
    """Depth-first task-ordered search.  Returns (best, completed).

    The upper bound at a node is the value of the fixed prefix plus, for each
    remaining task, its best value over statically feasible agents with the
    capacity constraint relaxed; subtrees whose bound cannot beat the
    incumbent are pruned.

    Depth ``d`` fixes task ``order[d]``; ``applied[d]`` is the agent it is
    placed on (None: left out) and ``untried[d]`` its remaining options,
    last one next: None, then the agents with room, worst first.  An
    expanded node steps straight into its first child; when no agent has
    room (``max(rem)`` below the task's smallest weight) that child, leaving
    the task out, is the only one.

    Nodes cost one unit each, taken from the clock in batches; ``left`` is
    what the current batch has not spent yet.
    """
    if not clock.charge():  # the root, charged before any set-up
        return incumbent.copy(), False
    n = work.n
    task_ids = work.problem.task_ids
    best_value = work.best_value.tolist()
    order = sorted(range(n), key=lambda j: (-best_value[j], task_ids[j]))
    suffix = [0.0] * (n + 1)
    for d in range(n - 1, -1, -1):
        suffix[d] = suffix[d + 1] + best_value[order[d]]
    # per-depth rows of task order[d]: value and weight by agent, and its
    # candidate (agent, weight) pairs, worst first
    v_at = work.values.T[order].tolist()
    w_at = work.weights.T[order].tolist()
    candidates = list(zip(work.cand_agent.tolist(), work.cand_w.tolist()))
    offsets = work.offsets.tolist()
    pairs_at = [candidates[offsets[j]:offsets[j + 1]][::-1] for j in order]
    minw_at = [min((wt for _, wt in pairs), default=math.inf)
               for pairs in pairs_at]

    best = incumbent.copy()
    best_val = work.objective(incumbent)
    rem = list(work.caps)
    val = 0.0
    untried: list = [()] * n
    applied: list[int | None] = [None] * n
    left = 0
    top = None  # max(rem), None once rem has changed
    d = 0
    while True:
        # visit the (charged) node whose tasks order[:d] are placed
        if d < n and val + suffix[d] > best_val:
            if top is None:
                top = max(rem)
            if top < minw_at[d]:
                i = None
                untried[d] = ()
            else:
                options = [None]
                options += [i for i, wt in pairs_at[d] if rem[i] >= wt]
                i = options.pop()
                untried[d] = options
        else:
            if d == n and val > best_val:
                best_val = val
                best = np.full(n, -1, dtype=np.int64)
                for depth, agent in enumerate(applied):
                    if agent is not None:
                        best[order[depth]] = agent
            # back up to the deepest depth with an untried option
            while True:
                d -= 1
                if d < 0:
                    clock.refund(left)
                    return best, True
                i = applied[d]
                if i is not None:
                    rem[i] += w_at[d][i]
                    val -= v_at[d][i]
                    top = None
                if untried[d]:
                    break
            i = untried[d].pop()
        if i is not None:
            rem[i] -= w_at[d][i]
            val += v_at[d][i]
            top = None
        applied[d] = i
        d += 1
        left -= 1
        if left < 0:
            left = clock.charge_batch() - 1
            if left < 0:
                return best, False


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
    return sum(work.best_value.tolist())


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
