"""Single-cycle assignment solver under a work budget.

Maximizes the summed values of assigned tasks subject to agent capacities,
one-agent-per-task, and a feasibility mask.  Three routes are provided:

  * :func:`brute_force_oracle` -- exhaustive enumeration, for verification
    only (guarded by a size limit),
  * :func:`greedy_construct` + :func:`local_search_improve` -- anytime
    heuristic (value/weight ratio construction, then best-improvement over
    insert/shift/exchange/swap moves, perturbed and rerun while the first
    half of the budget lasts),
  * :func:`branch_and_bound` -- exact depth-first search with a
    capacity-relaxed upper bound, anytime under the budget.

:func:`solve` chains greedy, local search and branch-and-bound over one
shared budget, so its objective never falls below the greedy floor.

Local search that stops at a local optimum with budget left goes on as an
iterated local search (Lourenço, Martin & Stützle 2003).  Round ``r`` (1,
2, ...) charges one unit before it draws, so a round that finds the budget
spent does not start; it un-assigns ``_KICK`` of the best assignment's
assigned tasks, drawn by ``random.Random(r).sample`` from them in task
order, reruns local search from there on the same clock and keeps the
result only if its objective is higher by more than ``_EPS``.  No round
starts once the budget is exhausted, once ``_ILS_SHARE`` of it is used
(:meth:`_BudgetClock.used_share`: of a node limit's units, or of a
deadline's seconds since the clock started), or after ``_PATIENCE`` rounds
in a row that did not improve.  Branch-and-bound then continues from the
best assignment with what is left.  Each round draws from a generator of
its own, seeded by the round's number alone, so under a node limit the
rounds, and the units they charge, are as deterministic as the rest of the
search.

Budgets are counted in deterministic work units ("nodes"): one per
branch-and-bound node, one per perturbed round, and one per local-search
candidate move scanned --
every insert, every shift except onto the task's current agent, every
exchange onto a statically feasible pair, and every swap between tasks on
different agents (charged before its mask is read).  Local search charges
each neighbourhood in bulk, with one charge and exactly that per-move
accounting.  A shift or swap neighbourhood whose bound on every gain (the
largest rise, or the two largest, of an assigned task's value from its
agent to its best one) cannot beat the best move so far is charged and
skipped without building it; otherwise the granted moves are evaluated in
numpy blocks of up to ``_BLOCK`` cells, and rows of a neighbourhood whose
gain bound cannot beat the best move so far are not evaluated.  Row bounds
are built after the charge, for the granted rows only.  A neighbourhood
that fits in one block computes a gain for each of its cells; in one that
spans several, each block first builds which of its cells are charged and
keep the mask and every capacity, and computes gains at those alone.
Branch-and-bound takes nodes from the clock in batches of at
most 256 (never more than a node limit has left), keeps one unit per node
it visits and hands back what it did not use.  A deadline is read on every
charge: once per neighbourhood, once per batch and once per round.  Where
no agent has room for a node's task, leaving it out is the only child and
nothing changes, so the search steps over the run of such nodes to the
first that is a leaf, fails the bound or has room, and charges the run in
one step; a budget that ends inside a run stops the search there with its
incumbent.  Each child is tried where it is chosen: a placement whose walk
reaches no node to expand is undone on the spot, and the search backs up
through a stack of its placed tasks.  ``nodes_explored`` and the truncation point are
those of charging node by node.  Under a node limit identical inputs
therefore yield identical assignments; a wall-clock budget trades that
determinism for a real-time contract.

:func:`solve` answers a problem once per node limit and mask when its
``values`` is its shape's recurring matrix itself
(:attr:`GapShape.recurring_values`, read-only).  The shape keeps a table
keyed by the node limit and the mask's ``np.packbits`` bytes; an entry holds
each task's agent index in the smallest signed integer type that fits (one
byte for up to 127 agents), the objective, the two flags and
``nodes_explored``: about ``m * n / 8 + n`` bytes plus a few hundred of
Python objects.  A later problem with the same key gets an equal
``Assignment`` with new read-only positions, checked against it by
:func:`_verify`, without searching; its ``nodes_explored`` is the work the
answer took when it was first computed.  The table lives on the shape, so
only problems made on it in one process share answers: the jobs of a
one-worker run on one instance do, jobs in separate worker processes do
not.  Any other ``values`` array is searched every time, even when its
contents equal the recurring matrix (``pc:1:0`` gives such an array), and
no call copies or compares a problem's arrays.  Wall-clock budgets never
read or write the table.

Values must be non-negative on feasible pairs (``GapProblem`` refuses
others): the capacity-relaxed bound and the local-search row bounds rely on
it.

Orders are exact and total.  Each task's candidate agents run by value
descending, then agent id; greedy takes the candidates by value/weight ratio
descending, then value descending, agent id, task id; branch-and-bound fixes
tasks by best value descending, then task id.  Ids compare as Python strings,
and ``-0.0`` ties with ``0.0``.
"""

import math
import random
import time
from dataclasses import dataclass
from typing import Iterable

import numpy as np

BRUTE_FORCE_LIMIT = 10_000_000
_EPS = 1e-9

# Iterated local search (module docstring).  On the mcmkp-foa benchmark
# workload (12 x 48, foa, nodes:20000, 2-core machine), ten alternating 30 s
# pairs on seeds 2-11, against local search followed by branch-and-bound on
# all it left, gave median cycles/s 388 -> 535 and bound gap 8.84% ->
# 8.07%.  One 10 s run per seed 1-3 for other shares: 0.25 ran 407-462
# cycles/s at gaps of 8.03-8.32%, 0.5 549-561 at 7.81-8.12%, 0.75 570-645
# at 7.73-8.24% and 1.0 636-661 at 7.99-8.28%.
_KICK = 4          # assigned tasks a round un-assigns
_PATIENCE = 2      # rounds in a row without improvement that end the phase
_ILS_SHARE = 0.5   # share of the budget after which no round starts


def spec_number(x: float) -> str:
    """Shortest text that ``float()`` reads back to exactly ``x``, without a
    trailing ``.0``: ``10``, ``0.5``, ``1e+16``.  Used in config specs."""
    text = repr(float(x))
    return text[:-2] if text.endswith(".0") else text


class SolverError(RuntimeError):
    """A produced assignment failed independent feasibility verification."""


@dataclass(frozen=True)
class SolverBudget:
    """Work limit for one solve: a node count or a wall-clock deadline,
    exactly one of the two."""

    node_limit: int | None = None
    wall_clock_seconds: float | None = None

    def __post_init__(self):
        if (self.node_limit is None) == (self.wall_clock_seconds is None):
            raise ValueError("a budget needs node_limit or "
                             "wall_clock_seconds, not both or neither")
        if self.node_limit is not None and self.node_limit < 0:
            raise ValueError("node_limit must be >= 0")
        if self.wall_clock_seconds is not None \
                and not 0 < self.wall_clock_seconds < math.inf:
            raise ValueError("wall_clock_seconds must be finite and > 0")

    @property
    def mode(self) -> str:
        """``"node_limit"`` or ``"wall_clock"``: which limit is given."""
        return "node_limit" if self.node_limit is not None else "wall_clock"

    @classmethod
    def nodes(cls, n: int) -> "SolverBudget":
        return cls(node_limit=n)

    @classmethod
    def seconds(cls, s: float) -> "SolverBudget":
        return cls(wall_clock_seconds=s)

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
        if self.node_limit is not None:
            return f"nodes:{self.node_limit}"
        return f"seconds:{spec_number(self.wall_clock_seconds)}"


class _BudgetClock:
    """Mutable work counter shared by the phases of one solve."""

    __slots__ = ("limit", "seconds", "start", "deadline", "used",
                 "exhausted")

    _BATCH = 256  # most units :meth:`charge_batch` takes at once

    def __init__(self, budget: SolverBudget):
        self.limit = budget.node_limit
        self.seconds = budget.wall_clock_seconds
        self.start = time.monotonic()
        self.deadline = None
        if self.seconds is not None:
            self.deadline = self.start + self.seconds
        self.used = 0
        self.exhausted = False

    def charge(self, k: int = 1) -> int:
        """Consume up to ``k`` work units; returns how many were granted.

        A node limit grants ``min(k, remaining)`` and marks the clock
        exhausted when that is fewer than ``k``, exactly where charging unit
        by unit would first have failed.  A deadline is read on every
        charge, and once it has passed the charge grants nothing.  The
        module docstring says when each caller charges.
        """
        if self.exhausted:
            return 0
        if self.limit is not None and self.used + k > self.limit:
            k = self.limit - self.used
            self.exhausted = True
        elif self.deadline is not None and time.monotonic() >= self.deadline:
            self.exhausted = True
            return 0
        self.used += k
        return k

    def charge_batch(self) -> int:
        """Take units in advance for a caller that spends one per step and
        hands the rest back with :meth:`refund`: up to ``_BATCH``, never
        more than a node limit has left, so a batch grants 0 and sets
        ``exhausted`` only where charging unit by unit would."""
        k = self._BATCH
        if self.limit is not None:
            k = max(1, min(k, self.limit - self.used))
        return self.charge(k)

    def refund(self, k: int) -> None:
        """Give back ``k`` units taken by :meth:`charge_batch` and unspent."""
        self.used -= k

    def used_share(self) -> float:
        """The share of the budget used: of a node limit's units, or of a
        deadline's seconds since the clock started."""
        if self.limit is not None:
            return self.used / self.limit if self.limit else 1.0
        return (time.monotonic() - self.start) / self.seconds


class GapShape:
    """The static part of a run's problems: ids, the counts ``m`` and ``n``,
    each id's position (``agent_index``, ``task_index``) and read-only
    copies of capacities and weights, with what the solver derives from
    them once: id ranks (Python's sorted order), ``positive`` weights and
    ``fits``, the pairs whose weight is within the agent's capacity (the
    others can never be assigned; dropping them tightens the relaxed bound
    for free).

    A shape may have one value matrix that recurs across its problems,
    ``recurring`` (``m x n``, read when first needed).  It keeps the table
    in which :func:`solve` answers the problems whose ``values`` is
    :attr:`recurring_values` itself, once per node limit and mask (module
    docstring), and checks that matrix's entries once: a problem on it
    tests only its mask against them."""

    def __init__(self, agent_ids: Iterable[str], task_ids: Iterable[str],
                 agent_capacities, weights, recurring=None):
        self.agent_ids, self.task_ids = tuple(agent_ids), tuple(task_ids)
        self.agent_index = {a: i for i, a in enumerate(self.agent_ids)}
        self.task_index = {t: j for j, t in enumerate(self.task_ids)}
        self.m, self.n = m, n = len(self.agent_ids), len(self.task_ids)
        self.agent_capacities = np.array(agent_capacities, dtype=np.int64)
        self.weights = np.array(weights, dtype=np.int64)
        if self.weights.shape != (m, n):
            raise ValueError(f"weights must have shape {(m, n)}")
        if self.agent_capacities.shape != (m,):
            raise ValueError(f"agent_capacities must have shape ({m},)")
        if (self.agent_capacities < 0).any():
            raise ValueError("capacities must be >= 0")
        self.positive = self.weights > 0
        self.fits = self.weights <= self.agent_capacities[:, None]
        for array in (self.agent_capacities, self.weights, self.positive,
                      self.fits):
            array.flags.writeable = False
        self.agent_rank = _ranks(self.agent_ids)
        self.task_rank = _ranks(self.task_ids)
        if recurring is not None and np.shape(recurring) != (m, n):
            raise ValueError(f"recurring must have shape {(m, n)}")
        self._recurring_source = recurring
        self._recurring = None  # built by recurring_values
        self._recurring_ok = None  # the pairs GapProblem accepts it on
        self._answers = {}  # (node limit, packed mask) -> stored answer

    @property
    def recurring_values(self) -> np.ndarray | None:
        """``recurring`` as a read-only float64 matrix, built on first use
        together with the pairs a :class:`GapProblem` accepts it on (finite,
        non-negative value and positive weight); ``None`` for a shape
        without one."""
        if self._recurring is None and self._recurring_source is not None:
            values = np.array(self._recurring_source, dtype=np.float64)
            values.flags.writeable = False
            self._recurring_ok = _acceptable(values, self.positive)
            self._recurring = values
        return self._recurring

    def problem(self, values, feasible_pairs) -> "GapProblem":
        """One cycle's problem on this shape."""
        problem = GapProblem.__new__(GapProblem)
        problem._take(self, values, feasible_pairs)
        return problem


class GapProblem:
    """One cycle's assignment problem in index space: a :class:`GapShape`
    and the cycle's ``values`` and ``feasible_pairs``, the latter combining
    compatibility and availability.  On feasible pairs values are finite
    and non-negative (``-0.0`` included) and weights positive; entries off
    them are never read.  The constructor makes a shape of its own;
    :meth:`GapShape.problem` shares one."""

    def __init__(self, agent_ids: Iterable[str], task_ids: Iterable[str],
                 agent_capacities, weights, values, feasible_pairs):
        self._take(GapShape(agent_ids, task_ids, agent_capacities, weights),
                   values, feasible_pairs)

    def _take(self, shape: GapShape, values, feasible_pairs) -> None:
        self.shape = shape
        self.values = np.asarray(values, dtype=np.float64)
        self.feasible_pairs = np.asarray(feasible_pairs, dtype=bool)
        dims = shape.weights.shape
        for name in ("values", "feasible_pairs"):
            if getattr(self, name).shape != dims:
                raise ValueError(f"{name} must have shape {dims}")
        ok = shape._recurring_ok if self.values is shape._recurring \
            else _acceptable(self.values, shape.positive)
        if (ok >= self.feasible_pairs).all():  # ok on every feasible pair
            return
        used = self.values[self.feasible_pairs]
        if not np.isfinite(used).all():
            raise ValueError("values must be finite on feasible pairs")
        if (used < 0).any():
            raise ValueError("values must be >= 0 on feasible pairs")
        raise ValueError("weights must be positive on feasible pairs")

    agent_ids = property(lambda self: self.shape.agent_ids)
    task_ids = property(lambda self: self.shape.task_ids)
    agent_capacities = property(lambda self: self.shape.agent_capacities)
    weights = property(lambda self: self.shape.weights)


class Assignment:
    """One cycle's solution: feasible (agent_id, task_id) pairs plus solver
    metadata.

    The solver builds it from positions: ``positions`` is ``(rows, cols)``,
    agent index ``rows[k]`` holding task ``cols[k]``, tasks ascending, over
    the problem's ids.  ``pairs`` is then built on first access.  An
    assignment built from ``pairs`` has no positions (``None``).  Two
    assignments are equal when their pairs, objective and three flags are.
    """

    __slots__ = ("objective", "proven_optimal", "nodes_explored",
                 "budget_exhausted", "positions", "_ids", "_pairs")

    def __init__(self, pairs: Iterable[tuple[str, str]] | None,
                 objective: float, proven_optimal: bool, nodes_explored: int,
                 budget_exhausted: bool, *,
                 positions: tuple[np.ndarray, np.ndarray] | None = None,
                 ids: tuple[tuple[str, ...], tuple[str, ...]] | None = None):
        self._pairs = None if pairs is None else frozenset(pairs)
        self.objective = objective
        self.proven_optimal = proven_optimal
        self.nodes_explored = nodes_explored
        self.budget_exhausted = budget_exhausted
        self.positions = positions
        self._ids = ids

    @property
    def pairs(self) -> frozenset[tuple[str, str]]:
        if self._pairs is None:
            (agent_ids, task_ids), (rows, cols) = self._ids, self.positions
            self._pairs = frozenset(zip(
                map(agent_ids.__getitem__, rows.tolist()),
                map(task_ids.__getitem__, cols.tolist())))
        return self._pairs

    def _key(self) -> tuple:
        return (self.pairs, self.objective, self.proven_optimal,
                self.nodes_explored, self.budget_exhausted)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Assignment):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return ("Assignment(pairs={!r}, objective={!r}, proven_optimal={!r}, "
                "nodes_explored={!r}, budget_exhausted={!r})"
                .format(*self._key()))


def _acceptable(values: np.ndarray, positive: np.ndarray) -> np.ndarray:
    """The pairs a problem may make feasible: finite, non-negative value
    (``-0.0`` included) and positive weight."""
    return np.isfinite(values) & (values >= 0) & positive


def _ranks(ids: tuple[str, ...]) -> np.ndarray:
    """Each id's position in Python's sorted order of ``ids``, read-only."""
    ranks = np.empty(len(ids), dtype=np.int64)
    ranks[sorted(range(len(ids)), key=ids.__getitem__)] = np.arange(len(ids))
    ranks.flags.writeable = False
    return ranks


def _dense_rank(x: np.ndarray) -> tuple[np.ndarray, int]:
    """Each entry's rank among the distinct values of ``x``, ascending, and
    the number of distinct values.  Equal entries share a rank, ``-0.0`` and
    ``0.0`` included, as they tie in a sort."""
    order = np.argsort(x)
    rank = np.empty(len(x), dtype=np.int64)
    if not len(x):
        return rank, 0
    s = x[order]
    rank[order[0]] = 0
    rank[order[1:]] = np.cumsum(s[1:] != s[:-1])
    return rank, int(rank[order[-1]]) + 1


def _order(*parts: tuple[np.ndarray, int]) -> np.ndarray:
    """The permutation that sorts by ``parts``, most significant first; each
    part is ``(rank, levels)``, an integer array with entries in ``[0,
    levels)``.  The parts must tell every entry apart.

    One sort of an int64 mixed-radix key whose last digit is each entry's
    index: the parts tell the entries apart, so the sorted keys hold the
    permutation in that digit (a plain sort of int64 is faster than an
    ``argsort``).  That digit's radix is a power of two, below twice the
    entry count, so the permutation is the keys' low bits (a mask is faster
    than an int64 modulo).  Before a part, or the index, would carry the key
    past 2**63, the key so far is replaced by its dense rank, which is below
    the entry count; so the key fits int64 whenever twice the entry count
    times the largest of ``levels`` and the entry count does.  For the
    solver's parts that product is at most twice the square of the
    candidate count: up to 2e9 candidates, whose value matrix alone takes
    16 GB.
    """
    key, size = parts[0]
    n = len(key)
    radix = 1 << (n - 1).bit_length()
    for rank, levels in (*parts[1:], (np.arange(n), radix)):
        if size * levels > 2**63:
            key, size = _dense_rank(key)
        key = key * levels + rank
        size *= levels
    key.sort()
    key &= radix - 1
    return key


def _positions(assigned: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """An index-space assignment as ``(rows, cols)``, tasks ascending."""
    cols = np.flatnonzero(assigned >= 0)
    return assigned[cols], cols


def _verify(problem: GapProblem, rows: np.ndarray, cols: np.ndarray) -> None:
    """Independent feasibility check of agent ``rows[k]`` holding task
    ``cols[k]``, run on every assignment a solve produces or reuses."""
    outside = ~problem.feasible_pairs[rows, cols]
    if outside.any():
        k = int(np.argmax(outside))
        raise SolverError(
            f"pair ({problem.agent_ids[rows[k]]}, "
            f"{problem.task_ids[cols[k]]}) violates the feasibility mask")
    loads = np.zeros(len(problem.agent_ids), dtype=np.int64)
    np.add.at(loads, rows, problem.weights[rows, cols])
    over = loads > problem.agent_capacities
    if over.any():
        i = int(np.argmax(over))
        raise SolverError(
            f"agent {problem.agent_ids[i]} overloaded: "
            f"{loads[i]} > {problem.agent_capacities[i]}")


def _assignment(problem: GapProblem, assigned: np.ndarray, objective: float,
                proven: bool, nodes: int, exhausted: bool) -> Assignment:
    """The ``Assignment`` of ``assigned`` (agent index per task, -1 for
    none) on ``problem``, checked by :func:`_verify`; its positions are
    int64 and read-only."""
    rows, cols = _positions(assigned)
    rows = rows.astype(np.int64, copy=False)
    _verify(problem, rows, cols)
    rows.flags.writeable = cols.flags.writeable = False
    return Assignment(pairs=None, objective=objective, proven_optimal=proven,
                      nodes_explored=nodes, budget_exhausted=exhausted,
                      positions=(rows, cols),
                      ids=(problem.agent_ids, problem.task_ids))


class _Work:
    """Problem unpacked for the solver.  An assignment is an int array over
    tasks holding the agent index, -1 for unassigned.

    The candidates are the statically feasible pairs as flat arrays, task by
    task, each task's agents by value descending then agent id;
    ``offsets[j]:offsets[j + 1]`` is task ``j``'s slice.  ``cand_v_rank``
    is each candidate's value rank, descending, among ``value_levels``
    distinct values.
    """

    def __init__(self, problem: GapProblem):
        self.problem = problem
        shape = problem.shape
        self.m, self.n = shape.m, shape.n
        self.caps = shape.agent_capacities.tolist()
        self.weights = shape.weights
        self.feasible = problem.feasible_pairs & shape.fits
        # 0.0 off the feasible pairs, so whole blocks can be computed on
        self.values = np.where(self.feasible, problem.values, 0.0)
        self.agent_rank, self.task_rank = shape.agent_rank, shape.task_rank
        # row-major flat positions, split into agent and task
        flat = np.flatnonzero(self.feasible)
        agents = flat // self.n
        tasks = flat - agents * self.n
        v = self.values.ravel()[flat]
        v_rank, self.value_levels = _dense_rank(-v)
        order = _order((tasks, self.n), (v_rank, self.value_levels),
                       (self.agent_rank[agents], self.m))
        self.cand_agent, self.cand_task = agents[order], tasks[order]
        self.cand_v, self.cand_v_rank = v[order], v_rank[order]
        self.cand_w = self.weights.ravel()[flat[order]]
        self.offsets = np.searchsorted(self.cand_task, np.arange(self.n + 1))
        # per-task best value over statically feasible agents (bound term)
        best = np.zeros(self.n)
        has = self.offsets[1:] > self.offsets[:-1]
        best[has] = self.cand_v[self.offsets[:-1][has]]
        self.best_value = best
        # covers the rounding of a swap's two-rise bound (see _neighbourhoods)
        self.margin = 16 * np.finfo(float).eps * self.values.max(initial=0.0)

    def objective(self, assigned: np.ndarray) -> float:
        tasks = np.flatnonzero(assigned >= 0)
        # float(): the sum of no values is the int 0
        return float(sum(self.values[assigned[tasks], tasks].tolist()))

    def to_assignment(self, assigned: np.ndarray, *, proven: bool,
                      nodes: int, exhausted: bool) -> Assignment:
        """The verified ``Assignment`` of ``assigned``."""
        return _assignment(self.problem, assigned, self.objective(assigned),
                           proven, nodes, exhausted)

    def from_assignment(self, assignment: Assignment) -> np.ndarray:
        """``assignment`` in index space, through the shape's id-to-position
        maps; checked by :func:`_verify`."""
        shape = self.problem.shape
        assigned = np.full(self.n, -1, dtype=np.int64)
        for agent_id, task_id in assignment.pairs:
            j = shape.task_index[task_id]
            if assigned[j] >= 0:
                raise SolverError(f"task {task_id} assigned twice")
            assigned[j] = shape.agent_index[agent_id]
        _verify(self.problem, *_positions(assigned))
        return assigned


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
    return work.to_assignment(best, proven=True, nodes=nodes, exhausted=False)


def _greedy_order(work: _Work) -> np.ndarray:
    """The candidates' positions by ratio v/w descending, then value
    descending, agent id, task id."""
    ratio_rank, ratio_levels = _dense_rank(-work.cand_v / work.cand_w)
    return _order((ratio_rank, ratio_levels),
                  (work.cand_v_rank, work.value_levels),
                  (work.agent_rank[work.cand_agent], work.m),
                  (work.task_rank[work.cand_task], work.n))


def _greedy(work: _Work) -> np.ndarray:
    agents, tasks, w = work.cand_agent, work.cand_task, work.cand_w
    order = _greedy_order(work)
    rem = list(work.caps)
    assigned = [-1] * work.n
    for i, j, w_ij in zip(agents[order].tolist(), tasks[order].tolist(),
                          w[order].tolist()):
        if assigned[j] < 0 and rem[i] >= w_ij:
            assigned[j] = i
            rem[i] -= w_ij
    return np.fromiter(assigned, np.int64, work.n)


def greedy_construct(problem: GapProblem) -> Assignment:
    """Ratio-greedy construction: feasible pairs in non-increasing v/w order
    (ties: higher value, then agent id, then task id); a task is assigned to
    the first agent with remaining capacity."""
    work = _Work(problem)
    assigned = _greedy(work)
    return work.to_assignment(assigned, proven=False, nodes=0, exhausted=False)


# Cells per block of an exchange / swap scan.  On the 102 solves of the
# tcsa-pc benchmark's timing seeds (2-core machine, best of 5 alternating
# runs), 8,192 took 5-7% less solve time than 4,096; 16,384 took 2% less
# again but raised that command line's peak RSS by about 0.08 MiB.
_BLOCK = 8192


def _neighbourhoods(work: _Work, assigned: np.ndarray, rem: np.ndarray):
    """Local search's scan, in order, one neighbourhood at a time, as
    ``(kind, cap, tables)``.

    ``cap`` is ``None`` or ``(count, bound)``: the neighbourhood's number of
    charged cells and a bound that none of its gains exceeds, both found
    without building its tables.  ``tables()`` builds ``(cells, rows)``.
    For a neighbourhood that fits in one block ``rows`` is ``None`` and
    ``cells`` is equal-shaped arrays ``(charged, gain, ok, x, y)``: the
    cells that cost a work unit (scanned row by row), each move's gain,
    whether it keeps the mask and every capacity, and its two arguments,
    ``x`` by row and ``y`` by column.  Otherwise ``cells(r)`` gives the
    block of an ascending index array of rows ``r`` as ``(charged, allowed,
    gain, x, y)``: ``charged()`` builds the mask of its charged cells,
    ``allowed`` is the mask of those that keep the mask and every capacity,
    built in place, and ``gain(rows, cols)`` computes the gains of the cells
    at those row and column positions, each by the arithmetic of the dense
    block.  ``rows`` is then ``(counts, width, bounds)``: two arrays over
    the rows, each row's number of charged cells and its width in cells,
    and ``bounds(stop)``, which gives for each of the first ``stop`` rows a
    bound that none of its gains exceeds; rows past the budget's grant get
    no bound.  Insert and shift are one row each.
    """
    values, weights, feasible = work.values, work.weights, work.feasible
    agent, task = work.cand_agent, work.cand_task
    holder = assigned[task]
    fits = rem[agent] >= work.cand_w
    # insert: every candidate of an unassigned task
    yield "insert", None, lambda: (
        (holder < 0, work.cand_v, fits, task, agent), None)

    free = np.flatnonzero(assigned < 0)
    held = np.flatnonzero(assigned >= 0)
    own = assigned[held]
    v_own = values[own, held]
    h, f = len(held), len(free)
    # the most a held task's value can rise on another agent
    rise = work.best_value[held] - v_own
    # shift: every candidate of an assigned task but its current agent.  A
    # gain is one subtraction from a value at most best_value, and rounding
    # is monotone, so the largest rise bounds it exactly
    count = int(np.count_nonzero(holder >= 0)) - h
    yield "shift", (count, rise.max(initial=-np.inf)), lambda: (
        ((holder >= 0) & (holder != agent),
         work.cand_v - values[holder, task], fits, task, agent), None)

    slack = rem[own] + weights[own, held]
    # exchange: assigned j1 out, unassigned j2 in on j1's agent; each
    # statically feasible (agent, j2) pair
    if h and f:
        def exchange():
            vals, wts = values[:, free], weights[:, free]
            feas = feasible[:, free]

            if h * f <= _BLOCK:
                return (feas[own], vals[own] - v_own[:, None],
                        wts[own] <= slack[:, None], held, free), None

            def cells(r):
                i = own[r]
                charged = np.take(feas, i, axis=0)
                allowed = np.take(wts, i, axis=0) <= slack[r, None]
                allowed &= charged

                def gain(rows, cols):
                    return vals[i[rows], cols] - v_own[r[rows]]

                return lambda: charged, allowed, gain, held[r], free

            # the bound is exact: a gain is one subtraction, and rounding
            # is monotone; values are >= 0, so the 0.0 off the mask never
            # raises the maximum of a row that has charged cells
            return cells, (feas.sum(1)[own], np.full(h, f), lambda stop:
                           vals.max(1)[own[:stop]] - v_own[:stop])

        yield "exchange", None, exchange

    # swap: assigned j1 before j2 trade agents; each pair on different
    # agents, charged before the mask is read.  A gain adds two values and
    # subtracts both tasks' own, so it is at most the sum of the two
    # largest rises; the two sums round by less than 7 ulps of the largest
    # value, which the margin covers
    if h > 1:
        on_agent = np.bincount(own)
        count = h * (h - 1) // 2 - int((on_agent * (on_agent - 1) // 2).sum())
        # the two largest by argmax and max: np.partition runs numpy code
        # nothing else here does, +0.3 MiB peak RSS on mcmkp-foa
        k = int(rise.argmax())
        rest = rise.copy()
        rest[k] = -np.inf

        def swap():
            vals, wts = values[:, held], weights[:, held]
            feas = feasible[:, held]
            pos = np.arange(h)

            if (h - 1) * (h - 1) <= _BLOCK:
                i1, i2 = own[:-1], own[1:]
                ok = feas[i1, 1:] & feas[i2, :-1].T \
                    & (slack[:-1, None] >= wts[i1, 1:]) \
                    & (slack[1:] >= wts[i2, :-1].T)
                gain = vals[i2, :-1].T + vals[i1, 1:] - v_own[:-1, None] \
                    - v_own[1:]
                return ((pos[1:] > pos[:-1, None]) & (i1[:, None] != i2),
                        gain, ok, held[:-1], held[1:]), None

            # no task swaps onto its own agent: clearing those pairs drops
            # the cells between tasks on one agent from each block's mask
            # and from the row bounds' table
            feas[own, pos] = False

            def cells(r):
                lo = int(r[0]) + 1
                i1, i2 = own[r], own[lo:]
                allowed = feas[i1, lo:]
                allowed &= np.take(feas[:, r].T, i2, axis=1)
                allowed &= slack[r, None] >= wts[i1, lo:]
                allowed &= slack[lo:] >= np.take(wts[:, r].T, i2, axis=1)
                # t > s can fail only in the columns up to the last row
                b = int(r[-1]) - lo + 1
                allowed[:, :b] &= pos[lo:lo + b] > r[:, None]

                def gain(rows, cols):
                    s, t = r[rows], cols + lo
                    return vals[own[t], s] + vals[own[s], t] - v_own[s] \
                        - v_own[t]

                return (lambda: (pos[lo:] > r[:, None]) & (i1[:, None] != i2),
                        allowed, gain, held[r], held[lo:])

            # row s charges the later held tasks on other agents: all later
            # ones but those that follow it in its agent's run of `order`
            order = np.argsort(own, kind="stable")
            later = np.empty(h, dtype=np.int64)
            later[order] = np.cumsum(on_agent)[own[order]] - pos
            # a gain (values[own[t], j1] + values[own[s], j2]) - v_own[s] -
            # v_own[t] is at most rise[s] plus the largest
            # values[own[s], j2] - v_own[t] over the later t that can keep
            # the mask on another agent: a suffix maximum per agent, which
            # row s takes from column s + 1; the margin covers rounding as
            # above.  Rows from `stop` on take no bound, so the suffix runs
            # over columns 1..stop, the last of them holding the maximum of
            # every column after it as well (max is exact)
            def bounds(stop):
                second = np.where(feas, vals - v_own, -np.inf)
                head = second[:, 1:stop + 1]
                head[:, -1] = second[:, stop:].max(1)
                suffix = np.maximum.accumulate(head[:, ::-1], axis=1)[:, ::-1]
                return rise[:stop] + suffix[own[:stop], pos[:stop]] \
                    + work.margin

            return cells, ((h - pos - later)[:-1], h - 1 - pos[:-1], bounds)

        yield "swap", (count, float(rise[k] + rest.max()) + work.margin), swap


def _best_cell(best: float, drop: int, charged, gain, ok, x, y):
    """The first largest gain above ``best`` among the charged cells in
    scan order, all but the last ``drop`` of them: ``(gain, (x, y))``, or
    ``(best, None)`` where none is larger.  For a block with every gain
    computed; :func:`_best_allowed` takes one that computes only those it
    may pick."""
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


def _best_allowed(best: float, drop: int, charged, allowed, gain, x, y):
    """:func:`_best_cell` for a block of a multi-block neighbourhood
    (:func:`_neighbourhoods`): its gains are computed only at the
    ``allowed`` cells before the last ``drop`` charged ones, which hold
    every cell the dense block could pick, in the same scan order.  Builds
    the charged mask only for a ``drop``."""
    flat = np.flatnonzero(allowed)
    if drop:  # up to the last cell kept
        keep = np.flatnonzero(charged())[:-drop]
        flat = flat[:np.searchsorted(flat, keep[-1] + 1 if len(keep) else 0)]
    if len(flat):
        rows, cols = np.divmod(flat, allowed.shape[1])
        gains = gain(rows, cols)
        k = int(np.argmax(gains))
        if gains[k] > best:
            return gains[k], (int(x[rows[k]]), int(y[cols[k]]))
    return best, None


def _scan(clock: _BudgetClock, best: float, cap, tables):
    """Charge one neighbourhood with a single ``charge`` and find the first
    largest gain above ``best`` among its granted cells; returns ``(best,
    (x, y) or None, cut)``.

    A neighbourhood whose ``cap`` bound cannot beat ``best`` is charged its
    ``cap`` count and yields no move; its tables are never built.  One that
    fits in one block is that block with every row live and every gain
    computed (:func:`_best_cell`).  Otherwise the fully granted rows are
    found from the per-row counts, of a partly granted last row only its
    granted cells count, bounds are asked for the granted rows alone, and a
    row is evaluated only while its bound beats the best gain so far: live
    rows in scan order, in blocks of at most ``_BLOCK`` cells, each of which
    computes gains only at its allowed cells (:func:`_best_allowed`).
    """
    if cap is not None and cap[1] <= best:
        count = cap[0]
        return best, None, clock.charge(count) < count
    cells, rows = tables()
    if rows is None:
        total = int(np.count_nonzero(cells[0]))
        granted = clock.charge(total)
        best, move = _best_cell(best, total - granted, *cells)
        return best, move, granted < total
    counts, width, bounds = rows
    ends = np.cumsum(counts)
    total = int(ends[-1])
    granted = clock.charge(total)
    if not granted:
        return best, None, granted < total
    full = int(np.searchsorted(ends, granted, "right"))
    part = granted - (int(ends[full - 1]) if full else 0)  # of row `full`
    bound = bounds(full + (part > 0))
    live = np.flatnonzero(bound > best)
    move = None
    while len(live):
        k = max(1, _BLOCK // int(width[live[0]]))
        r, live = live[:k], live[k:]
        drop = int(counts[full]) - part if r[-1] == full else 0
        best, found = _best_allowed(best, drop, *cells(r))
        if found is not None:
            move = found
            live = live[bound[live] > best]
    return best, move, granted < total


def _local_search(work: _Work, assigned: np.ndarray,
                  clock: _BudgetClock) -> tuple[np.ndarray, bool]:
    """Best-improvement over insert / shift / exchange / swap moves until a
    local optimum or budget exhaustion; the objective never decreases.
    Returns the assignment and False, since a local optimum proves nothing.

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
        for kind, cap, tables in _neighbourhoods(work, assigned, rem):
            best_delta, found, cut = _scan(clock, best_delta, cap, tables)
            if found is not None:
                move = (kind, *found)
            if cut:
                break

        if move is not None:
            # each task the move reassigns, with its new agent (-1: none)
            kind, x, y = move
            if kind in ("insert", "shift"):
                moved = [(x, y)]
            elif kind == "exchange":
                moved = [(x, -1), (y, assigned[x])]
            else:  # swap
                moved = [(x, assigned[y]), (y, assigned[x])]
            for j, i in moved:
                if assigned[j] >= 0:
                    rem[assigned[j]] += weights[assigned[j], j]
                if i >= 0:
                    rem[i] -= weights[i, j]
                assigned[j] = i
        if cut or move is None:
            return assigned, False


def _iterated_local_search(work: _Work, assigned: np.ndarray,
                           clock: _BudgetClock) -> tuple[np.ndarray, bool]:
    """:func:`_local_search`, then perturbed reruns of it while the rules of
    the module docstring allow a round.  Returns the best assignment and
    False."""
    best, _ = _local_search(work, assigned, clock)
    if clock.exhausted:  # cut by the budget, not at a local optimum
        return best, False
    best_val = work.objective(best)
    r = fails = 0
    while fails < _PATIENCE and clock.used_share() < _ILS_SHARE \
            and clock.charge():
        r += 1
        held = np.flatnonzero(best >= 0).tolist()
        start = best.copy()
        start[random.Random(r).sample(held, min(_KICK, len(held)))] = -1
        candidate, _ = _local_search(work, start, clock)
        value = work.objective(candidate)
        if value > best_val + _EPS:
            best, best_val, fails = candidate, value, 0
        else:
            fails += 1
    return best, False


def _improve(phase, problem: GapProblem, start: Assignment,
             budget: SolverBudget) -> Assignment:
    """Run ``phase`` (:func:`_iterated_local_search` or
    :func:`_branch_and_bound`) from the checked ``start`` on a clock of its
    own."""
    work = _Work(problem)
    assigned = work.from_assignment(start)
    clock = _BudgetClock(budget)
    best, completed = phase(work, assigned, clock)
    return work.to_assignment(best, proven=completed, nodes=clock.used,
                              exhausted=clock.exhausted)


def local_search_improve(problem: GapProblem, start: Assignment,
                         budget: SolverBudget) -> Assignment:
    """Improve a feasible assignment by local search; returns when the
    budget runs out or the perturbed rounds stop.

    One work unit per charged candidate move (see the module docstring).
    At a local optimum with budget left, rounds follow: round ``r`` charges
    one unit, un-assigns ``_KICK`` tasks of the best assignment so far,
    drawn by ``random.Random(r)``, and reruns local search, whose answer is
    kept only if it is better.  No round starts after half the budget
    (``_ILS_SHARE``) or after ``_PATIENCE`` rounds in a row without
    improvement.  Under a node limit the answer depends on the problem, the
    start and the limit alone; from greedy it is the incumbent that
    :func:`solve` hands to branch-and-bound."""
    return _improve(_iterated_local_search, problem, start, budget)


def _branch_and_bound(work: _Work, incumbent: np.ndarray,
                      clock: _BudgetClock) -> tuple[np.ndarray, bool]:
    """Depth-first task-ordered search.  Returns (best, completed).

    The upper bound at a node is the value of the fixed prefix plus, for each
    remaining task, its best value over statically feasible agents with the
    capacity constraint relaxed; subtrees whose bound cannot beat the
    incumbent are pruned.

    Depth ``d`` fixes task ``order[d]``.  A node's children place its task
    on each agent with room, best first, then leave it out.  Its candidate
    pairs are ``pairs_at[d]``, worst first; ``k`` counts those not yet
    tried, and the scan takes them from the end, testing each for room as it
    reaches it.  That finds the agents a list built when the node was
    expanded would hold, since ``rem`` is the same whenever the node's next
    child is taken: everything deeper has been undone.  ``placed`` holds
    ``(depth, k)`` for each placed task, shallowest first; the task sits on
    the agent of ``pairs_at[depth][k]``, and the pairs before it are still
    untried.  ``top`` is ``max(rem)``, kept up to date: an undo raises it to
    the restored capacity when that is larger, and a placement recomputes
    it only when the agent placed on held it.

    A node at depth ``e`` has tasks ``order[:e]`` fixed.  Each pass of the
    loop takes the next child of the node at depth ``d`` (``d`` is -1 above
    the root, whose only child is the root) and steps into the node at
    depth ``d + 1`` with the child's value ``x`` and largest free capacity
    ``t``.  When no agent has room for a node's task (``t`` below its
    smallest weight), leaving the task out is the node's only child, and
    the value and ``rem`` stay as they are; so the pass walks on over the
    whole run of such nodes, to the first that is a leaf, fails the bound,
    or has room for its task, and visits that one.  A placement is kept,
    and pushed on ``placed``, only when that node is expanded or is an
    improving leaf; otherwise it is undone at once, with the same float
    steps as a later back-up would take, and the next child is tried.  After
    an improving leaf, which is recorded, and after leaving a task out
    without expanding a node, the search backs up: it pops the deepest
    placed task, undoes it and takes that node's next child.

    Nodes cost one unit each, taken from the clock in batches; ``left`` is
    what the clock has granted and no node has used yet.  A pass charges
    its nodes in one step, and when the budget ends among them the search
    stops with the incumbent it has, so the nodes visited, ``clock.used``
    and the point of truncation are those of charging node by node.

    A leaf improves on the incumbent by its sum in depth order, which can
    round above the incumbent's objective while its own objective, summed
    in task order, rounds below it.  The incumbent is then the answer.
    """
    if not clock.charge():  # the root, charged before any set-up
        return incumbent, False

    def answer(best: np.ndarray, completed: bool):
        if best is not incumbent \
                and work.objective(best) < work.objective(incumbent):
            best = incumbent
        return best, completed

    n = work.n
    task_ids = work.problem.task_ids
    best_value = work.best_value.tolist()
    order = sorted(range(n), key=lambda j: (-best_value[j], task_ids[j]))
    suffix = [0.0] * (n + 1)
    for d in range(n - 1, -1, -1):
        suffix[d] = suffix[d + 1] + best_value[order[d]]
    # per-depth rows of task order[d]: value by agent, and its candidate
    # (agent, weight) pairs, worst first
    v_at = work.values.T[order].tolist()
    candidates = list(zip(work.cand_agent.tolist(), work.cand_w.tolist()))
    offsets = work.offsets.tolist()
    pairs_at = [candidates[offsets[j]:offsets[j + 1]][::-1] for j in order]
    # the smallest weight by depth, and -inf at the leaves: there
    # val + suffix[n] == val, so a walk expands a leaf exactly when it improves
    minw_at = [min((wt for _, wt in pairs), default=math.inf)
               for pairs in pairs_at] + [-math.inf]

    best = incumbent
    best_val = work.objective(incumbent)
    rem = list(work.caps)
    val = 0.0
    top = max(rem, default=0)  # ints, so it compares exactly
    # (depth, untried) of each placed task, shallowest first: it is placed
    # on the agent of pairs_at[depth][untried]
    placed: list[tuple[int, int]] = []
    left = 1  # the root's unit, taken above
    # the node whose next child is taken: the root is the only child of a
    # node above it that has no agents to try
    d, pairs, k = -1, (), 0
    while True:
        # the next child: the next untried agent with room, else leaving the
        # task out
        while k:
            k -= 1
            i, wt = pairs[k]
            if rem[i] >= wt:
                r = rem[i]
                rem[i] = r - wt
                x = val + v_at[d][i]
                t = max(rem) if r == top else top
                break
        else:
            i, x, t = None, val, top
        # step into the child at depth d + 1, and on over the run of nodes
        # below it that leave their tasks out for want of room; charge them
        # all, then visit the node reached
        e = d + 1
        while x + suffix[e] > best_val:
            if t >= minw_at[e]:
                expand = True
                break
            e += 1
        else:
            expand = False
        left -= e - d
        while left < 0:
            granted = clock.charge_batch()
            if not granted:
                return answer(best, False)
            left += granted
        if expand:
            if i is not None:
                placed.append((d, k))
                val, top = x, t
            if e < n:
                d, pairs = e, pairs_at[e]
                k = len(pairs)
                continue
            best_val = val  # an improving leaf
            best = np.full(n, -1, dtype=np.int64)
            for depth, untried in placed:
                best[order[depth]] = pairs_at[depth][untried][0]
        elif i is not None:  # undone on the spot: no deeper node was expanded
            rem[i] = r
            val = x - v_at[d][i]
            continue
        # back up to the deepest placed task and take its next child
        if not placed:
            clock.refund(left)
            return answer(best, True)
        d, k = placed.pop()
        pairs = pairs_at[d]
        i, wt = pairs[k]
        r = rem[i] + wt
        rem[i] = r
        val -= v_at[d][i]
        if r > top:
            top = r


def branch_and_bound(problem: GapProblem, incumbent: Assignment,
                     budget: SolverBudget) -> Assignment:
    """Exact search from a feasible incumbent; anytime under the budget.
    ``proven_optimal`` is set only if the tree was exhausted in budget."""
    return _improve(_branch_and_bound, problem, incumbent, budget)


def root_upper_bound(problem: GapProblem) -> float:
    """Capacity-relaxed bound at the root: sum of per-task best values."""
    work = _Work(problem)
    return sum(work.best_value.tolist())


def solve(problem: GapProblem, budget: SolverBudget) -> Assignment:
    """Greedy construction, iterated local search in the first half of the
    budget, then branch-and-bound with the rest, all on one clock.  The
    result is feasible, never worse than greedy, and marked proven optimal
    only when branch-and-bound finished.

    Under a node budget the result depends on the budget and the problem
    alone, so a problem on its shape's recurring values is answered once
    per node limit and mask (module docstring)."""
    shape = problem.shape
    key = None
    if budget.node_limit is not None and problem.values is shape._recurring:
        key = budget.node_limit, np.packbits(problem.feasible_pairs).tobytes()
        known = shape._answers.get(key)
        if known is not None:
            return _assignment(problem, *known)
    work = _Work(problem)
    clock = _BudgetClock(budget)
    assigned = _greedy(work)
    _verify(problem, *_positions(assigned))
    assigned, _ = _iterated_local_search(work, assigned, clock)
    _verify(problem, *_positions(assigned))
    best, completed = _branch_and_bound(work, assigned, clock)
    result = work.to_assignment(best, proven=completed, nodes=clock.used,
                                exhausted=clock.exhausted)
    if key is not None:
        # each task's agent in the smallest signed type that holds -1 and
        # every agent index
        shape._answers[key] = (best.astype(np.min_scalar_type(-1 - shape.m)),
                               result.objective, completed, clock.used,
                               clock.exhausted)
    return result
