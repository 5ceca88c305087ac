"""Checks of one cycle's answer that do not trust the program, and the
benchmark's own upper bound on a cycle's objective.

Everything here reads the instance's own task and agent records and the
cycle's availability sets; nothing reuses the program's matrices, masks or
bounds, so a change to those cannot hide a wrong answer or move the gap.
"""

import math

import numpy as np

BOUND_STEPS = 120
BOUND_DECAY = 0.95


class InstanceView:
    """Compatibility, weights and capacities of one instance, in instance
    order, built straight from its ``AgentSpec`` and ``TaskSpec`` records."""

    def __init__(self, instance):
        self.agent_ids = tuple(a.id for a in instance.agents)
        self.task_ids = tuple(t.id for t in instance.tasks)
        self.agent_index = {a: i for i, a in enumerate(self.agent_ids)}
        self.task_index = {t: j for j, t in enumerate(self.task_ids)}
        self.capacity = {a.id: a.capacity for a in instance.agents}
        self.tasks = {t.id: t for t in instance.tasks}
        m, n = len(self.agent_ids), len(self.task_ids)
        self.capacities = np.array([a.capacity for a in instance.agents],
                                   dtype=np.float64)
        self.compat = np.zeros((m, n), dtype=bool)
        self.weights = np.zeros((m, n), dtype=np.float64)
        for j, task in enumerate(instance.tasks):
            for agent_id in task.compatible:
                i = self.agent_index[agent_id]
                self.compat[i, j] = True
                self.weights[i, j] = task.weights[agent_id]

    def feasible(self, entry) -> np.ndarray:
        """Compatible pairs whose agent and task are both available."""
        agents, tasks = entry
        rows = np.zeros(len(self.agent_ids), dtype=bool)
        rows[[self.agent_index[a] for a in agents]] = True
        cols = np.zeros(len(self.task_ids), dtype=bool)
        cols[[self.task_index[t] for t in tasks]] = True
        return self.compat & rows[:, None] & cols[None, :]


def lagrangian_bound(values: np.ndarray, weights: np.ndarray,
                     capacities: np.ndarray, feasible: np.ndarray) -> float:
    """Upper bound on a generalized assignment optimum from relaxing the
    capacity constraints with multipliers ``u >= 0``:

        L(u) = sum_i u_i*C_i + sum_j max(0, max_i (v_ij - u_i*w_ij))

    over the feasible pairs (Fisher, Jaikumar & Van Wassenhove 1986).
    ``L(u)`` is a valid bound for every ``u >= 0``; ``BOUND_STEPS``
    normalized subgradient steps of geometrically shrinking length search
    for a small one, and the smallest value seen is returned.  Deterministic:
    the step schedule depends only on the problem data.
    """
    caps = np.asarray(capacities, dtype=np.float64)
    usable = feasible & (weights <= caps[:, None])
    # a task with no usable pair adds nothing to L(u)
    columns = usable.any(axis=0)
    if not columns.any():
        return 0.0
    usable = usable[:, columns]
    v = np.where(usable, np.asarray(values, dtype=np.float64)[:, columns], -np.inf)
    w = np.where(usable, np.asarray(weights, dtype=np.float64)[:, columns], 0.0)
    m, n = v.shape
    cols = np.arange(n)
    u = np.zeros(m)
    step = float(np.median(v[usable] / w[usable]))
    best = math.inf
    for _ in range(BOUND_STEPS):
        # unusable pairs hold -inf in v and 0 in w, so they never win a column
        reduced = v - u[:, None] * w
        agent = reduced.argmax(axis=0)
        gain = reduced[agent, cols]
        take = gain > 0
        best = min(best, float(u @ caps + gain @ take))
        load = np.bincount(agent, weights=w[agent, cols] * take, minlength=m)
        # L is convex in u with subgradient C - load; a zero subgradient
        # means u already minimizes it
        grad = caps - load
        norm = math.sqrt(grad @ grad)
        if norm == 0.0 or step <= 0.0:
            break
        u = np.maximum(0.0, u - (step / norm) * grad)
        step *= BOUND_DECAY
    return best


def check_cycle(view: InstanceView, entry, overrides, problem, assignment,
                bound: float) -> tuple[list[str], int]:
    """Check one cycle's assignment against the instance and availability.

    Returns the list of violations (empty when the answer is valid) and the
    raw profit of the assigned pairs, which the caller compares with the
    ``profit`` the run wrote for this cycle.
    """
    errors = []
    if tuple(problem.agent_ids) != view.agent_ids \
            or tuple(problem.task_ids) != view.task_ids:
        return ["problem rows or columns are not in instance order"], 0
    agents, tasks = entry
    loads: dict[str, int] = {}
    seen: set[str] = set()
    value_sum = 0.0
    profit = 0
    for agent_id, task_id in sorted(assignment.pairs):
        task = view.tasks.get(task_id)
        if task is None or agent_id not in task.compatible:
            errors.append(f"pair ({agent_id}, {task_id}) is incompatible")
            continue
        if agent_id not in agents or task_id not in tasks:
            errors.append(f"pair ({agent_id}, {task_id}) was unavailable")
        if task_id in seen:
            errors.append(f"task {task_id} assigned twice")
        seen.add(task_id)
        loads[agent_id] = loads.get(agent_id, 0) + task.weights[agent_id]
        value_sum += float(problem.values[view.agent_index[agent_id],
                                          view.task_index[task_id]])
        if overrides and task_id in overrides:
            profit += int(overrides[task_id])
        else:
            profit += int(task.profits[agent_id])
    for agent_id, load in sorted(loads.items()):
        if load > view.capacity[agent_id]:
            errors.append(f"agent {agent_id} over capacity: "
                          f"{load} > {view.capacity[agent_id]}")
    tolerance = 1e-9 * max(1.0, abs(value_sum))
    if abs(value_sum - assignment.objective) > tolerance:
        errors.append(f"objective {assignment.objective!r} != recomputed "
                      f"value sum {value_sum!r}")
    if assignment.objective > bound + 1e-9 * max(1.0, abs(bound)):
        errors.append(f"objective {assignment.objective!r} exceeds the "
                      f"upper bound {bound!r}")
    return errors, profit
