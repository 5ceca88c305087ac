"""Multi-cycle execution: run one strategy over one availability trace,
cycle by cycle, and collect rotation and profit metrics.

Each cycle is solved independently: the strategy combines the cycle's
profits and affinities into a value matrix, the solver picks a feasible
assignment under the work budget, and the affinity state advances from the
observed assignment.  Profit accounting always sums raw profits (never
strategy values), so every strategy's total is directly comparable to the
profit-only baseline.
"""

import logging
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping

import numpy as np

from .affinity import AffinityState, init_affinities, update_affinities
from .domain import IdInts, Instance, InstanceMatrices, ScenarioTrace
from .solver import Assignment, GapProblem, SolverBudget, solve
from .strategies import StrategyConfig, compute_values, max_affinity_pressure

log = logging.getLogger(__name__)

PriorityHook = Callable[[int], Mapping[str, int]]


@dataclass(frozen=True)
class CycleReport:
    """Per-cycle outcome.  ``profit`` sums raw profits of the assigned pairs;
    ``objective`` is the strategy-value objective; ``max_ap`` is the maximum
    affinity pressure before this cycle's assignment; the last three are the
    solver's flags and work units for the cycle."""

    cycle: int
    profit: int
    objective: float
    max_ap: float
    assigned_count: int
    budget_exhausted: bool
    proven_optimal: bool
    nodes_explored: int


@dataclass(eq=False)
class RunReport:
    """One (strategy, trace) run: totals, rotation metrics, per-cycle series,
    final per-pair assignment counts, and seed provenance for baseline
    comparisons."""

    strategy: StrategyConfig
    total_profit: int
    full_rotations: int
    avg_rotations_per_task: float
    per_cycle: list[CycleReport]
    final_counts: np.ndarray
    provenance: dict


def build_gap_problem(mats: InstanceMatrices, values: np.ndarray,
                      feasible: np.ndarray) -> GapProblem:
    """Restrict the instance to the cycle's available compatible pairs."""
    return GapProblem(
        agent_ids=mats.agent_ids,
        task_ids=mats.task_ids,
        agent_capacities=mats.capacities,
        weights=mats.weights,
        values=values,
        feasible_pairs=feasible,
    )


def _profit_matrix(mats: InstanceMatrices,
                   overrides: Mapping[str, int] | None) -> np.ndarray:
    """The instance profits with each overridden task's profit set in its
    whole column; ``ValueError`` names an unknown task or a negative
    profit.  An :class:`IdInts` over the instance's own task ids sets every
    column: its row comes back broadcast, read-only, with no id looked up."""
    if not overrides:
        return mats.profits
    cols = None
    if isinstance(overrides, IdInts) and overrides.ids == mats.task_ids:
        values = overrides.row
    else:
        try:
            cols = mats.positions(mats.task_index, overrides)
        except KeyError as exc:
            raise ValueError(
                f"profit override for unknown task {exc.args[0]}") from None
        values = np.fromiter(overrides.values(), np.int64, len(cols))
    negative = values < 0
    if negative.any():
        k = int(np.argmax(negative))
        raise ValueError(f"profit override for task {list(overrides)[k]} "
                         f"is negative: {values[k]}")
    if cols is None:
        return np.broadcast_to(values, mats.profits.shape)
    profits = mats.profits.copy()
    profits[:, cols] = values
    return profits


def run_cycle(instance: Instance, entry: tuple[Iterable[str], Iterable[str]],
              state: AffinityState, strategy: StrategyConfig,
              budget: SolverBudget,
              profit_overrides: Mapping[str, int] | None = None,
              ) -> tuple[Assignment, AffinityState, CycleReport]:
    """Execute one cycle: measure max AP, derive values, solve the cycle's
    assignment problem, and advance the affinity state.  ``instance`` is
    unused (``state`` carries it); it stays for callers that wrap this
    function."""
    available_agents, available_tasks = entry
    mats = state.mats
    feasible = mats.available_pairs(available_agents, available_tasks)
    profits = _profit_matrix(mats, profit_overrides)
    max_ap = max_affinity_pressure(state, feasible)
    values = compute_values(strategy, profits, state.affinities, feasible,
                            max_ap)
    problem = build_gap_problem(mats, values, feasible)
    assignment = solve(problem, budget)
    rows, cols = assignment.positions

    next_state = update_affinities(state, feasible, rows, cols)
    report = CycleReport(
        cycle=state.cycle,
        profit=sum(profits[rows, cols].tolist()),
        objective=assignment.objective,
        max_ap=max_ap,
        assigned_count=len(cols),
        budget_exhausted=assignment.budget_exhausted,
        proven_optimal=assignment.proven_optimal,
        nodes_explored=assignment.nodes_explored,
    )
    log.info("cycle %d strategy=%s assigned=%d profit=%d max_ap=%.3f",
             report.cycle, strategy.label, report.assigned_count,
             report.profit, report.max_ap)
    return assignment, next_state, report


def rotation_metrics(final_counts: np.ndarray,
                     compatibility: np.ndarray) -> tuple[int, float]:
    """Rotation achieved over a run.

    A task's rotation count is the minimum assignment count over its
    compatible agents (coverage with multiplicity); ``full_rotations`` is the
    minimum over tasks, ``avg_rotations_per_task`` the mean.
    """
    counts = np.asarray(final_counts)
    compat = np.asarray(compatibility, dtype=bool)
    per_task = np.where(compat, counts, np.iinfo(np.int64).max).min(axis=0)
    return int(per_task.min()), float(per_task.mean())


def run_scenario(instance: Instance, trace: ScenarioTrace,
                 strategy: StrategyConfig, budget: SolverBudget,
                 priority_hook: PriorityHook | None = None) -> RunReport:
    """Fold :func:`run_cycle` over the whole trace, starting from the initial
    affinity state.  The strategy is fixed for the entire run."""
    state = init_affinities(instance)
    mats = state.mats
    # the trace's sets over the instance's id order, so that each cycle's
    # mask is built from positions alone
    agents = trace.available_agents.over(mats.agent_ids)
    tasks = trace.available_tasks.over(mats.task_ids)
    reports: list[CycleReport] = []
    total_profit = 0
    for k in range(1, trace.cycles + 1):
        entry = agents[k - 1], tasks[k - 1]
        overrides = priority_hook(k) if priority_hook is not None else None
        _, state, report = run_cycle(instance, entry, state, strategy, budget,
                                     profit_overrides=overrides)
        reports.append(report)
        total_profit += report.profit
    full, avg = rotation_metrics(state.assignment_counts, mats.compat)
    provenance = {
        "instance_metadata": dict(instance.metadata),
        "agents": mats.m,
        "tasks": mats.n,
        "trace_seed": trace.seed,
        "cycles": trace.cycles,
        "priorities": "per-cycle" if priority_hook is not None else "static",
    }
    return RunReport(
        strategy=strategy,
        total_profit=total_profit,
        full_rotations=full,
        avg_rotations_per_task=avg,
        per_cycle=reports,
        final_counts=state.assignment_counts,
        provenance=provenance,
    )


def profit_pct(total: int, baseline_total: int) -> float:
    """``total`` as a percentage of the baseline run's total profit, 100.0
    when both are 0: ``fop`` earns 0 only when no cycle has a usable pair
    of positive profit, and then no strategy earns anything."""
    if total == baseline_total == 0:
        return 100.0
    return 100.0 * total / baseline_total
