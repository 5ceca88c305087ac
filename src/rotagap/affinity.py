"""Affinity counting across cycles.

The affinity ``a[i, j]`` counts the cycles since task j was last assigned to
agent i.  It is 0 exactly for incompatible pairs, resets to 1 on assignment,
increments while both sides were available but the pair went unassigned, and
freezes while either side was unavailable.

Affinity pressure, read from this state, is defined in :mod:`strategies`.
"""

from dataclasses import dataclass

import numpy as np

from .domain import Instance, InstanceMatrices


@dataclass(eq=False)
class AffinityState:
    """Evolving affinity matrix plus per-pair assignment counts for one run."""

    mats: InstanceMatrices
    affinities: np.ndarray        # int64, m x n
    assignment_counts: np.ndarray  # int64, m x n
    cycle: int


def init_affinities(instance: Instance) -> AffinityState:
    """State for cycle 1: affinity 1 on every compatible pair, 0 elsewhere."""
    mats = instance.matrices
    return AffinityState(
        mats=mats,
        affinities=mats.compat.astype(np.int64),
        assignment_counts=np.zeros((mats.m, mats.n), dtype=np.int64),
        cycle=1,
    )


def update_affinities(state: AffinityState, prev_available: np.ndarray,
                      rows: np.ndarray, cols: np.ndarray) -> AffinityState:
    """Advance the state one cycle, given the previous cycle's available
    compatible pairs (an m x n mask) and its solved assignment as positions:
    agent row ``rows[k]`` holds task column ``cols[k]``.  The mask is the
    one ``InstanceMatrices.available_pairs`` gives for that cycle's
    availability; positions index ``state.mats.agent_ids`` and
    ``task_ids``.

    Assigned pairs reset to 1; pairs available on both sides but unassigned
    increment by 1; pairs with an unavailable side keep their value;
    incompatible pairs stay 0.  Raises ``ValueError`` naming the first pair,
    in the given order, that is incompatible, unavailable, or assigns a task
    already assigned, checked in that order.
    """
    mats = state.mats
    incompatible = ~mats.compat[rows, cols]
    unavailable = ~prev_available[rows, cols]
    bad = incompatible | unavailable
    # fewer tasks hit than pairs: some task is assigned twice (a negative
    # position hits the task it indexes)
    hit = np.zeros(mats.n, dtype=bool)
    hit[cols] = True
    if bad.any() or np.count_nonzero(hit) < len(cols):
        seq = np.arange(len(cols))
        first = np.full(mats.n, len(cols))
        np.minimum.at(first, cols, seq)  # each task's first pair
        bad |= first[cols] < seq
        # the first offending pair, checked in that order
        k = int(np.argmax(bad))
        agent_id, task_id = mats.agent_ids[rows[k]], mats.task_ids[cols[k]]
        if incompatible[k]:
            raise ValueError(f"assignment pair ({agent_id}, {task_id}) is incompatible")
        if unavailable[k]:
            raise ValueError(f"assignment pair ({agent_id}, {task_id}) was unavailable")
        raise ValueError(f"task {task_id} assigned more than once")

    affinities = state.affinities + prev_available  # +1 where available
    counts = state.assignment_counts.copy()
    affinities[rows, cols] = 1
    counts[rows, cols] += 1

    return AffinityState(mats=mats, affinities=affinities,
                         assignment_counts=counts, cycle=state.cycle + 1)

