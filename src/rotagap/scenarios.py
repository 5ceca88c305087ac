"""Scenario generators: multi-cycle multiple-knapsack (MCMKP) instances,
test-case selection and assignment (TCSA) instances, and the availability
traces that go with them.

All randomness is derived from explicit seeds through a stable 64-bit mixing
function (:func:`derive_seed`), so identical parameters produce bit-identical
instances and traces on every platform.

A draw made in bulk (:func:`_randints`, used by the per-cycle tcsa priority
redraw) takes exactly the values, and leaves the generator in exactly the
state, of the one-at-a-time ``random.Random`` calls it replaces, so bulk and
single draws give the same streams.
"""

import functools
import hashlib
import random
from dataclasses import asdict, dataclass

import numpy as np

from .domain import AgentSpec, Instance, ScenarioTrace, TaskSpec

BENCHMARK_MCMKP_SIZES = ((30, 75), (15, 45), (12, 48))
CORRELATIONS = ("uncorrelated", "weakly_correlated")

_WEIGHT_LO, _WEIGHT_HI = 10, 1000
_PROFIT_LO, _PROFIT_HI = 10, 1000
_PROFIT_NOISE = 99  # weakly correlated profits: weight +- this
# a Bernoulli trace without a cycle count runs this many cycles per task
CYCLES_PER_TASK = 3


class GenerationError(RuntimeError):
    """Instance or trace generation could not satisfy its constraints."""


def derive_seed(root: int, *parts) -> int:
    """Stable 64-bit child seed from a root seed and a stream label.

    Uses blake2b over a canonical text encoding, so child streams are
    reproducible across platforms and independent between labels.
    """
    text = "|".join([str(int(root))] + [str(p) for p in parts])
    digest = hashlib.blake2b(text.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "little")


def _jsonable(value):
    """Metadata must survive a JSON round-trip unchanged, so containers are
    normalized to their JSON shapes up front."""
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def _agent_id(i: int, m: int) -> str:
    return f"A{i + 1:0{max(2, len(str(m)))}d}"


def _task_id(j: int, n: int) -> str:
    return f"T{j + 1:0{max(2, len(str(n)))}d}"


@dataclass(frozen=True)
class McmkpParams:
    """Multi-cycle multiple-knapsack generator parameters.  The benchmark
    grid uses (agents, tasks) in BENCHMARK_MCMKP_SIZES with availabilities 0.75
    or 1.0; arbitrary sizes are permitted for custom runs."""

    agents: int
    tasks: int
    correlation: str = "uncorrelated"
    agent_availability: float = 1.0
    task_availability: float = 1.0
    seed: int = 0

    def validate(self) -> None:
        if self.agents < 1 or self.tasks < 1:
            raise GenerationError("need at least one agent and one task")
        if self.correlation not in CORRELATIONS:
            raise GenerationError(f"unknown correlation {self.correlation!r}")
        for name, p in (("agent_availability", self.agent_availability),
                        ("task_availability", self.task_availability)):
            if not (0.0 < p <= 1.0):
                raise GenerationError(f"{name} must be in (0, 1], got {p}")

    @property
    def max_profit(self) -> int:
        """The largest profit the generator can draw."""
        if self.correlation == "uncorrelated":
            return _PROFIT_HI
        return _WEIGHT_HI + _PROFIT_NOISE


@dataclass(frozen=True)
class TcsaParams:
    """Test-case selection and assignment generator parameters.  Defaults
    mirror the reference scenario: 10-hour test cycles, ~60% compatibility,
    1-21 minute runtimes, 40%/10% episodic unavailability for 3-7 cycles,
    365 cycles."""

    agents: int = 20
    tasks: int = 750
    capacity_minutes: int = 600
    compat_fraction: float = 0.60
    runtime_range: tuple[int, int] = (1, 21)
    agent_unavail_fraction: float = 0.40
    task_unavail_fraction: float = 0.10
    unavail_duration_range: tuple[int, int] = (3, 7)
    cycles: int = 365
    seed: int = 0

    def validate(self) -> None:
        if self.agents < 1 or self.tasks < 1:
            raise GenerationError("need at least one agent and one task")
        if self.capacity_minutes < 1:
            raise GenerationError("capacity_minutes must be >= 1")
        if not (0.0 < self.compat_fraction <= 1.0):
            raise GenerationError("compat_fraction must be in (0, 1]")
        for name, f in (("agent_unavail_fraction", self.agent_unavail_fraction),
                        ("task_unavail_fraction", self.task_unavail_fraction)):
            if not (0.0 <= f <= 1.0):
                raise GenerationError(f"{name} must be in [0, 1], got {f}")
        for name, (lo, hi) in (("runtime_range", self.runtime_range),
                               ("unavail_duration_range", self.unavail_duration_range)):
            if lo < 1 or hi < lo:
                raise GenerationError(f"{name} must be a non-empty positive range")
        if self.cycles < 1:
            raise GenerationError("cycles must be >= 1")

    @property
    def max_profit(self) -> int:
        """The largest priority the generator, or the per-cycle redraw, can
        draw."""
        return _PROFIT_HI


def _mcmkp_capacities(shares: list[float], weights: list[int], m: int) -> list[int]:
    """Capacities from fixed per-agent shares of the mean per-agent weight,
    with the last agent absorbing the residual so that the total capacity is
    exactly half the total task weight.

    The residual agent must cover the heaviest task (otherwise tasks could be
    compatible with no agent at all); when the drawn capacities would squeeze
    it below that, they are scaled down proportionally first.  This also
    makes the residual agent the high-capacity one, skewing compatibility
    toward it.
    """
    total = sum(weights)
    half = total // 2
    if m == 1:
        return [half]
    caps = [int(s * total / m) for s in shares]
    ceiling = half - max(weights)
    drawn = sum(caps)
    if drawn > ceiling:
        caps = [c * max(ceiling, 0) // drawn for c in caps]
    return caps + [half - sum(caps)]


def generate_mcmkp(params: McmkpParams) -> Instance:
    """Generate one MCMKP instance.

    Weights are U[10, 1000] and agent-independent; profits are either
    U[10, 1000] (uncorrelated) or ``w + U[-99, +99]`` clamped at 1 (weakly
    correlated).  A task is compatible with every agent whose capacity covers
    its weight; tasks heavier than all capacities get their weight redrawn
    (bounded retries) and capacities are recomputed, preserving the
    half-of-total-demand identity exactly.
    """
    params.validate()
    m, n = params.agents, params.tasks
    w_rng = random.Random(derive_seed(params.seed, "mcmkp", "weights"))
    c_rng = random.Random(derive_seed(params.seed, "mcmkp", "capacity"))
    p_rng = random.Random(derive_seed(params.seed, "mcmkp", "profits"))

    weights = [w_rng.randint(_WEIGHT_LO, _WEIGHT_HI) for _ in range(n)]
    shares = [c_rng.uniform(0.4, 0.6) for _ in range(m - 1)]

    caps: list[int] = []
    for _ in range(100):
        caps = _mcmkp_capacities(shares, weights, m)
        cap_max = max(caps)
        oversized = [j for j, w in enumerate(weights) if w > cap_max]
        if not oversized:
            break
        for j in oversized:
            for _ in range(100):
                candidate = w_rng.randint(_WEIGHT_LO, _WEIGHT_HI)
                if candidate <= cap_max:
                    weights[j] = candidate
                    break
            else:
                raise GenerationError(
                    f"could not redraw a weight below the capacity maximum {cap_max}")
    else:
        raise GenerationError("weight/capacity generation did not converge")

    if params.correlation == "uncorrelated":
        profits = [p_rng.randint(_PROFIT_LO, _PROFIT_HI) for _ in range(n)]
    else:
        profits = [max(1, w + p_rng.randint(-_PROFIT_NOISE, _PROFIT_NOISE))
                   for w in weights]

    agents = tuple(AgentSpec(id=_agent_id(i, m), capacity=caps[i]) for i in range(m))
    tasks = []
    for j in range(n):
        compatible = {a.id for a in agents if weights[j] <= a.capacity}
        tasks.append(TaskSpec.uniform(_task_id(j, n), profit=profits[j],
                                      weight=weights[j], compatible=compatible))
    metadata = {"generator": "mcmkp", "seed": params.seed,
                "params": _jsonable(asdict(params))}
    return Instance(agents=agents, tasks=tuple(tasks), metadata=metadata)


def generate_tcsa(params: TcsaParams) -> Instance:
    """Generate one TCSA instance: identical agent capacities, per-task
    runtimes identical across agents, fixed-size random compatible sets, and
    initial priorities U[10, 1000] (redrawn per cycle by the engine hook
    unless static priorities are requested)."""
    params.validate()
    m, n = params.agents, params.tasks
    r_rng = random.Random(derive_seed(params.seed, "tcsa", "runtimes"))
    c_rng = random.Random(derive_seed(params.seed, "tcsa", "compat"))
    p_rng = random.Random(derive_seed(params.seed, "tcsa", "priorities"))

    agent_ids = [_agent_id(i, m) for i in range(m)]
    agents = tuple(AgentSpec(id=a, capacity=params.capacity_minutes)
                   for a in agent_ids)
    compat_size = max(1, round(params.compat_fraction * m))
    lo, hi = params.runtime_range
    tasks = []
    for j in range(n):
        runtime = r_rng.randint(lo, hi)
        compatible = c_rng.sample(agent_ids, compat_size)
        priority = p_rng.randint(_PROFIT_LO, _PROFIT_HI)
        tasks.append(TaskSpec.uniform(_task_id(j, n), profit=priority,
                                      weight=runtime, compatible=compatible))
    metadata = {"generator": "tcsa", "seed": params.seed,
                "params": _jsonable(asdict(params))}
    return Instance(agents=agents, tasks=tuple(tasks), metadata=metadata)


def _randints(rng: random.Random, lo: int, hi: int, count: int) -> list[int]:
    """``[rng.randint(lo, hi) for _ in range(count)]``, drawn in bulk, and
    ``rng`` is left in the same state.

    ``randint`` takes one 32-bit word per try, keeps its top
    ``span.bit_length()`` bits and retries while that is ``>= span``.  Each
    round here takes the words still missing from one ``getrandbits`` call,
    whose 32-bit words come least significant first in draw order, and keeps
    those below ``span`` in order; it never draws a word the loop would not.
    A span of 2**32 or more takes more than one word per try and is refused,
    as are bounds outside int64, which the values are summed in.
    """
    span = hi - lo + 1
    if not (0 < span < 2**32 and -2**63 <= lo and hi < 2**63):
        raise ValueError(f"randint range [{lo}, {hi}] must hold 1 to "
                         f"2**32 - 1 values within int64")
    shift = 32 - span.bit_length()
    kept = []
    missing = count
    while missing > 0:
        raw = rng.getrandbits(32 * missing).to_bytes(4 * missing, "little")
        words = np.frombuffer(raw, dtype="<u4") >> shift
        kept.append(words[words < span])
        missing -= len(kept[-1])
    if not kept:
        return []
    return (np.concatenate(kept).astype(np.int64) + lo).tolist()


def _tcsa_priorities(seed: int, task_ids: tuple[str, ...],
                     cycle: int) -> dict[str, int]:
    rng = random.Random(derive_seed(seed, "tcsa", "cycle-priorities", cycle))
    return dict(zip(task_ids, _randints(rng, _PROFIT_LO, _PROFIT_HI,
                                        len(task_ids))))


def make_tcsa_priority_hook(instance: Instance, seed: int):
    """Per-cycle priority redraw for TCSA runs: every task's profit is drawn
    fresh from U[10, 1000] each cycle, from a per-cycle child seed, in one
    bulk draw (:func:`_randints`).  The hook pickles, so a job can carry it
    into a worker process."""
    return functools.partial(_tcsa_priorities, seed, tuple(instance.task_ids))


def generate_trace_bernoulli(instance: Instance, cycles: int | None,
                             agent_p: float, task_p: float,
                             seed: int) -> ScenarioTrace:
    """Independent per-cycle availability: each entity is available with its
    probability every cycle.  ``cycles=None`` defaults to
    ``CYCLES_PER_TASK`` times the task count.  Cycles with no available
    agent or task are redrawn."""
    for name, p in (("agent_p", agent_p), ("task_p", task_p)):
        if not (0.0 < p <= 1.0):
            raise GenerationError(f"{name} must be in (0, 1], got {p}")
    agent_ids = instance.agent_ids
    task_ids = instance.task_ids
    if cycles is None:
        cycles = CYCLES_PER_TASK * len(task_ids)
    if cycles < 1:
        raise GenerationError("cycles must be >= 1")
    rng = random.Random(derive_seed(seed, "trace", "bernoulli"))
    agents_per_cycle = []
    tasks_per_cycle = []
    for _ in range(cycles):
        for _attempt in range(1000):
            agents = frozenset(a for a in agent_ids if rng.random() < agent_p)
            tasks = frozenset(t for t in task_ids if rng.random() < task_p)
            if agents and tasks:
                break
        else:
            raise GenerationError("could not draw a non-empty availability cycle")
        agents_per_cycle.append(agents)
        tasks_per_cycle.append(tasks)
    return ScenarioTrace(cycles=cycles, available_agents=tuple(agents_per_cycle),
                         available_tasks=tuple(tasks_per_cycle), seed=seed)


def episode_entry_probability(unavail_fraction: float, mean_duration: float) -> float:
    """Per-cycle probability of starting an unavailability episode so that the
    long-run unavailable fraction matches the target.

    An entity alternates available runs (geometric, mean 1/q) with episodes of
    mean duration d; the unavailable fraction is d / (1/q + d), which equals f
    for q = f / (d * (1 - f)).
    """
    if unavail_fraction <= 0.0:
        return 0.0
    if unavail_fraction >= 1.0:
        raise GenerationError("unavailable fraction must be < 1")
    return unavail_fraction / (mean_duration * (1.0 - unavail_fraction))


def _episodic_series(rng: random.Random, cycles: int, q: float,
                     dur_lo: int, dur_hi: int) -> list[bool]:
    out = []
    remaining = 0
    for _ in range(cycles):
        if remaining > 0:
            out.append(False)
            remaining -= 1
            continue
        out.append(True)
        if q > 0.0 and rng.random() < q:
            remaining = rng.randint(dur_lo, dur_hi)
    return out


def generate_trace_episodic(instance: Instance, params: TcsaParams) -> ScenarioTrace:
    """Two-state availability per entity: an available entity enters an
    unavailability episode of U{3..7} cycles (configurable) with the entry
    probability that yields the target long-run unavailable fraction.  The
    whole trace is redrawn in the rare case a cycle ends up empty."""
    params.validate()
    dur_lo, dur_hi = params.unavail_duration_range
    mean_dur = (dur_lo + dur_hi) / 2.0
    q_agent = episode_entry_probability(params.agent_unavail_fraction, mean_dur)
    q_task = episode_entry_probability(params.task_unavail_fraction, mean_dur)
    agent_ids = instance.agent_ids
    task_ids = instance.task_ids
    cycles = params.cycles

    for attempt in range(100):
        agent_series = {
            a: _episodic_series(
                random.Random(derive_seed(params.seed, "trace", "agent", a, attempt)),
                cycles, q_agent, dur_lo, dur_hi)
            for a in agent_ids
        }
        task_series = {
            t: _episodic_series(
                random.Random(derive_seed(params.seed, "trace", "task", t, attempt)),
                cycles, q_task, dur_lo, dur_hi)
            for t in task_ids
        }
        agents_per_cycle = tuple(
            frozenset(a for a in agent_ids if agent_series[a][k])
            for k in range(cycles))
        tasks_per_cycle = tuple(
            frozenset(t for t in task_ids if task_series[t][k])
            for k in range(cycles))
        if all(agents_per_cycle[k] and tasks_per_cycle[k] for k in range(cycles)):
            return ScenarioTrace(cycles=cycles, available_agents=agents_per_cycle,
                                 available_tasks=tasks_per_cycle, seed=params.seed)
    raise GenerationError("episodic trace generation kept producing empty cycles")
