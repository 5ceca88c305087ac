import hashlib
import pickle
import random

import numpy as np
import pytest
from hypothesis import given, strategies as st

from rotagap.domain import ScenarioTrace, validate_instance, validate_trace
from rotagap.fileio import dump_json, instance_to_dict, trace_to_lines
from rotagap.scenarios import (GenerationError, McmkpParams, TcsaParams,
                               _mcmkp_capacities, _randints, derive_seed,
                               episode_entry_probability,
                               generate_mcmkp, generate_tcsa,
                               generate_trace_bernoulli,
                               generate_trace_episodic,
                               make_tcsa_priority_hook)


def total_weight(instance) -> int:
    return sum(next(iter(t.weights.values())) for t in instance.tasks)


def test_derive_seed_is_stable_and_label_sensitive():
    assert derive_seed(7, "x") == derive_seed(7, "x")
    assert derive_seed(7, "x") != derive_seed(7, "y")
    assert derive_seed(7, "x") != derive_seed(8, "x")
    assert derive_seed(7, "a", 1) != derive_seed(7, "a", 2)
    # frozen value guards the mixing function against accidental change
    assert derive_seed(0, "mcmkp", "weights") == 7350250543036703128


@given(root=st.integers(min_value=-2**80, max_value=2**80),
       parts=st.lists(st.one_of(st.text(), st.integers()), max_size=4))
def test_derive_seed_is_hashlib_blake2b_of_its_text(root, parts):
    # derive_seed takes blake2b from _blake2, not hashlib: the same function
    text = "|".join([str(root)] + [str(p) for p in parts]).encode("utf-8")
    digest = hashlib.blake2b(text, digest_size=8).digest()
    assert derive_seed(root, *parts) == int.from_bytes(digest, "little")


@pytest.mark.parametrize("m,n", [(30, 75), (15, 45), (12, 48), (2, 5)])
@pytest.mark.parametrize("correlation", ["uncorrelated", "weakly_correlated"])
def test_mcmkp_capacity_identity_and_validity(m, n, correlation):
    instance = generate_mcmkp(McmkpParams(agents=m, tasks=n,
                                          correlation=correlation, seed=42))
    assert validate_instance(instance) == []
    caps = sum(a.capacity for a in instance.agents)
    assert caps == total_weight(instance) // 2
    for task in instance.tasks:
        weight = next(iter(task.weights.values()))
        assert 10 <= weight <= 1000
        # threshold compatibility: exactly the agents that can hold the task
        expected = {a.id for a in instance.agents if weight <= a.capacity}
        assert task.compatible == expected


def test_mcmkp_weakly_correlated_profit_band():
    instance = generate_mcmkp(McmkpParams(agents=12, tasks=48,
                                          correlation="weakly_correlated", seed=3))
    for task in instance.tasks:
        p = next(iter(task.profits.values()))
        w = next(iter(task.weights.values()))
        assert abs(p - w) <= 99
        assert p >= 1


def test_mcmkp_largest_agent_dominates_compatibility():
    instance = generate_mcmkp(McmkpParams(agents=15, tasks=45, seed=9))
    big = max(instance.agents, key=lambda a: a.capacity)
    for task in instance.tasks:
        assert big.id in task.compatible


def test_mcmkp_weight_sampling_mean():
    instance = generate_mcmkp(McmkpParams(agents=2, tasks=100_000, seed=11))
    mean = total_weight(instance) / 100_000
    assert 495 <= mean <= 515


def test_mcmkp_determinism():
    a = generate_mcmkp(McmkpParams(agents=12, tasks=48, seed=5))
    b = generate_mcmkp(McmkpParams(agents=12, tasks=48, seed=5))
    assert a == b
    c = generate_mcmkp(McmkpParams(agents=12, tasks=48, seed=6))
    assert a != c


def test_mcmkp_param_validation():
    with pytest.raises(GenerationError):
        generate_mcmkp(McmkpParams(agents=0, tasks=5, seed=1))
    with pytest.raises(GenerationError):
        generate_mcmkp(McmkpParams(agents=2, tasks=5, correlation="weird", seed=1))
    with pytest.raises(GenerationError):
        generate_mcmkp(McmkpParams(agents=2, tasks=5, agent_availability=0.0, seed=1))


def test_mcmkp_needs_three_tasks():
    # the capacities hold half the total weight in all, so a lone task
    # never fits, and of two unequal tasks the heavier fits no agent
    for agents in (1, 2, 12):
        for tasks in (1, 2):
            with pytest.raises(GenerationError, match="three tasks"):
                McmkpParams(agents=agents, tasks=tasks, seed=40)
    assert len(generate_mcmkp(McmkpParams(agents=2, tasks=3, seed=3)).tasks) == 3


def test_mcmkp_capacities_that_all_round_to_zero_fall_through_to_the_redraw():
    # 1999 shares of 1010 / 2000 round to 0, and the heavier task is above
    # half the total weight: the last agent takes all of it, and the weight
    # redraw is left to bring the heavier task under it
    assert _mcmkp_capacities([0.5] * 1999, [10, 1000], 2000) \
        == [0] * 1999 + [505]
    # over 2000 agents every share of three tasks' weight rounds to 0
    for seed in range(3):
        instance = generate_mcmkp(McmkpParams(agents=2000, tasks=3, seed=seed))
        assert validate_instance(instance) == []
        caps = [a.capacity for a in instance.agents]
        assert caps[:-1] == [0] * 1999
        assert caps[-1] == total_weight(instance) // 2


def test_mcmkp_one_agent_takes_half_the_weight():
    # the general split: no share is drawn, and the lone agent takes the
    # residual, half the total weight; the instance is the one a separate
    # one-agent rule gave
    assert _mcmkp_capacities([], [10, 20, 35], 1) == [32]
    instance = generate_mcmkp(McmkpParams(agents=1, tasks=12, seed=5))
    assert [a.capacity for a in instance.agents] == [total_weight(instance) // 2]
    text = dump_json(instance_to_dict(instance))
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "d96ba671385f09c7ac5f6e75f9d544ce58d8137fb07299fa2e82f9b10c8349d7")


@pytest.mark.parametrize("change,message", [
    ({"agents": 0}, "at least one agent and one task"),
    ({"tasks": 0}, "at least one agent and one task"),
    ({"capacity_minutes": 0}, "capacity_minutes must be >= 1"),
    ({"compat_fraction": 0.0}, "compat_fraction must be in"),
    ({"compat_fraction": 1.5}, "compat_fraction must be in"),
    ({"cycles": 0}, "cycles must be >= 1"),
])
def test_tcsa_params_check_themselves_when_built(change, message):
    with pytest.raises(GenerationError, match=message):
        TcsaParams(**change)


@pytest.mark.parametrize("agent_p,task_p,cycles,message", [
    (0.0, 0.5, 5, "agent_p must be in"),
    (0.5, 0.0, 5, "task_p must be in"),
    (1.5, 0.5, 5, "agent_p must be in"),
    (0.5, 0.5, 0, "cycles must be >= 1"),
])
def test_bernoulli_trace_refuses_bad_parameters(agent_p, task_p, cycles,
                                                message):
    instance = generate_mcmkp(McmkpParams(agents=2, tasks=3, seed=1))
    with pytest.raises(GenerationError, match=message):
        generate_trace_bernoulli(instance, cycles, agent_p, task_p, seed=1)


def test_bernoulli_trace_full_availability_and_default_cycles():
    instance = generate_mcmkp(McmkpParams(agents=12, tasks=48, seed=1))
    trace = generate_trace_bernoulli(instance, None, 1.0, 1.0, seed=1)
    assert trace.cycles == 144  # three times the task count
    assert validate_trace(trace, instance) == []
    for k in range(1, trace.cycles + 1):
        agents, tasks = trace.entry(k)
        assert len(agents) == 12 and len(tasks) == 48


def test_bernoulli_trace_empirical_rate():
    instance = generate_mcmkp(McmkpParams(agents=20, tasks=30, seed=2))
    trace = generate_trace_bernoulli(instance, 2000, 0.75, 0.75, seed=2)
    agent_cells = sum(len(trace.entry(k)[0]) for k in range(1, 2001))
    task_cells = sum(len(trace.entry(k)[1]) for k in range(1, 2001))
    rate = (agent_cells + task_cells) / (2000 * 50)
    assert 0.74 <= rate <= 0.76


def test_bernoulli_trace_never_empty_and_deterministic():
    instance = generate_mcmkp(McmkpParams(agents=2, tasks=3, seed=3))
    trace = generate_trace_bernoulli(instance, 500, 0.3, 0.3, seed=3)
    assert validate_trace(trace, instance) == []
    again = generate_trace_bernoulli(instance, 500, 0.3, 0.3, seed=3)
    assert trace == again


def test_tcsa_instance_shape():
    params = TcsaParams(agents=20, tasks=100, seed=4)
    instance = generate_tcsa(params)
    assert validate_instance(instance) == []
    assert all(a.capacity == 600 for a in instance.agents)
    for task in instance.tasks:
        assert len(task.compatible) == 12  # round(0.60 * 20)
        runtime = next(iter(task.weights.values()))
        assert 1 <= runtime <= 21
        assert len(set(task.weights.values())) == 1  # identical across agents
    assert generate_tcsa(params) == instance


def test_tcsa_priority_hook_redraws_each_cycle():
    instance = generate_tcsa(TcsaParams(agents=5, tasks=10, seed=6))
    hook = make_tcsa_priority_hook(instance, seed=6)
    first, second = hook(1), hook(2)
    assert set(first) == set(instance.task_ids)
    assert all(10 <= p <= 1000 for p in first.values())
    assert first != second
    assert hook(1) == first  # per-cycle child seeds, not a shared stream


def test_tcsa_priority_hook_survives_a_pickle_round_trip():
    # a pooled run sends each job its seed's hook
    instance = generate_tcsa(TcsaParams(agents=5, tasks=10, seed=6))
    hook = make_tcsa_priority_hook(instance, seed=6)
    copy = pickle.loads(pickle.dumps(hook))
    for cycle in (0, 1, 2, 17, 365):
        assert copy(cycle) == hook(cycle)
        assert list(copy(cycle)) == list(instance.task_ids)


def reference_randints(rng, lo, hi, count):
    return [rng.randint(lo, hi) for _ in range(count)]


# span 2**31 + 1 rejects about half of its words, so it takes several rounds
@pytest.mark.parametrize("lo,span", [(7, 1), (-3, 21), (10, 991),
                                     (2**40, 2**31 + 1), (0, 2**32 - 1)])
@pytest.mark.parametrize("count", [0, 1, 750])
def test_randints_matches_a_randint_loop(lo, span, count):
    hi = lo + span - 1
    for seed in range(200):
        bulk, loop = random.Random(seed), random.Random(seed)
        drawn = _randints(bulk, lo, hi, count)
        assert drawn.dtype == np.int64
        values = drawn.tolist()
        assert values == reference_randints(loop, lo, hi, count)
        assert all(type(v) is int for v in values)
        assert bulk.getstate() == loop.getstate()


@pytest.mark.parametrize("lo,hi", [(0, 2**32), (-2**31, 2**31), (5, 4),
                                   (2**63 - 5, 2**63 + 5), (-2**63 - 1, -2**63 + 5)])
def test_randints_refuses_spans_it_cannot_draw(lo, hi):
    rng = random.Random(1)
    state = rng.getstate()
    with pytest.raises(ValueError, match="randint range"):
        _randints(rng, lo, hi, 3)
    assert rng.getstate() == state


@pytest.mark.parametrize("seed", [0, 1, 1000, 2**40])
def test_tcsa_priority_hook_matches_a_randint_loop(seed):
    instance = generate_tcsa(TcsaParams(agents=20, tasks=750, seed=seed))
    hook = make_tcsa_priority_hook(instance, seed=seed)
    for cycle in (0, 1, 2, 17, 365):
        rng = random.Random(derive_seed(seed, "tcsa", "cycle-priorities", cycle))
        expected = {t: rng.randint(10, 1000) for t in instance.task_ids}
        drawn = hook(cycle)
        assert drawn == expected
        assert list(drawn) == list(instance.task_ids)


def test_entry_probability_formula():
    assert episode_entry_probability(0.0, 5.0) == 0.0
    assert episode_entry_probability(0.4, 5.0) == pytest.approx(0.4 / (5 * 0.6))


def episodes(series: list[bool]) -> list[int]:
    """Lengths of completed unavailability runs (a run cut off by the end of
    the horizon is excluded)."""
    runs, length = [], 0
    for available in series:
        if not available:
            length += 1
        elif length:
            runs.append(length)
            length = 0
    return runs


def test_episodic_trace_episode_lengths_and_rates():
    params = TcsaParams(agents=10, tasks=10, cycles=4000, seed=8)
    instance = generate_tcsa(params)
    trace = generate_trace_episodic(instance, params)
    assert validate_trace(trace, instance) == []
    unavailable_agent_cells = 0
    unavailable_task_cells = 0
    for entity, kind in [(a, "agent") for a in instance.agent_ids] + \
                        [(t, "task") for t in instance.task_ids]:
        series = []
        for k in range(1, trace.cycles + 1):
            agents, tasks = trace.entry(k)
            available = entity in (agents if kind == "agent" else tasks)
            series.append(available)
            if not available:
                if kind == "agent":
                    unavailable_agent_cells += 1
                else:
                    unavailable_task_cells += 1
        for run in episodes(series):
            assert 3 <= run <= 7
    total = trace.cycles * 10
    assert 0.36 <= unavailable_agent_cells / total <= 0.44
    assert 0.06 <= unavailable_task_cells / total <= 0.14


def test_episodic_zero_fraction_is_always_available():
    params = TcsaParams(agents=3, tasks=3, cycles=50, seed=9,
                        agent_unavail_fraction=0.0, task_unavail_fraction=0.0)
    instance = generate_tcsa(params)
    trace = generate_trace_episodic(instance, params)
    for k in range(1, 51):
        agents, tasks = trace.entry(k)
        assert len(agents) == 3 and len(tasks) == 3


def test_episodic_determinism():
    params = TcsaParams(agents=4, tasks=6, cycles=100, seed=10)
    instance = generate_tcsa(params)
    assert generate_trace_episodic(instance, params) \
        == generate_trace_episodic(instance, params)


def bernoulli_loop(instance, cycles, agent_p, task_p, seed) -> ScenarioTrace:
    """``generate_trace_bernoulli`` as one draw per entity and cycle, into
    sets of ids."""
    rng = random.Random(derive_seed(seed, "trace", "bernoulli"))
    agent_ids, task_ids = instance.agent_ids, instance.task_ids
    agents_per_cycle, tasks_per_cycle = [], []
    for k in range(cycles):
        for _ in range(1000):
            agents = {a for a in agent_ids if rng.random() < agent_p}
            tasks = {t for t in task_ids if rng.random() < task_p}
            if agents and tasks:
                break
        else:  # the last draw, each empty side given entity k mod count
            agents = agents or {agent_ids[k % len(agent_ids)]}
            tasks = tasks or {task_ids[k % len(task_ids)]}
        agents_per_cycle.append(agents)
        tasks_per_cycle.append(tasks)
    return ScenarioTrace(cycles=cycles, available_agents=agents_per_cycle,
                         available_tasks=tasks_per_cycle, seed=seed)


def episodic_loop(instance, params) -> ScenarioTrace:
    """``generate_trace_episodic`` as one step per entity and cycle, into
    sets of ids."""
    lo, hi = params.unavail_duration_range
    q = {kind: episode_entry_probability(fraction, (lo + hi) / 2.0)
         for kind, fraction in (("agent", params.agent_unavail_fraction),
                                ("task", params.task_unavail_fraction))}

    def series(kind, x, attempt):
        rng = random.Random(derive_seed(params.seed, "trace", kind, x, attempt))
        out, remaining = [], 0
        for _ in range(params.cycles):
            out.append(remaining == 0)
            if remaining:
                remaining -= 1
            elif q[kind] > 0.0 and rng.random() < q[kind]:
                remaining = rng.randint(lo, hi)
        return out

    sides = (("agent", instance.agent_ids), ("task", instance.task_ids))
    for attempt in range(100):
        sets = {}
        for kind, ids in sides:
            on = {x: series(kind, x, attempt) for x in ids}
            sets[kind] = [{x for x in ids if on[x][k]}
                          for k in range(params.cycles)]
        if all(sets["agent"]) and all(sets["task"]):
            break
    else:  # the last attempt, each empty cycle k given entity k mod count
        for kind, ids in sides:
            for k, available in enumerate(sets[kind]):
                if not available:
                    available.add(ids[k % len(ids)])
    return ScenarioTrace(cycles=params.cycles,
                         available_agents=sets["agent"],
                         available_tasks=sets["task"], seed=params.seed)


@pytest.mark.parametrize("agents,tasks,p,seed", [
    (12, 48, 1.0, 1), (12, 48, 0.75, 2), (2, 3, 0.3, 3), (5, 3, 0.2, 4),
    # most cycles have a side empty in all 1,000 draws, and are repaired
    (3, 4, 0.0005, 1)])
def test_bernoulli_trace_matches_a_draw_loop(agents, tasks, p, seed):
    instance = generate_mcmkp(McmkpParams(agents=agents, tasks=tasks, seed=seed))
    trace = generate_trace_bernoulli(instance, 40, p, p, seed=seed)
    assert trace == bernoulli_loop(instance, 40, p, p, seed)
    assert validate_trace(trace, instance) == []


@pytest.mark.parametrize("params", [
    TcsaParams(agents=6, tasks=30, cycles=60, seed=1),
    # redrawn whole: attempts 0-2 each have an empty cycle
    TcsaParams(agents=2, tasks=4, cycles=30, agent_unavail_fraction=0.4,
               task_unavail_fraction=0.3, seed=0),
    TcsaParams(agents=3, tasks=4, cycles=30, agent_unavail_fraction=0.0,
               unavail_duration_range=(1, 1), seed=6),
    # every attempt has an empty cycle, so the last one is repaired
    TcsaParams(agents=1, tasks=3, cycles=30, seed=0),
    TcsaParams(agents=4, tasks=10, cycles=365, seed=1)])
def test_episodic_trace_matches_a_step_loop(params):
    instance = generate_tcsa(params)
    trace = generate_trace_episodic(instance, params)
    assert trace == episodic_loop(instance, params)
    assert validate_trace(trace, instance) == []


def test_episodic_trace_that_needs_redraws_is_unchanged():
    # attempts 0-59 each have a cycle with every agent or every task away;
    # the digest is the one attempt 60 gave before traces could be repaired
    params = TcsaParams(agents=2, tasks=3, cycles=60, seed=1)
    trace = generate_trace_episodic(generate_tcsa(params), params)
    digest = hashlib.sha256(trace_to_lines(trace).encode()).hexdigest()
    assert digest == ("7166b7eec16ad35f6c50bbf0ecc7902c"
                      "7abd721c14893bb82ef3e33e88f73dd6")


def test_tcsa_trace_pickles_small():
    """A paper-scale trace (20 x 750, 365 cycles) pickles, as a job carries
    it to a worker, in well under the 1.25 MB that one set of id strings
    per cycle and side took."""
    params = TcsaParams(seed=1)
    trace = generate_trace_episodic(generate_tcsa(params), params)
    assert trace.cycles == 365
    assert len(pickle.dumps(trace)) < 300_000
