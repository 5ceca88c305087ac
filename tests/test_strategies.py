import random

import numpy as np
import pytest

from rotagap.affinity import init_affinities
from rotagap.engine import build_gap_problem
from rotagap.solver import GapProblem, SolverBudget, brute_force_oracle, solve
from rotagap.strategies import (ConfigError, StrategyConfig, compute_values,
                                max_affinity_pressure, pc_values, report_order)

from conftest import make_instance, update_from_pairs, worked_example_fixture


def full_mask(shape):
    return np.ones(shape, dtype=bool)


def values_for(config, state, agents, tasks):
    """compute_values for the given availability, as run_cycle calls it."""
    mask = state.mats.available_pairs(agents, tasks)
    return compute_values(config, state.mats.profits, state.affinities, mask,
                          max_affinity_pressure(state, mask))


def test_config_parse_and_labels():
    assert StrategyConfig.parse("fop") == StrategyConfig(kind="fop")
    assert StrategyConfig.parse("os:10").gamma == 10.0
    assert StrategyConfig.parse("pc:2:0.5") == StrategyConfig(kind="pc", alpha=2.0,
                                                              beta=0.5)
    assert StrategyConfig.parse("os:10").label == "os/10"
    assert StrategyConfig.parse("os:10").file_label == "os-10"
    assert StrategyConfig.parse("pc").label == "pc"
    assert StrategyConfig.parse("pc:2:0.5").label == "pc/2/0.5"


CONFIGS = [StrategyConfig(kind=k) for k in ("fop", "foa", "pc", "wpp")] + [
    StrategyConfig(kind="os", gamma=g)
    for g in (10.0, 40.0, 0.25, 1234567.0, 1e20, 1e-300)] + [
    StrategyConfig(kind="pc", alpha=a, beta=b)
    for a, b in ((2.0, 0.5), (0.1234567, 1.0), (0.1234568, 1.0), (0.0, 1.0),
                 (1.0, 0.0), (1.0, 1e-5))]


@pytest.mark.parametrize("config", CONFIGS, ids=lambda c: c.spec)
def test_spec_round_trips(config):
    assert StrategyConfig.parse(config.spec) == config
    assert config.label == config.spec.replace(":", "/")


def test_distinct_configs_get_distinct_labels():
    assert len({c.label for c in CONFIGS}) == len(CONFIGS)
    assert len({c.file_label for c in CONFIGS}) == len(CONFIGS)
    # labels written by earlier runs stay as they were
    assert [StrategyConfig.parse(s).label for s in ("os:10", "os:40", "pc", "pc:2:0.5")] \
        == ["os/10", "os/40", "pc", "pc/2/0.5"]


@pytest.mark.parametrize("spec", ["nope", "os", "os:0", "os:-3", "pc:1",
                                  "fop:2", "pc:-1:1", "os:inf", "os:nan",
                                  "pc:nan:1", "pc:1:inf"])
def test_config_rejects_bad_specs(spec):
    with pytest.raises(ConfigError):
        StrategyConfig.parse(spec)


def test_config_names_a_spec_whose_number_does_not_parse():
    with pytest.raises(ConfigError, match="bad strategy spec 'os:abc'"):
        StrategyConfig.parse("os:abc")
    with pytest.raises(ConfigError, match="bad strategy spec 'pc:1:x'"):
        StrategyConfig.parse("pc:1:x")


def test_gamma_only_valid_for_os():
    with pytest.raises(ConfigError):
        StrategyConfig(kind="fop", gamma=10.0)
    with pytest.raises(ConfigError):
        StrategyConfig(kind="os")


@pytest.fixture
def walkthrough_state():
    instance, _ = worked_example_fixture()
    return instance, init_affinities(instance)


def test_fop_values_are_profits(walkthrough_state):
    instance, state = walkthrough_state
    vm = values_for(StrategyConfig(kind="fop"), state, "ABC", instance.task_ids)
    assert np.array_equal(vm, state.mats.profits.astype(float))


def test_foa_values_are_affinities(walkthrough_state):
    instance, state = walkthrough_state
    vm = values_for(StrategyConfig(kind="foa"), state, "ABC", instance.task_ids)
    assert np.array_equal(vm, state.affinities.astype(float))


def test_unavailable_pairs_keep_their_values_and_are_never_assigned(
        walkthrough_state):
    _, state = walkthrough_state
    mats = state.mats
    mask = mats.available_pairs({"A", "B"}, {"T1", "T2"})
    vm = values_for(StrategyConfig(kind="fop"), state, {"A", "B"}, {"T1", "T2"})
    # the formula on every pair: only the solver leaves the unusable ones out
    assert np.array_equal(vm, mats.profits.astype(float))
    assert vm[mats.agent_index["C"], mats.task_index["T3"]] == 1.0
    rows, cols = solve(build_gap_problem(mats, vm, mask),
                       SolverBudget.nodes(1000)).positions
    assert len(cols) == 2 and mask[rows, cols].all()


def test_pc_arithmetic():
    p = np.array([[5]])
    a = np.array([[3]])
    assert pc_values(1, 1, p, a)[0, 0] == 15.0
    assert pc_values(2, 0, p, a)[0, 0] == 25.0
    assert pc_values(1, 1, p, np.array([[0]]))[0, 0] == 0.0
    # 0**0 == 1 keeps the special-case equivalences continuous
    assert pc_values(0, 1, np.array([[0]]), a)[0, 0] == 3.0


def test_pc_special_cases_match_fixed_objectives(walkthrough_state):
    instance, state = walkthrough_state
    agents, tasks = "ABC", instance.task_ids
    state = update_from_pairs(state, state.mats.available_pairs(agents, tasks),
                              [("A", "T1"), ("B", "T2")])
    fop = values_for(StrategyConfig(kind="fop"), state, agents, tasks)
    foa = values_for(StrategyConfig(kind="foa"), state, agents, tasks)
    pc_b0 = values_for(StrategyConfig(kind="pc", beta=0.0), state, agents, tasks)
    pc_a0 = values_for(StrategyConfig(kind="pc", alpha=0.0), state, agents, tasks)
    assert np.array_equal(pc_b0, fop)
    assert np.array_equal(pc_a0, foa)


def test_os_switches_on_threshold():
    p = np.array([[7, 2], [1, 9]])
    a = np.array([[1, 4], [2, 1]])
    config, mask = StrategyConfig(kind="os", gamma=10.0), full_mask((2, 2))
    assert np.array_equal(compute_values(config, p, a, mask, max_ap=-1.0),
                          p.astype(float))
    # equality falls to the affinity branch
    assert np.array_equal(compute_values(config, p, a, mask, max_ap=10.0),
                          a.astype(float))


@pytest.mark.parametrize("gamma", [10.0, 20.0, 30.0, 40.0])
def test_os_experiment_grid_gammas_accepted(gamma):
    config = StrategyConfig(kind="os", gamma=gamma)  # valid once built
    assert config.label == f"os/{int(gamma)}"


def test_os_dichotomy_equals_fop_or_foa(walkthrough_state):
    instance, state = walkthrough_state
    rng = random.Random(5)
    agents, tasks = frozenset("ABC"), frozenset(instance.task_ids)
    for cycle in range(6):
        for gamma in (0.25, 1.0, 3.0):
            os_m = values_for(StrategyConfig(kind="os", gamma=gamma), state,
                              agents, tasks)
            fop = values_for(StrategyConfig(kind="fop"), state, agents, tasks)
            foa = values_for(StrategyConfig(kind="foa"), state, agents, tasks)
            assert (np.array_equal(os_m, fop)
                    or np.array_equal(os_m, foa))
        pairs = [(rng.choice(sorted(t.compatible)), t.id)
                 for t in instance.tasks if rng.random() < 0.7]
        state = update_from_pairs(
            state, state.mats.available_pairs(agents, tasks), pairs)


def test_wpp_ideal_rotation_reduces_to_normalized_profits():
    # affinities {1..4} hit the triangular ideal, so lambda == 1 exactly
    agents = {f"A{i}": 1 for i in range(4)}
    instance = make_instance(agents, {"T1": (8, 1, set(agents))})
    state = init_affinities(instance)
    for i, agent in enumerate(sorted(agents)):
        state.affinities[state.mats.agent_index[agent], 0] = i + 1
    vm = values_for(StrategyConfig(kind="wpp"), state, set(agents), {"T1"})
    assert np.allclose(vm[:, 0], state.mats.profits[:, 0] / 8.0)


def test_wpp_first_cycle_blend():
    # |C| = 3 and all affinities 1: lambda = 6/3 = 2, v = clamp(2*p_hat - a_hat)
    instance = make_instance({"A": 1, "B": 1, "C": 1}, {"T1": (10, 1, {"A", "B", "C"}),
                                                        "T2": (4, 1, {"A", "B", "C"})})
    state = init_affinities(instance)
    vm = values_for(StrategyConfig(kind="wpp"), state, {"A", "B", "C"},
                    {"T1", "T2"})
    p_hat = state.mats.profits / 10.0
    expected = np.maximum(2.0 * p_hat - 1.0, 0.0)
    assert np.allclose(vm, expected)


def test_wpp_double_ideal_weights_equally():
    agents = {f"A{i}": 1 for i in range(3)}
    instance = make_instance(agents, {"T1": (6, 1, set(agents))})
    state = init_affinities(instance)
    state.affinities[:, 0] = 4  # sum 12 == 2 * ideal(6) -> lambda 0.5
    vm = values_for(StrategyConfig(kind="wpp"), state, set(agents), {"T1"})
    expected = 0.5 * (state.mats.profits[:, 0] / 6.0) + 0.5 * (4.0 / 4.0)
    assert np.allclose(vm[:, 0], expected)


def test_wpp_zero_profits_blend_affinities_alone():
    # every available profit is 0, so the profit term is 0 and the value
    # is (1 - lambda) * a/max_a; an unavailable pair's profit is not read
    agents = {f"A{i}": 1 for i in range(4)}
    instance = make_instance(agents, {"T1": (0, 1, {"A0", "A1", "A2"}),
                                      "T2": (7, 1, {"A3"})})
    state = init_affinities(instance)
    state.affinities[:3, 0] = [1, 2, 9]  # sum 12 == 2 * ideal(6) -> lambda 0.5
    vm = values_for(StrategyConfig(kind="wpp"), state, set(agents), {"T1"})
    assert np.allclose(vm[:3, 0], 0.5 * np.array([1, 2, 9]) / 9)
    assert np.isfinite(vm).all() and (vm >= 0).all()
    # in cycle 1 every affinity is 1, so lambda >= 1 and no value is positive
    fresh = init_affinities(instance)
    vm = values_for(StrategyConfig(kind="wpp"), fresh, set(agents), {"T1"})
    assert (vm[:, 0] == 0).all()


def test_all_strategies_handle_empty_availability_mask():
    instance = make_instance({"A": 1, "B": 1}, {"T1": (5, 1, {"A"})})
    state = init_affinities(instance)
    for spec in ("fop", "foa", "os:10", "pc", "wpp"):
        # T1's only agent is unavailable, so no pair is usable
        mask = state.mats.available_pairs({"B"}, {"T1"})
        vm = values_for(StrategyConfig.parse(spec), state, {"B"}, {"T1"})
        assert vm.dtype == np.float64 and vm.shape == (2, 1)
        assert np.isfinite(vm).all() and (vm >= 0).all()
        answer = solve(build_gap_problem(state.mats, vm, mask),
                       SolverBudget.nodes(100))
        assert answer.objective == 0.0 and not answer.pairs


def test_strategies_are_pure(walkthrough_state):
    instance, state = walkthrough_state
    for spec in ("fop", "foa", "os:10", "pc", "pc:2:0.5", "wpp"):
        config = StrategyConfig.parse(spec)
        a = values_for(config, state, "ABC", instance.task_ids)
        b = values_for(config, state, "ABC", instance.task_ids)
        assert np.array_equal(a, b)


def test_profit_values_are_the_recurring_matrix_itself(walkthrough_state):
    """``fop`` and profit-mode ``os`` hand the instance's recurring profit
    matrix on as it is, so the solver can answer its problems once per
    mask; every other result is a fresh array, never the state's
    affinities, not even when those are float64 already."""
    instance, state = walkthrough_state
    recurring = state.mats.recurring_values
    mask = state.mats.available_pairs("ABC", instance.task_ids)
    max_ap = 1.0  # os:10 takes profits, os:0.5 affinities
    for affinities in (state.affinities, state.affinities.astype(float)):
        for spec in ("fop", "os:10", "os:0.5", "foa", "pc", "pc:1:0", "wpp"):
            config = StrategyConfig.parse(spec)
            values = compute_values(config, recurring, affinities, mask,
                                    max_ap)
            by_profit = spec in ("fop", "os:10")
            assert (values is recurring) == by_profit, spec
            assert not np.shares_memory(values, affinities), spec
    # profits of another dtype, or overridden, come back as a new array
    assert compute_values(StrategyConfig.parse("fop"), state.mats.profits,
                          state.affinities, mask, max_ap) is not recurring


def test_positive_scaling_preserves_optimal_assignments():
    rng = random.Random(11)
    caps = np.array([6, 5], dtype=np.int64)
    weights = np.array([[rng.randint(1, 5) for _ in range(4)] for _ in range(2)],
                       dtype=np.int64)
    values = np.array([[float(rng.randint(1, 30)) for _ in range(4)]
                       for _ in range(2)])
    base = GapProblem(agent_ids=("X", "Y"), task_ids=tuple(f"t{j}" for j in range(4)),
                      agent_capacities=caps, weights=weights, values=values,
                      feasible_pairs=full_mask((2, 4)))
    # powers of two scale exactly in floating point, so tie structure survives
    for factor in (2.0, 0.5, 4.0):
        scaled = GapProblem(agent_ids=base.agent_ids, task_ids=base.task_ids,
                            agent_capacities=caps, weights=weights,
                            values=values * factor,
                            feasible_pairs=base.feasible_pairs)
        a, b = brute_force_oracle(base), brute_force_oracle(scaled)
        assert a.pairs == b.pairs
        assert b.objective == pytest.approx(a.objective * factor)


def test_report_order_reads_each_label_as_a_strategy():
    # STRATEGY_KINDS order, os by rising gamma, then the label; a label
    # that parses as no strategy (os/abc, os without gamma, xyz) comes last
    labels = ["fop", "wpp", "os/40", "os/abc", "pc/2/0.5", "xyz", "pc",
              "os/10", "os", "foa", "os/2.5"]
    assert sorted(labels, key=report_order) == [
        "foa", "os/2.5", "os/10", "os/40", "pc", "pc/2/0.5", "wpp", "fop",
        "os", "os/abc", "xyz"]
