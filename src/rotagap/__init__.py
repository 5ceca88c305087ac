"""rotagap: a multi-cycle assignment engine with rotational diversity.

Repeatedly solves a capacity-constrained assignment problem while steering
assignments toward rotation across compatible agents, via affinity tracking
and pluggable profit/affinity combination strategies.
"""

from .affinity import (AffinityState, affinity_pressure, init_affinities,
                       max_affinity_pressure, update_affinities)
from .domain import (AgentSpec, Instance, InstanceMatrices, ScenarioTrace,
                     TaskSpec, validate_instance, validate_trace,
                     worked_example_fixture)
from .engine import (CycleReport, RunReport, compare_to_baseline,
                     rotation_metrics, run_cycle, run_scenario)
from .scenarios import (GenerationError, McmkpParams, TcsaParams, derive_seed,
                        generate_mcmkp, generate_tcsa,
                        generate_trace_bernoulli, generate_trace_episodic,
                        make_tcsa_priority_hook)
from .solver import (Assignment, GapProblem, SolverBudget, SolverError,
                     branch_and_bound, brute_force_oracle, greedy_construct,
                     local_search_improve, solve)
from .strategies import (ConfigError, StrategyConfig, compute_values,
                         os_values, pc_values, wpp_values)

__version__ = "0.1.0"

__all__ = [
    "AffinityState", "AgentSpec", "Assignment", "ConfigError", "CycleReport",
    "GapProblem", "GenerationError", "Instance", "InstanceMatrices",
    "McmkpParams", "RunReport", "ScenarioTrace", "SolverBudget", "SolverError",
    "StrategyConfig", "TaskSpec", "TcsaParams",
    "affinity_pressure", "branch_and_bound", "brute_force_oracle",
    "compare_to_baseline", "compute_values", "derive_seed",
    "generate_mcmkp", "generate_tcsa", "generate_trace_bernoulli",
    "generate_trace_episodic", "greedy_construct", "init_affinities",
    "local_search_improve", "make_tcsa_priority_hook", "max_affinity_pressure",
    "os_values", "pc_values", "rotation_metrics", "run_cycle", "run_scenario",
    "solve", "update_affinities", "validate_instance", "validate_trace",
    "worked_example_fixture", "wpp_values",
]
