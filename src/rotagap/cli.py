"""Command-line frontend: generate scenarios, run experiment grids, and turn
summaries into comparison tables.

    rotagap generate --scenario mcmkp --agents 12 --tasks 48 --seed 7 -o out/
    rotagap run --scenario mcmkp --agents 12 --tasks 48 --seeds 1,2,3 \
        --strategies fop,foa,os:10 --budget nodes:20000 -o out/
    rotagap report --summary out/summary.csv -o tables/

Exit codes: 0 ok, 2 config error, 3 run failure, 4 report schema error.
All randomness flows from the seeds given here; under node-limit budgets a
re-run with the same config produces byte-identical files.
"""

import argparse
import concurrent.futures
import json
import logging
import os
import sys

from . import engine, fileio, scenarios
from .domain import validate_instance, validate_trace
from .scenarios import GenerationError, McmkpParams, TcsaParams
from .solver import SolverBudget
from .strategies import ConfigError, StrategyConfig

log = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUN = 3
EXIT_REPORT = 4


def parse_strategies(specs: list[str]) -> list[StrategyConfig]:
    """Parse comma-separated strategy specs; the fop baseline is appended
    automatically when absent (profit percentages need it)."""
    flat: list[str] = []
    for chunk in specs:
        flat.extend(s for s in chunk.split(",") if s.strip())
    result = [StrategyConfig.parse(s) for s in flat]
    seen = set()
    unique = []
    for config in result:
        if config not in seen:
            seen.add(config)
            unique.append(config)
    if not any(c.kind == "fop" for c in unique):
        unique.append(StrategyConfig(kind="fop"))
    return unique


def strategy_sort_key(label: str):
    """Canonical table order: foa, os by rising gamma, pc, wpp, fop."""
    kind = label.split("/", 1)[0]
    rank = {"foa": 0, "os": 1, "pc": 2, "wpp": 3, "fop": 4}.get(kind, 5)
    gamma = 0.0
    if kind == "os" and "/" in label:
        try:
            gamma = float(label.split("/", 1)[1])
        except ValueError:
            gamma = 0.0
    return (rank, gamma, label)


def _mcmkp_scenario(args) -> dict:
    return {
        "name": "mcmkp",
        "agents": args.agents,
        "tasks": args.tasks,
        "correlation": args.correlation,
        "agent_availability": args.agent_availability,
        "task_availability": args.task_availability,
    }


def _tcsa_scenario(args) -> dict:
    return {
        "name": "tcsa",
        "agents": args.agents,
        "tasks": args.tasks,
        "capacity_minutes": args.capacity_minutes,
        "compat_fraction": args.compat_fraction,
        "runtime_range": list(args.runtime_range),
        "agent_unavail_fraction": args.agent_unavail_fraction,
        "task_unavail_fraction": args.task_unavail_fraction,
        "unavail_duration_range": list(args.unavail_duration_range),
    }


def materialize_scenario(scenario: dict, seed: int, cycles: int | None,
                         static_priorities: bool):
    """Build (instance, trace, priority_hook, label) for one seed."""
    name = scenario.get("name")
    if name == "mcmkp":
        params = McmkpParams(
            agents=int(scenario["agents"]),
            tasks=int(scenario["tasks"]),
            correlation=scenario.get("correlation", "uncorrelated"),
            agent_availability=float(scenario.get("agent_availability", 1.0)),
            task_availability=float(scenario.get("task_availability", 1.0)),
            seed=seed,
        )
        instance = scenarios.generate_mcmkp(params)
        trace = scenarios.generate_trace_bernoulli(
            instance, cycles, params.agent_availability,
            params.task_availability, seed=seed)
        hook = None
    elif name == "tcsa":
        params = TcsaParams(
            agents=int(scenario.get("agents", 20)),
            tasks=int(scenario.get("tasks", 750)),
            capacity_minutes=int(scenario.get("capacity_minutes", 600)),
            compat_fraction=float(scenario.get("compat_fraction", 0.60)),
            runtime_range=tuple(scenario.get("runtime_range", (1, 21))),
            agent_unavail_fraction=float(scenario.get("agent_unavail_fraction", 0.40)),
            task_unavail_fraction=float(scenario.get("task_unavail_fraction", 0.10)),
            unavail_duration_range=tuple(scenario.get("unavail_duration_range", (3, 7))),
            cycles=int(cycles) if cycles else 365,
            seed=seed,
        )
        instance = scenarios.generate_tcsa(params)
        trace = scenarios.generate_trace_episodic(instance, params)
        hook = None if static_priorities \
            else scenarios.make_tcsa_priority_hook(instance, seed)
    elif name == "files":
        instance = fileio.load_instance(scenario["instance"])
        trace = fileio.load_trace(scenario["trace"])
        problems = validate_instance(instance) + validate_trace(trace, instance)
        if problems:
            raise ConfigError("; ".join(problems))
        hook = None
        if instance.metadata.get("generator") == "tcsa" and not static_priorities:
            hook = scenarios.make_tcsa_priority_hook(instance, seed)
    else:
        raise ConfigError(f"unknown scenario {name!r}")
    return instance, trace, hook, fileio.scenario_label(instance)


def cmd_generate(args) -> int:
    try:
        scenario = _mcmkp_scenario(args) if args.scenario == "mcmkp" \
            else _tcsa_scenario(args)
        instance, trace, _, label = materialize_scenario(
            scenario, args.seed, args.cycles, static_priorities=True)
    except (ConfigError, GenerationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    os.makedirs(args.output_dir, exist_ok=True)
    stem = f"{label}-seed{args.seed}"
    instance_path = os.path.join(args.output_dir, f"{stem}.instance.json")
    trace_path = os.path.join(args.output_dir, f"{stem}.trace.jsonl")
    fileio.save_instance(instance_path, instance)
    fileio.save_trace(trace_path, trace)
    for path in (instance_path, trace_path):
        print(f"{fileio.sha256_file(path)}  {path}")
    return EXIT_OK


def _resolved_config(scenario: dict, strategies: list[StrategyConfig],
                     budget: SolverBudget, cycles: int | None,
                     seeds: list[int], output_dir: str, workers: int,
                     static_priorities: bool) -> dict:
    return {
        "scenario": scenario,
        "strategies": [s.spec for s in strategies],
        "budget": budget.spec,
        "cycles": cycles,
        "seeds": seeds,
        "output_dir": output_dir,
        "workers": workers,
        "static_priorities": static_priorities,
    }


def execute_run(payload: dict) -> dict:
    """Run one (strategy, seed) job; top-level so worker pools can pickle it."""
    scenario = payload["scenario"]
    seed = payload["seed"]
    strategy = StrategyConfig.parse(payload["strategy"])
    budget = SolverBudget.parse(payload["budget"])
    instance, trace, hook, label = materialize_scenario(
        scenario, seed, payload["cycles"], payload["static_priorities"])
    report = engine.run_scenario(instance, trace, strategy, budget,
                                 priority_hook=hook)
    doc = fileio.run_report_to_dict(report, scenario=label, seed=seed,
                                    budget_mode=budget.mode,
                                    config=payload["config"])
    return {
        "scenario": label,
        "seed": seed,
        "strategy_label": strategy.label,
        "stem": f"{label}-{strategy.file_label}-seed{seed}",
        "report": doc,
        "cycle_lines": fileio.cycle_lines(report),
        "total_profit": report.total_profit,
        "full_rotations": report.full_rotations,
        "avg_rotations_per_task": report.avg_rotations_per_task,
        "cycles": len(report.per_cycle),
        "budget_mode": budget.mode,
    }


def cmd_run(args) -> int:
    try:
        if args.config:
            with open(args.config, encoding="utf-8") as fh:
                loaded = json.load(fh)
            scenario = loaded["scenario"]
            strategies = parse_strategies(loaded["strategies"])
            budget = SolverBudget.parse(loaded["budget"])
            cycles = loaded.get("cycles")
            seeds = [int(s) for s in loaded["seeds"]]
            output_dir = args.output_dir or loaded["output_dir"]
            workers = int(loaded.get("workers", 1))
            static_priorities = bool(loaded.get("static_priorities", False))
        else:
            if args.instance or args.trace:
                if not (args.instance and args.trace):
                    raise ConfigError("--instance and --trace must be given together")
                scenario = {"name": "files", "instance": args.instance,
                            "trace": args.trace}
            elif args.scenario:
                scenario = _mcmkp_scenario(args) if args.scenario == "mcmkp" \
                    else _tcsa_scenario(args)
            else:
                raise ConfigError("need --scenario or --instance/--trace or --config")
            strategies = parse_strategies(args.strategies or [])
            budget = SolverBudget.parse(args.budget)
            cycles = args.cycles
            seeds = [int(s) for chunk in (args.seeds or []) for s in chunk.split(",")]
            output_dir = args.output_dir
            workers = args.workers
            static_priorities = args.static_priorities
        if not output_dir:
            raise ConfigError("an output directory is required")
        if not seeds:
            if scenario.get("name") == "files":
                instance = fileio.load_instance(scenario["instance"])
                seeds = [int(instance.metadata.get("seed", 0))]
            else:
                seeds = [0]
        for strategy in strategies:
            strategy.validate()
    except (ValueError, GenerationError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    os.makedirs(output_dir, exist_ok=True)
    config = _resolved_config(scenario, strategies, budget, cycles, seeds,
                              output_dir, workers, static_priorities)
    fileio.atomic_write_text(os.path.join(output_dir, "config.json"),
                             json.dumps(config, indent=2, sort_keys=True) + "\n")

    payloads = []
    for seed in seeds:
        for strategy in strategies:
            payloads.append({
                "scenario": scenario,
                "seed": seed,
                "strategy": strategy.spec,
                "budget": budget.spec,
                "cycles": cycles,
                "static_priorities": static_priorities,
                "config": config,
            })

    results = []
    failures = []
    if workers > 1 and len(payloads) > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(execute_run, p) for p in payloads]
            for payload, future in zip(payloads, futures):
                try:
                    results.append(future.result())
                except Exception as exc:  # noqa: BLE001 - preserve partial results
                    failures.append((payload, exc))
    else:
        for payload in payloads:
            try:
                results.append(execute_run(payload))
            except Exception as exc:  # noqa: BLE001
                failures.append((payload, exc))

    for result in results:
        report_path = os.path.join(output_dir, f"{result['stem']}.report.json")
        fileio.atomic_write_text(
            report_path, json.dumps(result["report"], indent=2, sort_keys=True) + "\n")
        fileio.atomic_write_text(
            os.path.join(output_dir, f"{result['stem']}.cycles.jsonl"),
            result["cycle_lines"])

    rows = []
    fop_totals = {(r["scenario"], r["seed"]): r["total_profit"]
                  for r in results if r["strategy_label"] == "fop"}
    summary_ok = True
    for result in sorted(results, key=lambda r: (r["scenario"], r["seed"],
                                                 strategy_sort_key(r["strategy_label"]))):
        key = (result["scenario"], result["seed"])
        fop_total = fop_totals.get(key)
        if not fop_total:
            failures.append((key, RuntimeError(
                f"no usable fop baseline for {key}; cannot compute profit percentages")))
            summary_ok = False
            continue
        rows.append({
            "scenario": result["scenario"],
            "strategy": result["strategy_label"],
            "seed": result["seed"],
            "total_profit": result["total_profit"],
            "profit_pct_of_fop": repr(engine.profit_pct(result["total_profit"],
                                                         fop_total)),
            "full_rotations": result["full_rotations"],
            "avg_rotations_per_task": repr(result["avg_rotations_per_task"]),
            "cycles": result["cycles"],
            "budget_mode": result["budget_mode"],
        })
    if rows and summary_ok:
        summary_path = os.path.join(output_dir, "summary.csv")
        fileio.atomic_write_text(summary_path, fileio.summary_csv(rows))
        print(summary_path)

    if failures:
        for what, exc in failures:
            label = what.get("strategy") if isinstance(what, dict) else what
            print(f"run failed ({label}): {exc}", file=sys.stderr)
        return EXIT_RUN
    return EXIT_OK


def cmd_report(args) -> int:
    try:
        rows = []
        for path in args.summary:
            rows.extend(fileio.read_summary(path))
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_REPORT

    scenarios_seen = sorted({r["scenario"] for r in rows})
    strategies_seen = sorted({r["strategy"] for r in rows}, key=strategy_sort_key)
    by_scenario_strategy: dict[tuple[str, str], list[dict]] = {}
    for row in rows:
        by_scenario_strategy.setdefault((row["scenario"], row["strategy"]), []).append(row)
    for scenario in scenarios_seen:
        if ("fop" not in {r["strategy"] for r in rows if r["scenario"] == scenario}):
            print(f"error: scenario {scenario} has no fop baseline rows",
                  file=sys.stderr)
            return EXIT_REPORT

    def mean(values: list[float]) -> float:
        return sum(values) / len(values)

    os.makedirs(args.output_dir, exist_ok=True)
    rotation_lines = ["strategy," + ",".join(scenarios_seen)]
    profit_lines = ["strategy," + ",".join(scenarios_seen)]
    for strategy in strategies_seen:
        rotation_cells = [strategy]
        profit_cells = [strategy]
        for scenario in scenarios_seen:
            group = by_scenario_strategy.get((scenario, strategy), [])
            if not group:
                rotation_cells.append("")
                profit_cells.append("")
                continue
            full = mean([float(r["full_rotations"]) for r in group])
            avg = mean([float(r["avg_rotations_per_task"]) for r in group])
            pct = mean([float(r["profit_pct_of_fop"]) for r in group])
            rotation_cells.append(f"{full:.1f} ({avg:.1f})")
            profit_cells.append(f"{pct:.1f}")
        rotation_lines.append(",".join(f'"{c}"' if "," in c else c
                                       for c in rotation_cells))
        profit_lines.append(",".join(profit_cells))

    long_rows = ["scenario,strategy,seed,metric,value"]
    metrics = ("total_profit", "profit_pct_of_fop", "full_rotations",
               "avg_rotations_per_task")
    for row in sorted(rows, key=lambda r: (r["scenario"], int(r["seed"]),
                                           strategy_sort_key(r["strategy"]))):
        for metric in metrics:
            long_rows.append(",".join([row["scenario"], row["strategy"],
                                       str(row["seed"]), metric, str(row[metric])]))

    outputs = {
        "rotation_table.csv": "\n".join(rotation_lines) + "\n",
        "profit_table.csv": "\n".join(profit_lines) + "\n",
        "long.csv": "\n".join(long_rows) + "\n",
    }
    for name, text in outputs.items():
        path = os.path.join(args.output_dir, name)
        fileio.atomic_write_text(path, text)
        print(path)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rotagap",
        description="Multi-cycle assignment engine with rotational diversity")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_scenario_args(p, for_run: bool):
        p.add_argument("--scenario", choices=["mcmkp", "tcsa"],
                       required=not for_run)
        p.add_argument("--agents", type=int, default=None)
        p.add_argument("--tasks", type=int, default=None)
        p.add_argument("--correlation", choices=list(scenarios.CORRELATIONS),
                       default="uncorrelated")
        p.add_argument("--agent-availability", type=float, default=1.0)
        p.add_argument("--task-availability", type=float, default=1.0)
        p.add_argument("--capacity-minutes", type=int, default=600)
        p.add_argument("--compat-fraction", type=float, default=0.60)
        p.add_argument("--runtime-range", type=int, nargs=2, default=(1, 21),
                       metavar=("LO", "HI"))
        p.add_argument("--agent-unavail-fraction", type=float, default=0.40)
        p.add_argument("--task-unavail-fraction", type=float, default=0.10)
        p.add_argument("--unavail-duration-range", type=int, nargs=2,
                       default=(3, 7), metavar=("LO", "HI"))
        p.add_argument("--cycles", type=int, default=None,
                       help="override the scenario's cycle count")

    gen = sub.add_parser("generate", help="write instance and trace files")
    add_scenario_args(gen, for_run=False)
    gen.add_argument("--seed", type=int, required=True)
    gen.add_argument("-o", "--output-dir", required=True)

    run = sub.add_parser("run", help="run a strategy grid over a scenario")
    add_scenario_args(run, for_run=True)
    run.add_argument("--config", help="resolved config.json from a previous run")
    run.add_argument("--instance", help="instance file (with --trace)")
    run.add_argument("--trace", help="trace file (with --instance)")
    run.add_argument("--strategies", action="append", default=None,
                     help="comma-separated specs: fop,foa,os:10,pc,pc:2:0.5,wpp")
    run.add_argument("--budget", default="seconds:60",
                     help="nodes:<int> or seconds:<float> per cycle")
    run.add_argument("--seeds", action="append", default=None,
                     help="comma-separated integer seeds")
    run.add_argument("--workers", type=int, default=1)
    run.add_argument("--static-priorities", action="store_true",
                     help="disable per-cycle tcsa priority redraws")
    run.add_argument("-o", "--output-dir", default=None)
    run.add_argument("--verbose", action="store_true")

    rep = sub.add_parser("report", help="comparison tables from summaries")
    rep.add_argument("--summary", nargs="+", required=True)
    rep.add_argument("-o", "--output-dir", required=True)
    return parser


def _fill_scenario_defaults(args) -> None:
    if getattr(args, "scenario", None) == "mcmkp":
        if args.agents is None or args.tasks is None:
            raise ConfigError("mcmkp needs --agents and --tasks")
    elif getattr(args, "scenario", None) == "tcsa":
        if args.agents is None:
            args.agents = 20
        if args.tasks is None:
            args.tasks = 750


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "verbose", False):
        logging.basicConfig(level=logging.INFO,
                            format="%(name)s: %(message)s")
    try:
        _fill_scenario_defaults(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    if args.command == "generate":
        return cmd_generate(args)
    if args.command == "run":
        return cmd_run(args)
    if args.command == "report":
        return cmd_report(args)
    return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
