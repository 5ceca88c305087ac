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
import contextlib
import dataclasses
import json
import logging
import os
import sys

from . import engine, fileio, scenarios
from .domain import validate_instance, validate_trace
from .scenarios import GenerationError, McmkpParams, TcsaParams
from .solver import SolverBudget
from .strategies import ConfigError, StrategyConfig

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUN = 3
EXIT_REPORT = 4

GENERATOR_PARAMS = {"mcmkp": McmkpParams, "tcsa": TcsaParams}


def parse_strategies(specs: list[str]) -> list[StrategyConfig]:
    """Parse comma-separated strategy specs; the fop baseline is appended
    automatically when absent (profit percentages need it)."""
    flat: list[str] = []
    for chunk in specs:
        flat.extend(s for s in chunk.split(",") if s.strip())
    unique = list(dict.fromkeys(StrategyConfig.parse(s) for s in flat))
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


def scenario_fields(cls) -> list[dataclasses.Field]:
    """The generator parameters a scenario config sets: all but the seed,
    which each job supplies, and the cycle count, a run-level setting."""
    return [f for f in dataclasses.fields(cls) if f.name not in ("seed", "cycles")]


def scenario_from_args(args) -> dict:
    """The scenario section of a run config from the scenario flags; a flag
    left unset takes its generator parameter's default."""
    fields = scenario_fields(GENERATOR_PARAMS[args.scenario])
    names = {f.name for f in fields}
    stray = sorted(f.name for cls in GENERATOR_PARAMS.values()
                   for f in scenario_fields(cls)
                   if f.name not in names and getattr(args, f.name) is not None)
    if stray:
        raise ConfigError(f"--{stray[0].replace('_', '-')} does not apply "
                          f"to the {args.scenario} scenario")
    scenario = {"name": args.scenario}
    for f in fields:
        value = getattr(args, f.name)
        value = f.default if value is None else value
        if value is not dataclasses.MISSING:
            scenario[f.name] = value
    return scenario


def scenario_params(scenario: dict, seed: int, cycles: int | None):
    """The generator parameters of a mcmkp or tcsa scenario for one seed,
    each value coerced with its field's type."""
    name = scenario.get("name")
    cls = GENERATOR_PARAMS.get(name)
    if cls is None:
        raise ConfigError(f"unknown scenario {name!r}")
    fields = {f.name: f for f in scenario_fields(cls)}
    given = {k: v for k, v in scenario.items() if k != "name"}
    unknown = sorted(set(given) - set(fields))
    if unknown:
        raise ConfigError(f"unknown {name} scenario field(s): {', '.join(unknown)}")
    missing = [k for k, f in fields.items()
               if k not in given and f.default is dataclasses.MISSING]
    if missing:
        raise ConfigError(f"the {name} scenario needs {' and '.join(missing)}")
    values = {}
    for key, value in given.items():
        try:
            values[key] = fields[key].type(value)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad {name} scenario {key} {value!r}: {exc}") from exc
    if cycles is not None and cls is TcsaParams:
        values["cycles"] = cycles
    return cls(**values, seed=seed)


def load_files(scenario: dict):
    """The instance and trace of a ``files`` scenario, checked together."""
    instance = fileio.load_instance(scenario["instance"])
    trace = fileio.load_trace(scenario["trace"])
    problems = validate_instance(instance) + validate_trace(trace, instance)
    if problems:
        raise ConfigError("; ".join(problems))
    return instance, trace


def materialize_scenario(scenario: dict, seed: int, cycles: int | None,
                         static_priorities: bool):
    """Build (instance, trace, priority_hook, label) for one seed."""
    if scenario.get("name") == "files":
        instance, trace = load_files(scenario)
        redraw = instance.metadata.get("generator") == "tcsa"
    else:
        params = scenario_params(scenario, seed, cycles)
        redraw = isinstance(params, TcsaParams)
        if redraw:
            instance = scenarios.generate_tcsa(params)
            trace = scenarios.generate_trace_episodic(instance, params)
        else:
            instance = scenarios.generate_mcmkp(params)
            trace = scenarios.generate_trace_bernoulli(
                instance, cycles, params.agent_availability,
                params.task_availability, seed=seed)
    hook = scenarios.make_tcsa_priority_hook(instance, seed) \
        if redraw and not static_priorities else None
    return instance, trace, hook, fileio.scenario_label(instance)


def cmd_generate(args) -> int:
    try:
        instance, trace, _, label = materialize_scenario(
            scenario_from_args(args), args.seed, args.cycles,
            static_priorities=True)
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


def config_from_args(args) -> dict:
    """A raw run config, shaped like ``config.json``, from the run flags."""
    if args.instance or args.trace:
        if not (args.instance and args.trace):
            raise ConfigError("--instance and --trace must be given together")
        scenario = {"name": "files", "instance": args.instance,
                    "trace": args.trace}
    elif args.scenario:
        scenario = scenario_from_args(args)
    else:
        raise ConfigError("need --scenario or --instance/--trace or --config")
    return {
        "scenario": scenario,
        "strategies": args.strategies or [],
        "budget": args.budget,
        "cycles": args.cycles,
        "seeds": [s for chunk in args.seeds or [] for s in chunk.split(",")],
        "output_dir": args.output_dir,
        "workers": args.workers,
        "static_priorities": args.static_priorities,
    }


def resolve_config(raw: dict) -> dict:
    """Check a raw run config and return it resolved, as ``config.json``
    records it: canonical strategy and budget specs, seeds filled in.  The
    scenario's parameters, or its files, are checked here too, and so is
    each strategy's value range over them, so that a bad input is refused
    before any job starts."""
    scenario = raw["scenario"]
    if not isinstance(scenario, dict):
        raise ConfigError(f"scenario must be an object, got {scenario!r}")
    strategies = parse_strategies(raw["strategies"])
    budget = SolverBudget.parse(raw["budget"])
    cycles = raw.get("cycles")
    if cycles is not None:
        cycles = int(cycles)
        if cycles < 1:
            raise ConfigError(f"cycles must be >= 1, got {cycles}")
    seeds = [int(s) for s in raw.get("seeds") or []]
    if scenario.get("name") == "files":
        instance, trace = load_files(scenario)
        seeds = seeds or [int(instance.metadata.get("seed", 0))]
        top = max((p for task in instance.tasks
                   for p in task.profits.values()), default=0)
        if instance.metadata.get("generator") == "tcsa":  # may redraw
            top = max(top, TcsaParams().max_profit)
        extent = (top, trace.cycles, len(instance.tasks))
    else:
        params = scenario_params(scenario, 0, cycles)
        params.validate()
        if isinstance(params, TcsaParams):
            run_cycles = params.cycles
        else:
            run_cycles = cycles or scenarios.CYCLES_PER_TASK * params.tasks
        extent = (params.max_profit, run_cycles, params.tasks)
    for strategy in strategies:
        strategy.check_values_finite(*extent)
    workers = int(raw.get("workers", 1))
    if workers < 1:
        raise ConfigError(f"workers must be >= 1, got {workers}")
    if not raw.get("output_dir"):
        raise ConfigError("an output directory is required")
    return {
        "scenario": scenario,
        "strategies": [s.spec for s in strategies],
        "budget": budget.spec,
        "cycles": cycles,
        "seeds": seeds or [0],
        "output_dir": raw["output_dir"],
        "workers": workers,
        "static_priorities": bool(raw.get("static_priorities", False)),
    }


def execute_run(payload: dict) -> dict:
    """Run one (strategy, seed) job; top-level so worker pools can pickle it.
    ``payload["scenario"]`` is the seed's (instance, trace, priority_hook,
    label) from :func:`materialize_scenario`."""
    config = payload["config"]
    seed = payload["seed"]
    strategy = StrategyConfig.parse(payload["strategy"])
    budget = SolverBudget.parse(config["budget"])
    instance, trace, hook, label = payload["scenario"]
    report = engine.run_scenario(instance, trace, strategy, budget,
                                 priority_hook=hook)
    doc = fileio.run_report_to_dict(report, scenario=label, seed=seed,
                                    budget_mode=budget.mode, config=config)
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


def run_here(fn, *args) -> concurrent.futures.Future:
    """``fn(*args)`` called now, in this process, as a finished future."""
    future = concurrent.futures.Future()
    try:
        future.set_result(fn(*args))
    except Exception as exc:  # noqa: BLE001 - the job's outcome
        # no traceback: its frames would keep the job's scenario alive
        future.set_exception(exc.with_traceback(None))
    return future


def cmd_run(args) -> int:
    try:
        if args.config:
            with open(args.config, encoding="utf-8") as fh:
                raw = json.load(fh)
            raw["output_dir"] = args.output_dir or raw.get("output_dir")
        else:
            raw = config_from_args(args)
        config = resolve_config(raw)
    except (ValueError, TypeError, GenerationError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    output_dir = config["output_dir"]
    os.makedirs(output_dir, exist_ok=True)
    fileio.atomic_write_text(os.path.join(output_dir, "config.json"),
                             fileio._dump_json(config))

    # Seed by seed, each seed's scenario is built once, here, and handed to
    # its jobs; a failed build fails every job of its seed.  One pool task
    # per job, so a one-seed grid still uses every worker.  A fork pool
    # starts all its processes at once, so no more than there are jobs.
    strategies = config["strategies"]
    workers = min(config["workers"], len(config["seeds"]) * len(strategies))
    jobs = []  # (seed, strategy, future), seed-major
    with (concurrent.futures.ProcessPoolExecutor(max_workers=workers)
          if workers > 1 else contextlib.nullcontext()) as pool:
        submit = run_here if pool is None else pool.submit
        for seed in config["seeds"]:
            built = run_here(materialize_scenario, config["scenario"], seed,
                             config["cycles"], config["static_priorities"])
            if built.exception() is not None:
                jobs.extend((seed, spec, built) for spec in strategies)
                continue
            jobs.extend((seed, spec, submit(execute_run, {
                "config": config, "seed": seed, "strategy": spec,
                "scenario": built.result()})) for spec in strategies)
            del built  # a serial run holds one seed's scenario at a time
    results = []
    failures = []  # (scenario, seed, strategy, exception)
    scenario = config["scenario"]
    where = scenario["instance"] if scenario["name"] == "files" else scenario["name"]
    for seed, spec, future in jobs:
        try:
            results.append(future.result())
        except Exception as exc:  # noqa: BLE001 - preserve partial results
            failures.append((where, seed, spec, exc))

    for result in results:
        report_path = os.path.join(output_dir, f"{result['stem']}.report.json")
        fileio.atomic_write_text(report_path, fileio._dump_json(result["report"]))
        fileio.atomic_write_text(
            os.path.join(output_dir, f"{result['stem']}.cycles.jsonl"),
            result["cycle_lines"])

    rows = []
    fop_totals = {(r["scenario"], r["seed"]): r["total_profit"]
                  for r in results if r["strategy_label"] == "fop"}
    for result in sorted(results, key=lambda r: (r["scenario"], r["seed"],
                                                 strategy_sort_key(r["strategy_label"]))):
        fop_total = fop_totals.get((result["scenario"], result["seed"]))
        if not fop_total:
            failures.append((result["scenario"], result["seed"],
                             result["strategy_label"], RuntimeError(
                                 "no usable fop baseline; cannot compute "
                                 "profit percentages")))
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
    if rows and len(rows) == len(results):
        summary_path = os.path.join(output_dir, "summary.csv")
        fileio.atomic_write_text(summary_path, fileio.summary_csv(rows))
        print(summary_path)

    # failures.json exists only after a failed run, so reruns stay identical
    failures_path = os.path.join(output_dir, "failures.json")
    if failures:
        doc = [{"scenario": where, "seed": seed, "strategy": strategy,
                "error": str(exc)} for where, seed, strategy, exc in failures]
        fileio.atomic_write_text(failures_path, fileio._dump_json(doc))
    elif os.path.exists(failures_path):
        os.remove(failures_path)
    for where, seed, strategy, exc in failures:
        print(f"run failed (scenario {where}, seed {seed}, strategy {strategy}): "
              f"{exc}", file=sys.stderr)
    return EXIT_RUN if failures else EXIT_OK


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
        p.add_argument("--scenario", choices=list(GENERATOR_PARAMS),
                       required=not for_run)
        p.add_argument("--agents", type=int)
        p.add_argument("--tasks", type=int)
        p.add_argument("--correlation", choices=list(scenarios.CORRELATIONS))
        p.add_argument("--agent-availability", type=float)
        p.add_argument("--task-availability", type=float)
        p.add_argument("--capacity-minutes", type=int)
        p.add_argument("--compat-fraction", type=float)
        p.add_argument("--runtime-range", type=int, nargs=2, metavar=("LO", "HI"))
        p.add_argument("--agent-unavail-fraction", type=float)
        p.add_argument("--task-unavail-fraction", type=float)
        p.add_argument("--unavail-duration-range", type=int, nargs=2,
                       metavar=("LO", "HI"))
        p.add_argument("--cycles", type=int,
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
    run.add_argument("--budget", default="nodes:20000",
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


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "verbose", False):
        logging.basicConfig(level=logging.INFO,
                            format="%(name)s: %(message)s")
    if args.command == "generate":
        return cmd_generate(args)
    if args.command == "run":
        return cmd_run(args)
    if args.command == "report":
        return cmd_report(args)
    return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
