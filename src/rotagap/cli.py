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
from .fileio import typed
from .scenarios import GenerationError, McmkpParams, TcsaParams
from .solver import SolverBudget
from .strategies import ConfigError, StrategyConfig, report_order

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUN = 3
EXIT_REPORT = 4

GENERATOR_PARAMS = {"mcmkp": McmkpParams, "tcsa": TcsaParams}
# the fields of a run config, as config.json records them
RUN_CONFIG_FIELDS = ("scenario", "strategies", "budget", "cycles", "seeds",
                     "output_dir", "workers", "static_priorities")


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


def seed_list(text: str) -> list[int]:
    """The integers of one comma-separated ``--seeds`` value."""
    try:
        return [int(s) for s in text.split(",")]
    except ValueError as exc:  # argparse names the flag
        raise argparse.ArgumentTypeError(str(exc)) from None


def scenario_fields(cls) -> list[dataclasses.Field]:
    """The generator parameters a scenario config sets: all but the seed,
    which each job supplies, and the cycle count, a run-level setting."""
    return [f for f in dataclasses.fields(cls) if f.name not in ("seed", "cycles")]


def scenario_types() -> dict[str, type]:
    """The type of each generator parameter a scenario flag sets."""
    return {f.name: f.type for cls in GENERATOR_PARAMS.values()
            for f in scenario_fields(cls)}


def scenario_flags() -> list[str]:
    """The scenario flags as argument names: the scenario, its cycle count
    and each generator parameter."""
    return ["scenario", "cycles", *sorted(scenario_types())]


def refuse_flags(args, names: list[str], where: str) -> None:
    """Refuse the first flag of ``names`` given on the command line, which
    ``where`` would ignore; a flag left out is None, or False if it takes
    no value."""
    for name in names:
        value = getattr(args, name)
        if value is not None and value is not False:
            raise ConfigError(
                f"--{name.replace('_', '-')} does not apply {where}")


def scenario_from_args(args) -> dict:
    """The scenario section of a run config from the scenario flags; a flag
    left unset takes its generator parameter's default."""
    fields = scenario_fields(GENERATOR_PARAMS[args.scenario])
    names = {"scenario", "cycles", *(f.name for f in fields)}
    refuse_flags(args, [n for n in scenario_flags() if n not in names],
                 f"to the {args.scenario} scenario")
    scenario = {"name": args.scenario}
    for f in fields:
        value = getattr(args, f.name)
        value = f.default if value is None else value
        if value is not dataclasses.MISSING:
            scenario[f.name] = value
    return scenario


def scenario_params(scenario: dict, seed: int, cycles: int | None):
    """The generator parameters of a mcmkp or tcsa scenario for one seed;
    each value must have its field's type (:func:`typed`)."""
    name = typed(scenario, "name", "config scenario", str)
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
    values = {key: typed(scenario, key, f"{name} scenario", fields[key].type)
              for key in given}
    if cycles is not None and cls is TcsaParams:
        values["cycles"] = cycles
    return cls(**values, seed=seed)


def load_files(scenario: dict):
    """The instance and trace of a ``files`` scenario, checked together;
    an error names the file's path, or a field other than its three."""
    unknown = sorted(set(scenario) - {"name", "instance", "trace"})
    if unknown:
        raise ConfigError(f"unknown files scenario field(s): {', '.join(unknown)}")
    path = typed(scenario, "instance", "files scenario", str)
    trace_path = typed(scenario, "trace", "files scenario", str)
    try:
        instance = fileio.load_instance(path)
        path = trace_path
        trace = fileio.load_trace(path)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from None
    problems = validate_instance(instance) + validate_trace(trace, instance)
    if problems:
        raise ConfigError("; ".join(problems))
    return instance, trace


def materialize_scenario(scenario: dict, seed: int, cycles: int | None,
                         static_priorities: bool, files=None):
    """Build (instance, trace, priority_hook, label) for one seed; a files
    scenario runs on ``files``, the (instance, trace) it named.  A tcsa
    instance, generated or read, redraws its priorities each cycle."""
    if files is None:
        params = scenario_params(scenario, seed, cycles)
        if isinstance(params, TcsaParams):
            instance = scenarios.generate_tcsa(params)
            files = instance, scenarios.generate_trace_episodic(instance, params)
        else:
            instance = scenarios.generate_mcmkp(params)
            files = instance, scenarios.generate_trace_bernoulli(
                instance, cycles, params.agent_availability,
                params.task_availability, seed=seed)
    instance, trace = files
    redraw = instance.metadata.get("generator") == "tcsa"
    hook = scenarios.make_tcsa_priority_hook(instance, seed) \
        if redraw and not static_priorities else None
    label = fileio.scenario_label(instance.metadata, len(instance.agents),
                                  len(instance.tasks))
    return instance, trace, hook, label


def cmd_generate(args) -> int:
    try:
        instance, trace, _, label = materialize_scenario(
            scenario_from_args(args), args.seed, args.cycles,
            static_priorities=True)
        fileio.check_output_names(args.output_dir, label, [args.seed])
        os.makedirs(args.output_dir, exist_ok=True)
    except (ValueError, GenerationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    _, *names = fileio.output_names(label, args.seed)
    instance_path, trace_path = (os.path.join(args.output_dir, name)
                                 for name in names)
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
        refuse_flags(args, scenario_flags(), "with --instance/--trace")
        scenario = {"name": "files", "instance": args.instance,
                    "trace": args.trace}
    elif args.scenario:
        scenario = scenario_from_args(args)
    else:
        raise ConfigError("need --scenario or --instance/--trace or --config")
    return {
        "scenario": scenario,
        "strategies": args.strategies or [],
        "budget": "nodes:20000" if args.budget is None else args.budget,
        "cycles": args.cycles,
        "seeds": [s for chunk in args.seeds or [] for s in chunk],
        "output_dir": args.output_dir,
        "workers": 1 if args.workers is None else args.workers,
        "static_priorities": args.static_priorities,
    }


def resolve_config(raw: dict) -> tuple[dict, tuple | None]:
    """Check a raw run config and return it resolved, as ``config.json``
    records it: canonical strategy and budget specs, seeds filled in and
    each listed once, in the order first given.  The scenario's parameters,
    or its files, are checked here too, and so is each strategy's value
    range over them, so that a bad input is refused before any job
    starts, and so are the output file names (an error names the files
    scenario's instance path).  A files scenario's (instance, trace), read
    once here, comes with it; a generated scenario has None."""
    unknown = sorted(set(raw) - set(RUN_CONFIG_FIELDS))
    if unknown:
        raise ConfigError(f"unknown config field(s): {', '.join(unknown)}")
    scenario = typed(raw, "scenario", "config", dict)
    strategies = parse_strategies(typed(raw, "strategies", "config", list[str]))
    budget = SolverBudget.parse(typed(raw, "budget", "config", str))
    cycles = raw.get("cycles")
    if cycles is not None:
        cycles = typed(raw, "cycles", "config", int)
        if cycles < 1:
            raise ConfigError(f"cycles must be >= 1, got {cycles}")
    seeds = [] if raw.get("seeds") is None else \
        list(dict.fromkeys(typed(raw, "seeds", "config", list[int])))
    files = None
    if scenario.get("name") == "files":
        instance, trace = files = load_files(scenario)
        source = f"{scenario['instance']}: "
        label_from = (instance.metadata, len(instance.agents),
                      len(instance.tasks))
        if not seeds:
            seed = instance.metadata.get("seed", 0)
            if type(seed) is not int:  # as the loaders: no coercion
                raise ConfigError(f"{source}metadata 'seed' is not an "
                                  f"integer: {seed!r}")
            seeds = [seed]
        top = max((p for task in instance.tasks
                   for p in task.profits.values()), default=0)
        if instance.metadata.get("generator") == "tcsa":  # may redraw
            top = max(top, TcsaParams().max_profit)
        extent = (top, trace.cycles, len(instance.tasks))
    else:
        params = scenario_params(scenario, 0, cycles)
        source = ""
        label_from = ({"generator": scenario["name"], "params": vars(params)},
                      params.agents, params.tasks)
        # a tcsa scenario's params hold its cycle count; mcmkp has none
        run_cycles = getattr(params, "cycles", None) or cycles \
            or scenarios.CYCLES_PER_TASK * params.tasks
        extent = (params.max_profit, run_cycles, params.tasks)
    for strategy in strategies:
        strategy.check_values_finite(*extent)
    workers = typed(raw, "workers", "config", int) if "workers" in raw else 1
    if workers < 1:
        raise ConfigError(f"workers must be >= 1, got {workers}")
    static = typed(raw, "static_priorities", "config", bool) \
        if "static_priorities" in raw else False
    if not raw.get("output_dir"):
        raise ConfigError("an output directory is required")
    output_dir = typed(raw, "output_dir", "config", str)
    seeds = seeds or [0]
    try:
        label = fileio.scenario_label(*label_from)
        fileio.check_output_names(output_dir, label, seeds,
                                  [s.file_label for s in strategies])
    except ValueError as exc:
        raise ConfigError(f"{source}{exc}") from None
    return {
        "scenario": scenario,
        "strategies": [s.spec for s in strategies],
        "budget": budget.spec,
        "cycles": cycles,
        "seeds": seeds,
        "output_dir": output_dir,
        "workers": workers,
        "static_priorities": static,
    }, files


def execute_run(payload: dict) -> dict:
    """Run one (strategy, seed) job and write its report and per-cycle
    series; top-level so worker pools can pickle it.
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
    stem, *names = fileio.output_names(label, seed, strategy.file_label)
    texts = fileio.report_json(doc), fileio.cycle_lines(report)
    for name, text in zip(names, texts):
        fileio.atomic_write_text(os.path.join(config["output_dir"], name), text)
    # the benchmark's probe finds a job's files by its stem
    return {"stem": stem, "report": doc}


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
            refuse_flags(args, [*scenario_flags(), "instance", "trace",
                                "strategies", "budget", "seeds", "workers",
                                "static_priorities"], "with --config")
            with open(args.config, encoding="utf-8") as fh:
                raw = json.load(fh)
            if not isinstance(raw, dict):
                raise ConfigError(f"{args.config}: expected an object, "
                                  f"got {type(raw).__name__}")
            raw["output_dir"] = args.output_dir or raw.get("output_dir")
        else:
            raw = config_from_args(args)
        config, files = resolve_config(raw)
        output_dir = config["output_dir"]
        os.makedirs(output_dir, exist_ok=True)
    except (ValueError, TypeError, GenerationError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    fileio.atomic_write_text(os.path.join(output_dir, "config.json"),
                             fileio.dump_json(config))

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
                             config["cycles"], config["static_priorities"],
                             files)
            if built.exception() is not None:
                jobs.extend((seed, spec, built) for spec in strategies)
                continue
            jobs.extend((seed, spec, submit(execute_run, {
                "config": config, "seed": seed, "strategy": spec,
                "scenario": built.result()})) for spec in strategies)
            del built  # a serial run holds one seed's scenario at a time
    docs = []  # (strategy spec, report)
    failures = []  # (seed, strategy spec, exception)
    for seed, spec, future in jobs:
        try:
            docs.append((spec, future.result()["report"]))
        except Exception as exc:  # noqa: BLE001 - preserve partial results
            failures.append((seed, spec, exc))

    rows = []
    fop_totals = {d["seed"]: d["total_profit"] for spec, d in docs if spec == "fop"}
    docs.sort(key=lambda sd: (sd[1]["seed"],
                              report_order(sd[1]["strategy"]["label"])))
    for spec, doc in docs:
        label = doc["strategy"]["label"]
        if doc["seed"] not in fop_totals:
            failures.append((doc["seed"], spec, RuntimeError(
                "no fop report for this seed; cannot compute profit "
                "percentages")))
            continue
        pct = engine.profit_pct(doc["total_profit"], fop_totals[doc["seed"]])
        # the report holds every summary column but these two
        rows.append({**{k: doc.get(k) for k in fileio.SUMMARY_COLUMNS},
                     "strategy": label, "profit_pct_of_fop": pct})
    if rows:
        summary_path = os.path.join(output_dir, "summary.csv")
        fileio.atomic_write_text(summary_path, fileio.summary_csv(rows))
        print(summary_path)

    # failures.json exists only after a failed run, so reruns stay identical
    scenario = config["scenario"]
    where = scenario["instance"] if scenario["name"] == "files" else scenario["name"]
    failures_path = os.path.join(output_dir, "failures.json")
    if failures:
        doc = [{"scenario": where, "seed": seed, "strategy": strategy,
                "error": str(exc)} for seed, strategy, exc in failures]
        fileio.atomic_write_text(failures_path, fileio.dump_json(doc))
    elif os.path.exists(failures_path):
        os.remove(failures_path)
    for seed, strategy, exc in failures:
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

    groups: dict[str, dict[str, list[dict]]] = {}  # scenario, strategy
    for row in rows:
        groups.setdefault(row["scenario"], {}) \
            .setdefault(row["strategy"], []).append(row)
    scenarios_seen = sorted(groups)
    strategies_seen = sorted({r["strategy"] for r in rows}, key=report_order)
    for scenario in scenarios_seen:
        if "fop" not in groups[scenario]:
            print(f"error: scenario {scenario} has no fop baseline rows",
                  file=sys.stderr)
            return EXIT_REPORT
    try:
        os.makedirs(args.output_dir, exist_ok=True)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    def mean(group: list[dict], column: str) -> float:
        return sum(float(r[column]) for r in group) / len(group)

    def table(cell) -> str:
        """Strategy by scenario: ``cell`` of each group's rows, or blank."""
        return fileio.csv_text([["strategy", *scenarios_seen], *(
            [strategy, *(cell(groups[s][strategy]) if strategy in groups[s]
                         else "" for s in scenarios_seen)]
            for strategy in strategies_seen)])

    long_rows = [["scenario", "strategy", "seed", "metric", "value"]]
    metrics = ("total_profit", "profit_pct_of_fop", "full_rotations",
               "avg_rotations_per_task")
    for row in sorted(rows, key=lambda r: (r["scenario"], int(r["seed"]),
                                           report_order(r["strategy"]))):
        for metric in metrics:
            long_rows.append([row["scenario"], row["strategy"], row["seed"],
                              metric, row[metric]])

    outputs = {
        "rotation_table.csv": table(
            lambda g: f"{mean(g, 'full_rotations'):.1f} "
                      f"({mean(g, 'avg_rotations_per_task'):.1f})"),
        "profit_table.csv": table(
            lambda g: f"{mean(g, 'profit_pct_of_fop'):.1f}"),
        "long.csv": fileio.csv_text(long_rows),
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
        for name, kind in scenario_types().items():
            flag = f"--{name.replace('_', '-')}"
            if kind == tuple[int, int]:
                p.add_argument(flag, type=int, nargs=2, metavar=("LO", "HI"))
            else:
                p.add_argument(flag, type=kind)
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
    run.add_argument("--budget",
                     help="nodes:<int> or seconds:<float> per cycle "
                     "(default nodes:20000)")
    run.add_argument("--seeds", action="append", type=seed_list,
                     help="comma-separated integer seeds")
    run.add_argument("--workers", type=int, help="(default 1)")
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
