"""One ``rotagap run`` in this process, observed from outside the program.

    python3 perfbench/probe.py plain|traced|quality RESULT.json -- <rotagap run args>

The probe imports the package from ``src/``, replaces public names that the
package looks up at call time (``engine.run_cycle``, ``engine.solve``,
``cli.execute_run``, ...) with wrappers, calls ``cli.main`` and writes what
it saw to RESULT.json.  Nothing under ``src/`` is changed.

``plain`` times each cycle and nothing else, plus ``calibrate`` between
jobs; it gives the end-to-end timings.  ``traced`` also records a
span per layer call, checks every cycle's answer against the instance
(``checks.check_cycle``) and the benchmark's own bound, and replays each
solve through the public solver phases to split its time.  ``quality``
records and checks like ``traced`` but skips the replay; it gives the
quality figures.  The benchmark's own work runs inside ``Tracer.excluded``
so that it is left out of every span and of the traced wall time.
"""

import functools
import json
import os
import resource
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

from checks import InstanceView, check_cycle, lagrangian_bound  # noqa: E402
from rotagap import cli, engine, fileio, scenarios, solver, strategies  # noqa: E402
from rotagap.solver import SolverBudget  # noqa: E402


class Tracer:
    """Self time per layer and call counts per wrapped name.

    A span's self time is its duration minus its child spans and minus any
    excluded interval inside it.
    """

    def __init__(self):
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.excluded_s = 0.0
        self._stack = []

    def span(self, layer: str, label: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._stack.append([time.perf_counter(), self.excluded_s, 0.0])
            try:
                return fn(*args, **kwargs)
            finally:
                start, excluded_at_start, child_s = self._stack.pop()
                duration = time.perf_counter() - start \
                    - (self.excluded_s - excluded_at_start)
                self.self_s[layer] += duration - child_s
                self.calls[label] += 1
                if self._stack:
                    self._stack[-1][2] += duration
        return wrapper

    def wrap(self, module, name: str, layer: str) -> None:
        setattr(module, name, self.span(layer, name, getattr(module, name)))

    @contextmanager
    def excluded(self):
        start = time.perf_counter()
        try:
            yield
        finally:
            self.excluded_s += time.perf_counter() - start


class TracedRun:
    """Spans, per-cycle checks and the solver-phase replay for one run."""

    def __init__(self, replay: bool):
        self.tracer = Tracer()
        self.replay_solves = replay
        self.job = None
        self.cycle = None
        self.view = None
        self.last_solve = None
        self.jobs = []
        self.phases = defaultdict(float)

    def install(self) -> None:
        t = self.tracer
        t.wrap(cli, "materialize_scenario", "cli")
        for name in ("generate_mcmkp", "generate_tcsa",
                     "generate_trace_bernoulli", "generate_trace_episodic"):
            t.wrap(scenarios, name, "scenarios.generate")
        make_hook = scenarios.make_tcsa_priority_hook
        scenarios.make_tcsa_priority_hook = functools.wraps(make_hook)(
            lambda *a, **k: t.span("scenarios.priority", "priority_hook",
                                   make_hook(*a, **k)))
        t.wrap(engine, "init_affinities", "domain.matrices")
        t.wrap(engine, "max_affinity_pressure", "affinity.pressure")
        t.wrap(strategies, "max_affinity_pressure", "affinity.pressure")
        t.wrap(engine, "update_affinities", "affinity.update")
        t.wrap(engine, "compute_values", "strategies.values")
        t.wrap(engine, "build_gap_problem", "engine.build")
        for name in ("run_report_to_dict", "cycle_lines", "summary_csv"):
            t.wrap(fileio, name, "fileio.serialize")
        write = t.span("fileio.write", "atomic_write_text",
                       fileio.atomic_write_text)

        def atomic_write_text(path, text):
            self.phases["bytes_written"] += len(text.encode("utf-8"))
            return write(path, text)

        fileio.atomic_write_text = atomic_write_text

        solve = t.span("solver.solve", "solve", engine.solve)

        def traced_solve(problem, budget):
            result = solve(problem, budget)
            with t.excluded():
                self.last_solve = (problem, result)
                if self.replay_solves:
                    self.replay(problem, budget, result)
            return result

        engine.solve = traced_solve

        run_cycle = t.span("engine.cycle", "run_cycle", engine.run_cycle)

        def traced_run_cycle(instance, entry, state, strategy, budget,
                             profit_overrides=None):
            self.cycle = state.cycle
            self.last_solve = None
            out = run_cycle(instance, entry, state, strategy, budget,
                            profit_overrides=profit_overrides)
            with t.excluded():
                self.check(instance, entry, profit_overrides, out[0])
            return out

        engine.run_cycle = traced_run_cycle

        execute_run = cli.execute_run

        def traced_execute_run(payload):
            self.job = {"strategy": payload["strategy"], "seed": payload["seed"],
                        "profits": [], "errors": [], "stem": None}
            self.jobs.append(self.job)
            try:
                result = execute_run(payload)
            except Exception as exc:
                self.job["errors"].append(f"run raised {exc!r}")
                raise
            self.job["stem"] = result["stem"]
            return result

        cli.execute_run = traced_execute_run

    def fail(self, cycle, message: str) -> None:
        where = f"{self.job['strategy']} seed {self.job['seed']}"
        if cycle is not None:
            where += f" cycle {cycle}"
        self.job["errors"].append(f"{where}: {message}")

    def replay(self, problem, budget, result) -> None:
        """Run the solver's public phases on the same problem and budget;
        under a node budget they charge work exactly as ``solve`` does.

        ``root_upper_bound`` times the solver's setup.  Each phase function
        repeats that setup, and the two improving phases also convert and
        verify their incumbent; a zero-budget ``local_search_improve`` times
        that fixed cost, which is taken off local search and
        branch-and-bound.
        """
        p = self.phases
        clock = time.perf_counter
        start = clock()
        solver.root_upper_bound(problem)
        setup = clock() - start
        start = clock()
        greedy = solver.greedy_construct(problem)
        greedy_s = clock() - start
        start = clock()
        solver.local_search_improve(problem, greedy, SolverBudget.nodes(0))
        fixed = clock() - start
        start = clock()
        local = solver.local_search_improve(problem, greedy, budget)
        local_s = clock() - start
        rest = SolverBudget.nodes(budget.node_limit - local.nodes_explored)
        start = clock()
        final = solver.branch_and_bound(problem, local, rest)
        bnb_s = clock() - start
        p["setup_s"] += setup
        p["greedy_s"] += greedy_s - setup
        p["local_search_s"] += local_s - fixed
        p["bnb_s"] += bnb_s - fixed
        p["ls_units"] += local.nodes_explored
        p["bnb_units"] += final.nodes_explored
        p["units"] += result.nodes_explored
        p["ls_improved"] += local.objective > greedy.objective + 1e-9
        p["bnb_improved"] += final.objective > local.objective + 1e-9
        p["exhausted"] += result.budget_exhausted
        if final.pairs != result.pairs \
                or final.proven_optimal != result.proven_optimal:
            self.fail(self.cycle, "phase replay differs from solve "
                      f"(objective {final.objective!r} vs {result.objective!r}, "
                      f"proven {final.proven_optimal} vs {result.proven_optimal})")

    def check(self, instance, entry, overrides, assignment) -> None:
        cycle = self.cycle
        if self.view is None or self.view[0] is not instance:
            self.view = (instance, InstanceView(instance))
        view = self.view[1]
        if self.last_solve is None:
            self.fail(cycle, "run_cycle did not call solve")
            return
        problem, result = self.last_solve
        if result is not assignment:
            self.fail(cycle, "run_cycle returned another assignment than solve")
        bound = lagrangian_bound(problem.values, view.weights, view.capacities,
                                 view.feasible(entry))
        errors, profit = check_cycle(view, entry, overrides, problem,
                                     assignment, bound)
        for message in errors:
            self.fail(cycle, message)
        gap = 0.0 if bound <= 0 else 100.0 * (bound - assignment.objective) / bound
        self.job["profits"].append(profit)
        self.phases["cycles"] += 1
        self.phases["proven"] += assignment.proven_optimal
        self.phases["gap_pct_sum"] += gap

    def check_written_cycles(self, output_dir: str) -> None:
        """The profit written for each cycle equals the recomputed one."""
        for job in self.jobs:
            self.job = job
            if job["stem"] is None:
                continue
            path = os.path.join(output_dir, f"{job['stem']}.cycles.jsonl")
            try:
                with open(path, encoding="utf-8") as fh:
                    written = [json.loads(line)["profit"] for line in fh if line.strip()]
            except (OSError, ValueError, KeyError) as exc:
                self.fail(None, f"cannot read {path}: {exc}")
                continue
            if len(written) != len(job["profits"]):
                self.fail(None, f"{len(written)} cycles written, "
                          f"{len(job['profits'])} solved")
            for cycle, (got, want) in enumerate(zip(written, job["profits"]), 1):
                if got != want:
                    self.fail(cycle, f"written profit {got} != recomputed {want}")

    def result(self) -> dict:
        return {
            "excluded_s": self.tracer.excluded_s,
            "self_s": dict(self.tracer.self_s),
            "calls": dict(self.tracer.calls),
            "phases": dict(self.phases),
            "jobs": [{"strategy": j["strategy"], "seed": j["seed"],
                      "errors": j["errors"]} for j in self.jobs],
        }


def calibrate() -> float:
    """Seconds taken by fixed work of the kinds a cycle does:
    interpreter-bound loops over nested lists, numpy operations on a small
    matrix and reductions over a 20 x 750 one."""
    start = time.perf_counter()
    rows = [[(i * 7 + j * 13) % 101 + 1 for j in range(48)] for i in range(12)]
    total = 0
    for _ in range(250):
        rem = [400] * 12
        for j in range(48):
            for i in range(12):
                w = rows[i][j]
                if w <= rem[i] and (i + j) & 1:
                    rem[i] -= w
                    total += w
    values = np.arange(12 * 48, dtype=np.float64).reshape(12, 48)
    mask = values % 3 > 0
    for _ in range(3000):
        total += float(np.where(mask, values, 0.0).sum(axis=0).max())
    big = np.arange(20 * 750, dtype=np.float64).reshape(20, 750) % 97
    weights = big % 13 + 1
    usable = big % 5 > 1
    cols = np.arange(750)
    scale = np.linspace(0.0, 1.0, 20)[:, None]
    for _ in range(200):
        reduced = np.where(usable, big - scale * weights, -np.inf)
        total += float(reduced[reduced.argmax(axis=0), cols].sum())
        scale = scale + 0.001
    return time.perf_counter() - start


def install_plain(record: dict) -> None:
    """Time each ``engine.run_cycle`` call and note when the first one
    starts.  The machine's speed drifts within seconds, so ``calibrate``
    runs before the first job and after each job (``cli.execute_run``);
    each mark holds the number of cycles done so far and the calibration
    time."""
    run_cycle = engine.run_cycle
    durations = record["cycle_s"]
    marks = record["marks"]

    def timed_run_cycle(*args, **kwargs):
        if record["first_cycle"] is None:
            record["first_cycle"] = time.monotonic()
        start = time.perf_counter()
        out = run_cycle(*args, **kwargs)
        durations.append(time.perf_counter() - start)
        return out

    execute_run = cli.execute_run

    def calibrated_execute_run(payload):
        if not marks:
            marks.append([0, calibrate()])
        try:
            return execute_run(payload)
        finally:
            marks.append([len(durations), calibrate()])

    engine.run_cycle = timed_run_cycle
    cli.execute_run = calibrated_execute_run


def main(argv) -> int:
    if len(argv) < 3 or argv[0] not in ("plain", "traced", "quality") \
            or argv[2] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    mode, out_path, run_args = argv[0], argv[1], argv[3:]
    record = {"mode": mode, "first_cycle": None, "cycle_s": [], "marks": []}
    traced = None
    if mode == "plain":
        install_plain(record)
        main_fn = cli.main
    else:
        traced = TracedRun(replay=mode == "traced")
        traced.install()
        main_fn = traced.tracer.span("cli", "main", cli.main)
    record["main_start"] = time.monotonic()
    exit_code = main_fn(["run", *run_args])
    record["main_end"] = time.monotonic()
    record["exit_code"] = exit_code
    record["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if traced is not None:
        traced.check_written_cycles(run_args[run_args.index("-o") + 1])
        record.update(traced.result())
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
