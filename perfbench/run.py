"""rotagap benchmark: real ``rotagap run`` jobs on fixed workloads.

    python3 perfbench/run.py --workload mcmkp-foa --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

Run from the repository root.  Each workload is one ``rotagap run`` command
line (``--workers 1`` and a node budget, so one process with deterministic
results); ``--seed`` becomes its scenario seeds.

With ``--trace 0`` the command first runs two ``quality`` probes
(``probe.py``) side by side, which check every cycle's answer and give the
quality figures, on the workload's timing seeds and on further seeds.  It
then runs untraced ``plain`` probes back to back, one process each, on the
timing seeds for ``--seconds`` seconds, and reports the end-to-end metrics
named in ``BENCHMARK.json``.  Each plain
probe also times a fixed calibration workload before and after its run;
timings are divided by how much slower that was than on the reference
machine (``REFERENCE_CALIBRATION_S``), and the unscaled figures are printed
as ``raw_*``.  With ``--trace 1`` it alternates plain and ``traced`` probes
for ``--seconds`` seconds and reports the per-layer metrics as medians over
the traced ones.  ``--workload all`` runs every workload in both modes.

Every probe must write the same ``summary.csv`` as the first plain probe
(the same sha256, or the same rows and cycle lines for the seeds both ran),
every cycle must pass the output check and every traced solve must be
reproduced by the public solver phases; otherwise the run counts failed
operations (one operation is one (strategy, seed) job), prints
``"correct": false`` and exits 1.  The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  The full result, with the environment and the outcome figures
per strategy, is also written to ``perfbench/.runs/results/``.
"""

import argparse
import csv
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUNS_DIR = os.path.join(HERE, ".runs")
RUN_DEADLINE_S = 170
MIN_PLAIN_PROBES = 3
# ``probe.calibrate`` time on the reference machine (2 cores, Python 3.11,
# numpy 2.4) when it runs fast.  That machine's speed drifts by a quarter or
# more within seconds, and the drift moves the calibration and the workloads
# alike: scaled by the calibrations around each job, a plain probe's cycle
# rate varies half as much between probes as its raw rate.
REFERENCE_CALIBRATION_S = 0.04

# Cycle counts keep one process at one to five seconds on a 2-core machine,
# so one run holds several processes to take medians over, and give each
# process at least 100 cycles, so its 90th percentile has ten beyond it.
WORKLOADS = {
    "mcmkp-foa": [
        "--scenario", "mcmkp", "--agents", "12", "--tasks", "48",
        "--strategies", "foa", "--budget", "nodes:20000", "--cycles", "13"],
    "tcsa-pc": [
        "--scenario", "tcsa", "--agents", "20", "--tasks", "750",
        "--strategies", "pc", "--budget", "nodes:60000", "--cycles", "17"],
    "mcmkp-grid": [
        "--scenario", "mcmkp", "--agents", "12", "--tasks", "48",
        "--agent-availability", "0.75", "--task-availability", "0.75",
        "--strategies", "foa,os:10,os:40,pc,wpp", "--budget", "nodes:500"],
}
SEEDS_PER_RUN = {"mcmkp-foa": 4, "tcsa-pc": 3, "mcmkp-grid": 1}
# The quality figures are exact for given seeds but vary between instances,
# so the quality probes average them over more seeds than the timing probes
# run, which keeps the spread of the mean gap between runs below a twelfth
# of its median.  Their timings are not used, so they run side by side.
QUALITY_SEEDS = {"mcmkp-foa": 12, "tcsa-pc": 24, "mcmkp-grid": 2}
QUALITY_PROCESSES = 2


def timing_seeds(workload: str, seed: int) -> list[int]:
    return [seed * 1000 + i for i in range(SEEDS_PER_RUN[workload])]


def quality_seeds(workload: str, seed: int) -> list[list[int]]:
    """The quality probes' seeds, one list per process; the timing seeds
    are among them."""
    seeds = [seed * 1000 + i for i in range(QUALITY_SEEDS[workload])]
    return [seeds[k::QUALITY_PROCESSES] for k in range(QUALITY_PROCESSES)]


def job_count(workload: str, seeds: list[int]) -> int:
    args = WORKLOADS[workload]
    specs = set(args[args.index("--strategies") + 1].split(",")) | {"fop"}
    return len(specs) * len(seeds)


def sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def run_probes(mode: str, workload: str, seed_lists: list[list[int]],
               out_dir: str, deadline: float) -> list[dict]:
    """Run one probe process per list of scenario seeds, side by side, each
    killed at ``deadline`` (``time.monotonic``); returns their records plus
    the seeds, the spawn time, the summary checksum and rows, and an
    ``error`` text when a probe failed."""
    started = []
    for seeds in seed_lists:
        path = tempfile.mkdtemp(prefix=f"{mode}-", dir=out_dir)
        cmd = [sys.executable, os.path.join(HERE, "probe.py"), mode,
               os.path.join(path, "probe.json"), "--", *WORKLOADS[workload],
               "--seeds", ",".join(str(s) for s in seeds), "--workers", "1",
               "-o", os.path.join(path, "run")]
        with open(os.path.join(path, "stderr.txt"), "w", encoding="utf-8") as err:
            spawn = time.monotonic()
            proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.DEVNULL,
                                    stderr=err)
        started.append((proc, path, {"mode": mode, "seeds": seeds, "spawn": spawn}))
    for proc, _, record in started:
        try:
            proc.wait(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            record["error"] = f"probe killed after the run's {RUN_DEADLINE_S} s deadline"
        record["wall_s"] = time.monotonic() - record["spawn"]
    return [read_probe(proc.returncode, path, record) for proc, path, record in started]


def read_probe(returncode: int, path: str, record: dict) -> dict:
    """Add a finished probe's result file and outputs to its record."""
    with open(os.path.join(path, "stderr.txt"), encoding="utf-8") as fh:
        stderr = fh.read().strip()[-2000:]
    result_path = os.path.join(path, "probe.json")
    if "error" in record:
        return record
    if returncode != 0 or not os.path.exists(result_path):
        record["error"] = f"probe exited {returncode}: {stderr}"
        return record
    with open(result_path, encoding="utf-8") as fh:
        record.update(json.load(fh))
    if record["exit_code"] != 0:
        record["error"] = f"rotagap run exited {record['exit_code']}: {stderr}"
    run_dir = os.path.join(path, "run")
    record["cycle_lines"] = {}
    for name in sorted(os.listdir(run_dir)) if os.path.isdir(run_dir) else []:
        if name.endswith(".cycles.jsonl"):
            with open(os.path.join(run_dir, name), encoding="utf-8") as fh:
                record["cycle_lines"][name[:-len(".cycles.jsonl")]] = fh.read().splitlines()
    summary = os.path.join(run_dir, "summary.csv")
    if os.path.exists(summary):
        record["summary_sha256"] = sha256(summary)
        with open(summary, encoding="utf-8", newline="") as fh:
            record["summary_rows"] = list(csv.DictReader(fh))
    elif "error" not in record:
        record["error"] = "no summary.csv written"
    return record


def differences(first: dict, other: dict) -> list[str]:
    """Where a probe's outputs differ from those of the first plain probe on
    the scenario seeds both ran: summary.csv (its sha256 when the seeds are
    the same, else its rows), then each job's cycles.jsonl line by line."""
    def seed_of(stem):  # a job's stem ends with "-seed<n>"
        return int(stem.rsplit("-seed", 1)[1])

    found = []
    shared = set(first["seeds"]) & set(other["seeds"])
    if set(first["seeds"]) == set(other["seeds"]):
        if first.get("summary_sha256") != other.get("summary_sha256"):
            found.append(f"summary.csv sha256 {other.get('summary_sha256')} != "
                         f"{first.get('summary_sha256')}")
    else:
        rows_a, rows_b = ({(r["strategy"], int(r["seed"])): r
                           for r in record.get("summary_rows", [])
                           if int(r["seed"]) in shared}
                          for record in (first, other))
        found.extend(f"summary.csv row {key[0]} seed {key[1]}: "
                     f"{rows_b.get(key)} != {rows_a.get(key)}"
                     for key in sorted(set(rows_a) | set(rows_b))
                     if rows_a.get(key) != rows_b.get(key))
    a, b = first.get("cycle_lines", {}), other.get("cycle_lines", {})
    for stem in sorted(stem for stem in set(a) | set(b) if seed_of(stem) in shared):
        lines_a, lines_b = a.get(stem, []), b.get(stem, [])
        if len(lines_a) != len(lines_b):
            found.append(f"{stem}: {len(lines_b)} cycles != {len(lines_a)}")
        found.extend(f"{stem} cycle {c}: {y} != {x}" for c, (x, y)
                     in enumerate(zip(lines_a, lines_b), 1) if x != y)
    return found


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def slowdown(record: dict) -> float:
    """How much slower the machine ran during a plain probe than the
    reference: its mean calibration time over ``REFERENCE_CALIBRATION_S``."""
    return statistics.mean(t for _, t in record["marks"]) / REFERENCE_CALIBRATION_S


def cycle_slowdowns(record: dict) -> np.ndarray:
    """Each cycle's slowdown: the mean of the calibrations before and after
    its job, over ``REFERENCE_CALIBRATION_S``."""
    out = np.ones(len(record["cycle_s"]))
    marks = record["marks"]
    for (begin, before), (end, after) in zip(marks, marks[1:]):
        out[begin:end] = (before + after) / 2 / REFERENCE_CALIBRATION_S
    return out


def end_to_end(plain: list[dict], quality: list[dict]) -> tuple[dict, dict]:
    """End-to-end metrics from the plain probes plus the quality probes'
    figures over all their cycles; the second dict holds sample counts.

    Timings are scaled to the reference machine speed: set-up time and
    cycle rate by the probe's ``slowdown``, each cycle by its job's.  Both
    leave out the calibration time and are medians over probes.  Every
    plain probe of a run solves the same cycles, so a cycle's duration is
    the median over the probes, which removes most of the machine's short
    slow spells; the percentiles are taken over those durations.  ``raw_*``
    entries hold the unscaled figures.
    """
    def setup(r):
        return r["first_cycle"] - r["spawn"] - r["marks"][0][1]

    def rate(r):
        calibration_s = sum(t for _, t in r["marks"][1:])
        return len(r["cycle_s"]) / (r["main_end"] - r["first_cycle"] - calibration_s)

    cycle_count = min((len(r["cycle_s"]) for r in plain), default=0)
    durations = np.array([r["cycle_s"][:cycle_count] for r in plain])
    scaled = np.array([(r["cycle_s"] / cycle_slowdowns(r))[:cycle_count]
                       for r in plain])

    def percentile(table, q):
        if not cycle_count:
            return 0.0
        return 1000.0 * float(np.percentile(np.median(table, axis=0), q))

    def total(name):
        return sum(r["phases"].get(name, 0) for r in quality)

    cycles = int(total("cycles"))
    metrics = {
        "setup_s": median(setup(r) / slowdown(r) for r in plain),
        "cycles_per_s": median(rate(r) * slowdown(r) for r in plain),
        "cycle_ms_p50": percentile(scaled, 50),
        "cycle_ms_p90": percentile(scaled, 90),
        "raw_setup_s": median(setup(r) for r in plain),
        "raw_cycles_per_s": median(rate(r) for r in plain),
        "raw_cycle_ms_p50": percentile(durations, 50),
        "raw_cycle_ms_p90": percentile(durations, 90),
        "slowdown": median(slowdown(r) for r in plain),
        "peak_rss_mb": median(r["rss_kb"] / 1024.0 for r in plain),
        "proven_share": total("proven") / cycles if cycles else 0.0,
        "bound_gap_pct": total("gap_pct_sum") / cycles if cycles else 0.0,
    }
    samples = {"setup_s": len(plain), "cycles_per_s": len(plain),
               "cycle_ms_p50": cycle_count, "cycle_ms_p90": cycle_count,
               "peak_rss_mb": len(plain), "proven_share": cycles,
               "bound_gap_pct": cycles}
    return metrics, samples


def per_layer(plain: list[dict], traced: list[dict]) -> dict:
    """Per-layer metrics as medians over the traced probes."""
    def each(fn) -> float:
        return median(fn(r) for r in traced)

    def self_s(layer):
        return each(lambda r: r["self_s"].get(layer, 0.0))

    def phase(name):
        return each(lambda r: r["phases"].get(name, 0.0))

    def calls(*labels):
        return each(lambda r: sum(r["calls"].get(label, 0) for label in labels))

    def share(name):
        return each(lambda r: r["phases"].get(name, 0) / r["phases"]["cycles"]
                    if r["phases"].get("cycles") else 0.0)

    plain_wall = median(r["main_end"] - r["main_start"]
                        - sum(t for _, t in r["marks"]) for r in plain)
    traced_wall = each(lambda r: r["main_end"] - r["main_start"] - r["excluded_s"])
    return {
        "scenarios.generate_s": self_s("scenarios.generate"),
        "scenarios.generate_calls": calls("generate_mcmkp", "generate_tcsa"),
        "scenarios.priority_s": self_s("scenarios.priority"),
        "scenarios.priority_calls": calls("priority_hook"),
        "domain.matrices_s": self_s("domain.matrices"),
        "affinity.pressure_s": self_s("affinity.pressure"),
        "affinity.pressure_calls": calls("max_affinity_pressure"),
        "affinity.update_s": self_s("affinity.update"),
        "strategies.values_s": self_s("strategies.values"),
        "engine.build_s": self_s("engine.build"),
        "engine.cycle_self_s": self_s("engine.cycle"),
        "solver.solve_s": self_s("solver.solve"),
        "solver.units_per_s": each(
            lambda r: r["phases"].get("units", 0) / r["self_s"]["solver.solve"]
            if r["self_s"].get("solver.solve") else 0.0),
        "solver.setup_s": phase("setup_s"),
        "solver.greedy_s": phase("greedy_s"),
        "solver.local_search_s": phase("local_search_s"),
        "solver.ls_units": phase("ls_units"),
        "solver.bnb_s": phase("bnb_s"),
        "solver.bnb_units": phase("bnb_units"),
        "solver.ls_improved_share": share("ls_improved"),
        "solver.bnb_improved_share": share("bnb_improved"),
        "solver.exhausted_share": share("exhausted"),
        "fileio.serialize_s": self_s("fileio.serialize"),
        "fileio.write_s": self_s("fileio.write"),
        "fileio.bytes_written": phase("bytes_written"),
        "cli.self_s": self_s("cli"),
        "trace.overhead_pct": 100.0 * (traced_wall / plain_wall - 1.0)
        if plain_wall else 0.0,
    }


def outcomes(records: list[dict]) -> list[dict]:
    """Outcome figures per strategy and seed from the probes' summary.csv
    files (where two probes ran a job, their rows are checked equal)."""
    keep = ("strategy", "seed", "profit_pct_of_fop", "full_rotations",
            "avg_rotations_per_task")
    rows = {(row["strategy"], int(row["seed"])): {k: row[k] for k in keep}
            for r in records for row in r.get("summary_rows", [])}
    return [rows[key] for key in sorted(rows, key=lambda key: (key[1], key[0]))]


def run_workload(workload: str, seed: int, seconds: float, trace: int,
                 spec: dict) -> dict:
    """One benchmark run; returns the full result document."""
    env = {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "loadavg_at_start": list(os.getloadavg()),
    }
    out_root = os.path.join(RUNS_DIR, f"{workload}-seed{seed}-trace{trace}-{os.getpid()}")
    shutil.rmtree(out_root, ignore_errors=True)
    os.makedirs(out_root)
    probes: list[dict] = []
    start = time.monotonic()
    deadline = start + RUN_DEADLINE_S

    def add(mode, seed_lists=(timing_seeds(workload, seed),)):
        probes.extend(run_probes(mode, workload, list(seed_lists), out_root, deadline))

    try:
        if trace == 0:
            add("quality", quality_seeds(workload, seed))
            measured_from = time.monotonic()
            while time.monotonic() - measured_from < seconds or sum(
                    r["mode"] == "plain" for r in probes) < MIN_PLAIN_PROBES:
                add("plain")
        else:
            while time.monotonic() - start < seconds or not probes:
                add("plain")
                add("traced")
    finally:
        shutil.rmtree(out_root, ignore_errors=True)

    plain = [r for r in probes if r["mode"] == "plain" and "error" not in r]
    checked = [r for r in probes if r["mode"] != "plain" and "error" not in r]
    errors = []
    failed = 0
    for k, record in enumerate(probes):
        jobs = job_count(workload, record["seeds"])
        if "error" in record:
            errors.append(f"probe {k} ({record['mode']}): {record['error']}")
            failed += jobs
            continue
        found = differences(plain[0], record) if plain else []
        if found:
            errors.extend(f"{workload} probe {k} ({record['mode']}): {d}"
                          for d in found)
            failed += jobs
            continue
        bad_jobs = [job for job in record.get("jobs", []) if job["errors"]]
        for job in bad_jobs:
            errors.extend(f"{workload} {e}" for e in job["errors"])
        failed += len(bad_jobs)

    if trace:
        metrics = per_layer(plain, checked) if plain and checked else {}
        samples = {}
    else:
        metrics, samples = end_to_end(plain, checked)
    names = spec["per_layer"] if trace else spec["end_to_end"]
    reported = {m["name"]: {"value": metrics.get(m["name"], 0.0), "unit": m["unit"]}
                for m in names}
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "scenario_seeds": timing_seeds(workload, seed),
        "quality_seeds": [] if trace else quality_seeds(workload, seed),
        "args": WORKLOADS[workload],
        "env": env,
        "probes": {"plain": len(plain), "traced" if trace else "quality": len(checked)},
        "probe_wall_s": [[r["mode"], round(r.get("wall_s", 0.0), 3)] for r in probes],
        "samples": samples,
        "summary_sha256": {mode: sorted({r["summary_sha256"] for r in probes
                                         if r["mode"] == mode and "summary_sha256" in r})
                           for mode in sorted({r["mode"] for r in probes})},
        "outcomes": outcomes(checked),
        "errors": errors,
        "attempted": sum(job_count(workload, r["seeds"]) for r in probes),
        "failed": failed,
        "correct": failed == 0 and not errors and bool(plain) and bool(checked),
        "metrics": reported,
        "all_metrics": metrics,
    }


def print_result(result: dict) -> None:
    print(f"== {result['workload']}  seed {result['seed']}  trace {result['trace']}  "
          f"probes {result['probes']}  scenario seeds {result['scenario_seeds']}"
          + (f", quality {result['quality_seeds']}" if result["quality_seeds"] else ""))
    env = result["env"]
    print(f"   env: nproc {env['nproc']}, python {env['python']}, numpy "
          f"{env['numpy']}, load {' '.join(f'{x:.2f}' for x in env['loadavg_at_start'])}")
    lines = [(name, m["value"], m["unit"]) for name, m in result["metrics"].items()]
    if not result["trace"]:
        # Not gated in BENCHMARK.json: proven_share is 0 on every workload
        # under its node budget, and failed_share is the JSON "attempted" and
        # "failed" keys.
        extra = result["all_metrics"]
        lines.append(("proven_share", extra["proven_share"], "share"))
        lines.append(("failed_share", result["failed"] / result["attempted"]
                      if result["attempted"] else 0.0, "share"))
        lines.append(("slowdown", extra["slowdown"], "x"))
        lines.extend((name, extra[name], unit) for name, unit in (
            ("raw_setup_s", "s"), ("raw_cycles_per_s", "1/s"),
            ("raw_cycle_ms_p50", "ms"), ("raw_cycle_ms_p90", "ms")))
    for name, value, unit in lines:
        count = result["attempted"] if name == "failed_share" \
            else result["samples"].get(name)
        suffix = f"  (n={count})" if count is not None else ""
        print(f"   {name:28s} {value:.6g} {unit}{suffix}")
    for row in result["outcomes"]:
        print(f"   outcome {row['strategy']:6s} seed {row['seed']}: profit "
              f"{float(row['profit_pct_of_fop']):.3f}% of fop, full rotations "
              f"{row['full_rotations']}, avg rotations/task "
              f"{float(row['avg_rotations_per_task']):.4f}")
    for mode, shas in result["summary_sha256"].items():
        print(f"   {mode} summary.csv sha256 {' '.join(shas)}")
    for error in result["errors"]:
        print(f"   FAILED {error}")


def save_result(result: dict) -> None:
    path = os.path.join(RUNS_DIR, "results",
                        f"{result['workload']}-seed{result['seed']}-trace{result['trace']}.json")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=2, sort_keys=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(ROOT, "src", "rotagap", "cli.py")) \
            or not os.path.isfile(spec_path):
        print("error: run from a rotagap checkout: src/rotagap and "
              "BENCHMARK.json are needed", file=sys.stderr)
        return 2
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)

    if args.workload == "all":
        runs = [(w, t) for w in WORKLOADS for t in (0, 1)]
    else:
        runs = [(args.workload, args.trace)]
    results = []
    for workload, trace in runs:
        result = run_workload(workload, args.seed, args.seconds, trace, spec)
        save_result(result)
        print_result(result)
        results.append(result)

    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{name}": value for r in results
                   for name, value in r["metrics"].items()}
    correct = all(r["correct"] for r in results)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
