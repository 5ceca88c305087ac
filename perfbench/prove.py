"""Run-to-run spread of the end-to-end metrics, and the committed baseline.

    python3 perfbench/prove.py
    python3 perfbench/prove.py --baseline perfbench/baseline.json

Runs ``run.py --trace 0`` once for each of the seeds 1 to ``RUNS`` on each
workload and prints, for each end-to-end metric, the median of the runs and
their spread: the distance between the first and third quartile, as
``statistics.quantiles(values, n=4)`` gives them, as a share of the median.
A workload is steady when every spread except that of ``setup_s`` is below a
third of the metric's bound in ``BENCHMARK.json``.

With ``--baseline`` it also makes one ``--trace 1`` run per workload and
writes every value, the medians and spreads, the ungated ``proven_share``
and machine slowdown, the per-layer split, the outcome figures and the
environment to the given file.  Exits 1 when a run
fails or a workload is not steady.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from run import RUNS_DIR, WORKLOADS  # noqa: E402

RUNS = 10


def bench(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """One run.py run; returns its saved result document."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    path = os.path.join(RUNS_DIR, "results", f"{workload}-seed{seed}-trace{trace}.json")
    if proc.returncode != 0 or not os.path.exists(path):
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n"
                           f"{proc.stdout[-3000:]}{proc.stderr[-3000:]}")
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def spread(values: list[float]) -> tuple[float, float]:
    """(median, interquartile distance as a share of the median)."""
    mid = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return mid, (q3 - q1) / mid if mid else 0.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--baseline", help="write the baseline document here")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"]
    seeds = list(range(1, RUNS + 1))

    steady = True
    baseline = {"run_seconds": seconds, "seeds": seeds, "workloads": {}}
    for workload in WORKLOADS:
        runs = [bench(workload, seed, seconds, 0) for seed in seeds]
        entry = {"why": next(w["why"] for w in spec["workloads"]
                             if w["name"] == workload),
                 "args": runs[0]["args"], "end_to_end": {}}
        print(f"== {workload}: {len(runs)} runs, seeds {seeds[0]}..{seeds[-1]}")
        for metric in spec["end_to_end"]:
            name = metric["name"]
            values = [r["metrics"][name]["value"] for r in runs]
            mid, share = spread(values)
            ok = name == "setup_s" or share < metric["bound"] / 3
            steady &= ok
            entry["end_to_end"][name] = {
                "unit": metric["unit"], "median": mid, "spread": share,
                "bound": metric["bound"], "values": values}
            print(f"   {name:16s} median {mid:12.6g} {metric['unit']:6s} spread "
                  f"{share:7.4f}  bound/3 {metric['bound'] / 3:.4f}"
                  f"{'' if ok else '  NOT STEADY'}")
        entry["ungated"] = {name: [r["all_metrics"][name] for r in runs]
                            for name in ("proven_share", "slowdown")}
        entry["env"] = [r["env"] for r in runs]
        entry["outcomes"] = {r["seed"]: r["outcomes"] for r in runs}
        entry["summary_sha256"] = {r["seed"]: r["summary_sha256"] for r in runs}
        if args.baseline:
            traced = bench(workload, seeds[0], seconds, 1)
            entry["per_layer"] = {"seed": seeds[0], "metrics": traced["metrics"]}
        baseline["workloads"][workload] = entry

    if args.baseline:
        with open(args.baseline, "w", encoding="utf-8") as fh:
            json.dump(baseline, fh, indent=2, sort_keys=True)
            fh.write("\n")
    print("steady" if steady else "NOT steady")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
