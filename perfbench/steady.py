"""Steadiness helper: run each workload repeatedly and report the spread.

Usage, from the root of a checkout::

    python3 perfbench/steady.py --runs 10 [--workloads tune-pool ...]
        [--seed-base 1] [--out steady.json] [--compare earlier.json]

Round ``r`` runs every workload once with seed ``seed-base + r``; the
workload order rotates each round, so no workload always runs first.
For each end-to-end metric it prints the median, the interquartile range
(``statistics.quantiles(values, n=4)``) as a share of the median, and the
worst run-to-run change as a share of the median.  A metric whose spread
exceeds its bound in BENCHMARK.json is named; one above a third of its
bound is flagged as unsteady.  ``--compare`` also checks each median
against an earlier ``--out`` file: the worse direction may not move by
more than the bound.
Exits 1 if any run failed or any metric is out of bounds.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _run_once(workload: str, seed: int, seconds: int) -> Dict[str, object]:
    command = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stderr[-2000:])
        return {"ok": False, "seed": seed}
    result = json.loads(lines[-1])
    return {"ok": result["correct"], "seed": seed,
            "metrics": {name: entry["value"]
                        for name, entry in result["metrics"].items()}}


def _spread(values: List[float]) -> Dict[str, float]:
    median = statistics.median(values)
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    worst = max((abs(b - a) for a, b in zip(values, values[1:])),
                default=0.0)
    return {"median": median, "iqr_share": (q3 - q1) / median,
            "worst_share": worst / median}


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    names = [entry["name"] for entry in bench["workloads"]]
    parser = argparse.ArgumentParser(prog="perfbench-steady")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", nargs="*", default=names,
                        choices=names)
    parser.add_argument("--seed-base", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--out", help="write every value to this JSON file")
    parser.add_argument("--compare", help="an earlier --out file")
    args = parser.parse_args(argv)

    metrics = {entry["name"]: entry for entry in bench["end_to_end"]}
    values: Dict[str, Dict[str, List[float]]] = {
        name: {metric: [] for metric in metrics} for name in args.workloads}
    failures = 0
    for round_number in range(args.runs):
        shift = round_number % len(args.workloads)
        order = args.workloads[shift:] + args.workloads[:shift]
        for workload in order:
            seed = args.seed_base + round_number
            run = _run_once(workload, seed, args.seconds)
            if not run["ok"]:
                failures += 1
                print(f"FAILED {workload} seed {seed}")
                continue
            for metric in metrics:
                values[workload][metric].append(run["metrics"][metric])
            print(f"{workload} seed {seed}: " + " ".join(
                f"{metric}={run['metrics'][metric]:.4f}"
                for metric in metrics), flush=True)

    earlier = {}
    if args.compare:
        with open(args.compare, encoding="utf-8") as handle:
            earlier = json.load(handle)
    problems = 0
    for workload in args.workloads:
        print(f"\n{workload}:")
        print(f"  {'metric':<22} {'median':>14} {'iqr/med':>8} "
              f"{'worst':>8} {'bound':>6}")
        for metric, entry in metrics.items():
            series = values[workload][metric]
            if len(series) < 2:
                continue
            spread = _spread(series)
            bound = entry["bound"]
            flag = ""
            if spread["iqr_share"] > bound:
                flag, problems = "OUT OF BOUND", problems + 1
            elif spread["iqr_share"] > bound / 3:
                flag = "unsteady (> bound/3)"
            before = earlier.get(workload, {}).get(metric)
            if before:
                old = statistics.median(before)
                change = (spread["median"] - old) / old
                worse = -change if entry["better"] == "higher" else change
                flag += f" shift {change:+.3f}"
                if worse > bound:
                    flag, problems = flag + " WORSE THAN BOUND", problems + 1
            print(f"  {metric:<22} {spread['median']:>14.4f} "
                  f"{spread['iqr_share']:>8.4f} {spread['worst_share']:>8.4f}"
                  f" {bound:>6.3f} {flag}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(values, handle, indent=1)
    return 1 if failures or problems else 0


if __name__ == "__main__":
    sys.exit(main())
