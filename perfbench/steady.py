"""Steadiness: run each workload N times and report each metric's spread.

Usage, from the root of a checkout::

    python3 perfbench/steady.py --runs 10 --out .perfbench/set-a.json
    python3 perfbench/steady.py --runs 10 --out .perfbench/set-b.json \\
        --against .perfbench/set-a.json

Run ``i`` of a workload uses seed ``--first-seed + i``.  For every
end-to-end metric the table shows the median, the first and third
quartiles (``statistics.quantiles(values, n=4)``) and the spread, the
quartile distance as a share of the median, next to the metric's bound
in ``BENCHMARK.json``.  A spread above a third of its bound is flagged
(``setup_s`` is exempt: its bound applies to medians only).  With
``--against``, each median is also compared with the earlier set's: a
median worse by more than the bound, or a different share of failed
operations, is flagged.  The exit code is 1 when anything is flagged.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    command = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(command, cwd=ROOT, capture_output=True,
                          text=True, timeout=200)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited "
                           f"{done.returncode}: {done.stderr[-800:]}")
    return json.loads(lines[-1])


def summarise(values: List[float]) -> Dict[str, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    middle = statistics.median(values)
    return {"median": middle, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / middle if middle else float("inf")}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", default=None,
                        help="comma-separated (default: all in "
                             "BENCHMARK.json)")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--out", default=None,
                        help="write the set's values and summary here")
    parser.add_argument("--against", default=None,
                        help="an earlier --out file to compare with")
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    workloads = args.workloads.split(",") if args.workloads \
        else [entry["name"] for entry in spec["workloads"]]
    seconds = args.seconds or spec["run_seconds"]
    bounds = {entry["name"]: entry for entry in spec["end_to_end"]}
    earlier = None
    if args.against:
        with open(args.against, encoding="utf-8") as f:
            earlier = json.load(f)

    flagged = 0
    document = {"seconds": seconds, "workloads": {}}
    for workload in workloads:
        runs = []
        for index in range(args.runs):
            seed = args.first_seed + index
            began = time.perf_counter()
            runs.append(run_once(workload, seed, seconds, 0))
            print(f"{workload} seed {seed}: "
                  f"{time.perf_counter() - began:.1f}s, "
                  f"{runs[-1]['attempted']} attempted, "
                  f"{runs[-1]['failed']} failed, "
                  f"correct {runs[-1]['correct']}", flush=True)
        failed_share = sorted({run["failed"] / run["attempted"]
                               for run in runs})
        summary = {}
        for name, entry in bounds.items():
            values = [run["metrics"][name]["value"] for run in runs]
            summary[name] = dict(summarise(values), values=values)
        document["workloads"][workload] = {
            "failed_share": failed_share, "metrics": summary,
            "correct": all(run["correct"] for run in runs)}
        print(f"\n{workload}: {len(runs)} runs of {seconds}s, failed "
              f"share {failed_share}")
        print(f"  {'metric':<18s} {'median':>12s} {'q1':>12s} {'q3':>12s}"
              f" {'spread':>7s} {'bound':>6s}")
        for name, stats in summary.items():
            bound = bounds[name]["bound"]
            notes = []
            if name != "setup_s" and stats["spread"] > bound / 3:
                notes.append("SPREAD")
            if earlier is not None:
                before = earlier["workloads"].get(workload, {}) \
                    .get("metrics", {}).get(name)
                if before:
                    change = stats["median"] / before["median"] - 1
                    worse = change if bounds[name]["better"] == "lower" \
                        else -change
                    notes.append(f"vs earlier {change:+.1%}")
                    if worse > bound:
                        notes.append("WORSE")
            flagged += sum(note in ("SPREAD", "WORSE") for note in notes)
            print(f"  {name:<18s} {stats['median']:>12.5g} "
                  f"{stats['q1']:>12.5g} {stats['q3']:>12.5g} "
                  f"{stats['spread']:>7.1%} {bound:>6.2f}  "
                  f"{' '.join(notes)}")
        if earlier is not None:
            before = earlier["workloads"].get(workload, {})
            if before and before.get("failed_share") != failed_share:
                print(f"  failed share differs from earlier: "
                      f"{before.get('failed_share')}")
                flagged += 1
        if not document["workloads"][workload]["correct"]:
            flagged += 1
    if args.out:
        os.makedirs(os.path.dirname(os.path.abspath(args.out)),
                    exist_ok=True)
        with open(args.out, "w", encoding="utf-8") as f:
            json.dump(document, f, indent=2)
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
