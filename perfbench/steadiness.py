#!/usr/bin/env python3
"""Measures the run-to-run spread of the end-to-end metrics.

Usage (from the repository root):

    python3 perfbench/steadiness.py [--workloads fleet,hard,stream]
                                    [--seeds 1-10] [--seconds S]

Runs each workload once per seed (untraced) and prints, for every
end-to-end metric in BENCHMARK.json, the median over the seeds and the
spread: the distance between the first and third quartile
(statistics.quantiles(values, n=4)) as a share of the median. A spread
at or above a third of the metric's bound is flagged; setup_s is
reported but has no spread requirement. Exit code 1 if any run failed.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_list(text):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    seconds = args.seconds or spec["run_seconds"]
    failed = False
    for workload in workloads:
        values = {m["name"]: [] for m in spec["end_to_end"]}
        for seed in seed_list(args.seeds):
            done = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload",
                 workload, "--seed", str(seed), "--seconds", str(seconds),
                 "--trace", "0"],
                cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                text=True, timeout=900)
            lines = done.stdout.splitlines()
            if done.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: run failed (exit {done.returncode})")
                failed = True
                continue
            metrics = json.loads(lines[-1])["metrics"]
            for name in values:
                values[name].append(metrics[name]["value"])
        print(f"{workload} ({len(values['setup_s'])} seeds, {seconds} s runs)")
        for metric in spec["end_to_end"]:
            series = values[metric["name"]]
            if len(series) < 2:
                continue
            median = statistics.median(series)
            q1, _, q3 = statistics.quantiles(series, n=4)
            spread = (q3 - q1) / median if median else float("inf")
            flag = ""
            if metric["name"] != "setup_s" and spread >= metric["bound"] / 3:
                flag = f"  <-- above bound/3 = {metric['bound'] / 3:.3f}"
            print(f"  {metric['name']:<16} median {median:<14.6g} "
                  f"spread {spread:.4f}{flag}")
        sys.stdout.flush()
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
