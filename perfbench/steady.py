#!/usr/bin/env python3
"""Check that the benchmark is steady.

Runs the untraced benchmark once per seed on each workload and prints,
for every end-to-end metric, the median of the runs and the spread:
the distance between the first and third quartiles as a share of the
median.  Run from the root of the repository:

    python3 perfbench/steady.py --runs 10 --first-seed 1
    python3 perfbench/steady.py --runs 5 --workloads serve-ramp --out set1.json
    python3 perfbench/steady.py --compare set1.json set2.json

With --compare it reads two saved sets and prints how far each median
moved between them.  Bounds come from BENCHMARK.json.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def load_definition():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def run_once(bench, workload, seed, seconds):
    cmd = bench["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "0",
    ]
    start = time.monotonic()
    out = subprocess.run(cmd, capture_output=True, text=True, check=True).stdout
    wall = time.monotonic() - start
    lines = out.strip().splitlines()
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"] != 0:
        raise SystemExit(f"{workload} seed {seed}: incorrect result {result}")
    return {k: v["value"] for k, v in result["metrics"].items()}, wall


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), (q3 - q1) / statistics.median(values)


def measure(args, bench):
    seconds = bench["run_seconds"]
    names = [w["name"] for w in bench["workloads"]]
    workloads = args.workloads.split(",") if args.workloads else names
    results = {}
    for w in workloads:
        runs = []
        for i in range(args.runs):
            metrics, wall = run_once(bench, w, args.first_seed + i, seconds)
            runs.append(metrics)
            print(f"{w} seed {args.first_seed + i} ({wall:.1f} s): " + " ".join(
                f"{k}={v:.6g}" for k, v in metrics.items()), flush=True)
        results[w] = runs
    return results


def report(bench, results):
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    worst = 0.0
    for w, runs in results.items():
        for name, bound in bounds.items():
            med, spr = spread([r[name] for r in runs])
            flag = "" if name == "setup_s" or spr <= bound / 3 else "  <-- above bound/3"
            if name != "setup_s":
                worst = max(worst, spr / bound)
            print(f"{w:12s} {name:22s} median {med:14.6g}  spread {spr:7.4f}  bound {bound}{flag}")
    print(f"largest spread / bound (setup_s excluded): {worst:.3f}")


def compare(bench, a, b):
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    for w in a:
        for name in bounds:
            m1 = statistics.median([r[name] for r in a[w]])
            m2 = statistics.median([r[name] for r in b[w]])
            worse = (m2 - m1) / m1 if better[name] == "lower" else (m1 - m2) / m1
            flag = "  <-- worse than bound" if worse > bounds[name] else ""
            print(f"{w:12s} {name:22s} {m1:14.6g} -> {m2:14.6g}  worse by {worse:+.4f}{flag}")


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--workloads", default="")
    p.add_argument("--out", default="")
    p.add_argument("--compare", nargs=2, default=None)
    args = p.parse_args()
    bench = load_definition()
    if args.compare:
        sets = []
        for path in args.compare:
            with open(path) as f:
                sets.append(json.load(f))
        compare(bench, *sets)
        return 0
    results = measure(args, bench)
    if args.out:
        with open(args.out, "w") as f:
            json.dump(results, f)
    report(bench, results)
    return 0


if __name__ == "__main__":
    sys.exit(main())
