#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, against their bounds.

    python3 perfbench/spread.py --workload sssp-road --seeds 1-10 [--seconds 15]

Run from the repository root. Runs perfbench/run.py once per seed
(--trace 0), saves each output as .bench_build/spread/<workload>_<seed>.txt,
and prints for each end-to-end metric the median and the spread: the
distance between the first and third quartiles
(statistics.quantiles(values, n=4)) as a share of the median. A spread at
or above a third of the metric's bound in BENCHMARK.json is flagged, and
one at or above the bound itself is flagged as over it.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(".bench_build", "spread")


def seeds_of(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = args.seconds or spec["run_seconds"]

    os.makedirs(OUT_DIR, exist_ok=True)
    results = []
    for seed in seeds_of(args.seeds):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds", str(seconds),
             "--trace", "0"], stdout=subprocess.PIPE, text=True)
        with open(os.path.join(OUT_DIR, f"{args.workload}_{seed}.txt"),
                  "w") as f:
            f.write(proc.stdout)
        if proc.returncode != 0:
            sys.exit(f"seed {seed}: run.py exited {proc.returncode}")
        results.append(json.loads(proc.stdout.rstrip("\n").split("\n")[-1]))

    print(f"{args.workload}: {len(results)} runs")
    for name, bound in bounds.items():
        values = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        flag = ("  <-- over the bound" if spread >= bound
                else "  <-- wide" if spread >= bound / 3 else "")
        print(f"  {name:20s} median {med:12.5g}  spread {spread:7.4f}"
              f"  bound {bound:.2f}{flag}")
    bad = [r for r in results if not r["correct"] or r["failed"]]
    if bad:
        print(f"  {len(bad)} run(s) not correct")


if __name__ == "__main__":
    main()
