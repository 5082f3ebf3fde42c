#!/usr/bin/env python3
"""Steadiness check: runs each workload with several seeds and prints the
median and quartiles of every end-to-end metric, the quartile spread as a
share of the median, and that spread against the metric's bound.

    python3 perfbench/steady.py [--runs 10] [--first-seed 1] [--workload W ...]
                                [--traced 0]

Run from the repository root. With --traced N it also makes N traced runs
per workload and reports tracing overhead: each of the traced run's
end-to-end figures over the untraced median. Exits 1 when a spread exceeds
its bound, when a run fails, or when the share of failed operations differs
between runs of one workload.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    res = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    lines = res.stdout.strip().splitlines()
    if res.returncode != 0 or not lines:
        sys.stderr.write(res.stderr[-2000:])
        raise RuntimeError(f"{workload} seed {seed}: exit {res.returncode}")
    result = json.loads(lines[-1])
    traced = {}
    for line in lines:
        if line.startswith("traced e2e: "):
            for kv in line[len("traced e2e: "):].split():
                k, v = kv.split("=")
                traced[k] = float(v)
    return result, traced


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append")
    parser.add_argument("--traced", type=int, default=0)
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]
    ok = True
    for workload in workloads:
        values = {name: [] for name in bounds}
        shares = set()
        for i in range(args.runs):
            seed = args.first_seed + i
            result, _ = run_once(workload, seed, seconds, 0)
            if not result["correct"]:
                print(f"{workload} seed {seed}: correct=false")
                ok = False
            shares.add(result["failed"] / result["attempted"])
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        traced = []
        for i in range(args.traced):
            traced.append(run_once(workload, args.first_seed + i, seconds, 1)[1])
        print(f"\n{workload}: {args.runs} runs, seeds {args.first_seed}.."
              f"{args.first_seed + args.runs - 1}, failed share "
              f"{sorted(shares)}")
        if len(shares) > 1:
            ok = False
        print(f"  {'metric':<22} {'q1':>12} {'median':>12} {'q3':>12} "
              f"{'spread':>8} {'bound':>6}")
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            flag = ""
            if spread > bounds[name]:
                flag = "  OVER BOUND"
                ok = False
            elif spread > bounds[name] / 3:
                flag = "  (over a third of bound)"
            print(f"  {name:<22} {q1:>12.6g} {med:>12.6g} {q3:>12.6g} "
                  f"{spread:>8.3f} {bounds[name]:>6}{flag}")
        for t in traced:
            over = {k: t[k] / statistics.median(values[k])
                    for k in values if k in t}
            print("  traced/untraced: " + " ".join(
                f"{k}={v:.3f}" for k, v in over.items()))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
