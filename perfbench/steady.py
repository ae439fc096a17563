#!/usr/bin/env python3
"""Steadiness check: run each workload k times and compare spreads to bounds.

Run from the repository root:

    python3 perfbench/steady.py --runs 10 --seed-base 100

Every workload of BENCHMARK.json is run k times. Each run uses the next
seed (seed-base, seed-base + 1, ...) and the command, run length and
bounds of BENCHMARK.json. For every end-to-end
metric it prints the median, the quartiles (statistics.quantiles, n=4) and
the spread (Q3 - Q1) / median against the metric's bound: "steady" when
the spread is below a third of the bound, "ok" when within the bound,
"NOISY" otherwise. The exit code is 1 when a run fails, reports an
incorrect output, or a spread exceeds its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(spec, workload, seed, seconds):
    cmd = spec["command"] + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", "0",
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}")
    return json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed-base", type=int, default=100)
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    names = [w["name"] for w in spec["workloads"]]

    ok = True
    for workload in names:
        values = {name: [] for name in bounds}
        for i in range(args.runs):
            seed = args.seed_base + i
            result = run_once(spec, workload, seed, seconds)
            if not result["correct"] or result["failed"]:
                ok = False
            row = {k: v["value"] for k, v in result["metrics"].items()}
            for name in bounds:
                values[name].append(row[name])
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']} "
                  + " ".join(f"{k}={v:.6g}" for k, v in row.items()), flush=True)
        print(f"\n{workload}: {args.runs} runs of {seconds} s")
        print(f"  {'metric':<12} {'median':>12} {'Q1':>12} {'Q3':>12} {'spread':>8} {'bound':>6}")
        for name, m in bounds.items():
            q1, med, q3 = statistics.quantiles(values[name], n=4)
            spread = (q3 - q1) / med if med else float("inf")
            if spread < m["bound"] / 3:
                verdict = "steady"
            elif spread <= m["bound"]:
                verdict = "ok"
            else:
                verdict = "NOISY"
                ok = False
            print(f"  {name:<12} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} "
                  f"{spread:>8.4f} {m['bound']:>6} {verdict}")
        print(flush=True)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
