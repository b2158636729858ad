#!/usr/bin/env python3
"""Runs one workload on several seeds and prints each metric's spread.

Usage, from the repository root:

    python3 perfbench/spread.py --workload sweep_mc_2k --seeds 1-10 [--trace 0]

For every metric it prints the median and the quartile spread
(Q3 - Q1) / median over the runs, computed with
statistics.quantiles(n=4), next to the metric's bound from
BENCHMARK.json. Runs go one after another, never in parallel.
"""
import argparse
import json
import statistics
import subprocess
import sys


def seeds(spec):
    out = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-5")
    ap.add_argument("--trace", default="0")
    ap.add_argument("--seconds", type=int)
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    secs = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    values = {}
    for seed in seeds(args.seeds):
        cmd = bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                  "--seconds", str(secs), "--trace", args.trace]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.exit(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}")
        res = json.loads(lines[-1])
        print(f"seed {seed}: correct={res['correct']} attempted={res['attempted']} "
              f"failed={res['failed']}", flush=True)
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    for name in sorted(values):
        vs = values[name]
        med = statistics.median(vs)
        spread = float("nan")
        if len(vs) >= 2 and med:
            q = statistics.quantiles(vs, n=4)
            spread = (q[2] - q[0]) / abs(med)
        bound = bounds.get(name)
        flag = ""
        if bound is not None and spread == spread and spread > bound / 3:
            flag = "  <-- above bound/3"
        print(f"{name:40s} median={med:<14.6g} spread={spread:.4f} bound={bound}{flag}")


if __name__ == "__main__":
    main()
