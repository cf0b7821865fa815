#!/usr/bin/env python3
"""Runs the benchmark on several seeds and reports, per workload and
end-to-end metric, the median, the quartiles (statistics.quantiles, n=4)
and the spread: (Q3 - Q1) / median, next to the metric's bound.

Run from the repository root:

    python3 perfbench/spread.py --workloads optimizer --seeds 1 2 3 4 5
    python3 perfbench/spread.py --json spread.json     # all workloads, seeds 1-10

Exits non-zero when a run fails or reports incorrect output.
"""
import argparse
import json
import statistics
import subprocess
import sys


def run(bench, workload, seed):
    cmd = bench["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]), "--trace", "0",
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    if proc.returncode != 0 or not result or not result["correct"]:
        sys.stderr.write(proc.stdout + proc.stderr)
        sys.exit(f"{workload} seed {seed}: run failed (exit {proc.returncode})")
    return {k: v["value"] for k, v in result["metrics"].items()}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", nargs="*", help="default: every workload")
    ap.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    ap.add_argument("--json", help="also write the summary here")
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    summary = {}
    for workload in workloads:
        values = {}
        for seed in args.seeds:
            for name, value in run(bench, workload, seed).items():
                values.setdefault(name, []).append(value)
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k} {v[-1]:.6g}" for k, v in values.items()), flush=True)
        summary[workload] = {}
        for metric in bench["end_to_end"]:
            vs = values[metric["name"]]
            q1, _, q3 = statistics.quantiles(vs, n=4)
            med = statistics.median(vs)
            spread = (q3 - q1) / med
            summary[workload][metric["name"]] = {
                "unit": metric["unit"], "median": med, "q1": q1, "q3": q3,
                "spread": spread, "runs": len(vs),
            }
            print(f"  {metric['name']:<12} median {med:.6g} {metric['unit']}, "
                  f"Q1 {q1:.6g}, Q3 {q3:.6g}, spread {spread:.3f} "
                  f"(bound {metric['bound']})", flush=True)
    if args.json:
        with open(args.json, "w") as f:
            json.dump(summary, f, indent=2)
            f.write("\n")


if __name__ == "__main__":
    main()
