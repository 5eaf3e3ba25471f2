#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

Runs the command of BENCHMARK.json several times per workload, each time
with another seed, exactly as the driver does, and prints for every
end-to-end metric its median and the distance between its first and third
quartile (statistics.quantiles(values, n=4)) as a share of the median,
next to the metric's bound. A benchmark is steady enough to carry a claim
when every spread is below a third of its bound. Below the gated metrics it
prints the same for a repetition's wall-clock as measured and for the
machine's slowdown (benchmark/src/probe.rs), from the run's report file: what
the box did while the benchmark ran.

    python3 benchmark/spread.py                      # 10 seeds, every workload
    python3 benchmark/spread.py --runs 5 --first-seed 101 --workload oracles

Run it from anywhere inside a checkout; the results also go to
benchmark/out/spread.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# Printed beside the gated metrics, with no bound of their own.
AS_MEASURED = ["measured_wall_s", "machine_slowdown"]


def run_once(command, workload, seed, seconds):
    argv = command + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "0",
    ]
    started = time.time()
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit code {proc.returncode}\n{proc.stdout}\n{proc.stderr}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: {result['failed']} of {result['attempted']} operations failed")
    metrics = result["metrics"]
    with open(os.path.join(ROOT, "benchmark", "out", f"{workload}.e2e.report.json")) as f:
        for row in json.load(f)["native"]:
            if row["name"] in AS_MEASURED:
                metrics[row["name"]] = row
    return metrics, time.time() - started


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append", help="only this workload (repeatable)")
    args = parser.parse_args()
    if args.runs < 2:
        sys.exit("--runs must be at least 2")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    workloads = [w["name"] for w in spec["workloads"]]
    for w in args.workload or []:
        if w not in workloads:
            sys.exit(f"unknown workload {w}")
    report = {}
    worst = 0.0
    for workload in args.workload or workloads:
        values = {name: [] for name in list(bounds) + AS_MEASURED}
        took = []
        for i in range(args.runs):
            metrics, seconds = run_once(
                spec["command"], workload, args.first_seed + i, spec["run_seconds"])
            took.append(seconds)
            for name in values:
                values[name].append(metrics[name]["value"])
        print(f"{workload}: {args.runs} runs, seeds {args.first_seed}..{args.first_seed + args.runs - 1}, "
              f"{statistics.median(took):.1f} s per run")
        report[workload] = {}
        for name, vs in values.items():
            q = statistics.quantiles(vs, n=4)
            med = statistics.median(vs)
            spread = (q[2] - q[0]) / med
            if name in bounds:
                share = spread / bounds[name]
                if name != "setup_s":
                    worst = max(worst, share)
                print(f"  {name:<22} median {med:>14.6f}  spread {spread * 100:>6.2f}%  "
                      f"bound {bounds[name] * 100:>4.0f}%  spread/bound {share:>5.2f}")
            else:
                print(f"  {name:<22} median {med:>14.6f}  spread {spread * 100:>6.2f}%  (as measured)")
            report[workload][name] = {"median": med, "spread": spread, "values": vs}
    out = os.path.join(ROOT, "benchmark", "out")
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, "spread.json"), "w") as f:
        json.dump(report, f, indent=1)
    print(f"largest spread/bound outside setup_s: {worst:.2f} "
          f"({'steady' if worst < 1 / 3 else 'within bound' if worst < 1 else 'TOO WIDE'})")


if __name__ == "__main__":
    main()
