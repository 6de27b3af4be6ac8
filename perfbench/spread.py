#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

Runs the command from BENCHMARK.json once per seed for each workload and
prints, per metric, the median and the quartile spread
(Q3 - Q1) / median, as statistics.quantiles(values, n=4) gives them, next
to the metric's bound.

    python3 perfbench/spread.py [--runs 10] [--first-seed 1] [workload ...]

Run from the repository root. Every run's result line is appended to
.perfbench_tmp/spread-<workload>.jsonl.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("workloads", nargs="*")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    os.makedirs(".perfbench_tmp", exist_ok=True)

    worst = {"setup_s": 0.0, "other": 0.0}
    for w in workloads:
        values = {name: [] for name in bounds}
        for i in range(args.runs):
            seed = args.first_seed + i
            cmd = bench["command"] + [
                "--workload", w, "--seed", str(seed),
                "--seconds", str(bench["run_seconds"]), "--trace", "0",
            ]
            p = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            last = p.stdout.strip().splitlines()[-1] if p.stdout.strip() else ""
            with open(f".perfbench_tmp/spread-{w}.jsonl", "a") as log:
                log.write(last + "\n")
            if p.returncode != 0:
                sys.exit(f"{w} seed {seed}: exit {p.returncode}")
            res = json.loads(last)
            assert res["correct"] and res["failed"] == 0, (w, seed, res)
            assert set(res["metrics"]) == set(bounds), (w, seed, sorted(res["metrics"]))
            for name, m in res["metrics"].items():
                values[name].append(m["value"])
        print(f"== {w} ({args.runs} runs)")
        for name, v in values.items():
            med = statistics.median(v)
            q = statistics.quantiles(v, n=4)
            spread = (q[2] - q[0]) / abs(med) if med else float("inf")
            bound = bounds[name]
            key = "setup_s" if name == "setup_s" else "other"
            worst[key] = max(worst[key], spread / bound)
            print(f"  {name:32s} median {med:14.6g}  spread {spread:7.4f}  bound {bound}")
    print(f"largest spread / bound: {worst['other']:.3f} (setup_s: {worst['setup_s']:.3f})")


if __name__ == "__main__":
    main()
