#!/usr/bin/env python3
"""Steadiness check of the end-to-end benchmark.

Runs the command of BENCHMARK.json untraced on several seeds per workload
and prints, for every end-to-end metric, the median and the spread: the
distance between the first and third quartile (statistics.quantiles with
n=4) as a share of the median, beside the metric's bound. A spread above a
third of the bound is flagged.

Run from the repository root:

    python3 e2ebench/steadiness.py [--runs 10] [--first-seed 1] [--workloads train,serve]

Each run's result line is appended to .bench_out/steadiness-<workload>.jsonl.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", default="")
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    chosen = args.workloads.split(",") if args.workloads else names
    os.makedirs(".bench_out", exist_ok=True)

    ok = True
    for workload in chosen:
        values = {m["name"]: [] for m in bench["end_to_end"]}
        log = os.path.join(".bench_out", f"steadiness-{workload}.jsonl")
        for i in range(args.runs):
            seed = args.first_seed + i
            cmd = bench["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(bench["run_seconds"]), "--trace", "0",
            ]
            out = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
            last = out.stdout.strip().splitlines()[-1] if out.stdout.strip() else ""
            if out.returncode != 0 or not last.startswith("{"):
                print(f"{workload} seed {seed}: exit {out.returncode}\n{out.stderr}")
                ok = False
                continue
            result = json.loads(last)
            with open(log, "a") as f:
                f.write(last + "\n")
            ok &= result["correct"]
            for name, m in result["metrics"].items():
                values[name].append(m["value"])
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{n} {m['value']:.5g}" for n, m in result["metrics"].items()))
        print(f"== {workload}")
        for m in bench["end_to_end"]:
            v = values[m["name"]]
            if len(v) < 2:
                continue
            q1, _, q3 = statistics.quantiles(v, n=4)
            med = statistics.median(v)
            spread = (q3 - q1) / med
            flag = "" if spread <= m["bound"] / 3 else "  <-- above a third of the bound"
            print(f"  {m['name']:<18} median {med:<12.5g} spread {spread:.3f}"
                  f" (bound {m['bound']}){flag}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
