#!/usr/bin/env python3
"""Steadiness report for the benchmark described by BENCHMARK.json.

Runs the benchmark command RUNS times per workload, each with another seed,
and prints for every metric the median, the first and third quartiles
(statistics.quantiles(values, n=4)) and the spread (Q3 - Q1) / median next
to the metric's bound. A spread above a third of the bound is flagged.

    python3 perfbench/steady.py [--runs 10] [--trace 0|1] [--first-seed 1]
                                [--workloads suite,serve] [--out FILE.md]

Run it from the root of the repository.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(command, workload, seed, seconds, trace):
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=900, check=False)
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed} failed its checks:\n{proc.stderr}")
    return result["metrics"]


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", default="")
    parser.add_argument("--out", default="")
    args = parser.parse_args()

    with open("BENCHMARK.json", encoding="utf-8") as f:
        bench = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"] + bench["per_layer"]}
    workloads = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        workloads = args.workloads.split(",")

    lines = [f"# Steadiness: {args.runs} runs per workload, "
             f"{bench['run_seconds']} s each, trace={args.trace}", ""]
    flagged = 0
    for workload in workloads:
        series = {}
        for k in range(args.runs):
            seed = args.first_seed + k
            metrics = run_once(bench["command"], workload, seed, bench["run_seconds"], args.trace)
            for name, m in metrics.items():
                series.setdefault(name, ([], m["unit"]))[0].append(m["value"])
            print(f"{workload} seed {seed} done", file=sys.stderr, flush=True)
        lines += [f"## {workload}", "",
                  "| metric | unit | median | Q1 | Q3 | spread | bound | |",
                  "|---|---|---|---|---|---|---|---|"]
        for name, (values, unit) in series.items():
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s" and spread > bound / 3:
                flag = "above bound/3"
                flagged += 1
            lines.append(f"| {name} | {unit} | {med:.6g} | {q1:.6g} | {q3:.6g} | "
                         f"{spread:.4f} | {bound if bound is not None else '-'} | {flag} |")
        lines.append("")
    text = "\n".join(lines)
    print(text)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            f.write(text + "\n")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
