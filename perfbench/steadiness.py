#!/usr/bin/env python3
"""Run one workload of the benchmark several times back to back, each
with another seed, and print each end-to-end metric's median, quartiles,
min/max and spread (interquartile distance as a share of the median,
quartiles as statistics.quantiles(values, n=4) gives them).  The seeds
are 1..runs; each run lasts BENCHMARK.json's run_seconds.

    python3 perfbench/steadiness.py --workload W [--runs 10]
"""

import argparse
import json
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    a = ap.parse_args()
    with open("BENCHMARK.json") as f:
        seconds = json.load(f)["run_seconds"]
    values = {}
    for seed in range(1, a.runs + 1):
        out = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", a.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, check=True,
        ).stdout
        res = json.loads(out.strip().splitlines()[-1])
        if not res["correct"] or res["failed"]:
            sys.exit(f"seed {seed}: {res['failed']} failed operations")
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        # the state mode run.py reports; runs of the two modes differ
        state = next((l for l in out.splitlines() if l.startswith("state: ")), "state: ?")
        print(f"seed {seed} ({state}): " + ", ".join(
            f"{n}={m['value']:.4g}" for n, m in res["metrics"].items()), flush=True)
    print(f"\n{a.workload}: {a.runs} runs of {seconds} s")
    print(f"{'metric':18} {'median':>10} {'q1':>10} {'q3':>10} {'min':>10} {'max':>10} {'spread':>7}")
    for name, vs in values.items():
        q1, med, q3 = statistics.quantiles(vs, n=4)
        print(f"{name:18} {statistics.median(vs):10.4g} {q1:10.4g} {q3:10.4g} "
              f"{min(vs):10.4g} {max(vs):10.4g} {(q3 - q1) / statistics.median(vs):7.1%}")


if __name__ == "__main__":
    main()
