#!/usr/bin/env python3
"""Run one workload at several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload query-space --seeds 1-10 [--seconds S] [--trace 0] [--all]

For every metric of the JSON results it prints the median and the distance
between the first and third quartiles as a share of the median, the figure
BENCHMARK.json's bounds are checked against. --seconds defaults to the
run_seconds of BENCHMARK.json. Run it from the repository root.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def parse_seeds(s):
    if "-" in s:
        lo, hi = s.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(x) for x in s.split(",")]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    with open("BENCHMARK.json") as f:
        run_seconds = json.load(f)["run_seconds"]
    ap.add_argument("--seconds", type=int, default=run_seconds)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--all", action="store_true",
                    help="also report the figures of the printed table that the JSON result leaves out")
    args = ap.parse_args()
    values = {}
    units = {}
    for seed in parse_seeds(args.seeds):
        start = time.monotonic()
        out = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, check=True,
        ).stdout.decode()
        res = json.loads(out.strip().splitlines()[-1])
        if not res["correct"]:
            sys.exit(f"seed {seed}: incorrect result")
        metrics = {name: (m["value"], m["unit"]) for name, m in res["metrics"].items()}
        if args.all:
            for line in out.splitlines():
                f = line.split()
                if len(f) == 5 and f[0] == "#" and f[1] in ("*", "-") and f[2] not in metrics:
                    metrics[f[2]] = (float(f[3]), f[4])
        for name, (v, unit) in metrics.items():
            values.setdefault(name, []).append(v)
            units[name] = unit
        print(f"seed {seed} ({time.monotonic() - start:.1f}s): " + " ".join(f"{k}={v['value']:.6g}" for k, v in sorted(res["metrics"].items())), flush=True)
    print(f"{'metric':40s} {'median':>14s} {'iqr/median':>10s}  unit")
    for name in sorted(values):
        vs = values[name]
        med = statistics.median(vs)
        if len(vs) >= 2:
            q = statistics.quantiles(vs, n=4)
            spread = (q[2] - q[0]) / med if med else float("nan")
        else:
            spread = float("nan")
        print(f"{name:40s} {med:14.6g} {spread:10.4f}  {units[name]}")


if __name__ == "__main__":
    main()
