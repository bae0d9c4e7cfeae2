#!/usr/bin/env python3
"""Check that the input-determined counts repeat exactly for one seed.

    python3 perfbench/determinism.py [--seed 7] [--seconds 4] [--workloads a,b]

Runs every workload twice untraced and twice traced at the same seed and
exits 1 unless each count that depends only on the generated inputs is
identical across the two runs. Run it from the repository root.

core.point_allocs_per_query is the one exception, compared within
ALLOC_TOLERANCE: on the space-efficient variant the same point batch, re-run
on one P with the collector off and the pools emptied, allocates a few
objects more or less from run to run (a fraction of a percent of its
allocations), so the query path itself does not repeat exactly.
"""

import argparse
import json
import subprocess
import sys

ALLOC_TOLERANCE = 0.01
WORKLOADS = ["ingest-durable", "mixed-fvld", "query-space"]
COUNTS = {
    0: ["label_bits_mean", "label_bits_max"],
    1: [
        "path.disk_bytes_per_step",
        "durable.replayed_steps",
        "labelstore.snapshot_bytes",
        "labelstore.checkpoint_bytes",
        "core.point_allocs_per_query",
    ],
}


def run(workload, seed, seconds, trace):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        stdout=subprocess.PIPE, check=True,
    ).stdout.decode()
    return json.loads(out.strip().splitlines()[-1])["metrics"]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=int, default=4)
    ap.add_argument("--workloads", default=",".join(WORKLOADS))
    args = ap.parse_args()
    bad = 0
    for w in args.workloads.split(","):
        for trace, names in COUNTS.items():
            a = run(w, args.seed, args.seconds, trace)
            b = run(w, args.seed, args.seconds, trace)
            for name in names:
                x, y = a[name]["value"], b[name]["value"]
                if name == "core.point_allocs_per_query":
                    same = abs(x - y) <= ALLOC_TOLERANCE * max(abs(x), abs(y))
                else:
                    same = x == y
                bad += not same
                print(f"{w:15s} {name:32s} {a[name]['value']!r:>22} {b[name]['value']!r:>22} {'ok' if same else 'DIFFERS'}")
    if bad:
        sys.exit(f"{bad} counts differ between two runs of seed {args.seed}")


if __name__ == "__main__":
    main()
