"""Run-to-run spread of the benchmark: several seeds per workload, one after another.

    python3 bench/spread.py --runs 10 [--workloads hamburger cli] [--seconds 20]

For every end-to-end metric it prints the median and the distance between
the first and third quartile as a share of the median (the figure the
bounds in BENCHMARK.json are judged against), and the failed share of ops.
Seeds are 1..runs, offset by --first-seed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser()
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--workloads", nargs="*", default=[w["name"] for w in spec["workloads"]])
    args = parser.parse_args()
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    report = {}
    for workload in args.workloads:
        values, shares = {}, set()
        for seed in range(args.first_seed, args.first_seed + args.runs):
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=600,
            )
            if proc.returncode != 0:
                sys.exit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                print(f"{workload} seed {seed}: incorrect output\n{proc.stdout[-2000:]}")
            shares.add((result["failed"] / result["attempted"]))
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        rows = {}
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            rows[name] = {"median": med, "spread": spread, "bound": bounds.get(name), "values": vals}
            print(f"{workload:12s} {name:34s} median {med:12.6g}  spread {spread:7.4f}"
                  f"  bound {bounds.get(name)}")
        print(f"{workload:12s} failed shares {sorted(shares)}")
        report[workload] = {"metrics": rows, "failed_shares": sorted(shares)}
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    path = os.path.join(HERE, "out", f"spread-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    print(f"written {os.path.relpath(path, ROOT)}")


if __name__ == "__main__":
    main()
