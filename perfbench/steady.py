#!/usr/bin/env python3
"""Steadiness check: two alternated sets of runs of the same build.

    python3 perfbench/steady.py [--runs N] [--workloads a,b] [--seconds S]

For every workload, runs set A and set B alternately (A1 B1 A2 B2 ...),
run i of both sets with seed i + 1, then prints each end-to-end metric's
median and quartiles per set beside its bound from BENCHMARK.json:

  spread  = (q3 - q1) / median within a set (must stay within the bound,
            for every metric, setup_s included)
  drift   = |B's median - A's median| / A's median, the disagreement
            between the two sets in either direction (must stay within
            the bound)

It then makes one traced run per set with the first seed and reports
whether every per-layer count (unit "count": candidates, rows, cache
hits and misses, pool hits and faults, ...) repeated exactly, and
whether the failed share of operations is the same in both sets. Exits
nonzero when any check fails. Run it from the repository root.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace",
           "1" if trace else "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-2000:])
        raise SystemExit("%s seed %d: exit %d" % (workload, seed, proc.returncode))
    return json.loads(lines[-1])


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser()
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default=",".join(
        w["name"] for w in bench["workloads"]))
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = parser.parse_args()

    ok = True
    for workload in args.workloads.split(","):
        sets = {"A": [], "B": []}
        for i in range(args.runs):
            for name in ("A", "B") if i % 2 == 0 else ("B", "A"):
                sets[name].append(run_once(workload, i + 1, args.seconds, False))
        print("== %s (%d runs per set, %d s each)" % (workload, args.runs,
                                                    args.seconds))
        print("%-18s %28s %28s %7s %7s %7s %7s" % (
            "metric", "set A median [q1, q3]", "set B median [q1, q3]",
            "spreadA", "spreadB", "drift", "bound"))
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            row = {}
            for s in ("A", "B"):
                values = [r["metrics"][name]["value"] for r in sets[s]]
                row[s] = quartiles(values)
            a1, a2, a3 = row["A"]
            b1, b2, b3 = row["B"]
            spread = (a3 - a1) / a2 if a2 else 0.0
            spread_b = (b3 - b1) / b2 if b2 else 0.0
            drift = abs(b2 - a2) / a2 if a2 else 0.0
            good = drift <= bound and max(spread, spread_b) <= bound
            ok = ok and good
            print("%-18s %10.4g [%7.4g, %7.4g] %10.4g [%7.4g, %7.4g] %6.1f%% "
                  "%6.1f%% %6.1f%% %6.1f%% %s" % (
                      name, a2, a1, a3, b2, b1, b3, 100 * spread,
                      100 * spread_b, 100 * drift, 100 * bound,
                      "ok" if good else "OUT OF BOUND"))
        shares = {s: {r["failed"] / r["attempted"] for r in sets[s]} for s in sets}
        same_share = shares["A"] == shares["B"] and len(shares["A"]) == 1
        ok = ok and same_share
        print("failed share per run: A %s, B %s -> %s" % (
            sorted(shares["A"]), sorted(shares["B"]),
            "identical" if same_share else "DIFFERENT"))

        traced = [run_once(workload, 1, args.seconds, True) for _ in range(2)]
        values = [{name: m["value"] for name, m in t["metrics"].items()
                   if m["unit"] == "count"} for t in traced]
        differing = [n for n in values[0] if values[0][n] != values[1][n]]
        ok = ok and not differing
        print("per-layer counts repeated exactly: %s" % (
            "yes (%d counts)" % len(values[0]) if not differing
            else "NO: " + ", ".join(differing)))
        print()
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
