#!/usr/bin/env python3
"""Repeats perfbench/run.py over several seeds and summarizes the spread.

Usage (from the repository root):

    python3 perfbench/repeat.py --workload NAME [--runs 10] [--first-seed 1]
                                [--seconds S] [--trace 0|1]

For every metric prints the median of the runs, the first and third
quartiles (statistics.quantiles(values, n=4)), and the quartile distance as
a share of the median; with --trace 0 it also prints each end-to-end
metric's bound from BENCHMARK.json and flags a spread above a third of it.
Exits non-zero if any run failed or came out incorrect.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--verbose", action="store_true",
                    help="also print every run's value")
    args = ap.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    values = {}
    ok = True
    for i in range(args.runs):
        seed = args.first_seed + i
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds",
             str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print("seed %d: run failed (exit %d)\n%s" %
                  (seed, proc.returncode, proc.stderr[-2000:]))
            ok = False
            continue
        result = json.loads(lines[-1])
        if not result["correct"] or result["failed"]:
            ok = False
        print("seed %d: correct=%s attempted=%d failed=%d" %
              (seed, result["correct"], result["attempted"], result["failed"]),
              flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])

    print("%-42s %12s %12s %12s %8s %6s" %
          ("metric", "median", "q1", "q3", "iqr/med", "bound"))
    for name in sorted(values):
        v = values[name]
        med = statistics.median(v)
        q1, _, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (med, med, med)
        spread = (q3 - q1) / abs(med) if med else float("nan")
        bound = bounds.get(name)
        flag = ""
        if bound is not None and args.trace == 0 and name != "setup_s":
            flag = "  <-- over bound/3" if spread > bound / 3 else ""
        print("%-42s %12.6g %12.6g %12.6g %8.3f %6s%s" %
              (name, med, q1, q3, spread,
               "" if bound is None else "%.2f" % bound, flag))
        if args.verbose:
            print("    " + " ".join("%.4g" % x for x in v))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
