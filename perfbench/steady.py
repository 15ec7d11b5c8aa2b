#!/usr/bin/env python3
"""Steadiness tool: runs one workload N times and reports the spread.

    python3 perfbench/steady.py --workload NAME [--runs 10] [--first-seed 1]
                                [--seconds S] [--trace 0|1]

Each run uses the next seed. For every metric it prints the median, the
first and third quartiles (statistics.quantiles(values, n=4)) and the
distance between them as a share of the median, beside the metric's bound
from BENCHMARK.json: a bound should sit at three times the spread or more.
It also prints the share of failed operations, which must be the same in
every run. This is how the bounds were set; run it again after a host
change.
"""

import argparse
import json
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = args.seconds or spec["run_seconds"]

    values, shares = {}, set()
    for seed in range(args.first_seed, args.first_seed + args.runs):
        cmd = [*spec["command"], "--workload", args.workload, "--seed",
               str(seed), "--seconds", str(seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        if proc.returncode != 0:
            sys.exit(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}")
        result = json.loads(proc.stdout.splitlines()[-1])
        shares.add(Fraction(result["failed"], result["attempted"]))
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: correct={result['correct']} "
              f"failed {result['failed']}/{result['attempted']} " +
              " ".join(f"{n}={m['value']:.6g}"
                       for n, m in result["metrics"].items()), flush=True)

    print(f"\n{'metric':28s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
          f"{'spread':>8s} {'bound':>6s}")
    for name, vals in values.items():
        median = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / median if median else float("nan")
        bound = bounds.get(name)
        flag = ""
        if bound is not None and spread > bound / 3:
            flag = "  above bound/3"
        print(f"{name:28s} {median:12.6g} {q1:12.6g} {q3:12.6g} "
              f"{spread:8.4f} {bound if bound is not None else '-':>6}{flag}")
    print(f"\nfailed share per run: {' '.join(map(str, sorted(shares)))}"
          f"{'' if len(shares) == 1 else '  NOT CONSTANT'}")


if __name__ == "__main__":
    main()
