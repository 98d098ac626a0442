#!/usr/bin/env python3
"""Same-host A/B of two checkouts with the sweep benchmark.

    python3 perfbench/ab.py --a ../dftmsn-base --b . --workload paper-sweep

A and B are checkout roots that each hold this perfbench/ directory (copy
it into the older one, so both sides run identical benchmark code; the
script refuses to compare otherwise). Each builds its own tree under its
own .bench_build/. The script runs --pairs alternating pairs (A first in
even pairs, B first in odd ones), both sides of a pair on the same seed,
and prints per metric each side's median and quartiles, the change of the
medians, how many pairs B won, and a verdict:

  gain        B won at least 9 of 10 pairs and the medians differ by more
              than A's own quartile spread
  regression  B's median is worse than A's by more than the metric's bound
              in BENCHMARK.json (end-to-end metrics only)
  unresolved  A's quartile spread is wider than the bound
  same        otherwise
"""
import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def bench_digest(root):
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(os.path.join(root,
                                                             "perfbench")):
        dirnames.sort()
        for name in sorted(filenames):
            with open(os.path.join(dirpath, name), "rb") as f:
                h.update(name.encode() + f.read())
    return h.hexdigest()


def run(root, args, seed):
    argv = [sys.executable, os.path.join(root, "perfbench", "run.py"),
            "--workload", args.workload, "--seed", str(seed), "--seconds",
            str(args.run_seconds), "--trace", str(args.trace)]
    proc = subprocess.run(argv, cwd=root, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"{root}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        sys.exit(f"{root}: outputs failed their checks (seed {seed})")
    return {k: m["value"] for k, m in result["metrics"].items()}


def quartiles(values):
    q = statistics.quantiles(values, n=4)
    return q[0], statistics.median(values), q[2]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--a", required=True, help="baseline checkout root")
    ap.add_argument("--b", required=True, help="changed checkout root")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if args.pairs < 2:
        sys.exit("--pairs must be >= 2")
    roots = {"A": os.path.abspath(args.a), "B": os.path.abspath(args.b)}
    if bench_digest(roots["A"]) != bench_digest(roots["B"]):
        sys.exit("the two checkouts carry different perfbench/ code; copy "
                 "one side's perfbench/ into the other")
    with open(os.path.join(HERE, os.pardir, "BENCHMARK.json")) as f:
        bench = json.load(f)
    # Each run measures as long as a run of the benchmark of record.
    args.run_seconds = bench["run_seconds"]
    declared = {m["name"]: m for m in
                bench["per_layer" if args.trace else "end_to_end"]}

    runs = {"A": [], "B": []}
    for i in range(args.pairs):
        seed = args.first_seed + i
        for side in ("AB" if i % 2 == 0 else "BA"):
            runs[side].append(run(roots[side], args, seed))
        print(f"pair {i + 1}/{args.pairs} done (seed {seed})",
              file=sys.stderr)

    print(f"{'metric':36s} {'A median [q1, q3]':>30s} "
          f"{'B median [q1, q3]':>30s} {'change':>8s} {'B wins':>7s} verdict")
    for name, m in declared.items():
        a = [r[name] for r in runs["A"]]
        b = [r[name] for r in runs["B"]]
        sign = 1.0 if m["better"] == "higher" else -1.0
        wins = sum(1 for x, y in zip(a, b) if sign * (y - x) > 0)
        a1, am, a3 = quartiles(a)
        b1, bm, b3 = quartiles(b)
        change = (bm - am) / am if am else 0.0
        bound = m.get("bound")
        if bound is not None and a3 - a1 > bound * abs(am):
            verdict = "unresolved"
        elif wins >= 0.9 * args.pairs and abs(bm - am) > a3 - a1:
            verdict = "gain"
        elif bound is not None and -sign * change > bound:
            verdict = "regression"
        else:
            verdict = "same"
        print(f"{name:36s} {am:12.6g} [{a1:.4g}, {a3:.4g}] "
              f"{bm:12.6g} [{b1:.4g}, {b3:.4g}] {change:+8.1%} "
              f"{wins:3d}/{args.pairs} {verdict}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
