#!/usr/bin/env python3
"""Compare two sets of benchmark runs, workload by workload.

    python3 servebench/compare.py BASE NEW

BASE and NEW are directories (or single files) of saved run outputs, as
sweep.py writes them: each holds the run's `fingerprint {...}` line and ends
with its result JSON. Only --trace 0 runs are compared. For every workload
and end-to-end metric of BENCHMARK.json it prints each side's sample count,
median and quartiles, the metric's bound, and a verdict:

  better      NEW won at least 9/10 of the seed-matched pairs (ties count
              for neither) and the medians differ by more than BASE's
              interquartile range, in NEW's favour;
  worse       NEW's median is worse than BASE's by more than the bound;
  unresolved  neither, and one side's spread (IQR / median) exceeds the
              bound, unless every NEW run beats every BASE run;
  unchanged   otherwise.

It also compares the share of failed operations. Exits 1 when any metric is
worse or the failed shares differ, else 0.
"""
import json
from fractions import Fraction
import pathlib
import statistics
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def load_runs(arg):
    path = pathlib.Path(arg)
    files = sorted(path.iterdir()) if path.is_dir() else [path]
    runs = {}
    for f in files:
        if not f.is_file():
            continue
        lines = f.read_text().strip().splitlines()
        finger = next((json.loads(l.split(" ", 1)[1]) for l in lines
                       if l.startswith("fingerprint ")), None)
        if finger is None or finger["trace"] != 0:
            continue
        result = json.loads(lines[-1])
        runs.setdefault(finger["workload"], {})[finger["seed"]] = result
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(metric, base, new):
    lower = metric["better"] == "lower"
    bound = metric["bound"]
    b_vals, n_vals = list(base.values()), list(new.values())
    b1, bm, b3 = quartiles(b_vals)
    n1, nm, n3 = quartiles(n_vals)

    def is_better(x, y):  # x better than y
        return x < y if lower else x > y

    seeds = sorted(set(base) & set(new))
    wins = sum(is_better(new[s], base[s]) for s in seeds)
    gap = (nm - bm) / bm if lower else (bm - nm) / bm  # > 0: NEW worse
    all_better = all(is_better(n, b) for n in n_vals for b in b_vals)
    spread = max((b3 - b1) / bm, (n3 - n1) / nm)
    if (seeds and wins >= 0.9 * len(seeds) and is_better(nm, bm)
            and abs(nm - bm) > b3 - b1):
        word = "better"
    elif gap > bound:
        word = "worse"
    elif spread > bound and not all_better:
        word = "unresolved"
    else:
        word = "unchanged"
    return (b1, bm, b3), (n1, nm, n3), gap, spread, word


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    base, new = load_runs(argv[1]), load_runs(argv[2])
    status = 0
    for workload in [w["name"] for w in bench["workloads"]]:
        b_runs, n_runs = base.get(workload, {}), new.get(workload, {})
        if not b_runs or not n_runs:
            print(f"{workload}: no runs on {'BASE' if not b_runs else 'NEW'}")
            continue
        print(f"{workload}: BASE n={len(b_runs)}, NEW n={len(n_runs)}")
        print(f"  {'metric':14s} {'BASE q1 / median / q3':>32s} "
              f"{'NEW q1 / median / q3':>32s} {'gap':>7s} {'spread':>7s} "
              f"{'bound':>6s}  verdict")
        for metric in bench["end_to_end"]:
            name = metric["name"]
            b = {s: r["metrics"][name]["value"] for s, r in b_runs.items()}
            n = {s: r["metrics"][name]["value"] for s, r in n_runs.items()}
            (b1, bm, b3), (n1, nm, n3), gap, spread, word = verdict(metric, b, n)
            print(f"  {name:14s} {b1:10.4g} /{bm:10.4g} /{b3:10.4g} "
                  f"{n1:10.4g} /{nm:10.4g} /{n3:10.4g} {gap:+7.1%} "
                  f"{spread:7.1%} {metric['bound']:6.0%}  {word}")
            if word == "worse":
                status = 1
        shares = []
        for runs in (b_runs, n_runs):
            failed = sum(r["failed"] for r in runs.values())
            attempted = sum(r["attempted"] for r in runs.values())
            per_run = {Fraction(r["failed"], r["attempted"]) for r in runs.values()}
            shares.append((failed, attempted, per_run))
        same = shares[0][2] == shares[1][2] and len(shares[0][2]) == 1
        print(f"  failed: BASE {shares[0][0]}/{shares[0][1]}, "
              f"NEW {shares[1][0]}/{shares[1][1]}; share per run "
              f"{'identical' if same else 'DIFFERS'}")
        if not same:
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv))
