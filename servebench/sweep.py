#!/usr/bin/env python3
"""Run one workload over several seeds and keep each run's full output.

    python3 servebench/sweep.py --workload NAME --seeds 1-10 --out DIR
                                [--seconds S] [--trace 0|1]

Writes DIR/<workload>-seed<N>-trace<T>.log per run (standard output, which
ends with the result JSON) and prints a one-line digest of each. The
directories it fills are what compare.py reads. --seconds defaults to
BENCHMARK.json's run_seconds.
"""
import argparse
import json
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", required=True, help="e.g. 1-10 or 3,7,11")
    ap.add_argument("--out", required=True)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", default="0", choices=["0", "1"])
    args = ap.parse_args()
    seconds = args.seconds
    if seconds is None:
        seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    out = pathlib.Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    status = 0
    for seed in parse_seeds(args.seeds):
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(seconds),
               "--trace", args.trace]
        res = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        log = out / f"{args.workload}-seed{seed}-trace{args.trace}.log"
        log.write_text(res.stdout)
        lines = res.stdout.strip().splitlines()
        if res.returncode != 0 or not lines:
            print(f"seed {seed}: exit {res.returncode}\n{res.stderr}", file=sys.stderr)
            status = 1
            continue
        result = json.loads(lines[-1])
        digest = " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items())
        print(f"seed {seed}: correct={result['correct']} "
              f"failed={result['failed']}/{result['attempted']} {digest}", flush=True)
    return status


if __name__ == "__main__":
    sys.exit(main())
