#!/usr/bin/env python3
"""Runs the benchmark on several seeds and prints, for every end-to-end
metric, the median of the runs and the distance between their first and
third quartiles as a share of the median (Python's
statistics.quantiles(values, n=4)) — the steadiness figure that each
metric's bound in BENCHMARK.json is held to. Run from the repository root:

    python3 simbench/spread.py --workload os_mix2 --seeds 1-5
"""
import argparse
import json
import statistics
import subprocess
import sys


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int)
    args = ap.parse_args()
    spec = json.load(open("BENCHMARK.json"))
    seconds = args.seconds or spec["run_seconds"]
    values = {m["name"]: [] for m in spec["end_to_end"]}
    for seed in seeds(args.seeds):
        cmd = spec["command"] + ["--workload", args.workload, "--seed", str(seed),
                                 "--seconds", str(seconds), "--trace", "0"]
        out = subprocess.run(cmd, capture_output=True, text=True, check=True)
        result = json.loads(out.stdout.strip().splitlines()[-1])
        if not result["correct"] or result["failed"]:
            sys.exit(f"seed {seed}: incorrect run\n{out.stdout}")
        for name, m in result["metrics"].items():
            values[name].append(m["value"])
        print(f"seed {seed}: " + " ".join(f"{k}={v[-1]:.6g}" for k, v in values.items()), flush=True)
    steady = True
    for m in spec["end_to_end"]:
        v = values[m["name"]]
        q1, q2, q3 = statistics.quantiles(v, n=4)
        spread = (q3 - q1) / q2
        ok = spread < m["bound"] / 3
        steady &= ok or m["name"] == "setup_s"
        print(f"{m['name']:14} median {q2:.6g} {m['unit']:9} spread {spread:.4f} "
              f"bound {m['bound']} {'ok' if ok else 'WIDE'}")
    sys.exit(0 if steady else 1)


if __name__ == "__main__":
    main()
