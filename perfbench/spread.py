#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each end-to-end metric's
median and quartile spread (IQR / median), the figure the benchmark's
bounds in BENCHMARK.json are judged against.

    python3 perfbench/spread.py --workload epoch --seeds 1-10 [--trace 0]

Run from the repository root.  Each run's result line is appended to
--out (JSON lines) so a set of runs can be compared with another later.
"""
import argparse
import json
import statistics
import subprocess
import sys


def seeds_of(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-5")
    ap.add_argument("--trace", default="0")
    ap.add_argument("--out", default=None)
    args = ap.parse_args()
    spec = json.load(open("BENCHMARK.json"))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    values = {}
    for seed in seeds_of(args.seeds):
        cmd = spec["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(spec["run_seconds"]), "--trace", args.trace,
        ]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
        if proc.returncode != 0 or not last.startswith("{"):
            sys.stderr.write(proc.stderr[-2000:])
            sys.exit(f"seed {seed}: run failed with code {proc.returncode}")
        result = json.loads(last)
        if args.out:
            with open(args.out, "a") as f:
                f.write(json.dumps({"workload": args.workload, "seed": seed, **result}) + "\n")
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}", flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    for name, vs in values.items():
        med = statistics.median(vs)
        if len(vs) >= 2:
            q = statistics.quantiles(vs, n=4)
            spread = (q[2] - q[0]) / med if med else float("inf")
        else:
            spread = 0.0
        bound = bounds.get(name)
        flag = ""
        if bound is not None:
            flag = "ok" if spread <= bound / 3 else ("within bound" if spread <= bound else "TOO WIDE")
        print(f"{name:32s} median {med:14.6g}  spread {spread:7.4f}  bound {bound}  {flag}")


if __name__ == "__main__":
    main()
