#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each metric's spread.

    python3 bench/spread.py --workload cli-small --seeds 1-10

For every end-to-end metric it prints the median, the first and third
quartiles (``statistics.quantiles(values, n=4)``) and the quartile spread
as a share of the median, beside the metric's bound from BENCHMARK.json.
Raw result lines go to ``--log`` as JSON lines when given.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def parse_seeds(text: str) -> list[int]:
    lo, hi = text.split("-")
    return list(range(int(lo), int(hi) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--log", default=None)
    args = parser.parse_args()

    spec = json.loads(Path("BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    results = []
    for seed in parse_seeds(args.seeds):
        done = subprocess.run(
            spec["command"] + ["--workload", args.workload, "--seed", str(seed),
                               "--seconds", str(spec["run_seconds"]), "--trace", "0"],
            capture_output=True, text=True, check=False,
        )
        if done.returncode != 0:
            print(done.stderr, file=sys.stderr)
            return 1
        line = json.loads(done.stdout.strip().splitlines()[-1])
        results.append(line)
        if args.log:
            with open(args.log, "a") as handle:
                handle.write(json.dumps({"workload": args.workload, "seed": seed, **line}) + "\n")
        print(f"seed {seed}: correct={line['correct']} attempted={line['attempted']} "
              f"failed={line['failed']}", file=sys.stderr)

    shares = {r["failed"] / r["attempted"] for r in results}
    print(f"{args.workload}: {len(results)} runs, all correct={all(r['correct'] for r in results)}, "
          f"failed shares={sorted(shares)}")
    print(f"{'metric':<20} {'median':>10} {'q1':>10} {'q3':>10} {'spread':>8} {'bound':>6}")
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        q1, median, q3 = statistics.quantiles(values, n=4)
        print(f"{name:<20} {median:>10.4f} {q1:>10.4f} {q3:>10.4f} "
              f"{(q3 - q1) / median:>8.3f} {bounds.get(name, float('nan')):>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
