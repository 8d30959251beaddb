#!/usr/bin/env python3
"""Run the benchmark over several seeds and print each metric's spread.

    python3 perfbench/spread.py --workload geometry --seeds 1-10 --seconds 25

For every metric it prints the median of the runs and the distance between
the first and third quartile (``statistics.quantiles(values, n=4)``) as a
share of that median, plus the failed share of each run and the host-speed
probes that each run prints.  Runs go one after another, each in its own
process.  This regenerates the reference figures in perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")


def seed_list(text):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--seconds", type=int, default=25)
    args = parser.parse_args(argv)
    if len(args.seeds) < 2:
        parser.error("quartiles need at least two seeds")

    runs = []
    for seed in args.seeds:
        child = subprocess.run([sys.executable, RUN, "--workload", args.workload,
                                "--seed", str(seed), "--seconds", str(args.seconds)],
                               capture_output=True, text=True, check=False)
        lines = child.stdout.strip().splitlines()
        if child.returncode != 0 or not lines:
            print("seed %d: exit %d\n%s%s" % (seed, child.returncode, child.stdout,
                                               child.stderr))
            return 1
        result = json.loads(lines[-1])
        runs.append(result)
        speed = [line[len("host speed: "):].split(";")[0]
                 for line in lines if line.startswith("host speed:")]
        print("seed %d: attempted %d failed %d correct %s  %s  (%s)" % (
            seed, result["attempted"], result["failed"], result["correct"],
            "  ".join("%s=%.6g" % (k, v["value"]) for k, v in result["metrics"].items()),
            "; ".join(speed) or "no host speed"), flush=True)

    shares = sorted({r["failed"] / r["attempted"] for r in runs})
    print("failed share per run: %s" % ", ".join("%.6f" % s for s in shares))
    print("%-40s %14s %10s %10s" % ("metric", "median", "iqr/med", "unit"))
    for name, first in runs[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / median if median else 0.0
        print("%-40s %14.6g %10.4f %10s" % (name, median, spread, first["unit"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
