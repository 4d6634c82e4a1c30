#!/usr/bin/env python3
"""Repeatability test for the time-to-answer benchmark.

For each workload: two traced runs with one seed must report exactly the
same counts, and a run with another seed must still pass every answer check.

Usage (from the repository root):

    python3 perfbench/test_counts.py [--workload <name>] [--seed <n>]

Exits non-zero and names the mismatching count on failure.
"""
import argparse
import json
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"
WORKLOADS = ("lse_jit_cold", "lse_eager_1e7", "lse_trials")
COUNTS = ("sim.interactions", "sim.ptime", "jit.pairs", "jit.states",
          "compile.states", "compile.transitions")


def traced_run(workload, seed):
    out = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "1"],
        stdout=subprocess.PIPE, text=True, check=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()

    failures = []
    for workload in [args.workload] if args.workload else WORKLOADS:
        first, second, other = (traced_run(workload, s)
                                for s in (args.seed, args.seed, args.seed + 1))
        for name in COUNTS:
            a, b = first["metrics"][name]["value"], second["metrics"][name]["value"]
            if a != b:
                failures.append(f"{workload}: {name} differs across same-seed runs: {a} != {b}")
        for label, result in (("seed", first), ("same seed", second), ("other seed", other)):
            if not result["correct"] or result["failed"]:
                failures.append(f"{workload}: {label} run failed its checks "
                                f"({result['failed']} of {result['attempted']} instances missed)")
        print(f"{workload}: " + ", ".join(
            f"{n}={first['metrics'][n]['value']}" for n in COUNTS), flush=True)
    for f in failures:
        print("FAIL " + f)
    print("OK" if not failures else f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
