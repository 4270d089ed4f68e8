#!/usr/bin/env python3
"""Benchmark entry point: build bench_suite from this checkout and run one workload.

Usage (from the repository root):
  python3 bench_suite/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the suite with CMake into $CARGO_TARGET_DIR (default .bench_build),
runs NAME for S seconds of timed repetitions on inputs made from seed N, and
prints as the last line of stdout one JSON object

  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

holding every end_to_end metric of BENCHMARK.json (--trace 0) or every
per_layer metric (--trace 1) as {"value": v, "unit": u}. `attempted` counts
the cells legalized in the repetitions and `failed` those left unplaced.
Exits 1 without that line when the build or the run fails, and 1 after it
when a correctness self-check failed.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build(build_dir):
    jobs = str(min(4, os.cpu_count() or 1))
    for cmd in (["cmake", "-S", HERE, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=Release"],
                ["cmake", "--build", build_dir, "-j", jobs,
                 "--target", "bench_suite"]):
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            return False
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        declared = json.load(f)["per_layer" if args.trace else "end_to_end"]

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                  ".bench_build"))
    if not build(build_dir):
        print("run.py: build failed", file=sys.stderr)
        return 1

    run_dir = os.path.join(build_dir, "runs", f"{args.workload}-{args.seed}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    result_path = os.path.join(run_dir, "result.json")
    cmd = [os.path.join(build_dir, "bench_suite"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--json", result_path,
           "--workdir", os.path.join(run_dir, "inputs")]
    if not args.trace:
        cmd.append("--skip-layers")
    try:
        # The suite's metric lines go to stderr: stdout ends with our JSON.
        proc = subprocess.run(cmd, stdout=sys.stderr, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"run.py: no result within {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    if proc.returncode not in (0, 1) or not os.path.exists(result_path):
        print(f"run.py: bench_suite exited {proc.returncode}",
              file=sys.stderr)
        return 1
    with open(result_path, encoding="utf-8") as f:
        workload = json.load(f)["workloads"][0]
    shutil.rmtree(run_dir, ignore_errors=True)

    metrics = {}
    for m in declared:
        got = workload["metrics"].get(m["name"])
        if (got is None or got["unit"] != m["unit"]
                or not isinstance(got["value"], (int, float))
                or not math.isfinite(got["value"])):
            print(f"run.py: metric {m['name']} missing or invalid: {got}",
                  file=sys.stderr)
            return 1
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    correct = workload["correct"] and proc.returncode == 0
    print(json.dumps({"correct": correct,
                      "attempted": workload["attempted"],
                      "failed": workload["failed"],
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
