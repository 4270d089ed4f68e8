#!/usr/bin/env python3
"""Run the benchmark the way its acceptance rule does and report the spreads.

Usage (from the repository root):
  python3 bench_suite/seed_spread.py OUT.json [--first-seed N] [--runs N]
                                     [--workload NAME]...

Runs `bench_suite/run.py --trace 0` once per seed (N, N+1, ...; default ten
seeds from 1) on every workload of BENCHMARK.json, with its run_seconds,
and writes OUT.json: per workload and end-to-end metric the median, q1 and
q3 of the runs (statistics.quantiles(n=4)), the spread (q3 - q1) / median
and its ratio to the declared bound; plus each run's seconds, nproc, the
L3 size and the total wall time. Exits 1 when a run fails or reports
"correct": false.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def l3_bytes():
    try:
        with open("/sys/devices/system/cpu/cpu0/cache/index3/size") as f:
            text = f.read().strip()
    except OSError:
        return None
    scale = {"K": 1 << 10, "M": 1 << 20}.get(text[-1], 1)
    return int(text.rstrip("KM")) * scale


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("out")
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workload", action="append")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    t_all = time.time()
    report = {"run_seconds": spec["run_seconds"], "nproc": os.cpu_count(),
              "l3_bytes": l3_bytes(), "workloads": {}}
    ok = True
    for name in workloads:
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            t = time.time()
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"),
                 "--workload", name, "--seed", str(seed),
                 "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if proc.returncode == 0 else None
            ok = ok and result is not None and result["correct"]
            runs.append({"seed": seed, "seconds": round(time.time() - t, 1),
                         "result": result})
            print(f"{name} seed {seed}: {runs[-1]['seconds']} s, "
                  f"{'ok' if result else 'FAILED'}", file=sys.stderr)
        metrics = {}
        for m in spec["end_to_end"]:
            values = [r["result"]["metrics"][m["name"]]["value"]
                      for r in runs if r["result"]]
            if len(values) < 2:
                continue
            q1, _, q3 = statistics.quantiles(values, n=4)
            med = statistics.median(values)
            spread = (q3 - q1) / abs(med)
            metrics[m["name"]] = {"median": med, "q1": q1, "q3": q3,
                                  "spread": spread,
                                  "spread_over_bound": spread / m["bound"]}
            print(f"  {name:15s} {m['name']:16s} median {med:.6g} "
                  f"spread {100 * spread:.2f} % "
                  f"({spread / m['bound']:.2f} of the bound)",
                  file=sys.stderr)
        report["workloads"][name] = {"metrics": metrics, "runs": runs}
    report["wall_s"] = round(time.time() - t_all, 1)
    with open(args.out, "w", encoding="utf-8") as f:
        json.dump(report, f, indent=1)
        f.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
