#!/usr/bin/env python3
"""Check bench_suite results against the metric declarations in BENCHMARK.json.

Usage:
  validate_bench.py RESULT.json [RESULT2.json ...]
  validate_bench.py --compare PARENT.json CHANGE.json

Check mode, per file: every correctness flag is true; every workload is one
BENCHMARK.json declares; every declared end-to-end metric (and, for workloads
run with layers, every per-layer metric) is present with its declared unit;
no metric value is NaN or null; the telemetry cross-checks hold (Tracer self
times within 1 % of the traced legalize wall, the probe's stage sum within
15 % of its mll_plan time).

Compare mode applies each end-to-end metric's declared bound to the change's
median against the parent's. A metric whose spread (q3 - q1 of its
repetitions, as a share of the median) exceeds the bound on either side is
reported as unresolved rather than unchanged. Metrics the suite marks exact
must match bit for bit when both files used the same seed.

Exit code 0 when everything passes, 1 otherwise.
"""

import argparse
import json
import math
import os
import sys

SPEC_DEFAULT = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                            "..", "BENCHMARK.json")
TRACER_SUM_TOLERANCE_PCT = 1.0
PROBE_SUM_TOLERANCE_PCT = 15.0


def load(path):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def finite(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool) \
        and math.isfinite(v)


def check(path, result, spec):
    problems = []
    if not result.get("correct"):
        problems.append("suite reports a failed correctness check")
    known = {w["name"] for w in spec["workloads"]}
    for w in result["workloads"]:
        where = f"{path}: {w['name']}"
        if w["name"] not in known:
            problems.append(f"{where}: workload not declared")
        if not w["correct"]:
            problems.append(f"{where}: checks failed: {w['check_failures']}")
        declared = list(spec["end_to_end"])
        if w["layers"]:
            declared += spec["per_layer"]
        for m in declared:
            got = w["metrics"].get(m["name"])
            if got is None:
                problems.append(f"{where}: missing metric {m['name']}")
            elif got["unit"] != m["unit"]:
                problems.append(f"{where}: {m['name']} unit {got['unit']}, "
                                f"declared {m['unit']}")
        for name, got in w["metrics"].items():
            if not all(finite(got[k]) for k in ("value", "q1", "q3")):
                problems.append(f"{where}: {name} is not a finite number")
        limits = {"tracer_sum_pct": TRACER_SUM_TOLERANCE_PCT,
                  "probe_stage_sum_pct": PROBE_SUM_TOLERANCE_PCT}
        for key, value in w["consistency"].items():
            if abs(value) > limits[key]:
                problems.append(f"{where}: {key} = {value:.2f} exceeds "
                                f"{limits[key]} %")
    for p in problems:
        print(f"FAIL {p}")
    if not problems:
        print(f"{path}: OK ({len(result['workloads'])} workloads)")
    return not problems


def spread(m):
    return (m["q3"] - m["q1"]) / abs(m["value"]) if m["value"] else 0.0


def compare(parent, change, spec):
    ok = True
    same_seed = parent["seed"] == change["seed"]
    change_by_name = {w["name"]: w for w in change["workloads"]}
    for pw in parent["workloads"]:
        cw = change_by_name.get(pw["name"])
        if cw is None:
            print(f"FAIL {pw['name']}: missing from the change's results")
            ok = False
            continue
        for m in spec["end_to_end"]:
            a = pw["metrics"][m["name"]]
            b = cw["metrics"][m["name"]]
            rel = (b["value"] - a["value"]) / abs(a["value"]) \
                if a["value"] else 0.0
            worse = rel if m["better"] == "lower" else -rel
            widest = max(spread(a), spread(b))
            if widest > m["bound"]:
                verdict = "UNRESOLVED"
            elif worse > m["bound"]:
                verdict = "REGRESSION"
            else:
                verdict = "ok"
            ok = ok and verdict == "ok"
            print(f"{verdict:10s} {pw['name']:15s} {m['name']:18s} "
                  f"{a['value']:.6g} -> {b['value']:.6g} {m['unit']} "
                  f"({100 * rel:+.2f} %, spread {100 * widest:.2f} %, "
                  f"bound {100 * m['bound']:.0f} %)")
        if same_seed:
            for name, a in pw["metrics"].items():
                b = cw["metrics"].get(name)
                if a["exact"] and b is not None and a["value"] != b["value"]:
                    print(f"MISMATCH   {pw['name']:15s} {name}: exact metric "
                          f"{a['value']} -> {b['value']}")
                    ok = False
    return ok


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("results", nargs="+")
    ap.add_argument("--compare", action="store_true",
                    help="compare PARENT.json against CHANGE.json")
    ap.add_argument("--spec", default=SPEC_DEFAULT)
    args = ap.parse_args(argv)
    spec = load(args.spec)
    if args.compare and len(args.results) != 2:
        ap.error("--compare takes exactly two result files")
    results = [load(p) for p in args.results]
    ok = all([check(p, r, spec) for p, r in zip(args.results, results)])
    if args.compare and ok:  # a failed check may lack the metrics compared
        ok = compare(results[0], results[1], spec)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
