#!/usr/bin/env python3
"""Fixture tests for the phase-effect analyzer (`tools/mrlg_lint.py
effects`) and the determinism lint (`tools/mrlg_lint.py determinism`).

Each known-bad TU under tests/lint_fixtures/ seeds one violation class
the analyzer exists to catch; the known-good TU seeds none. The analyzer
MUST flag every bad fixture with the expected rule and MUST pass the
good one — if a refactor of the analyzer stops catching a seeded bug,
this test fails before the real sources can regress silently.

Run from the repo root (ctest does, with the `lint` label):
    python3 tests/test_lint_fixtures.py
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FIXTURES = os.path.join(ROOT, "tests", "lint_fixtures")
CLI = os.path.join(ROOT, "tools", "mrlg_lint.py")

# fixture file -> (expected exit, [rules that must appear in the output])
CASES = {
    "bad_plan_calls_commit.cpp": (1, ["plan-mutation"]),
    "bad_const_cast.cpp": (1, ["const-cast", "plan-mutation"]),
    "bad_global_write.cpp": (1, ["global-state"]),
    "bad_plan_dispatch_no_pause.cpp": (1, ["tracer-pause"]),
    "good_readonly.cpp": (0, []),
}

# The witness chain must name the intermediate hop, or diagnostics have
# regressed to "something somewhere mutates".
CHAIN_CHECKS = {
    "bad_plan_calls_commit.cpp": "my_plan -> plan_and_apply_eagerly",
}


def run_analyzer(paths, extra=()):
    cmd = (
        [sys.executable, CLI, "effects"]
        + list(paths)
        + ["--root", ROOT, "--baseline", ""]
        + list(extra)
    )
    proc = subprocess.run(
        cmd, capture_output=True, text=True, cwd=ROOT, check=False
    )
    return proc.returncode, proc.stdout + proc.stderr


def main():
    failures = []

    for name, (want_rc, want_rules) in sorted(CASES.items()):
        path = os.path.join(FIXTURES, name)
        rc, out = run_analyzer([path])
        if rc != want_rc:
            failures.append(
                f"{name}: exit {rc}, expected {want_rc}\n--- output ---\n{out}"
            )
            continue
        for rule in want_rules:
            if f" {rule}: " not in out:
                failures.append(
                    f"{name}: expected a '{rule}' finding\n"
                    f"--- output ---\n{out}"
                )
        chain = CHAIN_CHECKS.get(name)
        if chain and chain not in out:
            failures.append(
                f"{name}: witness chain '{chain}' missing\n"
                f"--- output ---\n{out}"
            )

    # All bad fixtures at once: finding count must be the sum (no fixture
    # masks another).
    bad = [
        os.path.join(FIXTURES, n) for n in sorted(CASES) if n.startswith("bad_")
    ]
    rc, out = run_analyzer(bad)
    if rc != 1:
        failures.append(f"combined bad fixtures: exit {rc}, expected 1\n{out}")
    for rule in ("plan-mutation", "const-cast", "global-state", "tracer-pause"):
        if f" {rule}: " not in out:
            failures.append(f"combined bad fixtures: missing '{rule}'\n{out}")

    # Determinism tier: the timeline-isolation rule must flag a
    # worker-visible timeline file that touches the serial Tracer. The
    # fixture lives under lint_fixtures/obs/ so its path matches the
    # rule's obs/timeline.* gate.
    det_fixture = os.path.join(FIXTURES, "obs", "timeline.bad_tracer.cpp")
    proc = subprocess.run(
        [sys.executable, CLI, "determinism", det_fixture, "--root", ROOT],
        capture_output=True,
        text=True,
        cwd=ROOT,
        check=False,
    )
    det_out = proc.stdout + proc.stderr
    if proc.returncode != 1:
        failures.append(
            f"timeline.bad_tracer.cpp: exit {proc.returncode}, expected 1\n"
            f"--- output ---\n{det_out}"
        )
    elif " timeline-isolation: " not in det_out:
        failures.append(
            f"timeline.bad_tracer.cpp: expected a 'timeline-isolation' "
            f"finding\n--- output ---\n{det_out}"
        )

    # A baseline entry must downgrade a finding to tolerated (exit 0).
    baseline = os.path.join(FIXTURES, "_tmp_baseline.txt")
    try:
        proc = subprocess.run(
            [
                sys.executable,
                CLI,
                "effects",
                os.path.join(FIXTURES, "bad_global_write.cpp"),
                "--root",
                ROOT,
                "--baseline",
                baseline,
                "--update-baseline",
            ],
            capture_output=True,
            text=True,
            cwd=ROOT,
            check=False,
        )
        rc, out = run_analyzer(
            [os.path.join(FIXTURES, "bad_global_write.cpp")],
            extra=["--baseline", baseline],
        )
        if rc != 0 or "tolerated (baseline)" not in out:
            failures.append(
                f"baselined bad_global_write: exit {rc}, expected tolerated "
                f"pass\n{out}\n{proc.stdout}{proc.stderr}"
            )
    finally:
        if os.path.exists(baseline):
            os.remove(baseline)

    if failures:
        print("test_lint_fixtures: FAIL", file=sys.stderr)
        for f in failures:
            print(f, file=sys.stderr)
        return 1
    print(
        f"test_lint_fixtures: PASS ({len(CASES)} effects fixtures + "
        f"determinism fixture + baseline)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
