#!/usr/bin/env python3
"""Unified static-check CLI for the mrlg sources.

    tools/mrlg_lint.py effects      [paths...] [options]
    tools/mrlg_lint.py determinism  [paths...] [options]
    tools/mrlg_lint.py all          [paths...] [options]

effects      whole-program phase-effect analysis: proves every function
             reachable from the MRLG_EFFECT_READONLY roots and the
             plan-stage dispatch free of grid mutation, const_cast, and
             unsynchronized global state (mrlg_lint/effects.py).
determinism  line-level ambient-nondeterminism lint
             (mrlg_lint/determinism.py).
all          both, sharing the reporter and exit code — the single CI
             entry (tools/ci.sh).

Options:
  --root DIR            repo root for relative paths / default paths
                        (default: parent of this script's directory)
  --baseline FILE       tolerated-findings file for the effects rules
                        (default: tools/effects_baseline.txt under root;
                        pass --baseline '' to disable)
  --update-baseline     rewrite the baseline with the current findings

Default paths: src/ under --root.
Exit: 0 clean, 1 findings, 2 usage error.
"""

import argparse
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from mrlg_lint import determinism, effects, framework  # noqa: E402


def main(argv):
    parser = argparse.ArgumentParser(
        prog="mrlg_lint.py",
        description="Static checks for the mrlg sources.",
    )
    parser.add_argument("mode", choices=["effects", "determinism", "all"])
    parser.add_argument("paths", nargs="*", help="files or dirs (default: src/)")
    parser.add_argument("--root", default=None)
    parser.add_argument("--baseline", default=None)
    parser.add_argument("--update-baseline", action="store_true")
    try:
        args = parser.parse_args(argv[1:])
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0

    root = args.root or os.path.dirname(
        os.path.dirname(os.path.abspath(__file__))
    )
    paths = args.paths or [os.path.join(root, "src")]
    baseline_path = args.baseline
    if baseline_path is None:
        baseline_path = os.path.join(root, "tools", "effects_baseline.txt")

    files, err = framework.collect_files(paths)
    if err:
        print(f"mrlg_lint: {err}", file=sys.stderr)
        return 2

    rel = lambda p: os.path.relpath(p, root) if os.path.isabs(p) else p  # noqa: E731

    findings = []
    if args.mode in ("effects", "all"):
        findings.extend(effects.analyze(files, root=root))
    if args.mode in ("determinism", "all"):
        det = determinism.analyze(files)
        for fi in det:
            fi.path = rel(fi.path)
        findings.extend(det)

    if args.update_baseline and args.mode in ("effects", "all"):
        eff_only = [fi for fi in findings if fi.rule not in DETERMINISM_RULES]
        framework.write_baseline(
            baseline_path,
            eff_only,
            header=(
                "Tolerated effects findings (tools/mrlg_lint.py effects).\n"
                "One finding key per line; regenerate with "
                "--update-baseline.\nKeep this empty for src/legalize: the "
                "plan phase must stay provably read-only."
            ),
        )
        print(f"mrlg_lint: baseline written to {rel(baseline_path)}")

    baseline = framework.load_baseline(baseline_path if baseline_path else None)
    label = f"mrlg_lint[{args.mode}]"
    return framework.report(
        findings, baseline, label, len(files), sys.stdout, sys.stderr
    )


DETERMINISM_RULES = {
    "unordered-iter",
    "naked-assert",
    "stdout-io",
    "wall-clock",
    "ambient-rng",
    "plan-order",
    "io-error",
}


if __name__ == "__main__":
    sys.exit(main(sys.argv))
