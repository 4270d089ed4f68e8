"""Determinism lint rules (`tools/mrlg_lint.py determinism`), built on the shared framework so effects and determinism share one
suppression syntax, one reporter, and one CI stage).

PR 1 made the parallel evaluation layer bit-identical at any thread
count; that contract dies silently if library code starts consuming
ambient nondeterminism. These rules reject the known leak paths:

  unordered-iter   Iterating an unordered container (range-for or
                   explicit begin()). Iteration order is unspecified.
  naked-assert     Plain assert() instead of MRLG_ASSERT/MRLG_DCHECK.
  stdout-io        std::cout / printf / puts in library code.
  wall-clock       Reading clocks outside src/util/.
  ambient-rng      rand()/std::mt19937/... outside src/util/.
  plan-order       Any unordered container in the order-critical files
                   of the region-parallel pipeline.
  timeline-isolation
                   Any serial-Tracer access token in the worker-visible
                   files (obs/timeline.*, obs/memres.*,
                   util/thread_pool.*). The Tracer is single-threaded by
                   contract (the two-tracer split, DESIGN.md); worker
                   paths record through the lock-free Timeline only.

Suppress a deliberate use with a one-line reason on the same line or
the line above:   // mrlg-lint: allow(<rule>) <reason>
"""

import os
import re

from .framework import Finding, SourceFile

# Rules that apply everywhere under the linted roots.
GLOBAL_RULES = [
    (
        "naked-assert",
        re.compile(r"(?<![_\w])assert\s*\("),
        "use MRLG_ASSERT/MRLG_DCHECK (util/assert.hpp) instead of assert()",
    ),
    (
        "stdout-io",
        re.compile(r"std::cout|(?<![\w_])printf\s*\(|(?<![\w_])puts\s*\("),
        "library code must not write to stdout; use MRLG_LOG or return data",
    ),
]

# Rules from which src/util/ (the sanctioned wrappers) is exempt.
NON_UTIL_RULES = [
    (
        "wall-clock",
        re.compile(
            r"steady_clock|system_clock|high_resolution_clock"
            r"|(?<![\w_])std::time\s*\(|gettimeofday|(?<![\w_])clock\s*\(\)"
        ),
        "read time through util/timer.hpp only",
    ),
    (
        "ambient-rng",
        re.compile(
            r"(?<![\w_])rand\s*\(|(?<![\w_])srand\s*\(|random_device"
            r"|mt19937|default_random_engine|random_shuffle"
        ),
        "use util/rng.hpp (explicit seed) for all randomness",
    ),
]

# Files whose iteration order is load-bearing for the plan/commit
# pipeline's serial-equivalence argument (legalize/pipeline.hpp).
# Unordered containers are rejected here entirely, not just iteration.
ORDER_CRITICAL_FILES = (
    os.path.join("legalize", "pipeline.hpp"),
    os.path.join("legalize", "pipeline.cpp"),
    os.path.join("legalize", "legalizer.cpp"),
)

UNORDERED_USE_RE = re.compile(r"unordered_(?:map|set|multimap|multiset)")

# Files that run on (or are reachable from) pool worker threads. The
# serial Tracer (obs/trace.hpp) is single-threaded by contract, so any
# Tracer access token here is a data race waiting to happen — workers
# must record through the lock-free Timeline instead. Matched as path
# fragments so both the .hpp and .cpp of each unit are covered.
TRACER_ISOLATED_FILES = (
    os.path.join("obs", "timeline."),
    os.path.join("obs", "memres."),
    os.path.join("util", "thread_pool."),
)

TRACER_ACCESS_RE = re.compile(
    r"(?<![\w_])(?:current_tracer|set_current_tracer|ScopedTracer"
    r"|TracerPause|ScopedPhase|Tracer|MRLG_OBS_\w+)(?![\w_])"
)

UNORDERED_DECL_RE = re.compile(
    r"unordered_(?:map|set|multimap|multiset)\s*<[^;{}]*>[&\s]*(\w+)\s*[;={(,)]"
)
RANGE_FOR_RE = re.compile(r"for\s*\(.*?:\s*&?\s*\*?\s*([\w.\->:]+)\s*\)")
DIRECT_UNORDERED_ITER_RE = re.compile(
    r"for\s*\(.*:\s*[^)]*unordered_(?:map|set|multimap|multiset)"
)


def lint_file(path, findings):
    try:
        sf = SourceFile.load(path)
    except OSError as e:
        findings.append(Finding("io-error", path, 0, str(e)))
        return

    in_util = os.sep + "util" + os.sep in path
    rules = list(GLOBAL_RULES) + ([] if in_util else NON_UTIL_RULES)
    order_critical = path.endswith(ORDER_CRITICAL_FILES)
    tracer_isolated = any(frag in path for frag in TRACER_ISOLATED_FILES)

    # Pass 1: names declared as unordered containers in this file
    # (including references bound to one, the common aliasing pattern).
    unordered_names = set()
    for code in sf.code_lines:
        for m in UNORDERED_DECL_RE.finditer(code):
            unordered_names.add(m.group(1))

    for idx, code in enumerate(sf.code_lines):
        lineno = idx + 1
        if (
            order_critical
            and UNORDERED_USE_RE.search(code)
            and not sf.allowed(idx, "plan-order")
        ):
            findings.append(
                Finding(
                    "plan-order",
                    path,
                    lineno,
                    "order-critical pipeline file: unordered containers "
                    "are banned here (serial-equivalence depends on "
                    "deterministic iteration)",
                )
            )
        if (
            tracer_isolated
            and TRACER_ACCESS_RE.search(code)
            and not sf.allowed(idx, "timeline-isolation")
        ):
            findings.append(
                Finding(
                    "timeline-isolation",
                    path,
                    lineno,
                    "worker-visible file: the serial Tracer "
                    "(obs/trace.hpp) is single-threaded by contract — "
                    "record through the lock-free Timeline instead",
                )
            )
        for rule, pattern, advice in rules:
            if pattern.search(code) and not sf.allowed(idx, rule):
                if rule == "naked-assert" and "static_assert" in code:
                    # static_assert is compile-time and always on.
                    if not re.search(r"(?<!static_)assert\s*\(", code):
                        continue
                findings.append(Finding(rule, path, lineno, advice))
        if sf.allowed(idx, "unordered-iter"):
            continue
        m = RANGE_FOR_RE.search(code)
        hit = DIRECT_UNORDERED_ITER_RE.search(code) is not None
        if not hit and m is not None:
            # Range-for over a variable declared unordered in this file.
            base = m.group(1).split(".")[0].split("->")[0]
            hit = base in unordered_names
        if hit:
            findings.append(
                Finding(
                    "unordered-iter",
                    path,
                    lineno,
                    "iteration order of unordered containers is "
                    "unspecified; sort or use an ordered container",
                )
            )


def analyze(files):
    findings = []
    for path in files:
        lint_file(path, findings)
    return findings
