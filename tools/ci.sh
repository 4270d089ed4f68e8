#!/usr/bin/env bash
# mrlg CI pipeline: one entry point for every check this repo ships.
#
#   1. Release build + full ctest suite (it includes the bench_parallel
#      thread-sweep smoke and the trace-schema check on its output, the
#      mrlg_legalize runs: an end-to-end MRLG_VALIDATE=full legalization
#      that must pass every in-run audit, the LEF/DEF flag smoke and the
#      parse-error exits, and the mrlg_fuzz smoke at two fixed seeds)
#   2. Static checks (tools/mrlg_lint.py all): the phase-effect analyzer
#      proving the mll_plan closure read-only, plus the determinism lint
#      — one stage, one baseline, one exit code
#   2b. Thread-safety annotations: the analyze-effects preset compiles
#      every TU with clang -Wthread-safety -Werror so the GridWriteCap
#      capability chain is machine-checked; SKIPped when clang++ is not
#      installed (the Python analyzer in stage 2 still runs)
#   3. clang-tidy over all translation units (MRLG_ANALYZE build)
#   4. cppcheck over src/ and tools/
#   5. ASan+UBSan build + full ctest suite (DCHECKs on)
#   6. TSan build running the `parallel` label tier under MRLG_THREADS=4
#      (the thread-count determinism properties, incl. the region-parallel
#      plan/commit pipeline and the lock-free Timeline lanes, with real
#      worker threads racing)
#   7. Coverage: gcovr over a --coverage build running the fast unit
#      tier (ctest -L unit); SKIPped when gcovr is not installed.
#
# The test suite is partitioned by ctest labels
# (unit/e2e/fuzz/golden/parallel); `ctest --test-dir build -L unit` is the
# fast inner-loop tier.
#
# Stages whose tools are not installed are SKIPped with a reason, not
# failed: the container bakes in gcc/cmake/python3 but clang-tidy and
# cppcheck are optional. Any stage that runs and fails fails the script.
#
# Usage: tools/ci.sh [--fast]
#   --fast   skip the sanitizer rebuilds (stages 5 and 6); everything
#            else runs.

set -u

cd "$(dirname "$0")/.."

FAST=0
for arg in "$@"; do
    case "$arg" in
    --fast) FAST=1 ;;
    *)
        echo "usage: tools/ci.sh [--fast]" >&2
        exit 2
        ;;
    esac
done

JOBS=$(nproc 2>/dev/null || echo 4)
FAILURES=0
SKIPS=0

banner() { printf '\n=== %s ===\n' "$1"; }

run_stage() {
    # run_stage <name> <cmd...>: runs the command, records pass/fail.
    local name=$1
    shift
    banner "$name"
    if "$@"; then
        echo "--- $name: OK"
    else
        echo "--- $name: FAIL" >&2
        FAILURES=$((FAILURES + 1))
    fi
}

skip_stage() {
    banner "$1"
    echo "--- $1: SKIP ($2)"
    SKIPS=$((SKIPS + 1))
}

# ---------------------------------------------------------------- stage 1
build_and_test() {
    cmake -B build -S . -DCMAKE_BUILD_TYPE=Release >/dev/null &&
        cmake --build build -j "$JOBS" &&
        ctest --test-dir build --output-on-failure -j "$JOBS"
}
run_stage "build + ctest (Release)" build_and_test

# ---------------------------------------------------------------- stage 2
# Phase-effect analysis + determinism lint through the unified CLI.
# Proves that the transitive closure of mll_plan and the plan-stage
# dispatch never mutates the grid, launders const, or touches
# unsynchronized globals.
run_stage "static checks (effects + determinism)" \
    python3 tools/mrlg_lint.py all src

# --------------------------------------------------------------- stage 2b
if command -v clang++ >/dev/null 2>&1; then
    effects_build_stage() {
        cmake --preset analyze-effects >/dev/null &&
            cmake --build --preset analyze-effects -j "$JOBS"
    }
    run_stage "thread-safety build (analyze-effects preset)" \
        effects_build_stage
else
    skip_stage "thread-safety build (analyze-effects preset)" \
        "clang++ not installed"
fi

# ---------------------------------------------------------------- stage 3
if command -v clang-tidy >/dev/null 2>&1; then
    tidy_stage() {
        cmake -B build-analyze -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
            -DMRLG_ANALYZE=ON -DMRLG_WERROR=ON >/dev/null &&
            cmake --build build-analyze -j "$JOBS"
    }
    run_stage "clang-tidy (MRLG_ANALYZE build)" tidy_stage
else
    skip_stage "clang-tidy (MRLG_ANALYZE build)" "clang-tidy not installed"
fi

# ---------------------------------------------------------------- stage 4
if command -v cppcheck >/dev/null 2>&1; then
    cppcheck_stage() {
        cppcheck --enable=warning,performance,portability \
            --inline-suppr --error-exitcode=1 \
            --suppress=missingIncludeSystem \
            -I src src tools
    }
    run_stage "cppcheck" cppcheck_stage
else
    skip_stage "cppcheck" "cppcheck not installed"
fi

# ---------------------------------------------------------------- stage 5
if [ "$FAST" = 1 ]; then
    skip_stage "ASan+UBSan ctest" "--fast"
else
    asan_stage() {
        cmake -B build-asan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
            -DMRLG_SANITIZE=address,undefined -DMRLG_DCHECKS=ON \
            >/dev/null &&
            cmake --build build-asan -j "$JOBS" &&
            ctest --test-dir build-asan --output-on-failure -j "$JOBS"
    }
    run_stage "ASan+UBSan ctest" asan_stage
fi

# ---------------------------------------------------------------- stage 6
if [ "$FAST" = 1 ]; then
    skip_stage "TSan ctest -L parallel" "--fast"
else
    tsan_stage() {
        # The parallel tier's determinism properties compare multi-thread
        # runs against serial ones; under TSan with MRLG_THREADS=4 they
        # double as data-race detectors for the plan/commit pipeline's
        # shared-grid reads.
        cmake -B build-tsan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
            -DMRLG_SANITIZE=thread -DMRLG_DCHECKS=ON >/dev/null &&
            cmake --build build-tsan -j "$JOBS" &&
            MRLG_THREADS=4 ctest --test-dir build-tsan -L parallel \
                --output-on-failure -j "$JOBS"
    }
    run_stage "TSan ctest -L parallel" tsan_stage
fi

# ---------------------------------------------------------------- stage 7
if command -v gcovr >/dev/null 2>&1; then
    coverage_stage() {
        # Instrumented build of the unit tier only: coverage is a trend
        # signal, so the fast tests suffice and keep the stage cheap.
        cmake -B build-cov -S . -DCMAKE_BUILD_TYPE=Debug \
            -DCMAKE_CXX_FLAGS=--coverage >/dev/null &&
            cmake --build build-cov -j "$JOBS" &&
            ctest --test-dir build-cov -L unit -j "$JOBS" \
                --output-on-failure &&
            gcovr --root . --filter src/ --print-summary \
                -o build-cov/coverage.txt build-cov
    }
    run_stage "coverage (gcovr, unit tier)" coverage_stage
else
    skip_stage "coverage (gcovr, unit tier)" "gcovr not installed"
fi

# ------------------------------------------------------------------ report
banner "summary"
echo "failures: $FAILURES   skipped: $SKIPS"
if [ "$FAILURES" -gt 0 ]; then
    exit 1
fi
exit 0
