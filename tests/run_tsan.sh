#!/usr/bin/env sh
# Builds the whole library and test suite under ThreadSanitizer with
# DCHECKs on (the tsan presets of CMakePresets.json, in build-tsan/) and
# runs the full ctest suite with 4 worker threads (the tsan test preset
# sets MRLG_THREADS=4). The ASan+UBSan counterpart is the asan presets
# (tools/ci.sh stage 5).
#
# Usage: tests/run_tsan.sh
set -eu

cd "$(dirname -- "$0")/.."

jobs=$(nproc 2>/dev/null || echo 4)
# The audit layer runs too, so data races in the auditors also surface.
export MRLG_VALIDATE=cheap
cmake --preset tsan
cmake --build --preset tsan -j "$jobs"
ctest --preset tsan -j "$jobs"
echo "thread sanitizer run passed (full suite)"
