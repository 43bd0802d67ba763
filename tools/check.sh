#!/usr/bin/env bash
# Repository check gate:
#   1. regular Release build + the full ctest suite;
#   2. ThreadSanitizer build of the library + the net/sim/core test binaries
#      (sweep-engine races, determinism under real concurrency);
#   3. AddressSanitizer pass over the same binaries + rtree (the shared
#      kNN kernel's unit suite);
#   4. UndefinedBehaviorSanitizer pass (distance arithmetic, comparator and
#      angular-interval edge cases) over the ASan binaries + geom + obs;
#   5. SENN_PARANOID build (algorithmic invariant checks compiled in:
#      heap rank order, bounds sanity, buffer-pool pin balance) running the
#      tier1 label — any tripped invariant aborts the test binary and fails
#      the gate;
#   6. static analysis: senn_lint (the determinism/soundness rules of
#      DESIGN.md's "Determinism contract") over src/ and tools/, with the
#      suppression list gated against tools/lint_baseline.txt by the
#      binary's own --baseline diff (regenerate with
#      tools/regen_lint_baseline.sh after review), and — when clang-tidy
#      is installed — the curated .clang-tidy checks over the stage-1
#      compile_commands.json. A missing clang-tidy binary skips that half
#      with a notice; senn_lint always gates.
#
# Usage: tools/check.sh [build-dir-prefix]   (default: build)
set -euo pipefail
cd "$(dirname "$0")/.."

PREFIX="${1:-build}"
JOBS="$(nproc 2>/dev/null || echo 4)"

# Stage banners: `stage "title"` prints "=== [k/N] title ===" with k
# auto-incremented and N derived by counting the stage calls in this very
# script — adding a stage means writing its body, nothing else, where the
# hardcoded STAGES=6 this replaces silently lied the moment a stage was
# added without the bump.
STAGES="$(grep -cE '^stage "' "$0")"
STAGE_NO=0
stage() {
  STAGE_NO=$((STAGE_NO + 1))
  echo "=== [${STAGE_NO}/${STAGES}] $1 ==="
}

stage "Release build + full test suite"
cmake -B "${PREFIX}" -S . >/dev/null
cmake --build "${PREFIX}" -j "${JOBS}"
# Quick gate first: the fast tier-1 suites fail in seconds when something is
# fundamentally broken, before the slow simulation suites spin up.
ctest --test-dir "${PREFIX}" --output-on-failure -j "${JOBS}" -L tier1 -LE slow
ctest --test-dir "${PREFIX}" --output-on-failure -j "${JOBS}"

stage "ThreadSanitizer: net + rpc + sim + core + storage + ch + continuous test binaries"
cmake -B "${PREFIX}-tsan" -S . -DSENN_SANITIZE=thread -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null
cmake --build "${PREFIX}-tsan" -j "${JOBS}" --target net_test rpc_test sim_test core_test common_test storage_test batch_test ch_test snnn_oracle_test continuous_diff_test
"${PREFIX}-tsan/tests/net_test"
"${PREFIX}-tsan/tests/rpc_test"
"${PREFIX}-tsan/tests/sim_test"
"${PREFIX}-tsan/tests/core_test" --gtest_filter='OracleDiffTest.*'
"${PREFIX}-tsan/tests/common_test" --gtest_filter='Rng*:RunningStats*:P2Quantile*:HitRate*'
"${PREFIX}-tsan/tests/storage_test"
"${PREFIX}-tsan/tests/batch_test" --gtest_filter="BatchDiffTest.*"
"${PREFIX}-tsan/tests/ch_test" --gtest_filter='ChDiffTest.GeneratedRoadNetworksBitwise'
"${PREFIX}-tsan/tests/snnn_oracle_test" --gtest_filter='SnnnOracleTest.PointOracleAgreesToo'
"${PREFIX}-tsan/tests/continuous_diff_test" --gtest_filter='ContinuousDiffTest.PeerRegionSharingStaysExact'

stage "AddressSanitizer: net + rpc + sim + core + rtree + storage + ch + continuous test binaries"
cmake -B "${PREFIX}-asan" -S . -DSENN_SANITIZE=address -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null
cmake --build "${PREFIX}-asan" -j "${JOBS}" --target net_test rpc_test sim_test core_test rtree_test storage_test batch_test ch_test snnn_oracle_test continuous_diff_test
"${PREFIX}-asan/tests/net_test"
"${PREFIX}-asan/tests/rpc_test"
"${PREFIX}-asan/tests/sim_test"
"${PREFIX}-asan/tests/core_test"
"${PREFIX}-asan/tests/rtree_test"
"${PREFIX}-asan/tests/storage_test"
"${PREFIX}-asan/tests/batch_test"
"${PREFIX}-asan/tests/ch_test"
"${PREFIX}-asan/tests/snnn_oracle_test"
"${PREFIX}-asan/tests/continuous_diff_test"

stage "UBSan: net + rpc + sim + core + rtree + storage + geom + obs + ch + continuous test binaries"
cmake -B "${PREFIX}-ubsan" -S . -DSENN_SANITIZE=undefined -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null
cmake --build "${PREFIX}-ubsan" -j "${JOBS}" --target net_test rpc_test sim_test core_test rtree_test storage_test geom_test obs_test batch_test ch_test snnn_oracle_test continuous_diff_test
"${PREFIX}-ubsan/tests/net_test"
"${PREFIX}-ubsan/tests/rpc_test"
"${PREFIX}-ubsan/tests/sim_test"
"${PREFIX}-ubsan/tests/core_test"
"${PREFIX}-ubsan/tests/rtree_test"
"${PREFIX}-ubsan/tests/storage_test"
"${PREFIX}-ubsan/tests/geom_test"
"${PREFIX}-ubsan/tests/obs_test"
"${PREFIX}-ubsan/tests/batch_test"
"${PREFIX}-ubsan/tests/ch_test"
"${PREFIX}-ubsan/tests/snnn_oracle_test"
"${PREFIX}-ubsan/tests/continuous_diff_test"

stage "SENN_PARANOID: invariant-checked tier1 suite"
cmake -B "${PREFIX}-paranoid" -S . -DSENN_PARANOID=ON >/dev/null
cmake --build "${PREFIX}-paranoid" -j "${JOBS}"
ctest --test-dir "${PREFIX}-paranoid" --output-on-failure -j "${JOBS}" -L tier1

stage "Static analysis: senn_lint + suppression baseline + clang-tidy"
LINT="${PREFIX}/tools/senn_lint"
# One gating run: findings, unused suppressions, AND baseline drift all fail
# it (the binary diffs the suppression list against the baseline itself —
# a new allow() lands by running tools/regen_lint_baseline.sh and
# committing the diff, never silently). The JSON run proves the
# machine-readable path stays parseable for CI consumers.
"${LINT}" --baseline tools/lint_baseline.txt src tools
"${LINT}" --json --baseline tools/lint_baseline.txt src tools >/dev/null
if command -v clang-tidy >/dev/null 2>&1; then
  # Library sources only — test fixtures under tests/lint/ are deliberately
  # broken and gtest macros trip bugprone checks.
  git ls-files 'src/*.cc' | xargs -P "${JOBS}" -n 8 clang-tidy -p "${PREFIX}" --quiet
else
  echo "clang-tidy not installed — skipping the optional tidy half of stage ${STAGE_NO}"
fi

echo "check.sh: all green"
