#!/usr/bin/env bash
# Build with -DGM_SANITIZE=thread and run the thread-centric test subset
# under ThreadSanitizer: mutex/condvar primitives, lock-rank death tests,
# the metrics concurrency suite, and the parallel runner including the
# 8-thread chaos test that crashes and restarts bank shards (and wipes
# auctioneer storage state) while the shards tick. halt_on_error turns
# any report into a test failure; second_deadlock_stack makes
# lock-inversion reports actionable.
# Usage: scripts/check_tsan.sh [ctest args...]
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR=build-tsan

cmake -B "$BUILD_DIR" -S . -DGM_SANITIZE=thread \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "$BUILD_DIR" -j"$(nproc)"
# The subset is every test that spawns threads (plus the concurrency
# primitives themselves). Running the whole suite under TSan would mostly
# re-run single-threaded logic at 5-15x slowdown for no extra coverage.
TSAN_OPTIONS="halt_on_error=1 second_deadlock_stack=1" \
ctest --test-dir "$BUILD_DIR" --output-on-failure --timeout 300 \
  -R "Concurrency|Parallel|Mutex|CondVar|ThreadPool|ThreadTest|FederationAudit" "$@"
