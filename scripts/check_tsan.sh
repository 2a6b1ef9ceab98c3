#!/usr/bin/env bash
# Builds the concurrency-sensitive test binaries and stindex_server under
# ThreadSanitizer (via the STINDEX_SANITIZE CMake option) and runs them:
# the tests, then a ~3 s mixed stindex_server run whose client,
# publisher and exposition threads are scraped while they work. Any data
# race — including one TSan finds in a passing run — fails the script.
# CI runs this on every change; run it locally before touching the
# thread pool, the parallel split pipeline, the buffer-pool read path or
# the server loop.
#
# Usage: scripts/check_tsan.sh [build-dir]
set -euo pipefail

BUILD_DIR="${1:-build-tsan}"
JOBS="$(nproc 2>/dev/null || echo 2)"
TESTS=(thread_pool_test parallel_pipeline_test concurrency_test
       backend_differential_test snapshot_backend_test trace_test
       shared_buffer_pool_test fuzz_differential_test crash_recovery_test
       live_tier_test http_exposition_test)

cmake -B "$BUILD_DIR" -S "$(dirname "$0")/.." \
  -DSTINDEX_SANITIZE=thread \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "$BUILD_DIR" --target "${TESTS[@]}" stindex_server -j"$JOBS"

# halt_on_error: make the first race fail the binary, not just warn.
export TSAN_OPTIONS="halt_on_error=1 ${TSAN_OPTIONS:-}"
# Death tests re-execute the binary instead of forking a threaded one, as
# under ctest (tests/CMakeLists.txt).
export GTEST_DEATH_TEST_STYLE=threadsafe
status=0
for test in "${TESTS[@]}"; do
  echo "== TSan: $test =="
  # Its own temp directory, as ctest gives it (tests/CMakeLists.txt).
  tmp="$BUILD_DIR/tests/tmp/$test"
  mkdir -p "$tmp"
  if ! TEST_TMPDIR="$tmp" "$BUILD_DIR/tests/$test"; then
    status=1
  fi
done

echo "== TSan: stindex_server =="
SERVER_DIR="$(mktemp -d)"
trap 'rm -rf "$SERVER_DIR"' EXIT
"$BUILD_DIR/bench/stindex_server" --duration-s=3 --update-frac=0.2 \
  --threads=4 --metrics-port=0 --port-file="$SERVER_DIR/port" \
  --slow-query-ms=0 > "$SERVER_DIR/server.txt" 2>&1 &
server_pid=$!
for _ in $(seq 1 100); do
  [ -s "$SERVER_DIR/port" ] && break
  kill -0 "$server_pid" 2>/dev/null || break
  sleep 0.1
done
if [ -s "$SERVER_DIR/port" ]; then
  python3 - "$(cat "$SERVER_DIR/port")" <<'EOF' || status=1
import sys, urllib.request
for path in ("/metrics", "/healthz", "/statusz"):
    url = f"http://127.0.0.1:{sys.argv[1]}{path}"
    urllib.request.urlopen(url, timeout=10).read()
EOF
fi
if ! wait "$server_pid"; then
  status=1
  cat "$SERVER_DIR/server.txt" >&2
fi

if [ "$status" -ne 0 ]; then
  echo "ThreadSanitizer FAILED" >&2
else
  echo "ThreadSanitizer clean: ${TESTS[*]} stindex_server"
fi
exit "$status"
