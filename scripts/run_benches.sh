#!/usr/bin/env bash
# Runs every structured-report bench harness with --json and aggregates
# the per-bench reports into one BENCH_results.json:
#
#   { "schema_version": 2, "results": [ <per-bench report>, ... ] }
#
# The per-bench report schema is documented in bench/bench_report.h.
# bench_micro_ops is skipped — it is a google-benchmark binary with its
# own reporting and no --json flag.
#
# Usage: scripts/run_benches.sh [build-dir] [output-dir]
#
# Environment:
#   STINDEX_SCALE    bench scale (small|paper), forwarded to the benches.
#   STINDEX_THREADS  default thread count for the parallel harnesses.
set -euo pipefail

BUILD_DIR="${1:-build}"
OUT_DIR="${2:-bench_reports}"
mkdir -p "$OUT_DIR"

reports=()
for bench in "$BUILD_DIR"/bench/bench_*; do
  [ -x "$bench" ] || continue
  name="$(basename "$bench")"
  case "$name" in
    *.cmake | *Makefile | CMakeFiles) continue ;;
    bench_micro_ops) echo "== $name (skipped: google-benchmark harness) =="
                     continue ;;
  esac
  echo "== $name =="
  # fig17 doubles as the tracing smoke: capture a Chrome trace of the
  # whole run and validate it below.
  extra=()
  if [ "$name" = "bench_fig17_range_io" ]; then
    extra=(--trace="$OUT_DIR/$name.trace.json")
  fi
  "$bench" --json="$OUT_DIR/$name.json" "${extra[@]}" \
    | tee "$OUT_DIR/$name.txt"
  reports+=("$OUT_DIR/$name.json")
done

if [ "${#reports[@]}" -eq 0 ]; then
  echo "error: no bench binaries found under $BUILD_DIR/bench" >&2
  exit 1
fi

# Aggregate the per-bench reports into one document.
AGGREGATE="$OUT_DIR/BENCH_results.json"
python3 - "$AGGREGATE" "${reports[@]}" <<'EOF'
import json, sys
out, paths = sys.argv[1], sys.argv[2:]
results = []
for path in paths:
    with open(path, "r", encoding="utf-8") as f:
        results.append(json.load(f))
with open(out, "w", encoding="utf-8") as f:
    json.dump({"schema_version": 2, "results": results}, f, indent=2)
    f.write("\n")
EOF

python3 "$(dirname "$0")/validate_report.py" "$AGGREGATE"
echo "Aggregated ${#reports[@]} reports into $AGGREGATE"

# Validate the fig17 trace capture (ph/ts/tid fields, balanced B/E).
FIG17_TRACE="$OUT_DIR/bench_fig17_range_io.trace.json"
if [ -f "$FIG17_TRACE" ]; then
  python3 "$(dirname "$0")/validate_trace.py" "$FIG17_TRACE"
fi

SMOKE_DIR="$(mktemp -d)"
trap 'rm -rf "$SMOKE_DIR"' EXIT

# Server-driver smoke: replay a short mixed stream from 4 client threads
# against one shared sharded pool over the tree packed into an mmap
# snapshot; the report must validate and prove the pages were borrowed
# from the snapshot's mapping and never read from a page file.
SERVER="$BUILD_DIR/bench/stindex_server"
if [ -x "$SERVER" ]; then
  echo "== stindex_server shared-pool smoke =="
  "$SERVER" --threads=4 --stream=400 --buffer-pages=32 \
    --backend=mmap --db="$SMOKE_DIR" \
    --json="$OUT_DIR/stindex_server.json" \
    --prom="$OUT_DIR/stindex_server.prom" \
    | tee "$OUT_DIR/stindex_server.txt"
  python3 "$(dirname "$0")/validate_report.py" "$OUT_DIR/stindex_server.json"
  python3 - "$OUT_DIR/stindex_server.json" <<'EOF'
import json, sys
with open(sys.argv[1], "r", encoding="utf-8") as f:
    report = json.load(f)
counters = report["metrics"]["counters"]
borrows = counters.get("backend.mmap.borrows", 0)
assert borrows > 0, f"expected snapshot pages borrowed, got {counters}"
file_reads = counters.get("backend.file.reads", 0)
assert file_reads == 0, f"expected zero file reads under mmap, got {counters}"
series = {s["name"] for s in report["series"]}
for required in ("qps", "latency_p50_ms", "latency_p95_ms",
                 "latency_p99_ms"):
    assert required in series, f"report missing series '{required}'"
assert report["params"]["effective_buffer_pages"] == 32, report["params"]
print(f"stindex_server smoke OK: {borrows} snapshot pages borrowed, "
      f"{report['latency_ms']['count']} latencies")
EOF
else
  echo "warning: $SERVER not built, skipping server smoke" >&2
fi

# Mixed update/query smoke: one fifth of the request stream are live
# movement updates journaled through the WAL onto a real page file while
# the rest run freshness-bound tiered queries from 4 client threads.
# Concurrent commits coalesce into one fsync (waiting up to 200 us for
# joiners), --checkpoint-every=1 forces at least one full checkpoint +
# truncation cycle mid-run, and --pack-at=40 freezes the historical tree
# into a zero-copy snapshot layer mid-stream. The report must validate
# against schema v2, prove actual journal writes (backend.file.writes >
# 0), prove the journal was truncated (live.wal.truncated_pages > 0),
# show exactly one pack (frozen_layers == 1, live.packs == 1) and carry
# a sane updates_per_s sample.
if [ -x "$SERVER" ]; then
  echo "== stindex_server mixed update/query smoke =="
  "$SERVER" --threads=4 --stream=400 --update-frac=0.2 \
    --commit-interval=200 --checkpoint-every=1 --pack-at=40 \
    --backend=file --db="$SMOKE_DIR" \
    --json="$OUT_DIR/stindex_server_mixed.json" \
    | tee "$OUT_DIR/stindex_server_mixed.txt"
  python3 "$(dirname "$0")/validate_report.py" \
    "$OUT_DIR/stindex_server_mixed.json"
  python3 - "$OUT_DIR/stindex_server_mixed.json" <<'EOF'
import json, sys
with open(sys.argv[1], "r", encoding="utf-8") as f:
    report = json.load(f)
params = report["params"]
assert params["update_frac"] == 0.2, params
assert params["updates_applied"] > 0, params
assert params["wal_commits"] > 0, params
assert params["wal_checkpoints"] > 0, params
assert params["frozen_layers"] == 1, params
assert "updates_dropped" in params, params
counters = report["metrics"]["counters"]
writes = counters.get("backend.file.writes", 0)
assert writes > 0, f"expected WAL file writes, got {counters}"
observes = counters.get("live.observes", 0)
assert observes > 0, f"expected live observes, got {counters}"
checkpoints = counters.get("live.wal.checkpoints", 0)
assert checkpoints > 0, f"expected checkpoints, got {counters}"
truncated = counters.get("live.wal.truncated_pages", 0)
assert truncated > 0, f"expected truncated journal pages, got {counters}"
packs = counters.get("live.packs", 0)
assert packs == 1, f"expected exactly one pack, got {counters}"
series = {s["name"] for s in report["series"]}
for required in ("qps", "updates_per_s", "latency_p50_ms",
                 "update_latency_p50_ms"):
    assert required in series, f"report missing series '{required}'"
ups = [p["y"] for s in report["series"] if s["name"] == "updates_per_s"
       for p in s["points"]]
assert ups and ups[0] > 0, f"expected positive updates_per_s, got {ups}"
print(f"stindex_server mixed smoke OK: {params['updates_applied']} updates "
      f"({params['updates_dropped']} dropped), {writes} WAL file writes, "
      f"{params['wal_commits']} commits, {checkpoints} checkpoints, "
      f"{truncated} truncated pages, {packs} pack")
EOF
fi

# Soak smoke: serve the mixed workload for 10 s of wall clock
# (--duration-s) with the telemetry plane on an ephemeral port, scrape it
# live (>=3 scrapes with monotone counters, windowed p95, healthz green),
# then check the report validates and the slow-query JSONL (threshold 0
# => every query captures) parses line by line.
if [ -x "$SERVER" ]; then
  echo "== stindex_server soak + live scrape smoke =="
  SOAK_DIR="$SMOKE_DIR/soak"
  mkdir -p "$SOAK_DIR"
  "$SERVER" --duration-s=10 --update-frac=0.2 --threads=4 \
    --buffer-pages=32 --metrics-port=0 --port-file="$SOAK_DIR/port" \
    --slow-query-ms=0 --slow-log="$SOAK_DIR/slow.jsonl" \
    --backend=file --db="$SOAK_DIR" \
    --json="$OUT_DIR/stindex_server_soak.json" \
    > "$OUT_DIR/stindex_server_soak.txt" 2>&1 &
  SOAK_PID=$!
  for _ in $(seq 1 50); do
    [ -s "$SOAK_DIR/port" ] && break
    kill -0 "$SOAK_PID" 2>/dev/null || break
    sleep 0.2
  done
  if [ ! -s "$SOAK_DIR/port" ]; then
    echo "error: soak server never published its port" >&2
    wait "$SOAK_PID" || true
    cat "$OUT_DIR/stindex_server_soak.txt" >&2
    exit 1
  fi
  if ! python3 "$(dirname "$0")/scrape_soak.py" "$(cat "$SOAK_DIR/port")" \
      --scrapes 3 --interval 1; then
    kill "$SOAK_PID" 2>/dev/null || true
    wait "$SOAK_PID" || true
    cat "$OUT_DIR/stindex_server_soak.txt" >&2
    exit 1
  fi
  wait "$SOAK_PID"
  cat "$OUT_DIR/stindex_server_soak.txt"
  python3 "$(dirname "$0")/validate_report.py" \
    "$OUT_DIR/stindex_server_soak.json"
  python3 - "$OUT_DIR/stindex_server_soak.json" "$SOAK_DIR/slow.jsonl" <<'EOF'
import json, sys
with open(sys.argv[1], "r", encoding="utf-8") as f:
    report = json.load(f)
params = report["params"]
assert params["queries"] > 0, params
assert params["scrapes"] >= 3, params
assert params["slow_queries"] > 0, params
series = {s["name"] for s in report["series"]}
for required in ("qps", "latency_p50_ms", "latency_p95_ms",
                 "latency_p99_ms"):
    assert required in series, f"report missing series '{required}'"
with open(sys.argv[2], "r", encoding="utf-8") as f:
    lines = [json.loads(line) for line in f if line.strip()]
assert lines, "slow-query JSONL is empty at threshold 0"
for entry in lines:
    assert "latency_ms" in entry and "results" in entry, entry
print(f"soak smoke OK: {params['queries']} queries, "
      f"{params['updates_applied']} updates, {params['scrapes']} scrapes, "
      f"{len(lines)} slow-log entries")
EOF
fi

# Zero-copy snapshot smoke: run the CLI pipeline in a scratch directory,
# ingest the objects into a live-tier WAL, pack it into a read-only
# snapshot (stindex_cli pack), then serve queries with --backend=mmap and
# a trace capture. Warm queries must come entirely from the mapping — the
# CLI stats dump proves zero file-backend reads and nonzero borrowed
# pages — and the fig17 mmap report must still validate against schema
# v2 with the same invariant.
CLI="$BUILD_DIR/tools/stindex_cli"
FIG17="$BUILD_DIR/bench/bench_fig17_range_io"
if [ -x "$CLI" ]; then
  echo "== stindex_cli pack + --backend mmap smoke =="
  "$CLI" generate --family random --n 500 --out "$SMOKE_DIR/objects.csv"
  "$CLI" split --in "$SMOKE_DIR/objects.csv" --out "$SMOKE_DIR/segments.csv" \
    --budget-percent 100
  "$CLI" queries --set small --count 50 --out "$SMOKE_DIR/queries.csv"
  MMAP_DIR="$SMOKE_DIR/mmap"
  mkdir -p "$MMAP_DIR"
  "$CLI" ingest --in "$SMOKE_DIR/objects.csv" --db "$MMAP_DIR"
  "$CLI" pack --db "$MMAP_DIR" --out "$MMAP_DIR/historical.stsnap"
  [ -s "$MMAP_DIR/historical.stsnap" ] || {
    echo "error: pack produced no snapshot" >&2; exit 1; }
  "$CLI" query --segments "$SMOKE_DIR/segments.csv" \
    --queries "$SMOKE_DIR/queries.csv" --index ppr \
    --backend mmap --db "$MMAP_DIR" --stats "$MMAP_DIR/metrics.json" \
    --explain --objects "$SMOKE_DIR/objects.csv" \
    --trace "$SMOKE_DIR/query.trace.json"
  python3 "$(dirname "$0")/validate_trace.py" "$SMOKE_DIR/query.trace.json"
  python3 - "$MMAP_DIR/metrics.json" <<'EOF'
import json, sys
with open(sys.argv[1], "r", encoding="utf-8") as f:
    counters = json.load(f)["counters"]
file_reads = counters.get("backend.file.reads", 0)
borrows = counters.get("backend.mmap.borrows", 0)
packed = counters.get("backend.mmap.packed_pages", 0)
assert file_reads == 0, f"expected zero file reads under mmap, got {counters}"
assert packed > 0, f"expected packed snapshot pages, got {counters}"
assert borrows > 0, f"expected snapshot pages borrowed, got {counters}"
print(f"mmap backend smoke OK: {packed} packed pages, {borrows} borrows, "
      f"0 file reads")
EOF
else
  echo "warning: $CLI not built, skipping mmap smoke" >&2
fi

if [ -x "$FIG17" ]; then
  echo "== bench_fig17_range_io --backend=mmap smoke =="
  mkdir -p "$SMOKE_DIR/mmap_fig17"
  "$FIG17" --backend=mmap --db="$SMOKE_DIR/mmap_fig17" \
    --json="$OUT_DIR/bench_fig17_range_io_mmap.json" \
    | tee "$OUT_DIR/bench_fig17_range_io_mmap.txt"
  python3 "$(dirname "$0")/validate_report.py" \
    "$OUT_DIR/bench_fig17_range_io_mmap.json"
  python3 - "$OUT_DIR/bench_fig17_range_io_mmap.json" <<'EOF'
import json, sys
with open(sys.argv[1], "r", encoding="utf-8") as f:
    report = json.load(f)
assert report["params"]["backend"] == "mmap", report["params"]
counters = report["metrics"]["counters"]
file_reads = counters.get("backend.file.reads", 0)
assert file_reads == 0, f"expected zero file reads under mmap, got {counters}"
borrows = counters.get("backend.mmap.borrows", 0)
assert borrows > 0, f"expected snapshot pages borrowed, got {counters}"
print(f"fig17 mmap smoke OK: report valid, {borrows} snapshot pages "
      f"borrowed, 0 file reads")
EOF
else
  echo "warning: $FIG17 not built, skipping fig17 mmap smoke" >&2
fi
