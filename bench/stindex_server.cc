// Server-style query driver: N client threads replay a large mixed
// stream of snapshot and small-range queries against ONE shared sharded
// buffer pool (total capacity `--buffer-pages`, default 64 — a warm
// cache, not the paper's per-query-reset measurement protocol). Reports
// throughput (QPS) and per-query latency percentiles through the
// standard schema-v2 JSON report; `--prom=PATH` additionally dumps the
// metric registry in Prometheus text format for scraping.
//
// Extra flags on top of the shared bench surface (bench_report.h):
//   --stream=N        total requests replayed across all clients
//                     (default: 20x the scale's query_count)
//   --prom=PATH       write a Prometheus text-format metrics snapshot
//   --update-frac=F   fraction of the request stream that are movement
//                     updates (0 <= F < 1, default 0). With F > 0 the
//                     server runs the crash-safe live ingestion tier
//                     (src/live): updates stream through the WAL-journaled
//                     LiveIndex and migrate into the PPR-tree while the
//                     remaining requests run freshness-bound tiered
//                     queries (historical tree + in-flight migration +
//                     live buffers) concurrently. --backend=file puts the
//                     WAL on a real page file under --db.
//   --group-commit    coalesce concurrent WAL commits into one fsync
//                     (mixed mode only; see LiveTierOptions::group_commit)
//   --commit-interval=US  with --group-commit: microseconds the commit
//                     leader waits for joiners before flushing (default 0)
//   --checkpoint-every=N  checkpoint + truncate the journal once N flushed
//                     WAL pages accumulate (mixed mode only; 0 = never)
//   --pack-at=N       after N applied updates, pack the historical tree
//                     into a read-only mmap snapshot under --db and keep
//                     serving it zero-copy as a frozen layer while a
//                     fresh active tree takes over migration (mixed mode
//                     only; 0 = never; requires --db). The WAL tier stays
//                     on its page-file backend throughout.
//
// Soak mode (--soak): instead of replaying a fixed-length stream, run a
// wall-clock-bounded mixed read/write workload against the live tier and
// serve the telemetry plane live while it runs:
//   --soak            run until --duration-s elapses (workload loops over
//                     the generated streams; update-frac defaults to 0.2)
//   --duration-s=N    soak wall-clock budget in seconds (default 30)
//   --metrics-port=P  serve /metrics, /healthz and /statusz on
//                     127.0.0.1:P for the whole soak (0 = ephemeral port;
//                     pair with --port-file so scrapers can find it)
//   --port-file=PATH  write the bound metrics port (one line) once the
//                     exposition server is up
//   --publish-interval-s=S  seconds between gauge publications and
//                     progress lines (default 2)
//   --slow-query-ms=T capture every query at or above T ms into the
//                     slow-query EXPLAIN ring (shown on /statusz);
//                     T=0 captures every query, omit to disable
//   --slow-log=PATH   additionally append captured slow queries to PATH
//                     as JSON lines
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "bench_report.h"
#include "core/slow_query_log.h"
#include "live/live_tier.h"
#include "storage/file_backend.h"
#include "storage/page_backend.h"
#include "storage/shared_buffer_pool.h"
#include "util/http_exposition.h"
#include "util/metrics.h"
#include "util/prom_writer.h"
#include "util/thread_pool.h"
#include "util/trace.h"

namespace stindex {
namespace bench {
namespace {

struct ServerFlags {
  size_t stream = 0;        // 0: scale default
  std::string prom_path;    // empty: no Prometheus dump
  double update_frac = 0.0;  // 0: pure-query replay (the classic mode)
  bool group_commit = false;
  int64_t commit_interval_us = 0;
  size_t checkpoint_every = 0;  // flushed WAL pages between checkpoints
  size_t pack_at = 0;  // applied updates before packing the historical tree
  // Soak mode (wall-clock-bounded live-tier workload + telemetry plane).
  bool soak = false;
  int64_t duration_s = 30;
  int64_t metrics_port = -1;  // < 0: no exposition server
  std::string port_file;      // write the bound port here once serving
  double publish_interval_s = 2.0;
  double slow_query_ms = -1.0;  // < 0: slow-query capture disabled
  std::string slow_log_path;   // JSONL sink for captured slow queries
};

// Parses a non-negative integer flag value or dies with a usage error.
int64_t ParseNonNegative(const char* flag, const std::string& value) {
  char* end = nullptr;
  const long long n = std::strtoll(value.c_str(), &end, 10);
  if (end == value.c_str() || *end != '\0' || n < 0) {
    std::fprintf(stderr,
                 "stindex_server: %s expects a non-negative integer, "
                 "got '%s'\n",
                 flag, value.c_str());
    std::exit(2);
  }
  return static_cast<int64_t>(n);
}

// Splits the server-only flags off argv before ParseBenchArgs sees it
// (unknown arguments are a hard error there).
ServerFlags ExtractServerFlags(int* argc, char** argv) {
  ServerFlags flags;
  int out = 1;
  for (int i = 1; i < *argc; ++i) {
    const std::string arg = argv[i];
    std::string value;
    bool matched = true;
    if (arg.rfind("--stream=", 0) == 0) {
      value = arg.substr(9);
    } else if (arg == "--stream" && i + 1 < *argc) {
      value = argv[++i];
    } else if (arg.rfind("--prom=", 0) == 0) {
      flags.prom_path = arg.substr(7);
    } else if (arg == "--prom" && i + 1 < *argc) {
      flags.prom_path = argv[++i];
    } else if (arg == "--group-commit") {
      flags.group_commit = true;
    } else if (arg.rfind("--commit-interval=", 0) == 0 ||
               (arg == "--commit-interval" && i + 1 < *argc)) {
      const std::string us =
          arg == "--commit-interval" ? argv[++i] : arg.substr(18);
      flags.commit_interval_us = ParseNonNegative("--commit-interval", us);
    } else if (arg.rfind("--checkpoint-every=", 0) == 0 ||
               (arg == "--checkpoint-every" && i + 1 < *argc)) {
      const std::string pages =
          arg == "--checkpoint-every" ? argv[++i] : arg.substr(19);
      flags.checkpoint_every =
          static_cast<size_t>(ParseNonNegative("--checkpoint-every", pages));
    } else if (arg.rfind("--pack-at=", 0) == 0 ||
               (arg == "--pack-at" && i + 1 < *argc)) {
      const std::string count = arg == "--pack-at" ? argv[++i] : arg.substr(10);
      flags.pack_at =
          static_cast<size_t>(ParseNonNegative("--pack-at", count));
    } else if (arg == "--soak") {
      flags.soak = true;
    } else if (arg.rfind("--duration-s=", 0) == 0 ||
               (arg == "--duration-s" && i + 1 < *argc)) {
      const std::string s = arg == "--duration-s" ? argv[++i] : arg.substr(13);
      flags.duration_s = ParseNonNegative("--duration-s", s);
    } else if (arg.rfind("--metrics-port=", 0) == 0 ||
               (arg == "--metrics-port" && i + 1 < *argc)) {
      const std::string port =
          arg == "--metrics-port" ? argv[++i] : arg.substr(15);
      flags.metrics_port = ParseNonNegative("--metrics-port", port);
      if (flags.metrics_port > 65535) {
        std::fprintf(stderr,
                     "stindex_server: --metrics-port expects a TCP port, "
                     "got '%s'\n",
                     port.c_str());
        std::exit(2);
      }
    } else if (arg.rfind("--port-file=", 0) == 0) {
      flags.port_file = arg.substr(12);
    } else if (arg == "--port-file" && i + 1 < *argc) {
      flags.port_file = argv[++i];
    } else if (arg.rfind("--publish-interval-s=", 0) == 0 ||
               (arg == "--publish-interval-s" && i + 1 < *argc)) {
      const std::string s =
          arg == "--publish-interval-s" ? argv[++i] : arg.substr(21);
      char* end = nullptr;
      flags.publish_interval_s = std::strtod(s.c_str(), &end);
      if (end == s.c_str() || *end != '\0' || flags.publish_interval_s <= 0.0) {
        std::fprintf(stderr,
                     "stindex_server: --publish-interval-s expects positive "
                     "seconds, got '%s'\n",
                     s.c_str());
        std::exit(2);
      }
    } else if (arg.rfind("--slow-query-ms=", 0) == 0 ||
               (arg == "--slow-query-ms" && i + 1 < *argc)) {
      const std::string ms =
          arg == "--slow-query-ms" ? argv[++i] : arg.substr(16);
      char* end = nullptr;
      flags.slow_query_ms = std::strtod(ms.c_str(), &end);
      if (end == ms.c_str() || *end != '\0' || flags.slow_query_ms < 0.0) {
        std::fprintf(stderr,
                     "stindex_server: --slow-query-ms expects non-negative "
                     "milliseconds, got '%s'\n",
                     ms.c_str());
        std::exit(2);
      }
    } else if (arg.rfind("--slow-log=", 0) == 0) {
      flags.slow_log_path = arg.substr(11);
    } else if (arg == "--slow-log" && i + 1 < *argc) {
      flags.slow_log_path = argv[++i];
    } else if (arg.rfind("--update-frac=", 0) == 0 ||
               (arg == "--update-frac" && i + 1 < *argc)) {
      const std::string frac =
          arg == "--update-frac" ? argv[++i] : arg.substr(14);
      char* end = nullptr;
      flags.update_frac = std::strtod(frac.c_str(), &end);
      if (end == frac.c_str() || *end != '\0' || flags.update_frac < 0.0 ||
          flags.update_frac >= 1.0) {
        std::fprintf(stderr,
                     "stindex_server: --update-frac expects a fraction in "
                     "[0, 1), got '%s'\n",
                     frac.c_str());
        std::exit(2);
      }
    } else {
      matched = false;
      argv[out++] = argv[i];
    }
    if (matched && !value.empty()) {
      char* end = nullptr;
      const long n = std::strtol(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0' || n <= 0) {
        std::fprintf(stderr,
                     "stindex_server: --stream expects a positive query "
                     "count, got '%s'\n",
                     value.c_str());
        std::exit(2);
      }
      flags.stream = static_cast<size_t>(n);
    }
  }
  *argc = out;
  return flags;
}

// Writes the registry's Prometheus text rendering to --prom=PATH (no-op
// without the flag); shared by every server mode.
void DumpProm(const ServerFlags& flags, MetricRegistry& registry) {
  if (flags.prom_path.empty()) return;
  const std::string text = RenderPrometheus(registry.Snapshot());
  std::ofstream out(flags.prom_path);
  out << text;
  if (!out.good()) {
    std::fprintf(stderr, "stindex_server: write to '%s' failed\n",
                 flags.prom_path.c_str());
    std::exit(1);
  }
  std::fprintf(stderr, "wrote %s\n", flags.prom_path.c_str());
}

// Alternates the two paper query mixes into one request stream, so
// neighboring requests from one client exercise different access
// patterns (like interleaved dashboard + drill-down traffic).
std::vector<STQuery> MakeRequestStream(const BenchScale& scale, size_t total) {
  const size_t half = (total + 1) / 2;
  const std::vector<STQuery> snapshots =
      MakeQueries(MixedSnapshotSet(), half);
  const std::vector<STQuery> ranges = MakeQueries(SmallRangeSet(), half);
  std::vector<STQuery> stream;
  stream.reserve(total);
  for (size_t i = 0; i < total; ++i) {
    const std::vector<STQuery>& set = i % 2 == 0 ? snapshots : ranges;
    stream.push_back(set[(i / 2) % set.size()]);
  }
  return stream;
}

// --- mixed update/query mode (--update-frac > 0) -------------------------
//
// Request i is an update when the Bresenham accumulator crosses an
// integer (so updates are spread evenly through the stream at the exact
// requested fraction). Updates are pulled in stream order from one
// shared cursor under a mutex — the live tier requires globally
// non-decreasing times — while queries fan out across all clients
// through the tier's readers-writer lock and shared pool. A Commit every
// `kCommitEvery` applied updates acknowledges the batch through the WAL.
void RunMixed(const BenchArgs& args, const ServerFlags& flags) {
  constexpr size_t kCommitEvery = 32;
  if (flags.pack_at > 0 && args.db_path.empty()) {
    std::fprintf(stderr, "stindex_server: --pack-at requires --db=DIR\n");
    std::exit(2);
  }
  const BenchScale scale = GetScale();
  const size_t n = scale.dataset_sizes.front();
  const size_t stream_size =
      flags.stream == 0 ? scale.query_count * 20 : flags.stream;
  std::printf(
      "stindex_server (scale=%s, clients=%d, backend=%s): %zu-request "
      "stream at update-frac %.2f over a live tier of %zu objects.\n",
      scale.name.c_str(), args.threads,
      args.backend.empty() ? "store" : args.backend.c_str(), stream_size,
      flags.update_frac, n);

  const std::vector<Trajectory> objects = MakeRandomDataset(n);
  const std::vector<LiveObservation> updates = MakeObservationStream(objects);
  const std::vector<STQuery> queries = MakeRequestStream(scale, stream_size);

  std::unique_ptr<PageBackend> wal;
  if (args.backend == "file") {
    Result<std::unique_ptr<FilePageBackend>> file =
        FilePageBackend::Create(args.db_path + "/stindex_server_wal.stpages");
    if (!file.ok()) {
      std::fprintf(stderr, "stindex_server: %s\n",
                   file.status().ToString().c_str());
      std::exit(1);
    }
    wal = std::move(file).value();
  } else {
    wal = std::make_unique<MemoryPageBackend>();
  }

  LiveTierOptions options;
  options.index.capacity = 32;  // seal eagerly so migration runs mid-bench
  options.query_pool_pages = args.buffer_pages;
  options.group_commit = flags.group_commit;
  options.commit_interval_us = flags.commit_interval_us;
  options.checkpoint_every_pages = flags.checkpoint_every;
  Result<std::unique_ptr<LiveTier>> opened =
      LiveTier::Open(options, std::move(wal));
  if (!opened.ok()) {
    std::fprintf(stderr, "stindex_server: %s\n",
                 opened.status().ToString().c_str());
    std::exit(1);
  }
  LiveTier* tier = opened.value().get();

  Report().SetParam("objects", static_cast<int64_t>(n));
  Report().SetParam("clients", static_cast<int64_t>(args.threads));
  Report().SetParam("stream", static_cast<int64_t>(stream_size));
  Report().SetParam("backend", args.backend.empty() ? "store" : args.backend);
  Report().SetParam("update_frac", flags.update_frac);
  Report().SetParam("group_commit",
                    static_cast<int64_t>(flags.group_commit ? 1 : 0));
  Report().SetParam("commit_interval_us", flags.commit_interval_us);
  Report().SetParam("checkpoint_every",
                    static_cast<int64_t>(flags.checkpoint_every));
  Report().SetParam("pack_at", static_cast<int64_t>(flags.pack_at));

  std::mutex update_mu;
  size_t update_cursor = 0;
  size_t updates_applied = 0;
  size_t updates_dropped = 0;  // update slots with no work: exhausted stream
  bool update_failed = false;
  bool pack_done = false;

  const size_t chunks = ParallelChunks(args.threads, stream_size);
  std::vector<Histogram> query_latency(chunks);
  std::vector<Histogram> update_latency(chunks);
  std::vector<uint64_t> chunk_results(chunks, 0);
  const auto wall_start = std::chrono::steady_clock::now();
  {
    TraceSpan span("bench", "server_mixed_replay");
    span.Arg("requests", static_cast<int64_t>(stream_size))
        .Arg("clients", static_cast<int64_t>(args.threads));
    ParallelFor(args.threads, stream_size,
                [&](size_t chunk, size_t begin, size_t end) {
                  for (size_t i = begin; i < end; ++i) {
                    const bool is_update =
                        static_cast<size_t>(static_cast<double>(i + 1) *
                                            flags.update_frac) >
                        static_cast<size_t>(static_cast<double>(i) *
                                            flags.update_frac);
                    const auto start = std::chrono::steady_clock::now();
                    if (is_update) {
                      bool applied = false;
                      bool commit_due = false;
                      {
                        std::lock_guard<std::mutex> lock(update_mu);
                        if (update_failed || update_cursor >= updates.size()) {
                          // No-op slot (latched tier / exhausted stream):
                          // nothing was applied, so nothing may land in the
                          // update-latency histogram.
                          ++updates_dropped;
                        } else {
                          const Status status =
                              tier->Apply(updates[update_cursor]);
                          if (!status.ok()) {
                            std::fprintf(stderr,
                                         "stindex_server: update: %s\n",
                                         status.ToString().c_str());
                            update_failed = true;
                          } else {
                            ++update_cursor;
                            applied = true;
                            commit_due =
                                ++updates_applied % kCommitEvery == 0;
                            if (flags.pack_at > 0 && !pack_done &&
                                updates_applied >= flags.pack_at) {
                              // Freeze the historical tree into a zero-copy
                              // snapshot layer mid-stream; queries keep
                              // running concurrently (PackHistorical takes
                              // the tier's writer lock itself).
                              pack_done = true;
                              const Status packed = tier->PackHistorical(
                                  args.db_path +
                                  "/stindex_server_hist.stsnap");
                              if (!packed.ok()) {
                                std::fprintf(stderr,
                                             "stindex_server: pack: %s\n",
                                             packed.ToString().c_str());
                                update_failed = true;
                              }
                            }
                          }
                        }
                      }
                      // Commit outside update_mu so concurrent committers
                      // coalesce through the group-commit leader instead of
                      // serializing on the apply lock.
                      if (applied && commit_due && !tier->Commit().ok()) {
                        std::lock_guard<std::mutex> lock(update_mu);
                        update_failed = true;
                      }
                      if (applied) {
                        const std::chrono::duration<double, std::milli> ms =
                            std::chrono::steady_clock::now() - start;
                        update_latency[chunk].Record(ms.count());
                      }
                    } else {
                      const STQuery& query = queries[i];
                      std::vector<ObjectId> results;
                      if (query.IsSnapshot()) {
                        tier->SnapshotQuery(query.area, query.range.start,
                                            &results);
                      } else {
                        tier->IntervalQuery(query.area, query.range, &results);
                      }
                      const std::chrono::duration<double, std::milli> ms =
                          std::chrono::steady_clock::now() - start;
                      query_latency[chunk].Record(ms.count());
                      chunk_results[chunk] += results.size();
                    }
                  }
                });
  }
  const std::chrono::duration<double> wall =
      std::chrono::steady_clock::now() - wall_start;
  if (update_failed) {
    std::fprintf(stderr, "stindex_server: update stream failed\n");
    std::exit(1);
  }
  const Status commit = tier->Commit();
  if (!commit.ok()) {
    std::fprintf(stderr, "stindex_server: final commit: %s\n",
                 commit.ToString().c_str());
    std::exit(1);
  }

  uint64_t result_rows = 0;
  for (size_t i = 0; i < chunks; ++i) result_rows += chunk_results[i];
  MetricRegistry& registry = MetricRegistry::Global();
  MergeShards(query_latency, registry.GetHistogram("io.query.latency_ms"));
  MergeShards(update_latency, registry.GetHistogram("live.update.latency_ms"));

  const double seconds = wall.count();
  const double qps =
      seconds > 0.0 ? static_cast<double>(stream_size) / seconds : 0.0;
  const double ups = seconds > 0.0
                         ? static_cast<double>(updates_applied) / seconds
                         : 0.0;
  const HistogramSnapshot latency =
      registry.GetHistogram("io.query.latency_ms")->Value().Snapshot();
  const HistogramSnapshot update_ms =
      registry.GetHistogram("live.update.latency_ms")->Value().Snapshot();
  PrintHeader("stindex_server: mixed update/query replay",
              "clients | qps        | updates/s  | q_p50_ms | u_p50_ms | "
              "segments | live | rows");
  char row[256];
  std::snprintf(row, sizeof(row),
                "%7d | %10.0f | %10.0f | %8.3f | %8.3f | %8zu | %4zu | %zu",
                args.threads, qps, ups, latency.p50, update_ms.p50,
                tier->migrated_segments().size(), tier->live_objects(),
                static_cast<size_t>(result_rows));
  PrintRow(row);

  if (updates_dropped > 0) {
    std::printf("  (%zu update slots dropped: stream exhausted)\n",
                updates_dropped);
  }

  Report().SetParam("updates_applied", static_cast<int64_t>(updates_applied));
  Report().SetParam("updates_dropped",
                    static_cast<int64_t>(updates_dropped));
  Report().SetParam("wal_checkpoints",
                    static_cast<int64_t>(tier->checkpoint_seq()));
  Report().SetParam("migrated_segments",
                    static_cast<int64_t>(tier->migrated_segments().size()));
  Report().SetParam("live_objects",
                    static_cast<int64_t>(tier->live_objects()));
  Report().SetParam("wal_commits", static_cast<int64_t>(tier->wal_commits()));
  Report().SetParam("frozen_layers",
                    static_cast<int64_t>(tier->frozen_layers()));
  Report().AddSample("qps", "overall", qps);
  Report().AddSample("updates_per_s", "overall", ups);
  Report().AddSample("latency_p50_ms", "overall", latency.p50);
  Report().AddSample("latency_p95_ms", "overall", latency.p95);
  Report().AddSample("latency_p99_ms", "overall", latency.p99);
  Report().AddSample("update_latency_p50_ms", "overall", update_ms.p50);
  Report().AddSample("result_rows", "overall",
                     static_cast<double>(result_rows));

  DumpProm(flags, registry);
}

void Run(const BenchArgs& args, const ServerFlags& flags) {
  const BenchScale scale = GetScale();
  const size_t n = scale.dataset_sizes.front();
  const size_t stream_size =
      flags.stream == 0 ? scale.query_count * 20 : flags.stream;
  const size_t buffer_pages = args.buffer_pages == 0 ? 64 : args.buffer_pages;
  std::printf("stindex_server (scale=%s, clients=%d, backend=%s): %zu-query "
              "mixed stream over a %zu-object PPR-tree, one shared "
              "%zu-page pool.\n",
              scale.name.c_str(), args.threads,
              args.backend.empty() ? "store" : args.backend.c_str(),
              stream_size, n, buffer_pages);

  const std::vector<Trajectory> objects = MakeRandomDataset(n);
  const std::vector<SegmentRecord> records =
      SplitWithLaGreedy(objects, 150, args.threads);
  const std::unique_ptr<PprTree> tree = BuildPprTree(records);
  AttachBenchBackend(tree.get(), args, "server");
  const std::vector<STQuery> stream = MakeRequestStream(scale, stream_size);

  const std::unique_ptr<SharedBufferPool> pool =
      tree->NewSharedQueryPool(buffer_pages);
  Report().SetParam("objects", static_cast<int64_t>(n));
  Report().SetParam("clients", static_cast<int64_t>(args.threads));
  Report().SetParam("stream", static_cast<int64_t>(stream_size));
  Report().SetParam("effective_buffer_pages",
                    static_cast<int64_t>(pool->capacity()));
  Report().SetParam("pool_shards", static_cast<int64_t>(pool->shard_count()));

  const size_t chunks = ParallelChunks(args.threads, stream.size());
  std::vector<IoStats> chunk_stats(chunks);
  std::vector<Histogram> latency_shards(chunks);
  std::vector<uint64_t> chunk_results(chunks, 0);
  const auto wall_start = std::chrono::steady_clock::now();
  {
    TraceSpan span("bench", "server_replay");
    span.Arg("requests", static_cast<int64_t>(stream.size()))
        .Arg("clients", static_cast<int64_t>(args.threads));
    ParallelFor(args.threads, stream.size(),
                [&](size_t chunk, size_t begin, size_t end) {
                  // Pass-through session: no per-query reset, stats
                  // mirror the shared pool's real hits and misses.
                  SharedBufferPool::Session session(pool.get(), 0);
                  Histogram& latency = latency_shards[chunk];
                  for (size_t q = begin; q < end; ++q) {
                    const STQuery& query = stream[q];
                    std::vector<PprDataId> results;
                    const auto start = std::chrono::steady_clock::now();
                    if (query.IsSnapshot()) {
                      tree->SnapshotQuery(query.area, query.range.start,
                                          &session, &results);
                    } else {
                      tree->IntervalQuery(query.area, query.range, &session,
                                          &results);
                    }
                    const std::chrono::duration<double, std::milli> elapsed =
                        std::chrono::steady_clock::now() - start;
                    latency.Record(elapsed.count());
                    chunk_results[chunk] += results.size();
                  }
                  chunk_stats[chunk] = session.stats();
                });
  }
  const std::chrono::duration<double> wall =
      std::chrono::steady_clock::now() - wall_start;

  IoStats total;
  uint64_t result_rows = 0;
  for (size_t i = 0; i < chunks; ++i) {
    total.accesses += chunk_stats[i].accesses;
    total.misses += chunk_stats[i].misses;
    result_rows += chunk_results[i];
  }
  MetricRegistry& registry = MetricRegistry::Global();
  registry.GetCounter("io.query.accesses")->Add(total.accesses);
  registry.GetCounter("io.query.misses")->Add(total.misses);
  MergeShards(latency_shards, registry.GetHistogram("io.query.latency_ms"));
  pool->PublishStats();

  const double seconds = wall.count();
  const double qps =
      seconds > 0.0 ? static_cast<double>(stream.size()) / seconds : 0.0;
  const HistogramSnapshot latency =
      registry.GetHistogram("io.query.latency_ms")->Value().Snapshot();
  PrintHeader("stindex_server: shared-pool replay",
              "clients | qps        | p50_ms  | p95_ms  | p99_ms  | "
              "miss_rate | rows");
  char row[256];
  std::snprintf(row, sizeof(row),
                "%7d | %10.0f | %7.3f | %7.3f | %7.3f | %9.4f | %zu",
                args.threads, qps, latency.p50, latency.p95, latency.p99,
                total.accesses == 0
                    ? 0.0
                    : static_cast<double>(total.misses) /
                          static_cast<double>(total.accesses),
                static_cast<size_t>(result_rows));
  PrintRow(row);
  Report().AddSample("qps", "overall", qps);
  Report().AddSample("latency_p50_ms", "overall", latency.p50);
  Report().AddSample("latency_p95_ms", "overall", latency.p95);
  Report().AddSample("latency_p99_ms", "overall", latency.p99);
  Report().AddSample("result_rows", "overall",
                     static_cast<double>(result_rows));

  DumpProm(flags, registry);
}

// --- soak mode (--soak) --------------------------------------------------
//
// A wall-clock-bounded endurance run for the telemetry plane: worker
// threads loop a mixed update/query workload over the live tier until
// the deadline while the exposition server serves /metrics, /healthz and
// /statusz live. Latencies record straight into the registry histograms
// (no determinism requirement here — soak output is wall-clock-shaped by
// definition), which is exactly what makes the sliding-window series
// move between scrapes. Queries at or above --slow-query-ms are captured
// with their full EXPLAIN profile into the slow-query ring.
void RunSoak(const BenchArgs& args, ServerFlags flags) {
  constexpr size_t kCommitEvery = 32;
  if (flags.update_frac == 0.0) flags.update_frac = 0.2;
  const BenchScale scale = GetScale();
  const size_t n = scale.dataset_sizes.front();
  std::printf(
      "stindex_server --soak (scale=%s, clients=%d, backend=%s): %llds "
      "mixed workload at update-frac %.2f over a live tier of %zu "
      "objects.\n",
      scale.name.c_str(), args.threads,
      args.backend.empty() ? "store" : args.backend.c_str(),
      static_cast<long long>(flags.duration_s), flags.update_frac, n);

  const std::vector<Trajectory> objects = MakeRandomDataset(n);
  const std::vector<LiveObservation> updates = MakeObservationStream(objects);
  const std::vector<STQuery> queries =
      MakeRequestStream(scale, scale.query_count * 4);

  std::unique_ptr<PageBackend> wal;
  if (args.backend == "file") {
    Result<std::unique_ptr<FilePageBackend>> file =
        FilePageBackend::Create(args.db_path + "/stindex_server_wal.stpages");
    if (!file.ok()) {
      std::fprintf(stderr, "stindex_server: %s\n",
                   file.status().ToString().c_str());
      std::exit(1);
    }
    wal = std::move(file).value();
  } else {
    wal = std::make_unique<MemoryPageBackend>();
  }

  LiveTierOptions options;
  options.index.capacity = 32;
  options.query_pool_pages = args.buffer_pages;
  options.group_commit = flags.group_commit;
  options.commit_interval_us = flags.commit_interval_us;
  options.checkpoint_every_pages = flags.checkpoint_every;
  Result<std::unique_ptr<LiveTier>> opened =
      LiveTier::Open(options, std::move(wal));
  if (!opened.ok()) {
    std::fprintf(stderr, "stindex_server: %s\n",
                 opened.status().ToString().c_str());
    std::exit(1);
  }
  LiveTier* tier = opened.value().get();

  SlowQueryLog slow_log(
      flags.slow_query_ms >= 0.0 ? flags.slow_query_ms : 0.0);
  const bool capture_slow = flags.slow_query_ms >= 0.0;
  if (capture_slow && !flags.slow_log_path.empty() &&
      !slow_log.OpenJsonlSink(flags.slow_log_path)) {
    std::fprintf(stderr, "stindex_server: cannot open slow log '%s'\n",
                 flags.slow_log_path.c_str());
    std::exit(1);
  }

  // The telemetry plane: healthz tracks the tier's WAL latch, statusz
  // carries the tier telemetry, pool occupancy and the slow-query ring.
  HttpExpositionServer exposition{[&flags] {
    HttpExpositionOptions opt;
    opt.port = static_cast<uint16_t>(
        flags.metrics_port < 0 ? 0 : flags.metrics_port);
    opt.epoch_seconds = 1.0;  // fine-grained window for short soaks
    opt.window_epochs = 30;
    return opt;
  }()};
  const bool serve = flags.metrics_port >= 0;
  if (serve) {
    exposition.set_health_check([tier](std::string* detail) {
      if (tier->latched()) {
        *detail = "live tier latched on a WAL I/O failure";
        return false;
      }
      return true;
    });
    exposition.set_status_source([tier, &slow_log](JsonWriter* json) {
      const LiveTier::Telemetry t = tier->GetTelemetry();
      json->Key("live").BeginObject();
      json->Key("latched").Bool(t.latched);
      json->Key("finished").Bool(t.finished);
      json->Key("objects").Uint(t.live_objects);
      json->Key("buffered_instants").Uint(t.buffered_instants);
      json->Key("pending_events").Uint(t.pending_events);
      json->Key("frozen_layers").Uint(t.frozen_layers);
      json->Key("watermark").Int(t.watermark);
      json->Key("last_time").Int(t.last_time);
      json->Key("watermark_lag").Int(t.last_time - t.watermark);
      json->Key("wal").BeginObject();
      json->Key("records").Uint(t.wal_records);
      json->Key("pages").Uint(t.wal_pages);
      json->Key("tail_pages").Uint(t.wal_tail_pages);
      json->Key("commits").Uint(t.wal_commits);
      json->Key("checkpoint_seq").Uint(t.checkpoint_seq);
      json->Key("seconds_since_checkpoint")
          .Double(t.seconds_since_checkpoint);
      json->EndObject();
      json->Key("pool_shards").BeginArray();
      for (const auto& shard : t.pool_shards) {
        json->BeginObject();
        json->Key("capacity").Uint(shard.capacity);
        json->Key("cached").Uint(shard.cached);
        json->Key("pinned").Uint(shard.pinned);
        json->EndObject();
      }
      json->EndArray();
      json->EndObject();
      json->Key("slow_queries");
      slow_log.RenderStatusz(json);
    });
    const Status started = exposition.Start();
    if (!started.ok()) {
      std::fprintf(stderr, "stindex_server: exposition: %s\n",
                   started.ToString().c_str());
      std::exit(1);
    }
    std::printf("  telemetry: http://127.0.0.1:%u/metrics (healthz, "
                "statusz)\n",
                exposition.port());
    if (!flags.port_file.empty()) {
      std::ofstream out(flags.port_file);
      out << exposition.port() << "\n";
      if (!out.good()) {
        std::fprintf(stderr, "stindex_server: write to '%s' failed\n",
                     flags.port_file.c_str());
        std::exit(1);
      }
    }
  }

  MetricRegistry& registry = MetricRegistry::Global();
  HistogramMetric* query_latency = registry.GetHistogram("io.query.latency_ms");
  HistogramMetric* update_latency =
      registry.GetHistogram("live.update.latency_ms");
  Counter* soak_queries = registry.GetCounter("soak.queries");
  Counter* soak_updates = registry.GetCounter("soak.updates");
  Counter* soak_slow = registry.GetCounter("soak.slow_queries");

  const auto wall_start = std::chrono::steady_clock::now();
  const auto deadline =
      wall_start + std::chrono::seconds(flags.duration_s);
  std::atomic<size_t> request_counter{0};
  std::atomic<uint64_t> result_rows{0};
  std::mutex update_mu;
  size_t update_cursor = 0;
  size_t updates_applied = 0;
  bool update_failed = false;

  const int workers = args.threads < 1 ? 1 : args.threads;
  std::vector<std::thread> pool;
  pool.reserve(static_cast<size_t>(workers));
  for (int w = 0; w < workers; ++w) {
    pool.emplace_back([&] {
      while (std::chrono::steady_clock::now() < deadline) {
        const size_t i =
            request_counter.fetch_add(1, std::memory_order_relaxed);
        // The same Bresenham slotting as RunMixed: request i is an
        // update when the accumulator crosses an integer.
        const bool is_update =
            static_cast<size_t>(static_cast<double>(i + 1) *
                                flags.update_frac) >
            static_cast<size_t>(static_cast<double>(i) * flags.update_frac);
        const auto start = std::chrono::steady_clock::now();
        if (is_update) {
          bool applied = false;
          bool commit_due = false;
          {
            std::lock_guard<std::mutex> lock(update_mu);
            // The observation stream is finite and must apply in time
            // order; once exhausted (or failed) update slots fall
            // through to queries below.
            if (!update_failed && update_cursor < updates.size()) {
              const Status status = tier->Apply(updates[update_cursor]);
              if (!status.ok()) {
                std::fprintf(stderr, "stindex_server: update: %s\n",
                             status.ToString().c_str());
                update_failed = true;
              } else {
                ++update_cursor;
                applied = true;
                commit_due = ++updates_applied % kCommitEvery == 0;
              }
            }
          }
          if (applied && commit_due && !tier->Commit().ok()) {
            std::lock_guard<std::mutex> lock(update_mu);
            update_failed = true;
          }
          if (applied) {
            const std::chrono::duration<double, std::milli> ms =
                std::chrono::steady_clock::now() - start;
            update_latency->Record(ms.count());
            soak_updates->Increment();
            continue;
          }
        }
        const STQuery& query = queries[i % queries.size()];
        std::vector<ObjectId> results;
        QueryProfile profile;
        QueryProfile* profile_ptr = capture_slow ? &profile : nullptr;
        if (query.IsSnapshot()) {
          tier->SnapshotQuery(query.area, query.range.start, &results,
                              profile_ptr);
        } else {
          tier->IntervalQuery(query.area, query.range, &results, profile_ptr);
        }
        const std::chrono::duration<double, std::milli> ms =
            std::chrono::steady_clock::now() - start;
        query_latency->Record(ms.count());
        soak_queries->Increment();
        result_rows.fetch_add(results.size(), std::memory_order_relaxed);
        if (capture_slow &&
            slow_log.MaybeRecord(ms.count(), query.IsSnapshot(), query.area,
                                 query.range, results.size(), profile)) {
          soak_slow->Increment();
        }
      }
    });
  }

  // The main thread is the publisher: every interval it pushes the
  // tier's state gauges into the registry (so scrapes see fresh values)
  // and prints one progress line of interval deltas.
  uint64_t last_queries = 0;
  uint64_t last_updates = 0;
  while (std::chrono::steady_clock::now() < deadline) {
    const auto interval_end =
        std::chrono::steady_clock::now() +
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::duration<double>(flags.publish_interval_s));
    std::this_thread::sleep_until(std::min(interval_end, deadline));
    tier->PublishGauges();
    const uint64_t q = soak_queries->Value();
    const uint64_t u = soak_updates->Value();
    const std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - wall_start;
    std::printf(
        "  t=%6.1fs  +%llu queries  +%llu updates  scrapes=%llu  slow=%llu\n",
        elapsed.count(), static_cast<unsigned long long>(q - last_queries),
        static_cast<unsigned long long>(u - last_updates),
        static_cast<unsigned long long>(exposition.scrapes()),
        static_cast<unsigned long long>(slow_log.captured()));
    std::fflush(stdout);
    last_queries = q;
    last_updates = u;
  }
  for (std::thread& worker : pool) worker.join();

  const std::chrono::duration<double> wall =
      std::chrono::steady_clock::now() - wall_start;
  if (update_failed) {
    std::fprintf(stderr, "stindex_server: update stream failed\n");
    std::exit(1);
  }
  const Status commit = tier->Commit();
  if (!commit.ok()) {
    std::fprintf(stderr, "stindex_server: final commit: %s\n",
                 commit.ToString().c_str());
    std::exit(1);
  }
  tier->PublishGauges();

  const double seconds = wall.count();
  const uint64_t total_queries = soak_queries->Value();
  const uint64_t total_updates = soak_updates->Value();
  const double qps =
      seconds > 0.0 ? static_cast<double>(total_queries) / seconds : 0.0;
  const double ups =
      seconds > 0.0 ? static_cast<double>(total_updates) / seconds : 0.0;
  const HistogramSnapshot latency = query_latency->Value().Snapshot();
  PrintHeader("stindex_server: soak",
              "clients | seconds | qps        | updates/s  | q_p50_ms | "
              "q_p99_ms | scrapes | slow");
  char row[256];
  std::snprintf(row, sizeof(row),
                "%7d | %7.1f | %10.0f | %10.0f | %8.3f | %8.3f | %7llu | %llu",
                workers, seconds, qps, ups, latency.p50, latency.p99,
                static_cast<unsigned long long>(exposition.scrapes()),
                static_cast<unsigned long long>(slow_log.captured()));
  PrintRow(row);

  Report().SetParam("objects", static_cast<int64_t>(n));
  Report().SetParam("clients", static_cast<int64_t>(workers));
  Report().SetParam("backend", args.backend.empty() ? "store" : args.backend);
  Report().SetParam("update_frac", flags.update_frac);
  Report().SetParam("duration_s", flags.duration_s);
  Report().SetParam("soak_queries", static_cast<int64_t>(total_queries));
  Report().SetParam("soak_updates", static_cast<int64_t>(total_updates));
  Report().SetParam("scrapes", static_cast<int64_t>(exposition.scrapes()));
  Report().SetParam("slow_queries",
                    static_cast<int64_t>(slow_log.captured()));
  Report().SetParam("wal_checkpoints",
                    static_cast<int64_t>(tier->checkpoint_seq()));
  Report().SetParam("wal_commits", static_cast<int64_t>(tier->wal_commits()));
  Report().AddSample("qps", "overall", qps);
  Report().AddSample("updates_per_s", "overall", ups);
  Report().AddSample("latency_p50_ms", "overall", latency.p50);
  Report().AddSample("latency_p95_ms", "overall", latency.p95);
  Report().AddSample("latency_p99_ms", "overall", latency.p99);
  Report().AddSample("result_rows", "overall",
                     static_cast<double>(
                         result_rows.load(std::memory_order_relaxed)));

  DumpProm(flags, registry);
  if (serve) exposition.Stop();
}

}  // namespace
}  // namespace bench
}  // namespace stindex

int main(int argc, char** argv) {
  stindex::bench::ServerFlags flags =
      stindex::bench::ExtractServerFlags(&argc, argv);
  const stindex::bench::BenchArgs args = stindex::bench::ParseBenchArgs(
      argc, argv, "stindex_server", /*accept_backend=*/true);
  if (flags.soak) {
    stindex::bench::RunSoak(args, flags);
  } else if (flags.update_frac > 0.0) {
    stindex::bench::RunMixed(args, flags);
  } else {
    stindex::bench::Run(args, flags);
  }
  stindex::bench::FinishReport(args);
  return 0;
}
