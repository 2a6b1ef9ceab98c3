// stindex_server — the end-to-end serving driver: `--threads` clients
// pull request indexes from one shared counter and serve them against
// one target until the stop condition holds.
//
//   Target.  --update-frac=0 (default) serves the LAGreedy-150% PPR-tree
//     of the scale's first dataset from --backend=memory|mmap (its arena,
//     or a snapshot packed under --db), behind one shared pool of
//     --buffer-pages frames (default 64: a warm cache, not the paper's
//     per-query reset), one pass-through Session per client.
//     --update-frac=F > 0 serves the crash-safe live tier: a fraction F
//     of the requests are movement updates, applied in stream order
//     through the WAL (a Commit every 32), the rest tiered queries.
//     --backend=memory|file keeps the WAL in memory or on a page file
//     under --db.
//   Stop.  --stream=N requests (default 20x the scale's query_count), or
//     --duration-s=S seconds of wall clock looping the request list.
//   Telemetry.  --metrics-port=P serves /metrics, /healthz and /statusz
//     on 127.0.0.1:P (0: ephemeral; --port-file=PATH gets the port).
//     --slow-query-ms=T captures queries at or above T ms (0: all) with
//     their EXPLAIN profile into the /statusz ring (--slow-log=PATH also
//     appends them as JSON lines). --prom=PATH dumps the registry.
//   Live tier.  --commit-interval=US: how long a commit leader waits for
//     joiners; --checkpoint-every=N: checkpoint and truncate the journal
//     every N flushed WAL pages; --pack-at=N: after N applied updates,
//     pack the historical tree into an mmap snapshot under --db, served
//     zero-copy as a frozen layer.
//
// Every 2 s the main thread publishes the target's gauges and prints a
// progress line; the report is the schema-v2 JSON of bench_report.h. A
// flag that cannot take effect in its run is a usage error (exit 2).
#include <algorithm>
#include <atomic>
#include <charconv>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
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
#include "util/trace.h"

namespace stindex {
namespace bench {
namespace {

using Clock = std::chrono::steady_clock;

constexpr size_t kCommitEvery = 32;  // applied updates per WAL commit
constexpr std::chrono::seconds kPublishInterval(2);

// Each takes a value, as `--flag=value` or `--flag value`.
constexpr const char* kServerFlags[] = {
    "--stream", "--duration-s", "--update-frac", "--commit-interval",
    "--checkpoint-every", "--pack-at", "--prom", "--metrics-port",
    "--port-file", "--slow-query-ms", "--slow-log"};

struct ServerFlags {
  std::map<std::string, std::string> given;  // flag -> value
  size_t stream = 0;            // 0: 20x the scale's query_count
  int64_t duration_s = 0;       // > 0: stop on wall clock instead
  double update_frac = 0.0;     // > 0: serve a live tier
  int64_t commit_interval_us = 0;
  size_t checkpoint_every = 0;  // flushed WAL pages between checkpoints
  size_t pack_at = 0;           // applied updates before the pack; 0: never
  int64_t metrics_port = -1;    // < 0: no HTTP plane
  double slow_query_ms = -1.0;  // < 0: no slow-query capture

  bool Given(const char* flag) const { return given.count(flag) > 0; }
};

[[noreturn]] void Exit(int status, const std::string& message) {
  std::fprintf(stderr, "stindex_server: %s\n", message.c_str());
  std::exit(status);
}

// The one value helper: `flag` parsed whole as a T in [min, max], or
// `fallback` when absent. Garbage, trailing characters, overflow and
// out-of-range values are usage errors naming the flag.
template <typename T>
T Value(const ServerFlags& flags, const char* flag, const char* expected,
        T fallback, T min, T max = std::numeric_limits<T>::max()) {
  if (!flags.Given(flag)) return fallback;
  const std::string& text = flags.given.at(flag);
  const char* last = text.data() + text.size();
  T x{};
  const auto [end, error] = std::from_chars(text.data(), last, x);
  if (error != std::errc() || end != last || !(x >= min && x <= max)) {
    Exit(2, std::string(flag) + " expects " + expected + ", got '" + text +
                "'");
  }
  return x;
}

// Splits the server flags off argv before ParseBenchArgs sees it
// (unknown arguments are a hard error there) and parses their values.
ServerFlags ExtractServerFlags(int* argc, char** argv) {
  ServerFlags flags;
  int out = 1;
  for (int i = 1; i < *argc; ++i) {
    const std::string arg = argv[i];
    const std::string flag = arg.substr(0, arg.find('='));
    if (std::find(std::begin(kServerFlags), std::end(kServerFlags), flag) ==
        std::end(kServerFlags)) {
      argv[out++] = argv[i];
    } else if (flag.size() < arg.size()) {
      flags.given[flag] = arg.substr(flag.size() + 1);
    } else if (i + 1 < *argc) {
      flags.given[flag] = argv[++i];
    } else {
      Exit(2, flag + " expects a value");
    }
  }
  *argc = out;
  flags.stream =
      Value<size_t>(flags, "--stream", "a positive request count", 0, 1);
  flags.duration_s = Value<int64_t>(flags, "--duration-s",
                                    "a positive number of seconds", 0, 1);
  flags.update_frac = Value(flags, "--update-frac", "a fraction in [0, 1)",
                            0.0, 0.0, std::nextafter(1.0, 0.0));
  flags.commit_interval_us = Value<int64_t>(
      flags, "--commit-interval", "non-negative microseconds", 0, 0);
  flags.checkpoint_every = Value<size_t>(flags, "--checkpoint-every",
                                         "a non-negative page count", 0, 0);
  flags.pack_at =
      Value<size_t>(flags, "--pack-at", "a positive update count", 0, 1);
  flags.metrics_port =
      Value<int64_t>(flags, "--metrics-port", "a TCP port", -1, 0, 65535);
  flags.slow_query_ms = Value(flags, "--slow-query-ms",
                              "non-negative milliseconds", -1.0, 0.0);
  return flags;
}

// Every flag must take effect in its run; one that cannot is a usage
// error rather than silently ignored.
void CheckFlagsTakeEffect(const ServerFlags& flags, const BenchArgs& args) {
  if (flags.update_frac == 0.0) {
    for (const char* flag :
         {"--commit-interval", "--checkpoint-every", "--pack-at"}) {
      if (flags.Given(flag)) {
        Exit(2, std::string(flag) +
                    " configures the live tier: it needs --update-frac > 0");
      }
    }
    if (args.backend == "file") {
      Exit(2, "--backend=file journals the live tier (--update-frac > 0); "
              "a read-only run serves its tree from --backend=memory|mmap");
    }
  } else if (args.backend == "mmap") {
    Exit(2, "--backend=mmap serves a packed read-only tree; a live run "
            "journals to --backend=memory|file (--pack-at adds a zero-copy "
            "layer)");
  }
  if (flags.Given("--stream") && flags.Given("--duration-s")) {
    Exit(2, "--stream and --duration-s are exclusive stop conditions");
  }
  for (const auto& [flag, needs] :
       {std::pair{"--port-file", "--metrics-port"},
        std::pair{"--slow-log", "--slow-query-ms"}}) {
    if (flags.Given(flag) && !flags.Given(needs)) {
      Exit(2, std::string(flag) + " needs " + needs);
    }
  }
  if (flags.Given("--pack-at") && args.db_path.empty()) {
    Exit(2, "--pack-at needs --db=DIR");
  }
}

// Alternates the two paper query mixes into one request stream, so
// neighboring requests from one client exercise different access
// patterns (like interleaved dashboard + drill-down traffic).
std::vector<STQuery> MakeRequestStream(size_t total) {
  const size_t half = (total + 1) / 2;
  const std::vector<STQuery> snapshots =
      MakeQueries(MixedSnapshotSet(), half);
  const std::vector<STQuery> ranges = MakeQueries(SmallRangeSet(), half);
  std::vector<STQuery> stream;
  for (size_t i = 0; i < total; ++i) {
    stream.push_back((i % 2 == 0 ? snapshots : ranges)[i / 2]);
  }
  return stream;
}

// Request i is an update when the Bresenham accumulator crosses an
// integer, which spreads updates evenly at exactly the requested share.
bool IsUpdateSlot(size_t i, double update_frac) {
  return static_cast<size_t>(static_cast<double>(i + 1) * update_frac) >
         static_cast<size_t>(static_cast<double>(i) * update_frac);
}

double MillisSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

// Runs one query against `index` — the live tier, or the tree through a
// client's `session` — and returns the number of results.
template <typename Id, typename Index, typename... Session>
size_t RunQuery(const Index& index, const STQuery& query,
                QueryProfile* profile, Session*... session) {
  std::vector<Id> results;
  if (query.IsSnapshot()) {
    index.SnapshotQuery(query.area, query.range.start, session..., &results,
                        profile);
  } else {
    index.IntervalQuery(query.area, query.range, session..., &results,
                        profile);
  }
  return results.size();
}

// What the clients serve: the read-only PPR-tree behind its shared pool,
// or the live tier.
struct Target {
  std::unique_ptr<PprTree> tree;
  std::unique_ptr<SharedBufferPool> pool;
  std::unique_ptr<LiveTier> tier;

  // Pushes the target's state gauges and pool counters to the registry.
  void Publish() const {
    tier ? tier->PublishGauges() : pool->PublishStats();
  }
  std::vector<SharedBufferPool::ShardOccupancy> PoolShards() const {
    return tier ? tier->GetTelemetry().pool_shards : pool->ShardOccupancies();
  }
  size_t Answer(const STQuery& query, SharedBufferPool::Session* session,
                QueryProfile* profile) const {
    return tier ? RunQuery<ObjectId>(*tier, query, profile)
                : RunQuery<PprDataId>(*tree, query, profile, session);
  }
};

Target OpenTree(const BenchArgs& args, const std::vector<Trajectory>& objects,
                size_t buffer_pages) {
  Target target;
  target.tree = BuildPprTree(SplitWithLaGreedy(objects, 150, args.threads));
  AttachBenchBackend(target.tree.get(), args, "server");
  target.pool = target.tree->NewSharedQueryPool(buffer_pages);
  return target;
}

Target OpenTier(const BenchArgs& args, const ServerFlags& flags,
                size_t buffer_pages) {
  std::unique_ptr<PageBackend> wal;
  if (args.backend == "file") {
    Result<std::unique_ptr<FilePageBackend>> file =
        FilePageBackend::Create(args.db_path + "/stindex_server_wal.stpages");
    if (!file.ok()) Exit(1, file.status().ToString());
    wal = std::move(file).value();
  } else {
    wal = std::make_unique<MemoryPageBackend>();
  }
  LiveTierOptions options;
  options.index.capacity = 32;  // seal eagerly so migration runs mid-run
  options.query_pool_pages = buffer_pages;
  options.commit_interval_us = flags.commit_interval_us;
  options.checkpoint_every_pages = flags.checkpoint_every;
  Result<std::unique_ptr<LiveTier>> opened =
      LiveTier::Open(options, std::move(wal));
  if (!opened.ok()) Exit(1, opened.status().ToString());
  return Target{nullptr, nullptr, std::move(opened).value()};
}

void WriteFile(const std::string& path, const std::string& text) {
  std::ofstream out(path);
  out << text;
  if (!out.good()) Exit(1, "write to '" + path + "' failed");
  std::fprintf(stderr, "wrote %s\n", path.c_str());
}

// Starts the telemetry plane: /healthz follows the tier's WAL latch (a
// read-only run is always healthy); /statusz carries the query pools'
// shard occupancy, the tier telemetry when there is a tier, and the
// slow-query ring.
std::unique_ptr<HttpExpositionServer> StartExposition(
    const ServerFlags& flags, const Target& target,
    const SlowQueryLog& slow_log) {
  HttpExpositionOptions options;
  options.port = static_cast<uint16_t>(flags.metrics_port);
  options.epoch_seconds = 1.0;  // fine-grained window for short runs
  options.window_epochs = 30;
  auto exposition = std::make_unique<HttpExpositionServer>(options);
  const LiveTier* tier = target.tier.get();
  exposition->set_health_check([tier](std::string* detail) {
    if (tier == nullptr || !tier->latched()) return true;
    *detail = "live tier latched on a WAL I/O failure";
    return false;
  });
  exposition->set_status_source([&target, tier, &slow_log](JsonWriter* json) {
    json->Key("pool_shards").BeginArray();
    for (const auto& shard : target.PoolShards()) {
      json->BeginObject();
      json->Key("capacity").Uint(shard.capacity);
      json->Key("cached").Uint(shard.cached);
      json->Key("pinned").Uint(shard.pinned);
      json->EndObject();
    }
    json->EndArray();
    if (tier != nullptr) {
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
      json->Key("slots").Uint(t.wal_slots);
      json->Key("free_slots").Uint(t.wal_free_slots);
      json->Key("checkpoint_seq").Uint(t.checkpoint_seq);
      json->Key("seconds_since_checkpoint")
          .Double(t.seconds_since_checkpoint);
      json->EndObject();
      json->EndObject();
    }
    json->Key("slow_queries");
    slow_log.RenderStatusz(json);
  });
  const Status started = exposition->Start();
  if (!started.ok()) Exit(1, "exposition: " + started.ToString());
  std::printf("  telemetry: http://127.0.0.1:%u/metrics (healthz, statusz)\n",
              exposition->port());
  if (flags.Given("--port-file")) {
    WriteFile(flags.given.at("--port-file"),
              std::to_string(exposition->port()) + "\n");
  }
  return exposition;
}

void Serve(const BenchArgs& args, const ServerFlags& flags) {
  const BenchScale scale = GetScale();
  const size_t n = scale.dataset_sizes.front();
  const bool live = flags.update_frac > 0.0;
  const bool timed = flags.duration_s > 0;
  const size_t stream_size =
      flags.stream == 0 ? scale.query_count * 20 : flags.stream;
  const size_t buffer_pages = args.buffer_pages == 0 ? 64 : args.buffer_pages;
  const std::string& backend = args.backend;
  const std::string stop = timed ? std::to_string(flags.duration_s) + "s"
                                 : std::to_string(stream_size) + "-request";
  std::printf(
      "stindex_server (scale=%s, clients=%d, backend=%s): %s mixed stream at "
      "update-frac %.2f over a %zu-object %s, one shared %zu-page pool.\n",
      scale.name.c_str(), args.threads, backend.c_str(), stop.c_str(),
      flags.update_frac, n, live ? "live tier" : "PPR-tree", buffer_pages);

  const std::vector<Trajectory> objects = MakeRandomDataset(n);
  const Target target = live ? OpenTier(args, flags, buffer_pages)
                             : OpenTree(args, objects, buffer_pages);
  const std::vector<LiveObservation> updates =
      live ? MakeObservationStream(objects) : std::vector<LiveObservation>();
  const std::vector<STQuery> requests = MakeRequestStream(stream_size);
  const size_t pool_shards = target.PoolShards().size();

  const bool capture_slow = flags.slow_query_ms >= 0.0;
  SlowQueryLog slow_log(capture_slow ? flags.slow_query_ms : 0.0);
  if (flags.Given("--slow-log") &&
      !slow_log.OpenJsonlSink(flags.given.at("--slow-log"))) {
    Exit(1, "cannot open slow log '" + flags.given.at("--slow-log") + "'");
  }
  std::unique_ptr<HttpExpositionServer> exposition;
  if (flags.metrics_port >= 0) {
    exposition = StartExposition(flags, target, slow_log);
  }
  auto scrapes = [&exposition] {
    return exposition ? exposition->scrapes() : uint64_t{0};
  };

  MetricRegistry& registry = MetricRegistry::Global();
  HistogramMetric* query_latency = registry.GetHistogram("io.query.latency_ms");
  HistogramMetric* update_latency =
      registry.GetHistogram("live.update.latency_ms");
  Counter* queries_served = registry.GetCounter("server.queries");
  Counter* updates_served = registry.GetCounter("server.updates");
  Counter* slow_captured = registry.GetCounter("server.slow_queries");
  Counter* io_accesses = registry.GetCounter("io.query.accesses");
  Counter* io_misses = registry.GetCounter("io.query.misses");

  // Updates apply in stream order under update_mu (the tier requires
  // globally non-decreasing times); queries fan out across all clients.
  std::mutex update_mu;
  size_t update_cursor = 0;
  size_t updates_applied = 0;
  size_t updates_dropped = 0;  // update slots served as queries instead
  Status update_status;        // the first failure stops all updates
  // Applies the next observation; false when there is none to apply
  // (exhausted stream, failed tier), so the slot serves a query.
  auto apply_next_update = [&] {
    const Clock::time_point start = Clock::now();
    bool commit_due = false;
    {
      std::lock_guard<std::mutex> lock(update_mu);
      if (!update_status.ok() || update_cursor >= updates.size()) {
        ++updates_dropped;
        return false;
      }
      update_status = target.tier->Apply(updates[update_cursor++]);
      if (!update_status.ok()) {
        ++updates_dropped;
        return false;
      }
      commit_due = ++updates_applied % kCommitEvery == 0;
      if (updates_applied == flags.pack_at) {
        // Freeze the historical tree into a zero-copy snapshot layer;
        // queries keep running (PackHistorical takes the tier's lock).
        update_status = target.tier->PackHistorical(
            args.db_path + "/stindex_server_hist.stsnap");
      }
    }
    // Commit outside update_mu, so concurrent committers coalesce into
    // one fsync instead of serializing on the apply lock.
    if (commit_due) {
      const Status committed = target.tier->Commit();
      std::lock_guard<std::mutex> lock(update_mu);
      if (update_status.ok()) update_status = committed;
    }
    update_latency->Record(MillisSince(start));
    updates_served->Increment();
    return true;
  };

  const int clients = args.threads;
  std::atomic<size_t> next_request{0};
  std::atomic<uint64_t> result_rows{0};
  std::mutex done_mu;
  std::condition_variable done_cv;
  int clients_done = 0;
  const Clock::time_point wall_start = Clock::now();
  const Clock::time_point deadline =
      wall_start + std::chrono::seconds(flags.duration_s);
  auto client = [&] {
    std::optional<SharedBufferPool::Session> session;
    if (target.pool) session.emplace(target.pool.get(), 0);
    while (true) {
      const size_t i = next_request.fetch_add(1, std::memory_order_relaxed);
      if (timed ? Clock::now() >= deadline : i >= stream_size) break;
      if (live && IsUpdateSlot(i, flags.update_frac) && apply_next_update()) {
        continue;
      }
      const Clock::time_point start = Clock::now();
      const STQuery& query = requests[i % requests.size()];
      QueryProfile profile;
      const size_t rows = target.Answer(query, session ? &*session : nullptr,
                                        capture_slow ? &profile : nullptr);
      const double ms = MillisSince(start);
      query_latency->Record(ms);
      queries_served->Increment();
      result_rows.fetch_add(rows, std::memory_order_relaxed);
      if (capture_slow &&
          slow_log.MaybeRecord(ms, query.IsSnapshot(), query.area,
                               query.range, rows, profile)) {
        slow_captured->Increment();
      }
    }
    if (session) {
      io_accesses->Add(session->stats().accesses);
      io_misses->Add(session->stats().misses);
    }
    std::lock_guard<std::mutex> lock(done_mu);
    ++clients_done;
    done_cv.notify_all();
  };

  std::vector<std::thread> threads;
  {
    TraceSpan span("bench", "server_serve");
    span.Arg("clients", static_cast<int64_t>(clients));
    for (int c = 0; c < clients; ++c) threads.emplace_back(client);
    // The main thread is the publisher: every interval it pushes fresh
    // gauges (so scrapes see current values) and prints one progress
    // line of interval deltas, until the clients stop.
    uint64_t last_queries = 0;
    uint64_t last_updates = 0;
    std::unique_lock<std::mutex> lock(done_mu);
    while (!done_cv.wait_for(lock, kPublishInterval,
                             [&] { return clients_done == clients; })) {
      lock.unlock();
      target.Publish();
      const uint64_t q = queries_served->Value();
      const uint64_t u = updates_served->Value();
      std::printf("  t=%6.1fs  +%" PRIu64 " queries  +%" PRIu64
                  " updates  scrapes=%" PRIu64 "  slow=%" PRIu64 "\n",
                  MillisSince(wall_start) / 1000.0, q - last_queries,
                  u - last_updates, scrapes(), slow_log.captured());
      std::fflush(stdout);
      last_queries = q;
      last_updates = u;
      lock.lock();
    }
  }
  for (std::thread& thread : threads) thread.join();
  const double seconds = MillisSince(wall_start) / 1000.0;

  if (live && update_status.ok()) update_status = target.tier->Commit();
  if (!update_status.ok()) Exit(1, "updates: " + update_status.ToString());
  target.Publish();

  const uint64_t queries = queries_served->Value();
  const uint64_t rows = result_rows.load(std::memory_order_relaxed);
  const double qps = static_cast<double>(queries) / seconds;
  const double ups = static_cast<double>(updates_applied) / seconds;
  const HistogramSnapshot latency = query_latency->Value().Snapshot();
  const HistogramSnapshot update_ms = update_latency->Value().Snapshot();
  const double miss_rate =
      static_cast<double>(io_misses->Value()) /
      static_cast<double>(std::max<uint64_t>(io_accesses->Value(), 1));
  PrintHeader("stindex_server",
              "clients | seconds | qps        | updates/s  | q_p50_ms | "
              "q_p99_ms | u_p50_ms | miss_rate | rows");
  char row[256];
  std::snprintf(row, sizeof(row),
                "%7d | %7.2f | %10.0f | %10.0f | %8.3f | %8.3f | %8.3f | "
                "%9.4f | %" PRIu64,
                clients, seconds, qps, ups, latency.p50, latency.p99,
                update_ms.p50, miss_rate, rows);
  PrintRow(row);
  if (updates_dropped > 0) {
    std::printf("  (%zu update slots served as queries: stream exhausted)\n",
                updates_dropped);
  }

  BenchReport& report = Report();
  auto count = [&report](const char* name, uint64_t value) {
    report.SetParam(name, static_cast<int64_t>(value));
  };
  count("objects", n);
  count("clients", static_cast<uint64_t>(clients));
  report.SetParam("backend", backend);
  count(timed ? "duration_s" : "stream",
        timed ? static_cast<uint64_t>(flags.duration_s) : stream_size);
  count("effective_buffer_pages", buffer_pages);
  count("pool_shards", pool_shards);
  report.SetParam("update_frac", flags.update_frac);
  count("queries", queries);
  count("updates_applied", updates_applied);
  count("updates_dropped", updates_dropped);
  count("scrapes", scrapes());
  count("slow_queries", slow_log.captured());
  if (live) {
    const LiveTier& tier = *target.tier;
    report.SetParam("commit_interval_us", flags.commit_interval_us);
    count("checkpoint_every", flags.checkpoint_every);
    count("pack_at", flags.pack_at);
    count("wal_commits", tier.wal_commits());
    count("wal_checkpoints", tier.checkpoint_seq());
    count("migrated_segments", tier.migrated_segments().size());
    count("live_objects", tier.live_objects());
    count("frozen_layers", tier.frozen_layers());
  }
  report.AddSample("qps", "overall", qps);
  report.AddSample("updates_per_s", "overall", ups);
  report.AddSample("latency_p50_ms", "overall", latency.p50);
  report.AddSample("latency_p95_ms", "overall", latency.p95);
  report.AddSample("latency_p99_ms", "overall", latency.p99);
  report.AddSample("update_latency_p50_ms", "overall", update_ms.p50);
  report.AddSample("result_rows", "overall", static_cast<double>(rows));

  if (flags.Given("--prom")) {
    WriteFile(flags.given.at("--prom"), RenderPrometheus(registry.Snapshot()));
  }
  if (exposition) exposition->Stop();
}

}  // namespace
}  // namespace bench
}  // namespace stindex

int main(int argc, char** argv) {
  const stindex::bench::ServerFlags flags =
      stindex::bench::ExtractServerFlags(&argc, argv);
  const stindex::bench::BenchArgs args = stindex::bench::ParseBenchArgs(
      argc, argv, "stindex_server", "memory|file|mmap");
  stindex::bench::CheckFlagsTakeEffect(flags, args);
  stindex::bench::Serve(args, flags);
  stindex::bench::FinishReport(args);
  return 0;
}
