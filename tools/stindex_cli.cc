// stindex_cli — command-line front end for the library: generate
// datasets, split them, build indexes, and run query sets, passing data
// between steps as CSV files.
//
//   stindex_cli generate --family random --n 2000 --out objects.csv
//   stindex_cli split    --in objects.csv --budget-percent 150
//                        --algo lagreedy --out segments.csv
//   stindex_cli queries  --set small-range --count 200 --out queries.csv
//   stindex_cli stats    --segments segments.csv --index ppr
//   stindex_cli query    --segments segments.csv --queries queries.csv
//                        --index ppr
//   stindex_cli advise   --in objects.csv --set small-range
//
// Every command additionally accepts --stats FILE, which dumps the
// process metrics registry (buffer I/O, tree build events, pipeline
// phase times) after a successful run — as JSON by default, or as
// Prometheus text exposition with --stats-format prom. The query command
// also supports --explain (per-level EXPLAIN profile), --objects FILE
// (exact-geometry refinement / false-hit counting) and --trace FILE
// (Chrome trace capture of build and query spans).
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "core/distribute.h"
#include "core/piecewise_split.h"
#include "core/split_pipeline.h"
#include "datagen/clustered_dataset.h"
#include "datagen/query_gen.h"
#include "datagen/railway.h"
#include "datagen/random_dataset.h"
#include "hrtree/hr_tree.h"
#include "io/csv.h"
#include "live/live_tier.h"
#include "model/split_advisor.h"
#include "pprtree/ppr_tree.h"
#include "rstar/rstar_tree.h"
#include "core/query_profile.h"
#include "storage/file_backend.h"
#include "storage/page_backend.h"
#include "storage/shared_buffer_pool.h"
#include "util/json_writer.h"
#include "util/metrics.h"
#include "util/prom_writer.h"
#include "util/threads.h"
#include "util/trace.h"

namespace stindex {
namespace cli {
namespace {

class Flags {
 public:
  Flags(int argc, char** argv, int first) {
    for (int i = first; i < argc; ++i) {
      std::string key = argv[i];
      if (key.rfind("--", 0) != 0) {
        std::fprintf(stderr, "unexpected argument '%s'\n", key.c_str());
        std::exit(2);
      }
      key.erase(0, 2);
      if (IsBoolean(key)) {
        values_[key] = std::string("1");
        continue;
      }
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for --%s\n", key.c_str());
        std::exit(2);
      }
      values_[key] = argv[++i];
    }
  }

  // Presence flags that take no value.
  static bool IsBoolean(const std::string& key) {
    return key == "explain";
  }

  bool GetBool(const std::string& key) { return Get(key, "") == "1"; }

  std::string Get(const std::string& key, const std::string& fallback) {
    used_.insert(key);
    auto it = values_.find(key);
    return it == values_.end() ? fallback : it->second;
  }

  std::string Require(const std::string& key) {
    used_.insert(key);
    auto it = values_.find(key);
    if (it == values_.end()) {
      std::fprintf(stderr, "missing required flag --%s\n", key.c_str());
      std::exit(2);
    }
    return it->second;
  }

  // An integer flag: non-numeric input, trailing garbage, overflow and
  // values below `min` are usage errors (exit 2, naming the flag), never
  // a silent fallback.
  int64_t GetInt(const std::string& key, int64_t fallback,
                 int64_t min = std::numeric_limits<int64_t>::min()) {
    const std::string value = Get(key, std::to_string(fallback));
    errno = 0;
    char* end = nullptr;
    const long long n = std::strtoll(value.c_str(), &end, 10);
    if (end == value.c_str() || *end != '\0') {
      std::fprintf(stderr, "--%s: '%s' is not an integer\n", key.c_str(),
                   value.c_str());
      std::exit(2);
    }
    if (errno == ERANGE) {
      std::fprintf(stderr, "--%s: %s is out of range\n", key.c_str(),
                   value.c_str());
      std::exit(2);
    }
    if (n < min) {
      std::fprintf(stderr, "--%s: %s is below the minimum %lld\n",
                   key.c_str(), value.c_str(), static_cast<long long>(min));
      std::exit(2);
    }
    return static_cast<int64_t>(n);
  }

  // A count or size: GetInt with negative values rejected.
  size_t GetCount(const std::string& key, size_t fallback) {
    return static_cast<size_t>(
        GetInt(key, static_cast<int64_t>(fallback), 0));
  }

  void RejectUnknown() const {
    for (const auto& [key, value] : values_) {
      if (used_.find(key) == used_.end()) {
        std::fprintf(stderr, "unknown flag --%s\n", key.c_str());
        std::exit(2);
      }
    }
  }

 private:
  std::map<std::string, std::string> values_;
  mutable std::set<std::string> used_;
};

void Die(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  std::exit(1);
}

// Shared thread-count resolution: --threads flag > STINDEX_THREADS > 1.
// Bad values from either source are fatal, never silently replaced.
int ResolveThreadsOrDie(Flags& flags) {
  const Result<int> threads = ResolveThreadCount(flags.Get("threads", ""));
  if (!threads.ok()) Die(threads.status());
  return threads.value();
}

// Writes the process metrics registry to `path` — as JSON mirroring the
// "metrics" section of the bench report schema (bench/bench_report.h), or
// as Prometheus text exposition (util/prom_writer.h).
void DumpMetrics(const std::string& path, const std::string& format) {
  // GetCounter registers on first use, so trace.dropped_events (and with
  // it the health of the trace ring) always appears in --stats dumps,
  // even for runs that never traced.
  MetricRegistry::Global().GetCounter("trace.dropped_events");
  const MetricsSnapshot metrics = MetricRegistry::Global().Snapshot();
  std::string document;
  if (format == "prom") {
    document = RenderPrometheus(metrics);
  } else {
    JsonWriter json;
    json.BeginObject();
    json.Key("counters").BeginObject();
    for (const auto& [name, value] : metrics.counters) {
      json.Key(name).Uint(value);
    }
    json.EndObject();
    json.Key("gauges").BeginObject();
    for (const auto& [name, value] : metrics.gauges) {
      json.Key(name).Int(value);
    }
    json.EndObject();
    json.Key("histograms").BeginObject();
    for (const auto& [name, snapshot] : metrics.histograms) {
      json.Key(name).BeginObject();
      json.Key("count").Uint(snapshot.count);
      json.Key("sum").Double(snapshot.sum);
      json.Key("min").Double(snapshot.min);
      json.Key("max").Double(snapshot.max);
      json.Key("p50").Double(snapshot.p50);
      json.Key("p90").Double(snapshot.p90);
      json.Key("p95").Double(snapshot.p95);
      json.Key("p99").Double(snapshot.p99);
      json.EndObject();
    }
    json.EndObject();
    json.EndObject();
    document = json.str() + "\n";
  }
  std::ofstream out(path);
  out << document;
  if (!out) {
    Die(Status::FailedPrecondition("cannot write stats file: " + path));
  }
  std::fprintf(stderr, "wrote metrics to %s\n", path.c_str());
}

std::vector<Trajectory> LoadObjects(const std::string& path) {
  Result<std::vector<Trajectory>> result = ReadTrajectoriesCsv(path);
  if (!result.ok()) Die(result.status());
  return std::move(result).value();
}

std::vector<SegmentRecord> LoadSegments(const std::string& path) {
  Result<std::vector<SegmentRecord>> result = ReadSegmentsCsv(path);
  if (!result.ok()) Die(result.status());
  return std::move(result).value();
}

// Backend selection for `query`: --backend memory|mmap plus --db DIR.
// "memory" (the default) queries the tree's own arena of node pages;
// "mmap" packs the tree into a read-only snapshot file under --db and
// serves it zero-copy, so buffer misses are served by the mapped file.
// Returns the validated backend name.
std::string GetBackendFlags(Flags& flags, std::string* db_path) {
  const std::string backend = flags.Get("backend", "memory");
  *db_path = flags.Get("db", "");
  if (backend != "memory" && backend != "mmap") {
    std::fprintf(stderr, "--backend must be memory|mmap, got '%s'\n",
                 backend.c_str());
    std::exit(2);
  }
  if (backend == "mmap" && db_path->empty()) {
    std::fprintf(stderr, "--backend %s requires --db DIR\n", backend.c_str());
    std::exit(2);
  }
  return backend;
}

QuerySetConfig NamedQuerySet(const std::string& name) {
  if (name == "tiny") return TinySnapshotSet();
  if (name == "small") return SmallSnapshotSet();
  if (name == "mixed") return MixedSnapshotSet();
  if (name == "large") return LargeSnapshotSet();
  if (name == "small-range") return SmallRangeSet();
  if (name == "medium-range") return MediumRangeSet();
  std::fprintf(stderr,
               "unknown query set '%s' (tiny|small|mixed|large|small-range|"
               "medium-range)\n",
               name.c_str());
  std::exit(2);
}

int CmdGenerate(Flags& flags) {
  const std::string family = flags.Get("family", "random");
  const size_t n = flags.GetCount("n", 10000);
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 42));
  const Time domain = flags.GetInt("time-domain", 1000, 0);
  const std::string out = flags.Require("out");
  flags.RejectUnknown();

  std::vector<Trajectory> objects;
  if (family == "random") {
    RandomDatasetConfig config;
    config.num_objects = n;
    config.seed = seed;
    config.time_domain = domain;
    objects = GenerateRandomDataset(config);
  } else if (family == "railway") {
    RailwayDatasetConfig config;
    config.num_trains = n;
    config.seed = seed;
    config.time_domain = domain;
    objects = GenerateRailwayDataset(config);
  } else if (family == "clustered") {
    ClusteredDatasetConfig config;
    config.num_objects = n;
    config.seed = seed;
    config.time_domain = domain;
    objects = GenerateClusteredDataset(config);
  } else {
    std::fprintf(stderr,
                 "unknown family '%s' (random|railway|clustered)\n",
                 family.c_str());
    return 2;
  }
  const Status status = WriteTrajectoriesCsv(out, objects);
  if (!status.ok()) Die(status);
  const DatasetStats stats = ComputeDatasetStats(objects, domain);
  std::printf("wrote %zu objects (%zu segments, avg lifetime %.1f) to %s\n",
              stats.total_objects, stats.total_segments, stats.avg_lifetime,
              out.c_str());
  return 0;
}

int CmdSplit(Flags& flags) {
  const std::string in = flags.Require("in");
  const std::string out = flags.Require("out");
  const int64_t percent = flags.GetInt("budget-percent", 150, 0);
  const std::string algo = flags.Get("algo", "lagreedy");
  const std::string method_name = flags.Get("method", "merge");
  // The split pipeline is deterministic at any thread count, so --threads
  // only changes wall-clock time, never the written segments.
  const int threads = ResolveThreadsOrDie(flags);
  flags.RejectUnknown();

  const std::vector<Trajectory> objects = LoadObjects(in);
  const SplitMethod method =
      method_name == "dp" ? SplitMethod::kDp : SplitMethod::kMerge;
  std::vector<SegmentRecord> records;
  if (percent == 0) {
    records = BuildUnsplitSegments(objects, threads);
  } else {
    const std::vector<VolumeCurve> curves =
        ComputeVolumeCurves(objects, 128, method, threads);
    const int64_t budget =
        static_cast<int64_t>(objects.size()) * percent / 100;
    Distribution dist;
    if (algo == "greedy") {
      dist = DistributeGreedy(curves, budget, threads);
    } else if (algo == "optimal") {
      dist = DistributeOptimal(curves, budget);
    } else if (algo == "lagreedy") {
      dist = DistributeLAGreedy(curves, budget, threads);
    } else {
      std::fprintf(stderr, "unknown algo '%s' (lagreedy|greedy|optimal)\n",
                   algo.c_str());
      return 2;
    }
    records = BuildSegments(objects, dist.splits, method, threads);
    std::printf("distributed %lld splits, total volume %.6f\n",
                static_cast<long long>(dist.TotalSplits()),
                dist.total_volume);
  }
  const Status status = WriteSegmentsCsv(out, records);
  if (!status.ok()) Die(status);
  std::printf("wrote %zu segment records to %s\n", records.size(),
              out.c_str());
  return 0;
}

int CmdPiecewise(Flags& flags) {
  const std::string in = flags.Require("in");
  const std::string out = flags.Require("out");
  flags.RejectUnknown();
  const std::vector<Trajectory> objects = LoadObjects(in);
  int64_t splits = 0;
  const std::vector<SegmentRecord> records =
      PiecewiseSplitAll(objects, &splits);
  const Status status = WriteSegmentsCsv(out, records);
  if (!status.ok()) Die(status);
  std::printf("piecewise split used %lld splits; wrote %zu records to %s\n",
              static_cast<long long>(splits), records.size(), out.c_str());
  return 0;
}

int CmdQueries(Flags& flags) {
  QuerySetConfig config = NamedQuerySet(flags.Get("set", "small"));
  config.count = flags.GetCount("count", 1000);
  config.time_domain = flags.GetInt("time-domain", 1000, 0);
  const std::string out = flags.Require("out");
  flags.RejectUnknown();
  const std::vector<STQuery> queries = GenerateQuerySet(config);
  const Status status = WriteQueriesCsv(out, queries);
  if (!status.ok()) Die(status);
  std::printf("wrote %zu '%s' queries to %s\n", queries.size(),
              config.name.c_str(), out.c_str());
  return 0;
}

int CmdStats(Flags& flags) {
  const std::string path = flags.Require("segments");
  const std::string index = flags.Get("index", "ppr");
  const Time domain = flags.GetInt("time-domain", 1000, 0);
  flags.RejectUnknown();
  const std::vector<SegmentRecord> records = LoadSegments(path);
  std::printf("%zu segment records, total volume %.6f\n", records.size(),
              TotalVolume(records));
  if (index == "ppr") {
    const std::unique_ptr<PprTree> tree = BuildPprTree(records);
    std::printf("ppr: %zu pages, %zu root eras, %zu alive at end\n",
                tree->PageCount(), tree->NumRoots(), tree->AliveCount());
  } else if (index == "rstar") {
    RStarTree tree;
    const std::vector<Box3D> boxes = SegmentsToBoxes(records, 0, domain);
    for (size_t i = 0; i < boxes.size(); ++i) {
      tree.Insert(boxes[i], static_cast<DataId>(i));
    }
    std::printf("rstar: %zu pages, height %zu\n", tree.PageCount(),
                tree.Height());
  } else if (index == "hr") {
    const std::unique_ptr<HrTree> tree = BuildHrTree(records);
    std::printf("hr: %zu pages, %zu versions\n", tree->PageCount(),
                tree->NumVersions());
  } else {
    std::fprintf(stderr, "unknown index '%s' (ppr|rstar|hr)\n",
                 index.c_str());
    return 2;
  }
  return 0;
}

int CmdQuery(Flags& flags) {
  const std::string segments_path = flags.Require("segments");
  const std::string queries_path = flags.Require("queries");
  const std::string index = flags.Get("index", "ppr");
  const Time domain = flags.GetInt("time-domain", 1000, 0);
  const bool explain = flags.GetBool("explain");
  const std::string trace_path = flags.Get("trace", "");
  const std::string objects_path = flags.Get("objects", "");
  // Total LRU capacity of the query buffer in pages; 0 keeps the tree's
  // configured default (the paper's 10-page protocol).
  const size_t buffer_pages = flags.GetCount("buffer-pages", 0);
  std::string db_path;
  const std::string backend = GetBackendFlags(flags, &db_path);
  flags.RejectUnknown();
  if (index == "hr" && buffer_pages != 0) {
    std::fprintf(stderr,
                 "--buffer-pages is only supported for ppr and rstar\n");
    return 2;
  }
  if (backend != "memory" && index == "hr") {
    std::fprintf(stderr, "--backend %s: the hr index only supports its "
                 "in-memory arena\n", backend.c_str());
    return 2;
  }
  if (index == "hr" && (explain || !objects_path.empty())) {
    std::fprintf(stderr,
                 "--explain/--objects are only supported for ppr and rstar\n");
    return 2;
  }

  const std::vector<SegmentRecord> records = LoadSegments(segments_path);
  Result<std::vector<STQuery>> queries_result =
      ReadQueriesCsv(queries_path);
  if (!queries_result.ok()) Die(queries_result.status());
  const std::vector<STQuery>& queries = queries_result.value();

  // --objects supplies the original trajectories so candidates can be
  // refined against exact per-instant rectangles (false-hit counting).
  std::vector<Trajectory> objects;
  std::unique_ptr<FalseHitRefiner> refiner;
  if (!objects_path.empty()) {
    objects = LoadObjects(objects_path);
    refiner = std::make_unique<FalseHitRefiner>(objects, records);
  }
  QueryProfile profile;
  QueryProfile* profile_ptr =
      (explain || refiner != nullptr) ? &profile : nullptr;

  // Start tracing before the build so index-construction spans land in
  // the capture alongside the query spans.
  if (!trace_path.empty()) TraceSession::Start();

  uint64_t misses = 0;
  uint64_t hits_total = 0;
  if (index == "ppr") {
    const std::unique_ptr<PprTree> ppr = BuildPprTree(records);
    if (backend == "mmap") {
      const Status status =
          ppr->PackSnapshot(db_path + "/query_ppr.stsnap");
      if (!status.ok()) Die(status);
    }
    const std::unique_ptr<SharedBufferPool> pool =
        ppr->NewSharedQueryPool(buffer_pages);
    SharedBufferPool::Session session(pool.get(), pool->capacity());
    for (const STQuery& query : queries) {
      session.ResetCache();
      session.ResetStats();
      std::vector<PprDataId> out;
      if (query.IsSnapshot()) {
        ppr->SnapshotQuery(query.area, query.range.start, &session, &out,
                           profile_ptr);
      } else {
        ppr->IntervalQuery(query.area, query.range, &session, &out,
                           profile_ptr);
      }
      if (refiner != nullptr) refiner->CountFalseHits(out, query, profile_ptr);
      misses += session.stats().misses;
      hits_total += out.size();
    }
  } else if (index == "hr") {
    const std::unique_ptr<HrTree> hr = BuildHrTree(records);
    for (const STQuery& query : queries) {
      hr->ResetQueryState();
      std::vector<HrDataId> out;
      if (query.IsSnapshot()) {
        hr->SnapshotQuery(query.area, query.range.start, &out);
      } else {
        hr->IntervalQuery(query.area, query.range, &out);
      }
      misses += hr->stats().misses;
      hits_total += out.size();
    }
  } else if (index == "rstar") {
    RStarTree tree;
    const std::vector<Box3D> boxes = SegmentsToBoxes(records, 0, domain);
    for (size_t i = 0; i < boxes.size(); ++i) {
      tree.Insert(boxes[i], static_cast<DataId>(i));
    }
    if (backend == "mmap") {
      const Status status =
          tree.PackSnapshot(db_path + "/query_rstar.stsnap");
      if (!status.ok()) Die(status);
    }
    const std::unique_ptr<SharedBufferPool> pool =
        tree.NewSharedQueryPool(buffer_pages);
    SharedBufferPool::Session session(pool.get(), pool->capacity());
    for (const STQuery& query : queries) {
      session.ResetCache();
      session.ResetStats();
      std::vector<DataId> out;
      tree.Search(QueryToBox(query, 0, domain), &session, &out, profile_ptr);
      if (refiner != nullptr) refiner->CountFalseHits(out, query, profile_ptr);
      misses += session.stats().misses;
      hits_total += out.size();
    }
  } else {
    std::fprintf(stderr, "unknown index '%s' (ppr|rstar|hr)\n",
                 index.c_str());
    return 2;
  }

  if (!trace_path.empty()) {
    TraceSession::Stop();
    const Status status = TraceSession::WriteChromeTrace(trace_path);
    if (!status.ok()) Die(status);
    std::fprintf(stderr, "wrote %zu trace events to %s\n",
                 TraceSession::CollectedEvents().size(), trace_path.c_str());
  }
  if (refiner != nullptr) {
    MetricRegistry::Global().GetCounter("io.query.false_hits")
        ->Add(profile.false_hits);
  }
  std::printf("%zu queries: avg %.2f disk accesses, avg %.2f hits\n",
              queries.size(),
              static_cast<double>(misses) /
                  static_cast<double>(queries.size()),
              static_cast<double>(hits_total) /
                  static_cast<double>(queries.size()));
  if (explain) {
    std::fputs(profile.ToTable().c_str(), stdout);
    if (refiner == nullptr) {
      std::printf("  (pass --objects FILE to refine candidates and count "
                  "false hits)\n");
    }
  }
  return 0;
}

// Streams a trajectory dataset through the crash-safe live ingestion
// tier, journaling onto a page file under --db. The WAL is opened if it
// already exists (recovery) and created only if no file is there, and
// absorbed updates are detected and skipped — so re-running the same
// ingest after a crash or a completed run is idempotent and converges to
// the same index. A file there that is not a journal is an error, and is
// left as it is.
// --capacity/--duration/--buffer mirror LIT's -c/-d/-b sealing knobs.
int CmdIngest(Flags& flags) {
  const std::string in = flags.Require("in");
  const std::string db = flags.Require("db");
  LiveTierOptions options;
  options.index.capacity = flags.GetCount("capacity", 64);
  options.index.duration = flags.GetInt("duration", 0, 0);
  options.index.buffer = flags.GetCount("buffer", 0);
  options.checkpoint_every_pages = flags.GetCount("checkpoint-every", 0);
  options.commit_interval_us = flags.GetInt("commit-interval", 0, 0);
  const size_t commit_every = flags.GetCount("commit-every", 64);
  flags.RejectUnknown();
  if (commit_every == 0) {
    std::fprintf(stderr, "--commit-every must be positive\n");
    return 2;
  }

  const std::string wal_path = db + "/live_wal.stpages";
  Result<std::unique_ptr<FilePageBackend>> wal = FilePageBackend::Open(wal_path);
  const bool resumed = wal.ok();
  if (wal.status().code() == StatusCode::kNotFound) {
    wal = FilePageBackend::Create(wal_path);
  }
  if (!wal.ok()) Die(wal.status());

  Result<std::unique_ptr<LiveTier>> tier =
      LiveTier::Open(options, std::move(wal).value());
  if (!tier.ok()) {
    Die(Status(tier.status().code(),
               wal_path + ": " + tier.status().message()));
  }
  if (resumed) {
    std::printf("recovered %llu journal records (%llu pages) from %s\n",
                static_cast<unsigned long long>(
                    tier.value()->recovered().records),
                static_cast<unsigned long long>(tier.value()->recovered().pages),
                wal_path.c_str());
  }

  const std::vector<Trajectory> objects = LoadObjects(in);
  const std::vector<LiveObservation> stream = MakeObservationStream(objects);
  MetricRegistry& registry = MetricRegistry::Global();
  const uint64_t dup_base = registry.GetCounter("live.dup_skips")->Value();
  for (size_t i = 0; i < stream.size(); ++i) {
    const Status status = tier.value()->Apply(stream[i]);
    if (!status.ok()) Die(status);
    if ((i + 1) % commit_every == 0) {
      const Status committed = tier.value()->Commit();
      if (!committed.ok()) Die(committed);
    }
  }
  const Status finished = tier.value()->Finish();
  if (!finished.ok()) Die(finished);
  // Surface the tier's WAL/checkpoint gauges and pool counters in the
  // --stats dump written after this command returns.
  tier.value()->PublishGauges();

  const uint64_t dup_skips =
      registry.GetCounter("live.dup_skips")->Value() - dup_base;
  std::printf("ingested %zu objects (%zu updates, %llu already absorbed): "
              "%zu segments migrated, %zu tree pages, %llu WAL records in "
              "%llu pages, %llu commits, %llu checkpoints\n",
              objects.size(), stream.size(),
              static_cast<unsigned long long>(dup_skips),
              tier.value()->migrated_segments().size(),
              tier.value()->historical().PageCount(),
              static_cast<unsigned long long>(tier.value()->wal_records()),
              static_cast<unsigned long long>(tier.value()->wal_pages()),
              static_cast<unsigned long long>(tier.value()->wal_commits()),
              static_cast<unsigned long long>(tier.value()->checkpoint_seq()));
  return 0;
}

// Converts an ingested --db (the live tier's WAL journal) into a packed
// read-only mmap snapshot: recovers the tier from DIR/live_wal.stpages,
// finishes the stream (seals every buffer, drains migration), then packs
// the historical tree into --out. The WAL itself is untouched — the tier
// runs over an in-memory copy of it, so what Finish journals never
// reaches the file a later `ingest` resumes from. The snapshot is a
// derived artifact a query server can mmap and serve zero-copy.
int CmdPack(Flags& flags) {
  const std::string db = flags.Require("db");
  const std::string out = flags.Get("out", db + "/historical.stsnap");
  flags.RejectUnknown();

  const std::string wal_path = db + "/live_wal.stpages";
  std::unique_ptr<MemoryPageBackend> journal;
  {
    Result<std::unique_ptr<FilePageBackend>> wal =
        FilePageBackend::Open(wal_path);
    if (!wal.ok()) Die(wal.status());
    journal = std::make_unique<MemoryPageBackend>();
    Page page;
    for (PageId id = 0; id < wal.value()->SlotCount(); ++id) {
      if (!wal.value()->IsAllocated(id)) continue;
      Status status = wal.value()->Read(id, page.bytes);
      if (status.ok()) status = journal->Write(id, page.bytes);
      if (!status.ok()) Die(status);
    }
  }
  Result<std::unique_ptr<LiveTier>> tier =
      LiveTier::Open(LiveTierOptions{}, std::move(journal));
  if (!tier.ok()) Die(tier.status());

  const Status finished = tier.value()->Finish();
  if (!finished.ok()) Die(finished);
  MetricRegistry& registry = MetricRegistry::Global();
  const uint64_t packed_base =
      registry.GetCounter("backend.mmap.packed_pages")->Value();
  const Status packed = tier.value()->PackHistorical(out);
  if (!packed.ok()) Die(packed);
  const uint64_t packed_pages =
      registry.GetCounter("backend.mmap.packed_pages")->Value() - packed_base;
  tier.value()->PublishGauges();
  std::printf("packed %llu node pages (%zu migrated segments) from %s "
              "into %s\n",
              static_cast<unsigned long long>(packed_pages),
              tier.value()->migrated_segments().size(), wal_path.c_str(),
              out.c_str());
  return 0;
}

int CmdAdvise(Flags& flags) {
  const std::string in = flags.Require("in");
  QuerySetConfig query_config = NamedQuerySet(flags.Get("set", "small"));
  query_config.count = flags.GetCount("count", 200);
  const Time domain = flags.GetInt("time-domain", 1000, 0);
  query_config.time_domain = domain;
  const std::string mode = flags.Get("mode", "analytical");
  const int threads = ResolveThreadsOrDie(flags);
  flags.RejectUnknown();

  const std::vector<Trajectory> objects = LoadObjects(in);
  const std::vector<STQuery> workload = GenerateQuerySet(query_config);
  const int64_t n = static_cast<int64_t>(objects.size());
  const std::vector<int64_t> candidates = {0,         n / 20, n / 10,
                                           n / 4,     n / 2,  n,
                                           n * 3 / 2};
  SplitAdvisorOptions options;
  options.time_domain = domain;

  SplitAdvice advice;
  if (mode == "analytical") {
    const std::vector<VolumeCurve> curves =
        ComputeVolumeCurves(objects, 128, SplitMethod::kMerge, threads);
    advice = SplitAdvisor::ChooseAnalytical(objects, curves, candidates,
                                            workload, IndexKind::kPprTree,
                                            options, threads);
  } else if (mode == "sampling") {
    advice = SplitAdvisor::ChooseBySampling(objects, candidates, 0.25,
                                            workload, 60, IndexKind::kPprTree,
                                            options, 17, threads);
  } else {
    std::fprintf(stderr, "unknown mode '%s' (analytical|sampling)\n",
                 mode.c_str());
    return 2;
  }
  for (const auto& [budget, cost] : advice.evaluated) {
    std::printf("%8lld splits -> %.2f%s\n", static_cast<long long>(budget),
                cost, budget == advice.num_splits ? "   <= chosen" : "");
  }
  return 0;
}

int Usage() {
  std::fprintf(
      stderr,
      "usage: stindex_cli <command> [flags]\n"
      "  generate  --family random|railway|clustered --n N --out FILE\n"
      "            [--seed S] [--time-domain T]\n"
      "  split     --in FILE --out FILE [--budget-percent P]\n"
      "            [--algo lagreedy|greedy|optimal] [--method merge|dp]\n"
      "            [--threads N]\n"
      "  piecewise --in FILE --out FILE\n"
      "  queries   --set NAME --out FILE [--count N] [--time-domain T]\n"
      "  stats     --segments FILE [--index ppr|rstar|hr]\n"
      "  query     --segments FILE --queries FILE [--index ppr|rstar|hr]\n"
      "            [--backend memory|mmap] [--db DIR] [--explain]\n"
      "            [--objects FILE] [--trace FILE] [--buffer-pages N]\n"
      "            --backend mmap packs the tree into DIR/query_*.stsnap\n"
      "            and serves it zero-copy through the mmap backend\n"
      "  ingest    --in FILE --db DIR [--capacity N] [--duration T]\n"
      "            [--buffer N] [--commit-every N] [--checkpoint-every P]\n"
      "            [--commit-interval US]\n"
      "            stream objects through the crash-safe live tier,\n"
      "            journaling to DIR/live_wal.stpages; re-running after a\n"
      "            crash recovers and skips absorbed updates.\n"
      "            --checkpoint-every P truncates the journal once P\n"
      "            flushed WAL pages accumulate; each commit waits\n"
      "            --commit-interval US for concurrent joiners\n"
      "  pack      --db DIR [--out FILE]\n"
      "            recover the live tier from a copy of DIR/live_wal.stpages\n"
      "            (the journal stays untouched), finish the stream and pack\n"
      "            the historical tree into a read-only mmap snapshot\n"
      "            (default DIR/historical.stsnap)\n"
      "  advise    --in FILE [--set NAME] [--mode analytical|sampling]\n"
      "            [--threads N]\n"
      "Query flags:\n"
      "  --explain       print a per-query-set profile (node visits per\n"
      "                  level, buffer hits/misses, candidates, false hits)\n"
      "  --objects FILE  original trajectories; refines candidates against\n"
      "                  exact per-instant rectangles to count false hits\n"
      "  --trace FILE    capture a Chrome trace (chrome://tracing, Perfetto)\n"
      "                  of the build and query spans\n"
      "  --buffer-pages N  total LRU buffer capacity in pages (0/default:\n"
      "                  the tree's configured 10-page paper protocol)\n"
      "Common flags:\n"
      "  --stats FILE         dump the metrics registry after the run\n"
      "  --stats-format FMT   'json' (default) or 'prom' (Prometheus text\n"
      "                       exposition)\n"
      "  --threads N    worker threads for split/advise (overrides the\n"
      "                 STINDEX_THREADS environment variable; default 1)\n");
  return 2;
}

int Main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string command = argv[1];
  Flags flags(argc, argv, 2);
  // Claim --stats/--stats-format before dispatch so RejectUnknown accepts
  // them for every command; the dump itself runs only after the command
  // succeeds.
  const std::string stats_path = flags.Get("stats", "");
  const std::string stats_format = flags.Get("stats-format", "json");
  if (stats_format != "json" && stats_format != "prom") {
    std::fprintf(stderr, "--stats-format must be 'json' or 'prom', got '%s'\n",
                 stats_format.c_str());
    return 2;
  }
  int rc = 2;
  if (command == "generate") {
    rc = CmdGenerate(flags);
  } else if (command == "split") {
    rc = CmdSplit(flags);
  } else if (command == "piecewise") {
    rc = CmdPiecewise(flags);
  } else if (command == "queries") {
    rc = CmdQueries(flags);
  } else if (command == "stats") {
    rc = CmdStats(flags);
  } else if (command == "query") {
    rc = CmdQuery(flags);
  } else if (command == "ingest") {
    rc = CmdIngest(flags);
  } else if (command == "pack") {
    rc = CmdPack(flags);
  } else if (command == "advise") {
    rc = CmdAdvise(flags);
  } else {
    return Usage();
  }
  if (rc == 0 && !stats_path.empty()) DumpMetrics(stats_path, stats_format);
  return rc;
}

}  // namespace
}  // namespace cli
}  // namespace stindex

int main(int argc, char** argv) { return stindex::cli::Main(argc, argv); }
