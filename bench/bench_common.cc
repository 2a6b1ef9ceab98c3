#include "bench_common.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include <string>

#include "core/distribute.h"
#include "storage/shared_buffer_pool.h"
#include "storage/snapshot_file.h"
#include "util/check.h"
#include "util/metrics.h"
#include "util/thread_pool.h"
#include "util/trace.h"

namespace stindex {
namespace bench {

BenchScale GetScale() {
  const char* env = std::getenv("STINDEX_SCALE");
  const std::string scale = env == nullptr ? "small" : env;
  if (scale == "paper") {
    return BenchScale{"paper",
                      {10000, 30000, 50000, 80000},
                      {10000, 30000, 50000, 80000},
                      1000};
  }
  if (scale == "medium") {
    return BenchScale{"medium",
                      {2500, 5000, 10000, 20000},
                      {500, 1000, 2000, 4000},
                      500};
  }
  STINDEX_CHECK_MSG(scale == "small", "STINDEX_SCALE: small|medium|paper");
  return BenchScale{
      "small", {1000, 2000, 4000, 8000}, {100, 200, 400, 800}, 200};
}

std::vector<Trajectory> MakeRandomDataset(size_t n, uint64_t seed) {
  RandomDatasetConfig config;
  config.num_objects = n;
  config.seed = seed;
  return GenerateRandomDataset(config);
}

std::vector<Trajectory> MakeDenseRandomDataset(size_t n, Time* time_domain,
                                               uint64_t seed) {
  RandomDatasetConfig config;
  config.num_objects = n;
  config.seed = seed;
  // Aim for ~300 alive objects per instant (paper 10k dataset: ~550).
  const Time domain =
      std::max<Time>(60, static_cast<Time>(n) * 25 / 300);
  config.time_domain = domain;
  config.max_lifetime = std::min<Time>(100, domain / 2);
  *time_domain = domain;
  return GenerateRandomDataset(config);
}

std::vector<Trajectory> MakeRailwayDataset(size_t n, uint64_t seed) {
  RailwayDatasetConfig config;
  config.num_trains = n;
  config.seed = seed;
  return GenerateRailwayDataset(config);
}

std::vector<SegmentRecord> SplitWithLaGreedy(
    const std::vector<Trajectory>& objects, int percent, int num_threads) {
  if (percent == 0) return BuildUnsplitSegments(objects, num_threads);
  const std::vector<VolumeCurve> curves = ComputeVolumeCurves(
      objects, /*k_max=*/128, SplitMethod::kMerge, num_threads);
  const int64_t budget =
      static_cast<int64_t>(objects.size()) * percent / 100;
  const Distribution dist = DistributeLAGreedy(curves, budget, num_threads);
  return BuildSegments(objects, dist.splits, SplitMethod::kMerge, num_threads);
}

std::unique_ptr<RStarTree> BuildRStar(
    const std::vector<SegmentRecord>& records, Time time_domain) {
  auto tree = std::make_unique<RStarTree>();
  const std::vector<Box3D> boxes = SegmentsToBoxes(records, 0, time_domain);
  for (size_t i = 0; i < boxes.size(); ++i) {
    tree->Insert(boxes[i], static_cast<DataId>(i));
  }
  return tree;
}

namespace {

// Shared shape of the two multi-threaded query drivers: every worker
// shares one sharded SharedBufferPool (total capacity, thread-safe pins)
// and runs its chunk through a private Session implementing the paper's
// per-query-reset LRU accounting, so the reported miss counts are
// byte-identical at any thread count while resident capacity stays
// fixed. Per-chunk IoStats are summed in chunk order afterwards.
//
// The drivers feed the structured reports: totals go to the
// io.query.accesses/misses counters, and per-query wall times are
// recorded into per-chunk Histogram shards merged in ascending chunk
// order into io.query.latency_ms (the determinism contract from
// util/metrics.h — the I/O numbers stay byte-identical at any thread
// count; wall times are inherently noisy but their collection order is
// fixed).
template <typename MakePool, typename RunQuery>
double AverageIoParallel(const std::vector<STQuery>& queries, int num_threads,
                         IoStats* aggregate, const FalseHitRefiner* refiner,
                         QueryProfile* profile_out, const MakePool& make_pool,
                         const RunQuery& run_query) {
  TraceSpan span("bench", "query_driver");
  span.Arg("queries", static_cast<int64_t>(queries.size()))
      .Arg("threads", static_cast<int64_t>(num_threads));
  const bool profiling = refiner != nullptr || profile_out != nullptr;
  const size_t chunks = ParallelChunks(num_threads, queries.size());
  std::vector<IoStats> chunk_stats(chunks);
  std::vector<Histogram> latency_shards(chunks);
  std::vector<QueryProfile> profile_shards(profiling ? chunks : 0);
  std::unique_ptr<SharedBufferPool> pool = make_pool();
  // The Sessions' simulated LRU runs the paper protocol at the pool's
  // full capacity, so the miss counts match the paper's private LRU of
  // the same size while the frames stay shared across workers.
  const size_t protocol_pages = pool->capacity();
  span.Arg("buffer_pages", static_cast<int64_t>(protocol_pages));
  Report().SetParam("effective_buffer_pages",
                    static_cast<int64_t>(protocol_pages));
  ParallelFor(num_threads, queries.size(),
              [&](size_t chunk, size_t begin, size_t end) {
                SharedBufferPool::Session session(pool.get(), protocol_pages);
                IoStats& stats = chunk_stats[chunk];
                Histogram& latency = latency_shards[chunk];
                QueryProfile* profile =
                    profiling ? &profile_shards[chunk] : nullptr;
                for (size_t q = begin; q < end; ++q) {
                  session.ResetCache();
                  session.ResetStats();
                  const auto start = std::chrono::steady_clock::now();
                  run_query(queries[q], &session, profile);
                  const std::chrono::duration<double, std::milli> elapsed =
                      std::chrono::steady_clock::now() - start;
                  latency.Record(elapsed.count());
                  stats.accesses += session.stats().accesses;
                  stats.misses += session.stats().misses;
                }
              });
  pool->PublishStats();
  IoStats total;
  for (const IoStats& stats : chunk_stats) {
    total.accesses += stats.accesses;
    total.misses += stats.misses;
  }
  MetricRegistry& registry = MetricRegistry::Global();
  registry.GetCounter("io.query.accesses")->Add(total.accesses);
  registry.GetCounter("io.query.misses")->Add(total.misses);
  MergeShards(latency_shards, registry.GetHistogram("io.query.latency_ms"));
  if (profiling) {
    QueryProfile merged;
    for (const QueryProfile& shard : profile_shards) merged.Merge(shard);
    if (refiner != nullptr) {
      registry.GetCounter("io.query.false_hits")->Add(merged.false_hits);
    }
    if (profile_out != nullptr) profile_out->Merge(merged);
  }
  if (aggregate != nullptr) *aggregate = total;
  return static_cast<double>(total.misses) /
         static_cast<double>(queries.size());
}

}  // namespace

double AveragePprIo(const PprTree& tree, const std::vector<STQuery>& queries,
                    int num_threads, IoStats* aggregate,
                    const FalseHitRefiner* refiner, QueryProfile* profile,
                    size_t buffer_pages) {
  return AverageIoParallel(
      queries, num_threads, aggregate, refiner, profile,
      [&tree, buffer_pages] { return tree.NewSharedQueryPool(buffer_pages); },
      [&tree, refiner](const STQuery& query, PageCache* buffer,
                       QueryProfile* query_profile) {
        std::vector<PprDataId> results;
        if (query.IsSnapshot()) {
          tree.SnapshotQuery(query.area, query.range.start, buffer, &results,
                             query_profile);
        } else {
          tree.IntervalQuery(query.area, query.range, buffer, &results,
                             query_profile);
        }
        if (refiner != nullptr) {
          refiner->CountFalseHits(results, query, query_profile);
        }
      });
}

double AverageRStarIo(const RStarTree& tree,
                      const std::vector<STQuery>& queries, Time time_domain,
                      int num_threads, IoStats* aggregate,
                      const FalseHitRefiner* refiner, QueryProfile* profile,
                      size_t buffer_pages) {
  return AverageIoParallel(
      queries, num_threads, aggregate, refiner, profile,
      [&tree, buffer_pages] { return tree.NewSharedQueryPool(buffer_pages); },
      [&tree, time_domain, refiner](const STQuery& query, PageCache* buffer,
                                    QueryProfile* query_profile) {
        std::vector<DataId> results;
        tree.Search(QueryToBox(query, 0, time_domain), buffer, &results,
                    query_profile);
        if (refiner != nullptr) {
          refiner->CountFalseHits(results, query, query_profile);
        }
      });
}

namespace {

template <typename TreeT>
void AttachBenchBackendImpl(TreeT* tree, const BenchArgs& args,
                            const std::string& tag) {
  Report().SetParam("backend", args.backend);
  if (args.backend == "memory") return;  // the tree's own arena
  // Pack into a read-only snapshot and serve it zero-copy. The id remap
  // is a bijection, so protocol-mode miss counts stay identical to the
  // arena's. The counter keeps names unique when a harness reuses a tag
  // across dataset sizes.
  static int snap_counter = 0;
  const std::string path = args.db_path + "/" + args.bench_name + "_" + tag +
                           "_" + std::to_string(snap_counter++) + ".stsnap";
  const Status status = tree->PackSnapshot(path);
  if (!status.ok()) {
    std::fprintf(stderr, "%s: packing '%s' into %s: %s\n",
                 args.bench_name.c_str(), tag.c_str(), path.c_str(),
                 status.ToString().c_str());
    std::exit(1);
  }
}

}  // namespace

void AttachBenchBackend(RStarTree* tree, const BenchArgs& args,
                        const std::string& tag) {
  AttachBenchBackendImpl(tree, args, tag);
}

void AttachBenchBackend(PprTree* tree, const BenchArgs& args,
                        const std::string& tag) {
  AttachBenchBackendImpl(tree, args, tag);
}

std::vector<STQuery> MakeQueries(const QuerySetConfig& config, size_t count) {
  QuerySetConfig adjusted = config;
  adjusted.count = count;
  return GenerateQuerySet(adjusted);
}

void PrintHeader(const std::string& title, const std::string& columns) {
  std::printf("\n== %s ==\n%s\n", title.c_str(), columns.c_str());
}

void PrintRow(const std::string& cells) {
  std::printf("%s\n", cells.c_str());
}

}  // namespace bench
}  // namespace stindex
