// Micro-benchmarks (google-benchmark) of the core operations: the
// single-object splitters, the distribution algorithms, index
// construction, query execution and live-tier updates. Complements the
// figure harnesses with stable per-operation timings.
#include <benchmark/benchmark.h>
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/distribute.h"
#include "core/dp_split.h"
#include "core/merge_split.h"
#include "live/live_tier.h"
#include "storage/file_backend.h"
#include "storage/page_backend.h"
#include "storage/page_codec.h"
#include "storage/shared_buffer_pool.h"
#include "util/check.h"
#include "util/metrics.h"
#include "util/random.h"

namespace stindex {
namespace bench {
namespace {

const std::vector<Trajectory>& SharedObjects() {
  static const std::vector<Trajectory>* objects =
      new std::vector<Trajectory>(MakeRandomDataset(512));
  return *objects;
}

std::vector<Rect2D> ObjectOfLifetime(int64_t instants) {
  for (const Trajectory& object : SharedObjects()) {
    if (object.NumInstants() >= instants) {
      std::vector<Rect2D> rects = object.Sample();
      rects.resize(static_cast<size_t>(instants));
      return rects;
    }
  }
  // Fall back to the longest available object.
  return SharedObjects().front().Sample();
}

void BM_DpSplit(benchmark::State& state) {
  const std::vector<Rect2D> rects = ObjectOfLifetime(state.range(0));
  const int k = static_cast<int>(rects.size()) / 4;
  for (auto _ : state) {
    benchmark::DoNotOptimize(DpSplit(rects, k).total_volume);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_DpSplit)->Arg(16)->Arg(32)->Arg(64)->Arg(96)->Complexity();

void BM_MergeSplit(benchmark::State& state) {
  const std::vector<Rect2D> rects = ObjectOfLifetime(state.range(0));
  const int k = static_cast<int>(rects.size()) / 4;
  for (auto _ : state) {
    benchmark::DoNotOptimize(MergeSplit(rects, k).total_volume);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_MergeSplit)->Arg(16)->Arg(32)->Arg(64)->Arg(96)->Complexity();

void BM_DpVolumeCurve(benchmark::State& state) {
  const std::vector<Rect2D> rects = ObjectOfLifetime(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        DpVolumeCurve(rects, static_cast<int>(rects.size())).back());
  }
}
BENCHMARK(BM_DpVolumeCurve)->Arg(32)->Arg(64)->Arg(96);

void BM_MergeVolumeCurve(benchmark::State& state) {
  const std::vector<Rect2D> rects = ObjectOfLifetime(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        MergeVolumeCurve(rects, static_cast<int>(rects.size())).back());
  }
}
BENCHMARK(BM_MergeVolumeCurve)->Arg(32)->Arg(64)->Arg(96);

const std::vector<VolumeCurve>& SharedCurves() {
  static const std::vector<VolumeCurve>* curves = new std::vector<VolumeCurve>(
      ComputeVolumeCurves(SharedObjects(), 128, SplitMethod::kMerge));
  return *curves;
}

void BM_DistributeGreedy(benchmark::State& state) {
  const auto& curves = SharedCurves();
  const int64_t budget = state.range(0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(DistributeGreedy(curves, budget).total_volume);
  }
}
BENCHMARK(BM_DistributeGreedy)->Arg(128)->Arg(512)->Arg(768);

void BM_DistributeLAGreedy(benchmark::State& state) {
  const auto& curves = SharedCurves();
  const int64_t budget = state.range(0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        DistributeLAGreedy(curves, budget).total_volume);
  }
}
BENCHMARK(BM_DistributeLAGreedy)->Arg(128)->Arg(512)->Arg(768);

void BM_DistributeOptimal(benchmark::State& state) {
  const auto& curves = SharedCurves();
  const int64_t budget = state.range(0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(DistributeOptimal(curves, budget).total_volume);
  }
}
BENCHMARK(BM_DistributeOptimal)->Arg(128)->Arg(256);

void BM_PprBuild(benchmark::State& state) {
  const std::vector<Trajectory> objects =
      MakeRandomDataset(static_cast<size_t>(state.range(0)));
  const std::vector<SegmentRecord> records = SplitWithLaGreedy(objects, 50);
  for (auto _ : state) {
    benchmark::DoNotOptimize(BuildPprTree(records)->PageCount());
  }
  state.counters["records"] = static_cast<double>(records.size());
}
BENCHMARK(BM_PprBuild)->Arg(500)->Arg(2000)->Unit(benchmark::kMillisecond);

// PackSnapshot of the BM_PprBuild tree: sealing every page into the
// writer's batches, the manifest, both fsyncs and the verified open that
// reads every page back. The tree is rebuilt, untimed, before each pack.
void BM_PackSnapshot(benchmark::State& state) {
  const std::vector<Trajectory> objects =
      MakeRandomDataset(static_cast<size_t>(state.range(0)));
  const std::vector<SegmentRecord> records = SplitWithLaGreedy(objects, 50);
  const std::string path =
      (std::filesystem::temp_directory_path() / "bench_micro_ops_pack.stsnap")
          .string();
  size_t pages = 0;
  std::unique_ptr<PprTree> tree;
  for (auto _ : state) {
    state.PauseTiming();
    tree = BuildPprTree(records);  // the previous tree dies here, untimed
    pages = tree->PageCount();
    state.ResumeTiming();
    const Status status = tree->PackSnapshot(path);
    STINDEX_CHECK_MSG(status.ok(), status.ToString().c_str());
  }
  tree.reset();
  std::remove(path.c_str());
  state.counters["pages"] = static_cast<double>(pages);
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(pages * kPageSize));
}
BENCHMARK(BM_PackSnapshot)->Arg(500)->Arg(2000)->Unit(benchmark::kMillisecond);

void BM_RStarBuild(benchmark::State& state) {
  const std::vector<Trajectory> objects =
      MakeRandomDataset(static_cast<size_t>(state.range(0)));
  const std::vector<SegmentRecord> records = SplitWithLaGreedy(objects, 50);
  for (auto _ : state) {
    benchmark::DoNotOptimize(BuildRStar(records, 1000)->PageCount());
  }
  state.counters["records"] = static_cast<double>(records.size());
}
BENCHMARK(BM_RStarBuild)->Arg(500)->Arg(2000)->Unit(benchmark::kMillisecond);

void BM_PprSnapshotQuery(benchmark::State& state) {
  static const std::unique_ptr<PprTree>* tree = [] {
    const std::vector<Trajectory> objects = MakeRandomDataset(2000);
    auto* t = new std::unique_ptr<PprTree>(
        BuildPprTree(SplitWithLaGreedy(objects, 150)));
    return t;
  }();
  const std::vector<STQuery> queries = MakeQueries(MixedSnapshotSet(), 64);
  std::vector<PprDataId> results;
  size_t q = 0;
  for (auto _ : state) {
    const STQuery& query = queries[q++ % queries.size()];
    (*tree)->SnapshotQuery(query.area, query.range.start, &results);
    benchmark::DoNotOptimize(results.size());
  }
}
BENCHMARK(BM_PprSnapshotQuery);

void BM_RStarRangeQuery(benchmark::State& state) {
  static const std::unique_ptr<RStarTree>* tree = [] {
    const std::vector<Trajectory> objects = MakeRandomDataset(2000);
    auto* t = new std::unique_ptr<RStarTree>(
        BuildRStar(SplitWithLaGreedy(objects, 1), 1000));
    return t;
  }();
  const std::vector<STQuery> queries = MakeQueries(SmallRangeSet(), 64);
  std::vector<DataId> results;
  size_t q = 0;
  for (auto _ : state) {
    (*tree)->Search(QueryToBox(queries[q++ % queries.size()], 0, 1000),
                    &results);
    benchmark::DoNotOptimize(results.size());
  }
}
BENCHMARK(BM_RStarRangeQuery);

// The page checksum kernel: one full-page CRC, as every seal, open-time
// verify and buffer-pool miss runs it.
void BM_Crc32Page(benchmark::State& state) {
  std::vector<uint8_t> page(kPageSize);
  for (size_t i = 0; i < page.size(); ++i) {
    page[i] = static_cast<uint8_t>(i * 131 + 7);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(Crc32(page.data(), page.size()));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kPageSize));
}
BENCHMARK(BM_Crc32Page);

// The cold miss path over a packed snapshot: pin and unpin through a
// 1-frame SharedBufferPool, cycling through the node slots so every pin
// evicts the previous frame and views (checksums, parses) the next
// mapped page.
void BM_PprSnapshotMiss(benchmark::State& state) {
  static PprTree* tree = [] {
    const std::vector<Trajectory> objects = MakeRandomDataset(2000);
    PprTree* t = BuildPprTree(SplitWithLaGreedy(objects, 150)).release();
    const std::string path =
        (std::filesystem::temp_directory_path() / "bench_micro_ops_miss.stsnap")
            .string();
    const Status status = t->PackSnapshot(path);
    STINDEX_CHECK_MSG(status.ok(), status.ToString().c_str());
    std::remove(path.c_str());  // the open snapshot keeps its pages
    return t;
  }();
  const std::unique_ptr<SharedBufferPool> pool = tree->NewSharedQueryPool(1);
  const size_t slots = tree->backend()->SlotCount();
  PageId id = 0;
  bool missed = false;
  for (auto _ : state) {
    const Result<const Page*> page = pool->Pin(id, &missed);
    benchmark::DoNotOptimize(page.value());
    pool->Unpin(id);
    id = static_cast<PageId>((id + 1) % slots);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_PprSnapshotMiss);

// Live-tier update cost against the live population: N random-dataset
// objects, all alive for the same 48 ticks, fed through LiveTier::Apply
// on a memory WAL (capacity 32, a commit every 1024 updates, no
// checkpoints). Items are updates, so items/s is the per-update rate at
// N open buffers.
void BM_LiveTierApply(benchmark::State& state) {
  RandomDatasetConfig config;
  config.num_objects = static_cast<size_t>(state.range(0));
  config.time_domain = 48;
  config.min_lifetime = config.time_domain;
  config.max_lifetime = config.time_domain;
  const std::vector<LiveObservation> stream =
      MakeObservationStream(GenerateRandomDataset(config));
  LiveTierOptions options;
  options.index.capacity = 32;
  for (auto _ : state) {
    Result<std::unique_ptr<LiveTier>> tier =
        LiveTier::Open(options, std::make_unique<MemoryPageBackend>());
    STINDEX_CHECK(tier.ok());
    for (size_t i = 0; i < stream.size(); ++i) {
      STINDEX_CHECK(tier.value()->Apply(stream[i]).ok());
      if ((i + 1) % 1024 == 0) STINDEX_CHECK(tier.value()->Commit().ok());
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(stream.size()));
}
BENCHMARK(BM_LiveTierApply)
    ->Arg(250)
    ->Arg(1000)
    ->Arg(4000)
    ->Unit(benchmark::kMillisecond);

// Checkpoint cost against the migrated history: a 20k-object
// random-dataset stream (about 1.03M updates) through a live tier on a
// memory WAL (capacity 32, a commit every 1024 updates) with a
// Checkpoint() after every tenth of the stream; Arg(1) also packs the
// active tree into a snapshot at the halfway point. The counters are the
// pages written (live.wal.checkpoint_pages_written) and the milliseconds
// of the first and the tenth checkpoint, and the most pages any of the
// ten wrote: a checkpoint that writes what changed costs about the same
// at every one as at the first, where one that rewrites the history
// grows with it, and one that copies a packed layer jumps after the
// pack.
void BM_LiveTierCheckpoint(benchmark::State& state) {
  RandomDatasetConfig config;
  config.num_objects = 20000;
  const std::vector<LiveObservation> stream =
      MakeObservationStream(GenerateRandomDataset(config));
  const bool pack = state.range(0) != 0;
  const std::string path = (std::filesystem::temp_directory_path() /
                            "bench_micro_ops_checkpoint.stsnap")
                               .string();
  Counter* written =
      MetricRegistry::Global().GetCounter("live.wal.checkpoint_pages_written");
  LiveTierOptions options;
  options.index.capacity = 32;
  const size_t tenth = stream.size() / 10;
  std::vector<uint64_t> pages;
  std::vector<double> ms;
  for (auto _ : state) {
    pages.clear();
    ms.clear();
    Result<std::unique_ptr<LiveTier>> tier =
        LiveTier::Open(options, std::make_unique<MemoryPageBackend>());
    STINDEX_CHECK(tier.ok());
    for (size_t i = 0; i < stream.size(); ++i) {
      STINDEX_CHECK(tier.value()->Apply(stream[i]).ok());
      if ((i + 1) % 1024 == 0) STINDEX_CHECK(tier.value()->Commit().ok());
      if (pack && i + 1 == stream.size() / 2) {
        STINDEX_CHECK(tier.value()->PackHistorical(path).ok());
      }
      if ((i + 1) % tenth == 0 && pages.size() < 10) {
        const uint64_t before = written->Value();
        const auto start = std::chrono::steady_clock::now();
        STINDEX_CHECK(tier.value()->Checkpoint().ok());
        ms.push_back(std::chrono::duration<double, std::milli>(
                         std::chrono::steady_clock::now() - start)
                         .count());
        pages.push_back(written->Value() - before);
      }
    }
  }
  std::remove(path.c_str());
  STINDEX_CHECK(pages.size() == 10);
  state.counters["first_pages"] = static_cast<double>(pages.front());
  state.counters["tenth_pages"] = static_cast<double>(pages.back());
  state.counters["max_pages"] =
      static_cast<double>(*std::max_element(pages.begin(), pages.end()));
  state.counters["first_ms"] = ms.front();
  state.counters["tenth_ms"] = ms.back();
}
BENCHMARK(BM_LiveTierCheckpoint)
    ->Arg(0)
    ->Arg(1)
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

// Recovery cost: BM_LiveTierCheckpoint's stream and checkpoints (Arg(1):
// with the pack halfway) go to a file journal once, committed to the
// end but not finished, as a crash would leave it; each iteration then
// reopens a fresh copy of that journal. The counters are the reopen's
// milliseconds (the median over the iterations), the journal pages it
// replayed past the last checkpoint and the nodes of the active tree it
// rebuilt.
void BM_LiveTierRecover(benchmark::State& state) {
  RandomDatasetConfig config;
  config.num_objects = 20000;
  const std::vector<LiveObservation> stream =
      MakeObservationStream(GenerateRandomDataset(config));
  const bool pack = state.range(0) != 0;
  const std::filesystem::path dir = std::filesystem::temp_directory_path();
  const std::string snapshot = dir / "bench_micro_ops_recover.stsnap";
  const std::string written = dir / "bench_micro_ops_recover.stpages";
  const std::string journal = dir / "bench_micro_ops_recover_open.stpages";
  LiveTierOptions options;
  options.index.capacity = 32;
  {
    Result<std::unique_ptr<FilePageBackend>> wal =
        FilePageBackend::Create(written);
    STINDEX_CHECK(wal.ok());
    Result<std::unique_ptr<LiveTier>> tier =
        LiveTier::Open(options, std::move(wal).value());
    STINDEX_CHECK(tier.ok());
    const size_t tenth = stream.size() / 10;
    for (size_t i = 0; i < stream.size(); ++i) {
      STINDEX_CHECK(tier.value()->Apply(stream[i]).ok());
      if ((i + 1) % 1024 == 0) STINDEX_CHECK(tier.value()->Commit().ok());
      if (pack && i + 1 == stream.size() / 2) {
        STINDEX_CHECK(tier.value()->PackHistorical(snapshot).ok());
      }
      if ((i + 1) % tenth == 0) STINDEX_CHECK(tier.value()->Checkpoint().ok());
    }
    STINDEX_CHECK(tier.value()->Commit().ok());
  }
  std::vector<double> ms;
  uint64_t replayed = 0;
  size_t nodes = 0;
  for (auto _ : state) {
    state.PauseTiming();
    std::filesystem::copy_file(
        written, journal, std::filesystem::copy_options::overwrite_existing);
    state.ResumeTiming();
    const auto start = std::chrono::steady_clock::now();
    Result<std::unique_ptr<FilePageBackend>> wal =
        FilePageBackend::Open(journal);
    STINDEX_CHECK(wal.ok());
    Result<std::unique_ptr<LiveTier>> tier =
        LiveTier::Open(options, std::move(wal).value());
    STINDEX_CHECK(tier.ok());
    ms.push_back(std::chrono::duration<double, std::milli>(
                     std::chrono::steady_clock::now() - start)
                     .count());
    replayed = tier.value()->recovered().pages;
    nodes = tier.value()->historical().NodeCount();
    state.PauseTiming();
    tier.value().reset();
    state.ResumeTiming();
  }
  std::remove(journal.c_str());
  std::remove(written.c_str());
  std::remove(snapshot.c_str());
  std::sort(ms.begin(), ms.end());
  state.counters["reopen_ms"] = ms[ms.size() / 2];
  state.counters["replayed_pages"] = static_cast<double>(replayed);
  state.counters["active_nodes"] = static_cast<double>(nodes);
}
BENCHMARK(BM_LiveTierRecover)
    ->Arg(0)
    ->Arg(1)
    ->Iterations(5)
    ->Unit(benchmark::kMillisecond);

// A live tier in the state of benchmark/'s live-mixed workload at seed
// 42: 10,000 random-dataset objects; the updates before tick 200 applied
// with a commit every 1024 and packed into a frozen layer; then 50,000
// more with a commit every 32 (capacity 32, a checkpoint every 1024
// journal pages, a 1024-page query pool, on a memory WAL). Built once.
struct LiveQueryTier {
  std::unique_ptr<LiveTier> tier;
  Time head = 0;  // the time of the last update applied
};

const LiveQueryTier& SharedLiveQueryTier() {
  static const LiveQueryTier* shared = [] {
    RandomDatasetConfig config;
    config.num_objects = 10000;
    config.seed = Rng::DeriveSeed(42, 1);
    const std::vector<LiveObservation> stream =
        MakeObservationStream(GenerateRandomDataset(config));
    LiveTierOptions options;
    options.index.capacity = 32;
    options.query_pool_pages = 1024;
    options.checkpoint_every_pages = 1024;
    Result<std::unique_ptr<LiveTier>> tier =
        LiveTier::Open(options, std::make_unique<MemoryPageBackend>());
    STINDEX_CHECK(tier.ok());
    size_t i = 0;
    for (; stream[i].time < 200; ++i) {
      STINDEX_CHECK(tier.value()->Apply(stream[i]).ok());
      if ((i + 1) % 1024 == 0) STINDEX_CHECK(tier.value()->Commit().ok());
    }
    STINDEX_CHECK(tier.value()->Commit().ok());
    const std::string path = (std::filesystem::temp_directory_path() /
                              "bench_micro_ops_query.stsnap")
                                 .string();
    STINDEX_CHECK(tier.value()->PackHistorical(path).ok());
    for (size_t n = 1; n <= 50000; ++n, ++i) {
      STINDEX_CHECK(tier.value()->Apply(stream[i]).ok());
      if (n % 32 == 0) STINDEX_CHECK(tier.value()->Commit().ok());
    }
    // The frozen layer keeps its mapping; nothing commits again.
    std::remove(path.c_str());
    return new LiveQueryTier{std::move(tier).value(), stream[i - 1].time};
  }();
  return *shared;
}

// Live-tier snapshot query cost over SharedLiveQueryTier, one query of
// MixedSnapshotSet per iteration: Arg(0) at its historical time (before
// tick 200, the packed layer's), Arg(1) at a fresh time (within 5 ticks
// of the feed head, as live-mixed asks). The counters are the migration
// queue's events and the insert-pending segments one more query tests.
void BM_LiveTierQuery(benchmark::State& state) {
  const LiveQueryTier& live = SharedLiveQueryTier();
  QuerySetConfig config = MixedSnapshotSet();
  config.count = 2000;
  config.time_domain = 200;
  config.seed = Rng::DeriveSeed(42, 2);
  const std::vector<STQuery> queries = GenerateQuerySet(config);
  const bool fresh = state.range(0) != 0;
  const auto time_of = [&](size_t n) {
    return fresh ? live.head - static_cast<Time>(n % 5)
                 : queries[n % queries.size()].range.start;
  };
  std::vector<ObjectId> out;
  size_t n = 0;
  for (auto _ : state) {
    live.tier->SnapshotQuery(queries[n % queries.size()].area, time_of(n),
                             &out);
    benchmark::DoNotOptimize(out.data());
    ++n;
  }
  QueryProfile profile;
  live.tier->SnapshotQuery(queries[0].area, time_of(0), &out, &profile);
  state.counters["queued_events"] =
      static_cast<double>(live.tier->pending_events());
  state.counters["pending_scanned"] =
      static_cast<double>(profile.pending_scanned);
}
BENCHMARK(BM_LiveTierQuery)->Arg(0)->Arg(1)->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace bench
}  // namespace stindex

BENCHMARK_MAIN();
