// Differential tests for the storage backends: the same seeded dataset
// indexed three ways — the tree's own arena of node pages, a persisted
// MemoryPageBackend, and a persisted FilePageBackend — must answer every
// query byte-identically and with identical per-query buffer-miss counts
// (the paper's "disk accesses" metric), at every thread count. The
// baseline is scored by an LRU oracle from the recorded page-access
// sequence, not by any pool. This pins the property that moving the
// experiments onto real files changes nothing about the reported numbers.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "core/distribute.h"
#include "core/split_pipeline.h"
#include "datagen/query_gen.h"
#include "datagen/random_dataset.h"
#include "live/live_tier.h"
#include "lru_oracle.h"
#include "pprtree/ppr_tree.h"
#include "rstar/rstar_tree.h"
#include "storage/fault_backend.h"
#include "storage/file_backend.h"
#include "storage/page_backend.h"
#include "storage/shared_buffer_pool.h"
#include "util/metrics.h"
#include "util/thread_pool.h"

namespace stindex {
namespace {

constexpr Time kTimeDomain = 1000;

std::vector<SegmentRecord> MakeRecords() {
  RandomDatasetConfig config;
  config.num_objects = 300;
  config.seed = 42;
  config.time_domain = kTimeDomain;
  const std::vector<Trajectory> objects = GenerateRandomDataset(config);
  const std::vector<VolumeCurve> curves =
      ComputeVolumeCurves(objects, /*k_max=*/16, SplitMethod::kMerge, 1);
  const Distribution dist = DistributeLAGreedy(
      curves, static_cast<int64_t>(objects.size()), 1);
  return BuildSegments(objects, dist.splits, SplitMethod::kMerge, 1);
}

std::vector<STQuery> MakeQueries() {
  QuerySetConfig config = MixedSnapshotSet();
  config.count = 48;
  config.time_domain = kTimeDomain;
  std::vector<STQuery> queries = GenerateQuerySet(config);
  QuerySetConfig ranges = SmallRangeSet();
  ranges.count = 24;
  ranges.time_domain = kTimeDomain;
  for (const STQuery& query : GenerateQuerySet(ranges)) {
    queries.push_back(query);
  }
  return queries;
}

std::unique_ptr<PageBackend> MakeFileBackend(const std::string& name) {
  Result<std::unique_ptr<FilePageBackend>> backend =
      FilePageBackend::Create(::testing::TempDir() + "/" + name + ".stpages");
  EXPECT_TRUE(backend.ok()) << backend.status().ToString();
  return std::move(backend).value();
}

std::vector<QueryOutcome> RunPpr(const PprTree& tree,
                                 const std::vector<STQuery>& queries,
                                 int num_threads, size_t pool_pages = 0) {
  const std::unique_ptr<SharedBufferPool> pool =
      tree.NewSharedQueryPool(pool_pages);
  return RunSessions(pool.get(), queries, num_threads, PprQuery(tree));
}

std::vector<QueryOutcome> RunRStar(const RStarTree& tree,
                                   const std::vector<STQuery>& queries,
                                   int num_threads, size_t pool_pages = 0) {
  const std::unique_ptr<SharedBufferPool> pool =
      tree.NewSharedQueryPool(pool_pages);
  return RunSessions(pool.get(), queries, num_threads,
                     RStarQuery(tree, kTimeDomain));
}

std::vector<QueryOutcome> PprBaseline(const PprTree& tree,
                                      const std::vector<STQuery>& queries) {
  const std::unique_ptr<SharedBufferPool> pool = tree.NewSharedQueryPool();
  return OracleBaseline(pool.get(), queries, PprQuery(tree));
}

std::vector<QueryOutcome> RStarBaseline(const RStarTree& tree,
                                        const std::vector<STQuery>& queries) {
  const std::unique_ptr<SharedBufferPool> pool = tree.NewSharedQueryPool();
  return OracleBaseline(pool.get(), queries, RStarQuery(tree, kTimeDomain));
}

uint64_t FileReads() {
  return MetricRegistry::Global().GetCounter("backend.file.reads")->Value();
}

// Runs `tree`'s queries through one fresh default-size pool and checks
// that every real pool miss was one read of the file backend, and that
// shared residency kept the reads at or below the protocol misses.
template <typename Tree>
std::vector<QueryOutcome> RunCountingFileReads(
    const Tree& tree, const std::vector<STQuery>& queries, int num_threads,
    const QueryFn& run_query) {
  const std::unique_ptr<SharedBufferPool> pool = tree.NewSharedQueryPool();
  const uint64_t reads_before = FileReads();
  std::vector<QueryOutcome> outcomes =
      RunSessions(pool.get(), queries, num_threads, run_query);
  const uint64_t reads = FileReads() - reads_before;
  EXPECT_GT(reads, 0u) << "threads=" << num_threads;
  EXPECT_EQ(reads, pool->AggregateStats().misses) << "threads=" << num_threads;
  EXPECT_LE(reads, TotalMisses(outcomes)) << "threads=" << num_threads;
  return outcomes;
}

TEST(BackendDifferentialTest, PprTreeIdenticalAcrossBackendsAndThreads) {
  const std::vector<SegmentRecord> records = MakeRecords();
  const std::vector<STQuery> queries = MakeQueries();

  const std::unique_ptr<PprTree> arena_tree = BuildPprTree(records);
  const std::unique_ptr<PprTree> memory_tree = BuildPprTree(records);
  ASSERT_TRUE(
      memory_tree->AttachBackend(std::make_unique<MemoryPageBackend>()).ok());
  const std::unique_ptr<PprTree> file_tree = BuildPprTree(records);
  ASSERT_TRUE(file_tree->AttachBackend(MakeFileBackend("diff_ppr")).ok());

  const std::vector<QueryOutcome> baseline = PprBaseline(*arena_tree, queries);
  ASSERT_GT(TotalMisses(baseline), 0u);

  for (const int threads : {1, 2, 7, 16}) {
    EXPECT_EQ(RunPpr(*arena_tree, queries, threads), baseline)
        << "arena, threads=" << threads;
    EXPECT_EQ(RunPpr(*memory_tree, queries, threads), baseline)
        << "memory backend, threads=" << threads;
    EXPECT_EQ(RunCountingFileReads(*file_tree, queries, threads,
                                   PprQuery(*file_tree)),
              baseline)
        << "file backend, threads=" << threads;
  }
}

TEST(BackendDifferentialTest, PprProtocolMissesIndependentOfPoolSize) {
  // Protocol accounting simulates the paper's private LRU per session, so
  // answers AND per-query misses cannot depend on how many real frames
  // the shared pool has — from one frame (all pins overflow) to the
  // whole tree — while the real reads underneath only deduplicate.
  const std::vector<SegmentRecord> records = MakeRecords();
  const std::vector<STQuery> queries = MakeQueries();

  const std::unique_ptr<PprTree> arena_tree = BuildPprTree(records);
  const std::unique_ptr<PprTree> file_tree = BuildPprTree(records);
  ASSERT_TRUE(
      file_tree->AttachBackend(MakeFileBackend("diff_ppr_sizes")).ok());

  const std::vector<QueryOutcome> baseline = PprBaseline(*arena_tree, queries);
  ASSERT_GT(TotalMisses(baseline), 0u);

  for (const size_t pool_pages : {size_t{1}, size_t{3}, size_t{4096}}) {
    for (const int threads : {1, 7}) {
      EXPECT_EQ(RunPpr(*arena_tree, queries, threads, pool_pages), baseline)
          << "arena, pool_pages=" << pool_pages
          << ", threads=" << threads;
      const uint64_t reads_before = FileReads();
      EXPECT_EQ(RunPpr(*file_tree, queries, threads, pool_pages), baseline)
          << "file backend, pool_pages=" << pool_pages
          << ", threads=" << threads;
      if (pool_pages == 4096) {
        // The pool holds the whole tree: each page is read at most once.
        EXPECT_LE(FileReads() - reads_before, file_tree->PageCount());
      }
    }
  }
}

TEST(BackendDifferentialTest, RStarTreeIdenticalAcrossBackendsAndThreads) {
  const std::vector<SegmentRecord> records = MakeRecords();
  const std::vector<STQuery> queries = MakeQueries();
  const std::vector<Box3D> boxes = SegmentsToBoxes(records, 0, kTimeDomain);

  const auto build = [&boxes] {
    auto tree = std::make_unique<RStarTree>();
    for (size_t i = 0; i < boxes.size(); ++i) {
      tree->Insert(boxes[i], static_cast<DataId>(i));
    }
    return tree;
  };
  const std::unique_ptr<RStarTree> arena_tree = build();
  const std::unique_ptr<RStarTree> memory_tree = build();
  ASSERT_TRUE(
      memory_tree->AttachBackend(std::make_unique<MemoryPageBackend>()).ok());
  const std::unique_ptr<RStarTree> file_tree = build();
  ASSERT_TRUE(file_tree->AttachBackend(MakeFileBackend("diff_rstar")).ok());

  const std::vector<QueryOutcome> baseline =
      RStarBaseline(*arena_tree, queries);
  ASSERT_GT(TotalMisses(baseline), 0u);

  for (const int threads : {1, 2, 7, 16}) {
    EXPECT_EQ(RunRStar(*arena_tree, queries, threads), baseline)
        << "arena, threads=" << threads;
    EXPECT_EQ(RunRStar(*memory_tree, queries, threads), baseline)
        << "memory backend, threads=" << threads;
    EXPECT_EQ(RunCountingFileReads(*file_tree, queries, threads,
                                   RStarQuery(*file_tree, kTimeDomain)),
              baseline)
        << "file backend, threads=" << threads;
  }
}

// AttachBackend must be all-or-nothing: a write fault while persisting
// leaves the tree without a backend, still answering from its arena with
// the same per-query misses.
template <typename Tree>
void ExpectAttachRollsBackOnWriteFault(Tree* tree,
                                       const std::vector<STQuery>& queries,
                                       const QueryFn& run_query) {
  const std::unique_ptr<SharedBufferPool> before_pool =
      tree->NewSharedQueryPool();
  const std::vector<QueryOutcome> before =
      RunSessions(before_pool.get(), queries, 1, run_query);
  ASSERT_GT(TotalMisses(before), 0u);
  ASSERT_GT(tree->PageCount(), 3u);

  FaultInjectingBackend::Faults faults;
  faults.fail_write_at = 3;
  const Status status = tree->AttachBackend(
      std::make_unique<FaultInjectingBackend>(
          std::make_unique<MemoryPageBackend>(), faults));
  EXPECT_EQ(status.code(), StatusCode::kIoError);
  EXPECT_NE(status.message().find("write of page"), std::string::npos)
      << status.ToString();
  EXPECT_NE(status.message().find("injected write failure"), std::string::npos)
      << status.ToString();
  EXPECT_EQ(tree->backend(), nullptr);

  const std::unique_ptr<SharedBufferPool> after_pool =
      tree->NewSharedQueryPool();
  EXPECT_EQ(RunSessions(after_pool.get(), queries, 1, run_query), before);
}

TEST(BackendDifferentialTest, AttachBackendRollsBackOnWriteFault) {
  const std::vector<SegmentRecord> records = MakeRecords();
  const std::vector<STQuery> queries = MakeQueries();

  const std::unique_ptr<PprTree> ppr = BuildPprTree(records);
  ExpectAttachRollsBackOnWriteFault(ppr.get(), queries, PprQuery(*ppr));

  const std::vector<Box3D> boxes = SegmentsToBoxes(records, 0, kTimeDomain);
  RStarTree rstar;
  for (size_t i = 0; i < boxes.size(); ++i) {
    rstar.Insert(boxes[i], static_cast<DataId>(i));
  }
  ExpectAttachRollsBackOnWriteFault(&rstar, queries,
                                    RStarQuery(rstar, kTimeDomain));
}

TEST(BackendDifferentialTest, RStarProtocolMissesIndependentOfPoolSize) {
  const std::vector<SegmentRecord> records = MakeRecords();
  const std::vector<STQuery> queries = MakeQueries();
  const std::vector<Box3D> boxes = SegmentsToBoxes(records, 0, kTimeDomain);

  const auto build = [&boxes] {
    auto tree = std::make_unique<RStarTree>();
    for (size_t i = 0; i < boxes.size(); ++i) {
      tree->Insert(boxes[i], static_cast<DataId>(i));
    }
    return tree;
  };
  const std::unique_ptr<RStarTree> arena_tree = build();
  const std::unique_ptr<RStarTree> file_tree = build();
  ASSERT_TRUE(
      file_tree->AttachBackend(MakeFileBackend("diff_rstar_sizes")).ok());

  const std::vector<QueryOutcome> baseline =
      RStarBaseline(*arena_tree, queries);
  ASSERT_GT(TotalMisses(baseline), 0u);

  for (const size_t pool_pages : {size_t{1}, size_t{3}, size_t{4096}}) {
    for (const int threads : {1, 7}) {
      EXPECT_EQ(RunRStar(*arena_tree, queries, threads, pool_pages), baseline)
          << "arena, pool_pages=" << pool_pages
          << ", threads=" << threads;
      const uint64_t reads_before = FileReads();
      EXPECT_EQ(RunRStar(*file_tree, queries, threads, pool_pages), baseline)
          << "file backend, pool_pages=" << pool_pages
          << ", threads=" << threads;
      if (pool_pages == 4096) {
        EXPECT_LE(FileReads() - reads_before, file_tree->PageCount());
      }
    }
  }
}

TEST(BackendDifferentialTest, FileBackendSurvivesReopen) {
  // Persist an R*-tree to a file, then read the raw pages back through a
  // freshly opened backend: every live page must decode to the same bytes
  // the original backend serves.
  const std::vector<SegmentRecord> records = MakeRecords();
  const std::vector<Box3D> boxes = SegmentsToBoxes(records, 0, kTimeDomain);
  auto tree = std::make_unique<RStarTree>();
  for (size_t i = 0; i < boxes.size(); ++i) {
    tree->Insert(boxes[i], static_cast<DataId>(i));
  }
  const std::string path = ::testing::TempDir() + "/diff_reopen.stpages";
  Result<std::unique_ptr<FilePageBackend>> created =
      FilePageBackend::Create(path);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  ASSERT_TRUE(tree->AttachBackend(std::move(created).value()).ok());
  const size_t live = tree->backend()->LivePageCount();
  const size_t slots = tree->backend()->SlotCount();
  ASSERT_GT(live, 0u);

  std::vector<std::vector<uint8_t>> original(slots);
  for (PageId id = 0; id < slots; ++id) {
    if (!tree->backend()->IsAllocated(id)) continue;
    original[id].resize(kPageSize);
    ASSERT_TRUE(tree->backend()->Read(id, original[id].data()).ok());
  }
  tree.reset();  // syncs and closes the file

  Result<std::unique_ptr<FilePageBackend>> reopened =
      FilePageBackend::Open(path);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(reopened.value()->LivePageCount(), live);
  EXPECT_EQ(reopened.value()->SlotCount(), slots);
  for (PageId id = 0; id < slots; ++id) {
    if (original[id].empty()) {
      EXPECT_FALSE(reopened.value()->IsAllocated(id));
      continue;
    }
    uint8_t buffer[kPageSize];
    ASSERT_TRUE(reopened.value()->Read(id, buffer).ok());
    EXPECT_EQ(std::memcmp(buffer, original[id].data(), kPageSize), 0)
        << "page " << id;
  }
}

// The live-ingestion differential (the Figure 17/18 protocol run through
// the live tier): streaming a dataset through LiveIndex -> WAL ->
// MigrationPipeline must leave a PPR-tree *byte-identical* to batch-
// building one from the very segments the migration produced — same
// answers AND same per-query miss counts, at every thread count. This
// pins the pipeline's ordering claim: watermark-gated event application
// replays exactly the (time, deletes-first, id) sequence BuildPprTree
// uses.
TEST(BackendDifferentialTest, LiveIngestedPprMatchesBatchBuild) {
  RandomDatasetConfig config;
  config.num_objects = 300;
  config.seed = 42;
  config.time_domain = kTimeDomain;
  const std::vector<Trajectory> objects = GenerateRandomDataset(config);
  const std::vector<STQuery> queries = MakeQueries();

  LiveTierOptions options;
  options.index.capacity = 24;
  options.index.buffer = 4000;
  Result<std::unique_ptr<LiveTier>> tier =
      LiveTier::Open(options, std::make_unique<MemoryPageBackend>());
  ASSERT_TRUE(tier.ok()) << tier.status().ToString();

  const std::vector<LiveObservation> stream = MakeObservationStream(objects);
  for (size_t i = 0; i < stream.size(); ++i) {
    ASSERT_TRUE(tier.value()->Apply(stream[i]).ok());
    if ((i + 1) % 64 == 0) {
      ASSERT_TRUE(tier.value()->Commit().ok());
    }
  }
  ASSERT_TRUE(tier.value()->Finish().ok());

  const std::vector<SegmentRecord>& segments =
      tier.value()->migrated_segments();
  ASSERT_GT(segments.size(), objects.size());
  const std::unique_ptr<PprTree> batch = BuildPprTree(segments);

  // Identical structure, not just identical answers.
  EXPECT_EQ(tier.value()->historical().PageCount(), batch->PageCount());
  EXPECT_EQ(tier.value()->historical().NumRoots(), batch->NumRoots());

  const std::vector<QueryOutcome> baseline = PprBaseline(*batch, queries);
  ASSERT_GT(TotalMisses(baseline), 0u);
  for (const int threads : {1, 2, 7}) {
    EXPECT_EQ(RunPpr(tier.value()->historical(), queries, threads), baseline)
        << "live-ingested tree, threads=" << threads;
  }

  // And the tiered query facade agrees with the batch tree at object
  // granularity.
  for (size_t q = 0; q < queries.size(); ++q) {
    std::vector<ObjectId> want;
    for (const uint64_t id : baseline[q].results) {
      want.push_back(segments[id].object);
    }
    std::sort(want.begin(), want.end());
    want.erase(std::unique(want.begin(), want.end()), want.end());
    std::vector<ObjectId> got;
    tier.value()->IntervalQuery(queries[q].area, queries[q].range, &got);
    EXPECT_EQ(got, want) << "query " << q;
  }
}

}  // namespace
}  // namespace stindex
