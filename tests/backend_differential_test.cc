// Differential tests for the storage backends: the same seeded dataset
// indexed two ways — the tree's own arena of node pages, and a snapshot
// file packed from it and mapped, so every pool miss borrows one page of
// the file — must answer every query byte-identically and with identical
// per-query buffer-miss counts (the paper's "disk accesses" metric), at
// every thread count and pool size. The baseline is scored by an LRU
// oracle from the recorded page-access sequence, not by any pool. This
// pins the property that moving the experiments onto real files changes
// nothing about the reported numbers.
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
#include "storage/file_backend.h"
#include "storage/page_backend.h"
#include "storage/shared_buffer_pool.h"
#include "storage/snapshot_file.h"
#include "temp_path.h"
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

// Packs `tree` into a mapped snapshot: every pool miss borrows one page
// of the file. The tree keeps the file mapped, so its name goes at once.
template <typename Tree>
void Pack(Tree* tree, const std::string& name) {
  const TempPath path(name + ".stsnap");
  const Status status = tree->PackSnapshot(path);
  ASSERT_TRUE(status.ok()) << status.ToString();
}

// Runs the query set through one fresh shared pool of `pool_pages`
// frames (0: the tree's default); stores the pool's real misses in
// `*pool_misses` when given.
std::vector<QueryOutcome> RunPpr(const PprTree& tree,
                                 const std::vector<STQuery>& queries,
                                 int num_threads, size_t pool_pages = 0,
                                 uint64_t* pool_misses = nullptr) {
  const std::unique_ptr<SharedBufferPool> pool =
      tree.NewSharedQueryPool(pool_pages);
  std::vector<QueryOutcome> outcomes =
      RunSessions(pool.get(), queries, num_threads, PprQuery(tree));
  if (pool_misses != nullptr) *pool_misses = pool->AggregateStats().misses;
  return outcomes;
}

std::vector<QueryOutcome> RunRStar(const RStarTree& tree,
                                   const std::vector<STQuery>& queries,
                                   int num_threads, size_t pool_pages = 0,
                                   uint64_t* pool_misses = nullptr) {
  const std::unique_ptr<SharedBufferPool> pool =
      tree.NewSharedQueryPool(pool_pages);
  std::vector<QueryOutcome> outcomes = RunSessions(
      pool.get(), queries, num_threads, RStarQuery(tree, kTimeDomain));
  if (pool_misses != nullptr) *pool_misses = pool->AggregateStats().misses;
  return outcomes;
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

uint64_t SnapshotBorrows() {
  return MetricRegistry::Global().GetCounter("backend.mmap.borrows")->Value();
}

// Runs `tree`'s queries through one fresh default-size pool and checks
// that every real pool miss borrowed exactly one page of the snapshot,
// and that shared residency kept the borrows at or below the protocol
// misses.
template <typename Tree>
std::vector<QueryOutcome> RunCountingBorrows(
    const Tree& tree, const std::vector<STQuery>& queries, int num_threads,
    const QueryFn& run_query) {
  const std::unique_ptr<SharedBufferPool> pool = tree.NewSharedQueryPool();
  const uint64_t borrows_before = SnapshotBorrows();
  std::vector<QueryOutcome> outcomes =
      RunSessions(pool.get(), queries, num_threads, run_query);
  const uint64_t borrows = SnapshotBorrows() - borrows_before;
  EXPECT_GT(borrows, 0u) << "threads=" << num_threads;
  EXPECT_EQ(borrows, pool->AggregateStats().misses)
      << "threads=" << num_threads;
  EXPECT_LE(borrows, TotalMisses(outcomes)) << "threads=" << num_threads;
  return outcomes;
}

TEST(BackendDifferentialTest, PprTreeIdenticalAcrossBackendsAndThreads) {
  const std::vector<SegmentRecord> records = MakeRecords();
  const std::vector<STQuery> queries = MakeQueries();

  const std::unique_ptr<PprTree> arena_tree = BuildPprTree(records);
  const std::unique_ptr<PprTree> packed = BuildPprTree(records);
  Pack(packed.get(), "diff_ppr");

  const std::vector<QueryOutcome> baseline = PprBaseline(*arena_tree, queries);
  ASSERT_GT(TotalMisses(baseline), 0u);

  for (const int threads : {1, 2, 7, 16}) {
    EXPECT_EQ(RunPpr(*arena_tree, queries, threads), baseline)
        << "arena, threads=" << threads;
    EXPECT_EQ(RunCountingBorrows(*packed, queries, threads,
                                 PprQuery(*packed)),
              baseline)
        << "snapshot, threads=" << threads;
  }
}

TEST(BackendDifferentialTest, PprProtocolMissesIndependentOfPoolSize) {
  // Protocol accounting simulates the paper's private LRU per session, so
  // answers AND per-query misses cannot depend on how many real frames
  // the shared pool has — from one frame (all pins overflow) to the
  // whole tree — while the real borrows underneath only deduplicate.
  const std::vector<SegmentRecord> records = MakeRecords();
  const std::vector<STQuery> queries = MakeQueries();

  const std::unique_ptr<PprTree> arena_tree = BuildPprTree(records);
  const std::unique_ptr<PprTree> packed = BuildPprTree(records);
  Pack(packed.get(), "diff_ppr_sizes");

  const std::vector<QueryOutcome> baseline = PprBaseline(*arena_tree, queries);
  ASSERT_GT(TotalMisses(baseline), 0u);

  for (const size_t pool_pages : {size_t{1}, size_t{3}, size_t{4096}}) {
    for (const int threads : {1, 7}) {
      EXPECT_EQ(RunPpr(*arena_tree, queries, threads, pool_pages), baseline)
          << "arena, pool_pages=" << pool_pages
          << ", threads=" << threads;
      const uint64_t borrows_before = SnapshotBorrows();
      uint64_t pool_misses = 0;
      EXPECT_EQ(RunPpr(*packed, queries, threads, pool_pages, &pool_misses),
                baseline)
          << "snapshot, pool_pages=" << pool_pages
          << ", threads=" << threads;
      const uint64_t borrows = SnapshotBorrows() - borrows_before;
      EXPECT_EQ(borrows, pool_misses)
          << "pool_pages=" << pool_pages << ", threads=" << threads;
      if (pool_pages == 4096) {
        // The pool holds the whole tree: each page is borrowed at most
        // once.
        EXPECT_LE(borrows, packed->PageCount());
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
  const std::unique_ptr<RStarTree> packed = build();
  Pack(packed.get(), "diff_rstar");

  const std::vector<QueryOutcome> baseline =
      RStarBaseline(*arena_tree, queries);
  ASSERT_GT(TotalMisses(baseline), 0u);

  for (const int threads : {1, 2, 7, 16}) {
    EXPECT_EQ(RunRStar(*arena_tree, queries, threads), baseline)
        << "arena, threads=" << threads;
    EXPECT_EQ(RunCountingBorrows(*packed, queries, threads,
                                 RStarQuery(*packed, kTimeDomain)),
              baseline)
        << "snapshot, threads=" << threads;
  }
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
  const std::unique_ptr<RStarTree> packed = build();
  Pack(packed.get(), "diff_rstar_sizes");

  const std::vector<QueryOutcome> baseline =
      RStarBaseline(*arena_tree, queries);
  ASSERT_GT(TotalMisses(baseline), 0u);

  for (const size_t pool_pages : {size_t{1}, size_t{3}, size_t{4096}}) {
    for (const int threads : {1, 7}) {
      EXPECT_EQ(RunRStar(*arena_tree, queries, threads, pool_pages), baseline)
          << "arena, pool_pages=" << pool_pages
          << ", threads=" << threads;
      const uint64_t borrows_before = SnapshotBorrows();
      uint64_t pool_misses = 0;
      EXPECT_EQ(
          RunRStar(*packed, queries, threads, pool_pages, &pool_misses),
          baseline)
          << "snapshot, pool_pages=" << pool_pages
          << ", threads=" << threads;
      const uint64_t borrows = SnapshotBorrows() - borrows_before;
      EXPECT_EQ(borrows, pool_misses)
          << "pool_pages=" << pool_pages << ", threads=" << threads;
      if (pool_pages == 4096) {
        EXPECT_LE(borrows, packed->PageCount());
      }
    }
  }
}

TEST(BackendDifferentialTest, FileBackendSurvivesReopen) {
  // Write sealed R*-tree node pages straight into a page file (the
  // backend the live tier journals to), skipping one slot, then read the
  // raw pages back through a freshly opened backend: every written page
  // reads back byte-identical, and the skipped slot reads as zeros.
  const std::vector<SegmentRecord> records = MakeRecords();
  const std::vector<Box3D> boxes = SegmentsToBoxes(records, 0, kTimeDomain);
  RStarTree tree;
  for (size_t i = 0; i < boxes.size(); ++i) {
    tree.Insert(boxes[i], static_cast<DataId>(i));
  }
  const TempPath snap_path("diff_reopen.stsnap");
  ASSERT_TRUE(tree.PackSnapshot(snap_path).ok());
  const size_t slots = tree.backend()->SlotCount();
  ASSERT_GT(slots, 2u);

  const TempPath path("diff_reopen.stpages");
  Result<std::unique_ptr<FilePageBackend>> created =
      FilePageBackend::Create(path);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  const PageId skipped = static_cast<PageId>(slots / 2);
  std::vector<std::vector<uint8_t>> original(slots,
                                             std::vector<uint8_t>(kPageSize));
  for (PageId id = 0; id < slots; ++id) {
    if (id == skipped) continue;
    ASSERT_TRUE(tree.backend()->Read(id, original[id].data()).ok());
    ASSERT_TRUE(created.value()->Write(id, original[id].data()).ok());
  }
  EXPECT_EQ(created.value()->SlotCount(), slots);
  ASSERT_TRUE(created.value()->Sync().ok());
  created.value().reset();  // closes the file

  Result<std::unique_ptr<FilePageBackend>> reopened =
      FilePageBackend::Open(path);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(reopened.value()->SlotCount(), slots);
  for (PageId id = 0; id < slots; ++id) {
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

  const SegmentTable& table = tier.value()->migrated_segments();
  std::vector<SegmentRecord> segments;
  for (size_t i = 0; i < table.size(); ++i) segments.push_back(table[i]);
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
