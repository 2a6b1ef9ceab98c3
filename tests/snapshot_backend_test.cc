// Differential tests for the zero-copy mmap snapshot backend: a tree
// packed into a read-only snapshot must answer every query byte-
// identically and with identical per-query protocol-mode miss counts to
// the tree's own arena at every thread count, each real pool miss
// borrowing one mapped page — packing remaps page ids through a
// bijection, and LRU behaviour depends only on the equality structure of
// the access sequence. The suite also covers a pack that fails (the
// tree, or the live tier, keeps serving its arena unchanged), a LiveTier
// whose historical tree was packed mid-stream, a mapping that open
// leaves non-resident, a file that cannot be mapped, and open-time
// corruption detection (truncation, bad magic, version skew, bit flips,
// manifest and extent mismatches), extending the storage_fault_test.cc
// patterns to the snapshot path.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
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
#include "proc_status.h"
#include "rstar/rstar_tree.h"
#include "storage/file_backend.h"
#include "storage/page_backend.h"
#include "storage/page_codec.h"
#include "storage/shared_buffer_pool.h"
#include "storage/snapshot_file.h"
#include "storage/tree_pages.h"
#include "temp_path.h"
#include "util/metrics.h"
#include "util/random.h"
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
  const Distribution dist =
      DistributeLAGreedy(curves, static_cast<int64_t>(objects.size()), 1);
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

// Runs the query set through one fresh shared pool of `tree`; adds the
// pool's real misses to `*pool_misses` when given.
std::vector<QueryOutcome> RunPpr(const PprTree& tree,
                                 const std::vector<STQuery>& queries,
                                 int num_threads,
                                 uint64_t* pool_misses = nullptr) {
  const std::unique_ptr<SharedBufferPool> pool = tree.NewSharedQueryPool();
  std::vector<QueryOutcome> outcomes =
      RunSessions(pool.get(), queries, num_threads, PprQuery(tree));
  if (pool_misses != nullptr) *pool_misses += pool->AggregateStats().misses;
  return outcomes;
}

std::vector<QueryOutcome> RunRStar(const RStarTree& tree,
                                   const std::vector<STQuery>& queries,
                                   int num_threads,
                                   uint64_t* pool_misses = nullptr) {
  const std::unique_ptr<SharedBufferPool> pool = tree.NewSharedQueryPool();
  std::vector<QueryOutcome> outcomes = RunSessions(
      pool.get(), queries, num_threads, RStarQuery(tree, kTimeDomain));
  if (pool_misses != nullptr) *pool_misses += pool->AggregateStats().misses;
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

uint64_t Metric(const char* name) {
  return MetricRegistry::Global().GetCounter(name)->Value();
}

TEST(SnapshotBackendTest, PprSnapshotIdenticalAcrossBackendsAndThreads) {
  const TempPath snap_ppr("snap_ppr.stsnap");
  const std::vector<SegmentRecord> records = MakeRecords();
  const std::vector<STQuery> queries = MakeQueries();

  const std::unique_ptr<PprTree> arena_tree = BuildPprTree(records);
  const std::unique_ptr<PprTree> packed = BuildPprTree(records);
  ASSERT_TRUE(packed->PackSnapshot(snap_ppr).ok());
  ASSERT_NE(packed->backend(), nullptr);
  EXPECT_EQ(packed->backend()->Name(), "mmap");

  const std::vector<QueryOutcome> baseline = PprBaseline(*arena_tree, queries);
  ASSERT_GT(TotalMisses(baseline), 0u);

  const uint64_t file_reads_before = Metric("backend.file.reads");
  const uint64_t borrows_before = Metric("backend.mmap.borrows");
  uint64_t snapshot_misses = 0;
  for (const int threads : {1, 2, 7, 16}) {
    EXPECT_EQ(RunPpr(*arena_tree, queries, threads), baseline)
        << "arena, threads=" << threads;
    EXPECT_EQ(RunPpr(*packed, queries, threads, &snapshot_misses), baseline)
        << "mmap backend, threads=" << threads;
  }
  // The snapshot runs were zero-copy: every real pool miss borrowed one
  // mapped page, and none read a file backend (the warm-path acceptance
  // gate for --backend=mmap).
  EXPECT_EQ(Metric("backend.file.reads"), file_reads_before);
  EXPECT_GT(snapshot_misses, 0u);
  EXPECT_EQ(Metric("backend.mmap.borrows"), borrows_before + snapshot_misses);
}

TEST(SnapshotBackendTest, RStarSnapshotIdenticalAcrossBackendsAndThreads) {
  const TempPath snap_rstar("snap_rstar.stsnap");
  const std::vector<SegmentRecord> records = MakeRecords();
  const std::vector<STQuery> queries = MakeQueries();
  const std::vector<Box3D> boxes = SegmentsToBoxes(records, 0, kTimeDomain);

  // Deletes leave holes in the arena's id space, so the packer's
  // live-id collection and remap are both exercised.
  const auto build = [&boxes] {
    auto tree = std::make_unique<RStarTree>();
    for (size_t i = 0; i < boxes.size(); ++i) {
      tree->Insert(boxes[i], static_cast<DataId>(i));
    }
    for (size_t i = 0; i < boxes.size(); i += 5) {
      EXPECT_TRUE(tree->Delete(boxes[i], static_cast<DataId>(i)));
    }
    return tree;
  };
  const std::unique_ptr<RStarTree> arena_tree = build();
  const std::unique_ptr<RStarTree> packed = build();
  ASSERT_TRUE(packed->PackSnapshot(snap_rstar).ok());

  const std::vector<QueryOutcome> baseline =
      RStarBaseline(*arena_tree, queries);
  ASSERT_GT(TotalMisses(baseline), 0u);

  const uint64_t file_reads_before = Metric("backend.file.reads");
  const uint64_t borrows_before = Metric("backend.mmap.borrows");
  uint64_t snapshot_misses = 0;
  for (const int threads : {1, 2, 7, 16}) {
    EXPECT_EQ(RunRStar(*arena_tree, queries, threads), baseline)
        << "arena, threads=" << threads;
    EXPECT_EQ(RunRStar(*packed, queries, threads, &snapshot_misses), baseline)
        << "mmap backend, threads=" << threads;
  }
  EXPECT_EQ(Metric("backend.file.reads"), file_reads_before);
  EXPECT_GT(snapshot_misses, 0u);
  EXPECT_EQ(Metric("backend.mmap.borrows"), borrows_before + snapshot_misses);
}

TEST(SnapshotBackendTest, PackedTreeRefusesMutation) {
  const TempPath snap_frozen("snap_frozen.stsnap");
  const TempPath snap_frozen2("snap_frozen2.stsnap");
  const std::vector<SegmentRecord> records = MakeRecords();
  const std::unique_ptr<RStarTree> tree = std::make_unique<RStarTree>();
  const std::vector<Box3D> boxes = SegmentsToBoxes(records, 0, kTimeDomain);
  for (size_t i = 0; i < 50; ++i) {
    tree->Insert(boxes[i], static_cast<DataId>(i));
  }
  ASSERT_TRUE(tree->PackSnapshot(snap_frozen).ok());
  EXPECT_DEATH(tree->Insert(boxes[0], 999), "frozen");
  // A second pack is a programming error too: the tree serves its
  // snapshot already.
  EXPECT_DEATH(
      static_cast<void>(tree->PackSnapshot(snap_frozen2)),
      "tree already packed");
}

TEST(SnapshotBackendTest, EmptySnapshotRoundTrips) {
  const TempPath snap_empty("snap_empty.stsnap");
  PprTree tree;
  ASSERT_TRUE(tree.PackSnapshot(snap_empty).ok());
  Result<std::unique_ptr<MmapSnapshotBackend>> backend =
      MmapSnapshotBackend::Open(snap_empty);
  ASSERT_TRUE(backend.ok()) << backend.status().ToString();
  EXPECT_EQ(backend.value()->SlotCount(), 0u);
  std::vector<PprDataId> results;
  tree.IntervalQuery(Rect2D(0, 0, 1, 1), TimeInterval(0, kTimeDomain),
                     &results);
  EXPECT_TRUE(results.empty());
}

// A pack that fails changes nothing: the Status names the path, the
// tree keeps serving its arena with the same answers and per-query
// protocol misses, and a later pack to a good path succeeds. Two
// failure points: a missing directory (the snapshot file cannot be
// created) and /dev/full (the superblock reservation's pwrite fails with
// ENOSPC).
std::vector<std::string> FailingPackPaths(const std::string& name) {
  return {::testing::TempDir() + "/missing_dir/" + name + ".stsnap",
          "/dev/full"};
}

template <typename Tree>
void ExpectFailedPackKeepsServing(Tree* tree,
                                  const std::vector<STQuery>& queries,
                                  const QueryFn& run_query,
                                  const std::string& name) {
  const auto run = [&] {
    const std::unique_ptr<SharedBufferPool> pool = tree->NewSharedQueryPool();
    return RunSessions(pool.get(), queries, 1, run_query);
  };
  const std::vector<QueryOutcome> before = run();
  ASSERT_GT(TotalMisses(before), 0u);
  for (const std::string& path : FailingPackPaths(name)) {
    const Status status = tree->PackSnapshot(path);
    EXPECT_FALSE(status.ok()) << path;
    EXPECT_NE(status.message().find(path), std::string::npos)
        << status.ToString();
    EXPECT_EQ(tree->backend(), nullptr) << path;
    EXPECT_EQ(run(), before) << "after a failed pack to " << path;
  }
  const TempPath snap_path(name + ".stsnap");
  const Status packed = tree->PackSnapshot(snap_path);
  ASSERT_TRUE(packed.ok()) << packed.ToString();
  ASSERT_NE(tree->backend(), nullptr);
  EXPECT_EQ(run(), before) << "after the good pack";
}

TEST(SnapshotBackendTest, FailedPackKeepsServingTheArena) {
  const std::vector<SegmentRecord> records = MakeRecords();
  const std::vector<STQuery> queries = MakeQueries();
  const std::unique_ptr<PprTree> ppr = BuildPprTree(records);
  ExpectFailedPackKeepsServing(ppr.get(), queries, PprQuery(*ppr),
                               "rollback_ppr");

  const std::vector<Box3D> boxes = SegmentsToBoxes(records, 0, kTimeDomain);
  RStarTree rstar;
  for (size_t i = 0; i < boxes.size(); ++i) {
    rstar.Insert(boxes[i], static_cast<DataId>(i));
  }
  for (size_t i = 0; i < boxes.size(); i += 5) {
    ASSERT_TRUE(rstar.Delete(boxes[i], static_cast<DataId>(i)));
  }
  ExpectFailedPackKeepsServing(&rstar, queries, RStarQuery(rstar, kTimeDomain),
                               "rollback_rstar");
}

// A tree restored from its checkpoint meta adopts the snapshot its pack
// wrote and answers — results and misses — like the packed tree; a meta
// whose root journal names a node the snapshot does not hold is refused.
TEST(SnapshotBackendTest, AdoptedSnapshotServesLikeThePackedTree) {
  const TempPath snap_adopted("adopted.stsnap");
  const TempPath snap_adopted_small("adopted_small.stsnap");
  const std::vector<SegmentRecord> records = MakeRecords();
  const std::vector<STQuery> queries = MakeQueries();
  const std::unique_ptr<PprTree> packed = BuildPprTree(records);
  ASSERT_TRUE(packed->PackSnapshot(snap_adopted).ok());
  MemorySink meta;
  packed->EncodeCheckpointMeta(&meta);
  const auto restore = [&meta](const std::string& path,
                               PprTree* tree) -> Status {
    PageReader in(meta.bytes().data(), meta.bytes().size());
    Status status = tree->DecodeCheckpointMeta(&in);
    if (!status.ok()) return status;
    Result<std::unique_ptr<MmapSnapshotBackend>> snapshot =
        MmapSnapshotBackend::Open(path);
    if (!snapshot.ok()) return snapshot.status();
    return tree->AdoptSnapshot(std::move(snapshot).value());
  };

  PprTree adopted;
  const Status status = restore(snap_adopted, &adopted);
  ASSERT_TRUE(status.ok()) << status.ToString();
  ASSERT_NE(adopted.backend(), nullptr);
  EXPECT_EQ(adopted.NodeCount(), packed->NodeCount());
  EXPECT_EQ(RunPpr(adopted, queries, 1), RunPpr(*packed, queries, 1));
  adopted.CheckInvariants();

  SegmentRecord lone;
  lone.object = 1;
  lone.box = STBox(Rect2D(0.1, 0.1, 0.2, 0.2), TimeInterval(0, 5));
  ASSERT_TRUE(
      BuildPprTree({lone})->PackSnapshot(snap_adopted_small).ok());
  PprTree mismatched;
  const Status refused = restore(snap_adopted_small, &mismatched);
  EXPECT_EQ(refused.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(refused.message().find("but the snapshot holds 1 nodes"),
            std::string::npos)
      << refused.ToString();
}

// The live tier's side of the contract: after a failed PackHistorical
// the tier has no frozen layer, keeps taking updates, commits and
// checkpoints, and a later pack answers like a never-packed run.
TEST(SnapshotBackendTest, LiveTierFailedPackKeepsServing) {
  const TempPath snap_rollback_live("rollback_live.stsnap");
  RandomDatasetConfig config;
  config.num_objects = 300;
  config.seed = 42;
  config.time_domain = kTimeDomain;
  const std::vector<Trajectory> objects = GenerateRandomDataset(config);
  const std::vector<LiveObservation> stream = MakeObservationStream(objects);
  const std::vector<STQuery> queries = MakeQueries();

  LiveTierOptions options;
  options.index.capacity = 24;
  options.index.buffer = 4000;
  const auto open = [&options] {
    Result<std::unique_ptr<LiveTier>> tier =
        LiveTier::Open(options, std::make_unique<MemoryPageBackend>());
    EXPECT_TRUE(tier.ok()) << tier.status().ToString();
    return std::move(tier).value();
  };
  const auto feed = [&stream](LiveTier* tier, size_t from, size_t to) {
    for (size_t i = from; i < to; ++i) {
      ASSERT_TRUE(tier->Apply(stream[i]).ok());
      if ((i + 1) % 64 == 0) {
        ASSERT_TRUE(tier->Commit().ok());
      }
    }
  };

  const std::unique_ptr<LiveTier> reference = open();
  feed(reference.get(), 0, stream.size());
  ASSERT_TRUE(reference->Finish().ok());

  const std::unique_ptr<LiveTier> tier = open();
  const size_t half = stream.size() / 2;
  const size_t three_quarters = stream.size() * 3 / 4;
  feed(tier.get(), 0, half);
  for (const std::string& path : FailingPackPaths("rollback_live")) {
    const Status status = tier->PackHistorical(path);
    EXPECT_FALSE(status.ok()) << path;
    EXPECT_NE(status.message().find(path), std::string::npos)
        << status.ToString();
    EXPECT_EQ(tier->frozen_layers(), 0u) << path;
  }
  feed(tier.get(), half, three_quarters);
  ASSERT_TRUE(tier->Commit().ok());
  ASSERT_TRUE(tier->Checkpoint().ok());
  ASSERT_TRUE(tier->PackHistorical(snap_rollback_live).ok());
  EXPECT_EQ(tier->frozen_layers(), 1u);
  feed(tier.get(), three_quarters, stream.size());
  ASSERT_TRUE(tier->Finish().ok());

  for (size_t q = 0; q < queries.size(); ++q) {
    std::vector<ObjectId> want;
    reference->IntervalQuery(queries[q].area, queries[q].range, &want);
    std::vector<ObjectId> got;
    tier->IntervalQuery(queries[q].area, queries[q].range, &got);
    EXPECT_EQ(got, want) << "interval query " << q;

    std::vector<ObjectId> want_snap;
    reference->SnapshotQuery(queries[q].area, queries[q].range.start,
                             &want_snap);
    std::vector<ObjectId> got_snap;
    tier->SnapshotQuery(queries[q].area, queries[q].range.start, &got_snap);
    EXPECT_EQ(got_snap, want_snap) << "snapshot query " << q;
  }
}

// A LiveTier whose historical tree was packed mid-stream (and again
// after Finish) must answer exactly like a never-packed reference run of
// the same schedule: the frozen layers plus the fresh active tree plus
// the frozen-delete clipping reconstruct the single-tree answers.
TEST(SnapshotBackendTest, LiveTierPackedMidStreamMatchesReference) {
  RandomDatasetConfig config;
  config.num_objects = 300;
  config.seed = 42;
  config.time_domain = kTimeDomain;
  const std::vector<Trajectory> objects = GenerateRandomDataset(config);
  const std::vector<LiveObservation> stream = MakeObservationStream(objects);
  const std::vector<STQuery> queries = MakeQueries();

  LiveTierOptions options;
  options.index.capacity = 24;
  options.index.buffer = 4000;

  const TempPath snap_paths[] = {TempPath("snap_live_0.stsnap"),
                                 TempPath("snap_live_1.stsnap")};
  size_t pack_counter = 0;
  const auto run = [&](size_t pack_at,
                       bool pack_after_finish) -> std::unique_ptr<LiveTier> {
    Result<std::unique_ptr<LiveTier>> tier =
        LiveTier::Open(options, std::make_unique<MemoryPageBackend>());
    EXPECT_TRUE(tier.ok()) << tier.status().ToString();
    for (size_t i = 0; i < stream.size(); ++i) {
      EXPECT_TRUE(tier.value()->Apply(stream[i]).ok());
      if ((i + 1) % 64 == 0) {
        EXPECT_TRUE(tier.value()->Commit().ok());
      }
      if (pack_at != 0 && i + 1 == pack_at) {
        EXPECT_TRUE(
            tier.value()->PackHistorical(snap_paths[pack_counter++]).ok());
      }
    }
    EXPECT_TRUE(tier.value()->Finish().ok());
    if (pack_after_finish) {
      EXPECT_TRUE(
          tier.value()->PackHistorical(snap_paths[pack_counter++]).ok());
    }
    return std::move(tier).value();
  };

  const std::unique_ptr<LiveTier> reference = run(0, false);
  ASSERT_EQ(reference->frozen_layers(), 0u);
  const std::unique_ptr<LiveTier> packed =
      run(stream.size() / 2, /*pack_after_finish=*/true);
  ASSERT_EQ(packed->frozen_layers(), 2u);

  for (size_t q = 0; q < queries.size(); ++q) {
    std::vector<ObjectId> want;
    reference->IntervalQuery(queries[q].area, queries[q].range, &want);
    std::vector<ObjectId> got;
    packed->IntervalQuery(queries[q].area, queries[q].range, &got);
    EXPECT_EQ(got, want) << "interval query " << q;

    std::vector<ObjectId> want_snap;
    reference->SnapshotQuery(queries[q].area, queries[q].range.start,
                             &want_snap);
    std::vector<ObjectId> got_snap;
    packed->SnapshotQuery(queries[q].area, queries[q].range.start, &got_snap);
    EXPECT_EQ(got_snap, want_snap) << "snapshot query " << q;
  }
}

// A mid-stream pack survives a checkpoint + recovery cycle: the layered
// checkpoint names the frozen layer's snapshot file, recovery maps it
// again — the layer serves zero-copy from the mapping — and its hits keep
// being clipped to their segments' intervals.
TEST(SnapshotBackendTest, LiveTierPackSurvivesCheckpointRecovery) {
  const TempPath snap_live_ckpt("snap_live_ckpt.stsnap");
  RandomDatasetConfig config;
  config.num_objects = 120;
  config.seed = 7;
  config.time_domain = 400;
  const std::vector<Trajectory> objects = GenerateRandomDataset(config);
  const std::vector<LiveObservation> stream = MakeObservationStream(objects);

  LiveTierOptions options;
  options.index.capacity = 16;

  const TempPath wal_path("snap_live_wal.stpages");
  Result<std::unique_ptr<FilePageBackend>> wal =
      FilePageBackend::Create(wal_path);
  ASSERT_TRUE(wal.ok());
  Result<std::unique_ptr<LiveTier>> tier =
      LiveTier::Open(options, std::move(wal).value());
  ASSERT_TRUE(tier.ok()) << tier.status().ToString();

  const size_t half = stream.size() / 2;
  for (size_t i = 0; i < half; ++i) {
    ASSERT_TRUE(tier.value()->Apply(stream[i]).ok());
    if ((i + 1) % 32 == 0) {
      ASSERT_TRUE(tier.value()->Commit().ok());
    }
  }
  ASSERT_TRUE(
      tier.value()->PackHistorical(snap_live_ckpt).ok());
  ASSERT_EQ(tier.value()->frozen_layers(), 1u);
  // The checkpoint persists the layering; recovery must restore it.
  ASSERT_TRUE(tier.value()->Checkpoint().ok());
  for (size_t i = half; i < stream.size(); ++i) {
    ASSERT_TRUE(tier.value()->Apply(stream[i]).ok());
  }
  ASSERT_TRUE(tier.value()->Finish().ok());
  const std::vector<STQuery> queries = MakeQueries();
  std::vector<std::vector<ObjectId>> want(queries.size());
  for (size_t q = 0; q < queries.size(); ++q) {
    tier.value()->IntervalQuery(queries[q].area, queries[q].range, &want[q]);
  }
  tier.value().reset();

  Result<std::unique_ptr<FilePageBackend>> reopened =
      FilePageBackend::Open(wal_path);
  ASSERT_TRUE(reopened.ok());
  tier = LiveTier::Open(options, std::move(reopened).value());
  ASSERT_TRUE(tier.ok()) << tier.status().ToString();
  ASSERT_EQ(tier.value()->frozen_layers(), 1u);
  ASSERT_NE(tier.value()->frozen_layer(0).backend(), nullptr);
  Counter* borrows =
      MetricRegistry::Global().GetCounter("backend.mmap.borrows");
  const uint64_t borrows_before = borrows->Value();
  // Replay is idempotent; finish the recovered stream and compare.
  for (const LiveObservation& update : stream) {
    ASSERT_TRUE(tier.value()->Apply(update).ok());
  }
  ASSERT_TRUE(tier.value()->Finish().ok());
  for (size_t q = 0; q < queries.size(); ++q) {
    std::vector<ObjectId> got;
    tier.value()->IntervalQuery(queries[q].area, queries[q].range, &got);
    EXPECT_EQ(got, want[q]) << "query " << q;
  }
  EXPECT_GT(borrows->Value(), borrows_before);
}

// A pack into the file a frozen layer maps — by the same name or another
// spelling of it — would rewrite that layer's pages under it, so it is
// refused, naming the path; a pack to a new file still works, and the
// answers stay those of a never-packed run.
TEST(SnapshotBackendTest, LiveTierRefusesToPackOverAServedSnapshot) {
  const TempPath snap_served("served.stsnap");
  const TempPath snap_served_second("served_second.stsnap");
  RandomDatasetConfig config;
  config.num_objects = 300;
  config.seed = 42;
  config.time_domain = kTimeDomain;
  const std::vector<LiveObservation> stream =
      MakeObservationStream(GenerateRandomDataset(config));
  const std::vector<STQuery> queries = MakeQueries();
  LiveTierOptions options;
  options.index.capacity = 24;
  options.index.buffer = 4000;
  const auto open = [&options] {
    Result<std::unique_ptr<LiveTier>> tier =
        LiveTier::Open(options, std::make_unique<MemoryPageBackend>());
    EXPECT_TRUE(tier.ok()) << tier.status().ToString();
    return std::move(tier).value();
  };

  const std::unique_ptr<LiveTier> reference = open();
  const std::unique_ptr<LiveTier> tier = open();
  const std::string path = snap_served;
  const std::string respelled = ::testing::TempDir() + "/./served.stsnap";
  for (size_t i = 0; i < stream.size(); ++i) {
    ASSERT_TRUE(reference->Apply(stream[i]).ok());
    ASSERT_TRUE(tier->Apply(stream[i]).ok());
    if (i + 1 == stream.size() / 3) {
      ASSERT_TRUE(tier->PackHistorical(path).ok());
    }
    if (i + 1 == stream.size() * 2 / 3) {
      for (const std::string& again : {path, respelled}) {
        const Status refused = tier->PackHistorical(again);
        EXPECT_EQ(refused.code(), StatusCode::kInvalidArgument) << again;
        EXPECT_NE(refused.message().find(again), std::string::npos)
            << refused.ToString();
      }
      EXPECT_EQ(tier->frozen_layers(), 1u);
      ASSERT_TRUE(tier->PackHistorical(snap_served_second).ok());
    }
  }
  ASSERT_TRUE(reference->Finish().ok());
  ASSERT_TRUE(tier->Finish().ok());
  EXPECT_EQ(tier->frozen_layers(), 2u);

  for (size_t q = 0; q < queries.size(); ++q) {
    std::vector<ObjectId> want;
    reference->IntervalQuery(queries[q].area, queries[q].range, &want);
    std::vector<ObjectId> got;
    tier->IntervalQuery(queries[q].area, queries[q].range, &got);
    EXPECT_EQ(got, want) << "interval query " << q;
    reference->SnapshotQuery(queries[q].area, queries[q].range.start, &want);
    tier->SnapshotQuery(queries[q].area, queries[q].range.start, &got);
    EXPECT_EQ(got, want) << "snapshot query " << q;
  }
}

// Open verifies a snapshot through pread, so packing leaves the fresh
// mapping non-resident: its pages fault in only as a pool borrows them.
TEST(SnapshotResidencyTest, MappingBecomesResidentOnlyAsPoolsBorrowIt) {
  const TempPath snap_residency_warmup("residency_warmup.stsnap");
  const TempPath snap_residency("residency.stsnap");
  // Short random boxes over a long time span: a tree of over 4,096 pages.
  Rng rng(5);
  std::vector<SegmentRecord> records(96000);
  for (size_t i = 0; i < records.size(); ++i) {
    const double x = rng.UniformDouble(0.0, 0.99);
    const double y = rng.UniformDouble(0.0, 0.99);
    const Time start = rng.UniformInt(0, 20000);
    records[i].object = static_cast<ObjectId>(i);
    records[i].box = STBox(Rect2D(x, y, x + 0.01, y + 0.01),
                           TimeInterval(start, start + rng.UniformInt(1, 50)));
  }
  // Pack a small tree first, so the pack and open code faults in here
  // rather than inside the measurement.
  ASSERT_TRUE(BuildPprTree(MakeRecords())
                  ->PackSnapshot(snap_residency_warmup)
                  .ok());

  const std::unique_ptr<PprTree> tree = BuildPprTree(records);
  const int64_t before = MappedFileRssBytes();
  ASSERT_TRUE(tree->PackSnapshot(snap_residency).ok());
  const int64_t opened = MappedFileRssBytes();
  const size_t pages = tree->backend()->SlotCount();
  ASSERT_GE(pages, 4096u);
  const int64_t data_bytes = static_cast<int64_t>(pages * kPageSize);
  EXPECT_LT(opened - before, data_bytes / 10)
      << "open made " << opened - before << " of " << data_bytes
      << " mapped bytes resident";

  const std::unique_ptr<SharedBufferPool> pool =
      tree->NewSharedQueryPool(pages);
  for (PageId id = 0; id < pages; ++id) {
    bool missed = false;
    ASSERT_TRUE(pool->Pin(id, &missed).ok());
    pool->Unpin(id);
  }
  const int64_t pinned = MappedFileRssBytes();
  EXPECT_GE(pinned - before, data_bytes * 9 / 10)
      << "pinning every page made " << pinned - before << " of "
      << data_bytes << " mapped bytes resident";
}

// A snapshot that verifies but cannot be mapped is an IoError naming the
// path and errno: there is no unmapped serving mode to fall back to. The
// death test's child lowers its own address-space limit below what the
// mapping needs, so every check passes and only the mmap fails.
TEST(SnapshotMapDeathTest, UnmappableSnapshotIsAnIoErrorNamingThePath) {
  const TempPath snap("unmappable.stsnap");
  constexpr size_t kPages = 2048;  // an 8 MiB mapping
  {
    Result<std::unique_ptr<SnapshotWriter>> writer =
        SnapshotWriter::Create(snap);
    ASSERT_TRUE(writer.ok()) << writer.status().ToString();
    for (size_t i = 0; i < kPages; ++i) {
      Page* page = writer.value()->NextPage();
      PageWriter payload = PayloadWriter(page->bytes);
      payload.Write(static_cast<uint64_t>(i));
      SealPage(page->bytes, PageKind::kTest);
      ASSERT_TRUE(writer.value()->Append(0).ok());
    }
    ASSERT_TRUE(writer.value()->Finish().ok());
  }
  ASSERT_TRUE(SnapshotFile::Open(snap).ok());
  const std::string path = snap;
  EXPECT_EXIT(
      {
        // Room for Open's buffers, but not for a quarter of the mapping.
        rlimit limit;
        getrlimit(RLIMIT_AS, &limit);
        limit.rlim_cur = static_cast<rlim_t>(ProcStatusBytes("VmSize")) +
                         kPages * kPageSize / 4;
        setrlimit(RLIMIT_AS, &limit);
        const Result<std::unique_ptr<SnapshotFile>> file =
            SnapshotFile::Open(path);
        std::fprintf(stderr, "%s\n",
                     file.ok() ? "mapped" : file.status().ToString().c_str());
        std::_Exit(0);
      },
      ::testing::ExitedWithCode(0),
      "IoError: mmap\\(.*/unmappable\\.stsnap\\): Cannot allocate memory");
}

// --- corruption / fault coverage ------------------------------------------

class SnapshotCorruptionTest : public ::testing::Test {
 protected:
  // Packs a small PPR-tree and releases it, leaving just the file.
  std::string PackFixture(const std::string& name) {
    fixture_ = std::make_unique<TempPath>(name + ".stsnap");
    const std::string path = fixture_->path();
    const std::vector<SegmentRecord> records = MakeRecords();
    const std::unique_ptr<PprTree> tree = BuildPprTree(records);
    EXPECT_TRUE(tree->PackSnapshot(path).ok());
    node_count_ = tree->backend()->SlotCount();
    EXPECT_GT(node_count_, 2u);
    return path;
  }

  static std::vector<uint8_t> ReadFile(const std::string& path) {
    std::vector<uint8_t> bytes;
    FILE* f = std::fopen(path.c_str(), "rb");
    EXPECT_NE(f, nullptr);
    std::fseek(f, 0, SEEK_END);
    bytes.resize(static_cast<size_t>(std::ftell(f)));
    std::fseek(f, 0, SEEK_SET);
    EXPECT_EQ(std::fread(bytes.data(), 1, bytes.size(), f), bytes.size());
    std::fclose(f);
    return bytes;
  }

  static void WriteFile(const std::string& path,
                        const std::vector<uint8_t>& bytes) {
    FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
    std::fclose(f);
  }

  static Status OpenStatus(const std::string& path) {
    Result<std::unique_ptr<MmapSnapshotBackend>> backend =
        MmapSnapshotBackend::Open(path);
    return backend.ok() ? Status::OK() : backend.status();
  }

  std::unique_ptr<TempPath> fixture_;
  size_t node_count_ = 0;
};

TEST_F(SnapshotCorruptionTest, TruncatedSuperblockFailsOpen) {
  const std::string path = PackFixture("corrupt_trunc_super");
  ASSERT_EQ(truncate(path.c_str(), 100), 0);
  const Status status = OpenStatus(path);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.ToString().find("truncated snapshot"), std::string::npos)
      << status.ToString();
}

TEST_F(SnapshotCorruptionTest, TruncatedDataFailsOpen) {
  const std::string path = PackFixture("corrupt_trunc_data");
  // Drop the trailing manifest page: the superblock-implied size check
  // fires before any page is read.
  const std::vector<uint8_t> bytes = ReadFile(path);
  ASSERT_EQ(truncate(path.c_str(),
                     static_cast<off_t>(bytes.size() - kPageSize)),
            0);
  const Status status = OpenStatus(path);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.ToString().find("superblock implies"), std::string::npos)
      << status.ToString();
}

TEST_F(SnapshotCorruptionTest, BadMagicFailsOpen) {
  const std::string path = PackFixture("corrupt_magic");
  std::vector<uint8_t> bytes = ReadFile(path);
  // The magic is peeked before the envelope checksum, so a stray file
  // reports "not a snapshot" rather than "corrupt".
  bytes[kPageEnvelopeBytes] ^= 0xff;
  WriteFile(path, bytes);
  const Status status = OpenStatus(path);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.ToString().find("not a stindex snapshot"),
            std::string::npos)
      << status.ToString();
}

TEST_F(SnapshotCorruptionTest, VersionSkewFailsOpen) {
  const std::string path = PackFixture("corrupt_version");
  std::vector<uint8_t> bytes = ReadFile(path);
  // Payload layout: magic u64, then version u32. Bump it and reseal so
  // the envelope is valid and the version check itself fires.
  uint32_t version = 0;
  std::memcpy(&version, bytes.data() + kPageEnvelopeBytes + 8,
              sizeof(version));
  version += 1;
  std::memcpy(bytes.data() + kPageEnvelopeBytes + 8, &version,
              sizeof(version));
  SealPage(bytes.data(), PageKind::kSnapshotSuperblock);
  WriteFile(path, bytes);
  const Status status = OpenStatus(path);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.ToString().find("unsupported snapshot version"),
            std::string::npos)
      << status.ToString();
}

TEST_F(SnapshotCorruptionTest, BitFlippedNodeNamesThePage) {
  const std::string path = PackFixture("corrupt_node");
  std::vector<uint8_t> bytes = ReadFile(path);
  // Flip one payload byte of node slot 2 (file page 3).
  bytes[3 * kPageSize + kPageEnvelopeBytes + 17] ^= 0x01;
  WriteFile(path, bytes);
  const Status status = OpenStatus(path);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.ToString().find("checksum mismatch on page 2"),
            std::string::npos)
      << status.ToString();
}

TEST_F(SnapshotCorruptionTest, ManifestMismatchFailsOpen) {
  const std::string path = PackFixture("corrupt_manifest");
  std::vector<uint8_t> bytes = ReadFile(path);
  // Rewrite the first manifest entry with a valid envelope: the digest
  // in the superblock no longer matches.
  const size_t manifest_off = (1 + node_count_) * kPageSize;
  bytes[manifest_off + kPageEnvelopeBytes] ^= 0xff;
  SealPage(bytes.data() + manifest_off, PageKind::kSnapshotManifest);
  WriteFile(path, bytes);
  const Status status = OpenStatus(path);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.ToString().find("manifest digest mismatch"),
            std::string::npos)
      << status.ToString();
}

TEST_F(SnapshotCorruptionTest, ManifestEntriesAreFullPageChecksums) {
  // The packer derives each manifest entry from the page's seal by CRC
  // combination; re-read every data page and compare with Crc32 of it.
  const std::string path = PackFixture("manifest_entries");
  const std::vector<uint8_t> bytes = ReadFile(path);
  constexpr size_t kEntriesPerPage = kPagePayloadBytes / sizeof(uint32_t);
  const size_t manifest_pages =
      (node_count_ + kEntriesPerPage - 1) / kEntriesPerPage;
  ASSERT_EQ(bytes.size(), (1 + node_count_ + manifest_pages) * kPageSize);
  for (size_t id = 0; id < node_count_; ++id) {
    const uint8_t* page = bytes.data() + (1 + id) * kPageSize;
    const uint8_t* entry = bytes.data() +
                           (1 + node_count_ + id / kEntriesPerPage) *
                               kPageSize +
                           kPageEnvelopeBytes +
                           (id % kEntriesPerPage) * sizeof(uint32_t);
    uint32_t manifest_crc = 0;
    std::memcpy(&manifest_crc, entry, sizeof(manifest_crc));
    EXPECT_EQ(manifest_crc, Crc32(page, kPageSize)) << "page " << id;
    EXPECT_TRUE(OpenPagePayload(page, PageKind::kPprNode,
                                static_cast<PageId>(id))
                    .ok())
        << "page " << id;
  }
}

TEST_F(SnapshotCorruptionTest, ExtentMismatchFailsOpen) {
  const std::string path = PackFixture("corrupt_extent");
  std::vector<uint8_t> bytes = ReadFile(path);
  // Payload: magic u64, version u32, page_size u32, node_count u64,
  // level_count u32, manifest_pages u32, manifest_digest u32, then the
  // extents. Grow level 0's count so the levels no longer tile the slots.
  const size_t extent_count_off = kPageEnvelopeBytes + 8 + 4 + 4 + 8 + 4 + 4 +
                                  4 + sizeof(uint32_t);
  uint32_t count = 0;
  std::memcpy(&count, bytes.data() + extent_count_off, sizeof(count));
  count += 1;
  std::memcpy(bytes.data() + extent_count_off, &count, sizeof(count));
  SealPage(bytes.data(), PageKind::kSnapshotSuperblock);
  WriteFile(path, bytes);
  const Status status = OpenStatus(path);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.ToString().find("corrupt superblock"), std::string::npos)
      << status.ToString();
}

TEST_F(SnapshotCorruptionTest, CorruptSuperblockEnvelopeFailsOpen) {
  const std::string path = PackFixture("corrupt_super_env");
  std::vector<uint8_t> bytes = ReadFile(path);
  // Damage a payload byte past the magic without resealing: the envelope
  // checksum catches it.
  bytes[kPageEnvelopeBytes + 20] ^= 0xff;
  WriteFile(path, bytes);
  const Status status = OpenStatus(path);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.ToString().find("corrupt superblock"), std::string::npos)
      << status.ToString();
}

// Writes `bytes` at `offset` of the file through its own descriptor, as
// another process would, while a snapshot may hold the file mapped.
void PwriteFile(const std::string& path, off_t offset, const void* bytes,
                size_t count) {
  const int fd = ::open(path.c_str(), O_WRONLY);
  ASSERT_GE(fd, 0);
  ASSERT_EQ(::pwrite(fd, bytes, count, offset), static_cast<ssize_t>(count));
  ASSERT_EQ(::close(fd), 0);
}

off_t SlotOffset(PageId slot) {
  return static_cast<off_t>((1 + slot) * kPageSize);
}

// Open-time verification does not make the serving path blind: the file
// is mapped MAP_SHARED, so a write after PackSnapshot opened it shows
// through the mapping. The next miss on that page views it in place and
// must still fail the envelope check, naming the page, whether pinned
// directly or fetched through a query Session.
TEST_F(SnapshotCorruptionTest, WriteAfterOpenDiesOnNextMiss) {
  const TempPath snap_corrupt_after_open("corrupt_after_open.stsnap");
  const std::string path = snap_corrupt_after_open;
  const std::unique_ptr<PprTree> tree = BuildPprTree(MakeRecords());
  ASSERT_TRUE(tree->PackSnapshot(path).ok());
  ASSERT_GT(tree->backend()->SlotCount(), 2u);
  const std::unique_ptr<SharedBufferPool> pool = tree->NewSharedQueryPool(1);
  bool missed = false;
  ASSERT_TRUE(pool->Pin(2, &missed).ok());  // served before the write
  pool->Unpin(2);
  ASSERT_TRUE(pool->Pin(0, &missed).ok());  // evicts page 2 (one frame)
  pool->Unpin(0);

  // Flip one payload byte of node slot 2.
  uint8_t byte = 0;
  std::memcpy(&byte, tree->backend()->BorrowPage(2) + kPageEnvelopeBytes + 17,
              1);
  byte ^= 0x01;
  PwriteFile(path, SlotOffset(2) + kPageEnvelopeBytes + 17, &byte, 1);

  EXPECT_DEATH(static_cast<void>(pool->Pin(2, &missed)),
               "page 2: checksum mismatch");
  SharedBufferPool::Session session(pool.get(), kPaperBufferPages);
  EXPECT_DEATH(static_cast<void>(session.FetchPinned(2)),
               "page 2: checksum mismatch");
}

// A page with a valid checksum but an implausible header (entry count
// past the fanout bound, or a negative level) is rejected on the pool's
// miss path exactly as the node page check rejects it.
TEST_F(SnapshotCorruptionTest, ImplausibleHeaderRejectedByViewAsByDecode) {
  const TempPath snap_corrupt_implausible("corrupt_implausible.stsnap");
  const std::string path = snap_corrupt_implausible;
  const std::unique_ptr<PprTree> tree = BuildPprTree(MakeRecords());
  ASSERT_TRUE(tree->PackSnapshot(path).ok());
  ASSERT_GT(tree->backend()->SlotCount(), 3u);
  const std::unique_ptr<SharedBufferPool> pool = tree->NewSharedQueryPool(1);

  // Header: int32 level at payload offset 0, uint32 count at offset 4.
  struct Corruption {
    PageId slot;
    size_t field_offset;
    int32_t value;
  };
  const Corruption corruptions[] = {
      {2, 4, static_cast<int32_t>(PprConfig().max_entries + 2)},  // count
      {3, 0, -1},                                                  // level
  };
  for (const Corruption& corruption : corruptions) {
    SCOPED_TRACE("slot " + std::to_string(corruption.slot));
    alignas(8) uint8_t page[kPageSize];
    std::memcpy(page, tree->backend()->BorrowPage(corruption.slot), kPageSize);
    std::memcpy(page + kPageEnvelopeBytes + corruption.field_offset,
                &corruption.value, sizeof(corruption.value));
    SealPage(page, PageKind::kPprNode);
    PwriteFile(path, SlotOffset(corruption.slot), page, kPageSize);

    // The check itself, as page 0.
    const NodePageCheck check(PageKind::kPprNode, "PPR-tree",
                              PprConfig().max_entries + 1);
    const Status decoded = check.Check(page, 0);
    ASSERT_FALSE(decoded.ok());
    EXPECT_NE(decoded.message().find("page 0: implausible PPR-tree node"),
              std::string::npos)
        << decoded.ToString();
    bool missed = false;
    EXPECT_DEATH(static_cast<void>(pool->Pin(corruption.slot, &missed)),
                 "page " + std::to_string(corruption.slot) +
                     ": implausible PPR-tree node");
  }
}

TEST_F(SnapshotCorruptionTest, ReadBeyondNodeCountIsOutOfRange) {
  const std::string path = PackFixture("corrupt_range");
  Result<std::unique_ptr<MmapSnapshotBackend>> backend =
      MmapSnapshotBackend::Open(path);
  ASSERT_TRUE(backend.ok()) << backend.status().ToString();
  uint8_t buffer[kPageSize];
  EXPECT_FALSE(
      backend.value()->Read(static_cast<PageId>(node_count_), buffer).ok());
  EXPECT_EQ(backend.value()->BorrowPage(static_cast<PageId>(node_count_)),
            nullptr);
  // Writes and frees are refused outright: the snapshot is immutable.
  EXPECT_FALSE(backend.value()->Write(0, buffer).ok());
  EXPECT_FALSE(backend.value()->Free(0).ok());
}

}  // namespace
}  // namespace stindex
