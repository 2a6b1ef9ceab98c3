// Differential tests for the zero-copy mmap snapshot backend: a tree
// packed into a read-only snapshot must answer every query byte-
// identically and with identical per-query protocol-mode miss counts to
// the tree's own arena, the MemoryPageBackend and the FilePageBackend, at
// every thread count — packing remaps page ids through a bijection, and
// LRU behaviour depends only on the equality structure of the access
// sequence. The suite also covers the pread fallback, a LiveTier whose
// historical tree was packed mid-stream, a mapping that open leaves
// non-resident, and open-time corruption detection (truncation, bad
// magic, version skew, bit flips, manifest and extent mismatches, each
// mapped and through pread), extending the storage_fault_test.cc
// patterns to the snapshot path.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
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

std::string SnapPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name + ".stsnap";
}

std::unique_ptr<PageBackend> MakeFileBackend(const std::string& name) {
  Result<std::unique_ptr<FilePageBackend>> backend =
      FilePageBackend::Create(::testing::TempDir() + "/" + name + ".stpages");
  EXPECT_TRUE(backend.ok()) << backend.status().ToString();
  return std::move(backend).value();
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
                                   int num_threads) {
  const std::unique_ptr<SharedBufferPool> pool = tree.NewSharedQueryPool();
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

uint64_t Metric(const char* name) {
  return MetricRegistry::Global().GetCounter(name)->Value();
}

TEST(SnapshotBackendTest, PprSnapshotIdenticalAcrossBackendsAndThreads) {
  const std::vector<SegmentRecord> records = MakeRecords();
  const std::vector<STQuery> queries = MakeQueries();

  const std::unique_ptr<PprTree> arena_tree = BuildPprTree(records);
  const std::unique_ptr<PprTree> memory_tree = BuildPprTree(records);
  ASSERT_TRUE(
      memory_tree->AttachBackend(std::make_unique<MemoryPageBackend>()).ok());
  const std::unique_ptr<PprTree> file_tree = BuildPprTree(records);
  ASSERT_TRUE(file_tree->AttachBackend(MakeFileBackend("snap_ppr_file")).ok());
  const std::unique_ptr<PprTree> packed = BuildPprTree(records);
  ASSERT_TRUE(packed->PackSnapshot(SnapPath("snap_ppr")).ok());
  ASSERT_NE(packed->backend(), nullptr);
  EXPECT_EQ(packed->backend()->Name(), "mmap");
  const std::unique_ptr<PprTree> pread_tree = BuildPprTree(records);
  SnapshotFile::Options pread_options;
  pread_options.force_pread = true;
  const uint64_t fallbacks_before = Metric("backend.mmap.fallback_opens");
  ASSERT_TRUE(
      pread_tree->PackSnapshot(SnapPath("snap_ppr_pread"), pread_options)
          .ok());
  EXPECT_EQ(Metric("backend.mmap.fallback_opens"), fallbacks_before + 1);
  EXPECT_FALSE(static_cast<const MmapSnapshotBackend*>(pread_tree->backend())
                   ->file()
                   .mapped());

  const std::vector<QueryOutcome> baseline = PprBaseline(*arena_tree, queries);
  ASSERT_GT(TotalMisses(baseline), 0u);

  const uint64_t file_reads_before = Metric("backend.file.reads");
  const uint64_t mmap_reads_before = Metric("backend.mmap.reads");
  const uint64_t borrows_before = Metric("backend.mmap.borrows");
  uint64_t pread_misses = 0;
  for (const int threads : {1, 2, 7, 16}) {
    EXPECT_EQ(RunPpr(*arena_tree, queries, threads), baseline)
        << "arena, threads=" << threads;
    EXPECT_EQ(RunPpr(*memory_tree, queries, threads), baseline)
        << "memory backend, threads=" << threads;
    EXPECT_EQ(RunPpr(*packed, queries, threads), baseline)
        << "mmap backend, threads=" << threads;
    EXPECT_EQ(RunPpr(*pread_tree, queries, threads, &pread_misses), baseline)
        << "pread fallback, threads=" << threads;
  }
  // The mapped runs were zero-copy: every miss was served by borrowing
  // the mapped span, never a read into a frame — and never a file-backend
  // read (the warm-path acceptance gate for --backend=mmap). Only the
  // pread fallback's pool misses read.
  EXPECT_EQ(Metric("backend.file.reads"), file_reads_before);
  EXPECT_GT(pread_misses, 0u);
  EXPECT_EQ(Metric("backend.mmap.reads"), mmap_reads_before + pread_misses);
  EXPECT_GT(Metric("backend.mmap.borrows"), borrows_before);
  // file_tree is the control: identical through a real page file too.
  EXPECT_EQ(RunPpr(*file_tree, queries, 7), baseline);
}

TEST(SnapshotBackendTest, RStarSnapshotIdenticalAcrossBackendsAndThreads) {
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
  const std::unique_ptr<RStarTree> memory_tree = build();
  ASSERT_TRUE(
      memory_tree->AttachBackend(std::make_unique<MemoryPageBackend>()).ok());
  const std::unique_ptr<RStarTree> file_tree = build();
  ASSERT_TRUE(
      file_tree->AttachBackend(MakeFileBackend("snap_rstar_file")).ok());
  const std::unique_ptr<RStarTree> packed = build();
  ASSERT_TRUE(packed->PackSnapshot(SnapPath("snap_rstar")).ok());
  const std::unique_ptr<RStarTree> pread_tree = build();
  SnapshotFile::Options pread_options;
  pread_options.force_pread = true;
  ASSERT_TRUE(
      pread_tree->PackSnapshot(SnapPath("snap_rstar_pread"), pread_options)
          .ok());

  const std::vector<QueryOutcome> baseline =
      RStarBaseline(*arena_tree, queries);
  ASSERT_GT(TotalMisses(baseline), 0u);

  const uint64_t file_reads_before = Metric("backend.file.reads");
  for (const int threads : {1, 2, 7, 16}) {
    EXPECT_EQ(RunRStar(*arena_tree, queries, threads), baseline)
        << "arena, threads=" << threads;
    EXPECT_EQ(RunRStar(*memory_tree, queries, threads), baseline)
        << "memory backend, threads=" << threads;
    EXPECT_EQ(RunRStar(*packed, queries, threads), baseline)
        << "mmap backend, threads=" << threads;
    EXPECT_EQ(RunRStar(*pread_tree, queries, threads), baseline)
        << "pread fallback, threads=" << threads;
  }
  EXPECT_EQ(Metric("backend.file.reads"), file_reads_before);
  EXPECT_EQ(RunRStar(*file_tree, queries, 7), baseline);
}

TEST(SnapshotBackendTest, PackedTreeRefusesMutation) {
  const std::vector<SegmentRecord> records = MakeRecords();
  const std::unique_ptr<RStarTree> tree = std::make_unique<RStarTree>();
  const std::vector<Box3D> boxes = SegmentsToBoxes(records, 0, kTimeDomain);
  for (size_t i = 0; i < 50; ++i) {
    tree->Insert(boxes[i], static_cast<DataId>(i));
  }
  ASSERT_TRUE(tree->PackSnapshot(SnapPath("snap_frozen")).ok());
  EXPECT_DEATH(tree->Insert(boxes[0], 999), "frozen");
  // A second pack is a programming error too: the tree already owns a
  // backend.
  EXPECT_DEATH(
      static_cast<void>(tree->PackSnapshot(SnapPath("snap_frozen2"))),
      "backend already attached");
}

TEST(SnapshotBackendTest, EmptySnapshotRoundTrips) {
  PprTree tree;
  ASSERT_TRUE(tree.PackSnapshot(SnapPath("snap_empty")).ok());
  Result<std::unique_ptr<MmapSnapshotBackend>> backend =
      MmapSnapshotBackend::Open(SnapPath("snap_empty"));
  ASSERT_TRUE(backend.ok()) << backend.status().ToString();
  EXPECT_EQ(backend.value()->SlotCount(), 0u);
  std::vector<PprDataId> results;
  tree.IntervalQuery(Rect2D(0, 0, 1, 1), TimeInterval(0, kTimeDomain),
                     &results);
  EXPECT_TRUE(results.empty());
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

  const auto run = [&](size_t pack_at,
                       bool pack_after_finish) -> std::unique_ptr<LiveTier> {
    Result<std::unique_ptr<LiveTier>> tier =
        LiveTier::Open(options, std::make_unique<MemoryPageBackend>());
    EXPECT_TRUE(tier.ok()) << tier.status().ToString();
    static int pack_counter = 0;
    for (size_t i = 0; i < stream.size(); ++i) {
      EXPECT_TRUE(tier.value()->Apply(stream[i]).ok());
      if ((i + 1) % 64 == 0) {
        EXPECT_TRUE(tier.value()->Commit().ok());
      }
      if (pack_at != 0 && i + 1 == pack_at) {
        EXPECT_TRUE(tier.value()
                        ->PackHistorical(SnapPath(
                            "snap_live_" + std::to_string(pack_counter++)))
                        .ok());
      }
    }
    EXPECT_TRUE(tier.value()->Finish().ok());
    if (pack_after_finish) {
      EXPECT_TRUE(tier.value()
                      ->PackHistorical(SnapPath(
                          "snap_live_" + std::to_string(pack_counter++)))
                      .ok());
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
// checkpoint restores every frozen layer (as an in-memory tree — the
// answers, not the mmap, are what recovery preserves) and the frozen
// deletes keep clipping.
TEST(SnapshotBackendTest, LiveTierPackSurvivesCheckpointRecovery) {
  RandomDatasetConfig config;
  config.num_objects = 120;
  config.seed = 7;
  config.time_domain = 400;
  const std::vector<Trajectory> objects = GenerateRandomDataset(config);
  const std::vector<LiveObservation> stream = MakeObservationStream(objects);

  LiveTierOptions options;
  options.index.capacity = 16;

  const std::string wal_path = ::testing::TempDir() + "/snap_live_wal.stpages";
  std::remove(wal_path.c_str());
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
      tier.value()->PackHistorical(SnapPath("snap_live_ckpt")).ok());
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
  EXPECT_EQ(tier.value()->frozen_layers(), 1u);
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
  std::remove(wal_path.c_str());
}

// Open verifies a snapshot through pread, so packing leaves the fresh
// mapping non-resident: its pages fault in only as a pool borrows them.
TEST(SnapshotResidencyTest, MappingBecomesResidentOnlyAsPoolsBorrowIt) {
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
                  ->PackSnapshot(SnapPath("residency_warmup"))
                  .ok());

  const std::unique_ptr<PprTree> tree = BuildPprTree(records);
  const int64_t before = MappedFileRssBytes();
  ASSERT_TRUE(tree->PackSnapshot(SnapPath("residency")).ok());
  const int64_t opened = MappedFileRssBytes();
  ASSERT_TRUE(static_cast<const MmapSnapshotBackend*>(tree->backend())
                  ->file()
                  .mapped());
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

// --- corruption / fault coverage ------------------------------------------

class SnapshotCorruptionTest : public ::testing::Test {
 protected:
  // Packs a small PPR-tree and releases it, leaving just the file.
  std::string PackFixture(const std::string& name) {
    const std::string path = SnapPath(name);
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

  // Opens `path` mapped and with force_pread; the two opens must agree.
  static Status OpenStatus(const std::string& path) {
    std::vector<Status> statuses;
    for (const bool force_pread : {false, true}) {
      SnapshotFile::Options options;
      options.force_pread = force_pread;
      Result<std::unique_ptr<MmapSnapshotBackend>> backend =
          MmapSnapshotBackend::Open(path, options);
      statuses.push_back(backend.ok() ? Status::OK() : backend.status());
    }
    EXPECT_EQ(statuses[0].ToString(), statuses[1].ToString())
        << "mapped and pread opens disagree";
    return statuses[0];
  }

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

TEST_F(SnapshotCorruptionTest, CorruptionDetectedOnPreadFallbackToo) {
  const std::string path = PackFixture("corrupt_pread");
  std::vector<uint8_t> bytes = ReadFile(path);
  bytes[1 * kPageSize + kPageEnvelopeBytes + 3] ^= 0x10;  // node slot 0
  WriteFile(path, bytes);
  SnapshotFile::Options options;
  options.force_pread = true;
  Result<std::unique_ptr<MmapSnapshotBackend>> backend =
      MmapSnapshotBackend::Open(path, options);
  ASSERT_FALSE(backend.ok());
  EXPECT_NE(backend.status().ToString().find("checksum mismatch on page 0"),
            std::string::npos)
      << backend.status().ToString();
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
  const std::string path = SnapPath("corrupt_after_open");
  const std::unique_ptr<PprTree> tree = BuildPprTree(MakeRecords());
  ASSERT_TRUE(tree->PackSnapshot(path).ok());
  ASSERT_TRUE(static_cast<const MmapSnapshotBackend*>(tree->backend())
                  ->file()
                  .mapped());
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
// miss path exactly as checkpoint restore rejects it.
TEST_F(SnapshotCorruptionTest, ImplausibleHeaderRejectedByViewAsByDecode) {
  const std::string path = SnapPath("corrupt_implausible");
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

    // The checkpoint-restore path on a fresh tree, as page 0.
    PprTree fresh;
    const Status decoded = fresh.InstallCheckpointNode(0, page);
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
