// Unit tests for the live ingestion tier: WAL round-trip and torn-tail
// semantics, LiveIndex stream invariants and sealing policy inputs, and
// LiveTier end-to-end behaviour (tiered queries, clean reopen, corrupt
// journals). Crash-point sweeps live in crash_recovery_test.cc; the
// live-vs-batch equivalence in backend_differential_test.cc.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "datagen/query_gen.h"
#include "datagen/random_dataset.h"
#include "live/live_index.h"
#include "live/live_tier.h"
#include "live/wal.h"
#include "storage/fault_backend.h"
#include "storage/file_backend.h"
#include "storage/page_backend.h"
#include "storage/page_codec.h"

namespace stindex {
namespace {

Rect2D UnitRect(double lo, double hi) { return Rect2D(lo, lo, hi, hi); }

std::vector<WalRecord> SampleRecords(size_t count) {
  std::vector<WalRecord> records;
  for (size_t i = 0; i < count; ++i) {
    const ObjectId object = static_cast<ObjectId>(i % 7);
    switch (i % 3) {
      case 0:
        records.push_back(WalRecord::Observe(
            object, static_cast<Time>(i),
            UnitRect(0.01 * static_cast<double>(i % 50), 0.6)));
        break;
      case 1:
        records.push_back(WalRecord::End(object, static_cast<Time>(i)));
        break;
      default:
        records.push_back(WalRecord::Seal(object, static_cast<Time>(i),
                                          static_cast<uint32_t>(i % 5 + 1)));
        break;
    }
  }
  return records;
}

Result<std::vector<WalRecord>> Replay(const PageBackend& backend,
                                      WalReplayStats* stats,
                                      uint64_t start_seq = 1) {
  std::vector<WalRecord> records;
  WalReplayOptions options;
  options.start_seq = start_seq;
  Result<WalReplayStats> result =
      ReplayWal(backend, options, [&records](const WalRecord& record) {
        records.push_back(record);
        return Status::OK();
      });
  if (!result.ok()) return result.status();
  *stats = result.value();
  return records;
}

TEST(WalTest, RoundTripAcrossPages) {
  MemoryPageBackend backend;
  WalSlotAllocator slots;
  WalWriter writer(&backend, &slots, 1);
  const std::vector<WalRecord> records = SampleRecords(300);
  for (const WalRecord& record : records) {
    ASSERT_TRUE(writer.Append(record).ok());
  }
  ASSERT_TRUE(writer.Commit().ok());
  EXPECT_GE(writer.pages_written(), 2u);  // 300 records span pages

  WalReplayStats stats;
  Result<std::vector<WalRecord>> replayed = Replay(backend, &stats);
  ASSERT_TRUE(replayed.ok()) << replayed.status().ToString();
  EXPECT_EQ(replayed.value(), records);
  EXPECT_FALSE(stats.torn_tail);
  EXPECT_EQ(stats.pages, writer.pages_written());
  EXPECT_EQ(stats.next_seq, writer.next_seq());
  EXPECT_EQ(stats.tail.size(), writer.tail_pages());
}

TEST(WalTest, EmptyCommitIsNoOp) {
  MemoryPageBackend backend;
  WalSlotAllocator slots;
  WalWriter writer(&backend, &slots, 1);
  ASSERT_TRUE(writer.Commit().ok());
  EXPECT_EQ(writer.pages_written(), 0u);
  EXPECT_EQ(writer.commits(), 0u);
}

TEST(WalTest, TornTailIsCleanEndOfLog) {
  MemoryPageBackend backend;
  WalSlotAllocator slots;
  WalWriter writer(&backend, &slots, 1);
  const std::vector<WalRecord> records = SampleRecords(200);
  for (const WalRecord& record : records) {
    ASSERT_TRUE(writer.Append(record).ok());
  }
  ASSERT_TRUE(writer.Commit().ok());

  // A half-written page at the end of the log: allocated but failing its
  // checksum, as a crash mid-append leaves behind.
  uint8_t garbage[kPageSize];
  std::memset(garbage, 0xAB, sizeof(garbage));
  const PageId torn_slot = static_cast<PageId>(backend.SlotCount());
  ASSERT_TRUE(backend.Write(torn_slot, garbage).ok());

  WalReplayStats stats;
  Result<std::vector<WalRecord>> replayed = Replay(backend, &stats);
  ASSERT_TRUE(replayed.ok()) << replayed.status().ToString();
  EXPECT_EQ(replayed.value(), records);
  EXPECT_TRUE(stats.torn_tail);
  EXPECT_EQ(stats.next_seq, writer.next_seq());
  EXPECT_EQ(stats.garbage, std::vector<PageId>{torn_slot});

  // Recovery frees the debris; a continuing writer reuses the slot and
  // the log is whole again.
  for (PageId slot : stats.garbage) {
    ASSERT_TRUE(backend.Free(slot).ok());
  }
  WalSlotAllocator rebuilt(backend);
  WalWriter resumed(&backend, &rebuilt, stats.next_seq, stats.tail);
  ASSERT_TRUE(resumed.Append(WalRecord::End(99, 500)).ok());
  ASSERT_TRUE(resumed.Commit().ok());
  WalReplayStats healed;
  Result<std::vector<WalRecord>> full = Replay(backend, &healed);
  ASSERT_TRUE(full.ok()) << full.status().ToString();
  EXPECT_FALSE(healed.torn_tail);
  ASSERT_EQ(full.value().size(), records.size() + 1);
  EXPECT_EQ(full.value().back(), WalRecord::End(99, 500));
}

TEST(WalTest, InteriorCorruptionIsAnError) {
  MemoryPageBackend backend;
  WalSlotAllocator slots;
  WalWriter writer(&backend, &slots, 1);
  for (const WalRecord& record : SampleRecords(600)) {
    ASSERT_TRUE(writer.Append(record).ok());
  }
  ASSERT_TRUE(writer.Commit().ok());
  ASSERT_GE(writer.pages_written(), 3u);

  // Overwriting an interior page with garbage erases its sequence: the
  // run start_seq, start_seq+1, ... has a hole, which replay must refuse
  // to paper over.
  uint8_t garbage[kPageSize];
  std::memset(garbage, 0xCD, sizeof(garbage));
  ASSERT_TRUE(backend.Write(kWalFirstDataSlot + 1, garbage).ok());

  WalReplayStats stats;
  Result<std::vector<WalRecord>> replayed = Replay(backend, &stats);
  ASSERT_FALSE(replayed.ok());
  EXPECT_EQ(replayed.status().code(), StatusCode::kInvalidArgument);
}

TEST(WalTest, ReplayRejectsInteriorGap) {
  MemoryPageBackend backend;
  WalSlotAllocator slots;
  WalWriter writer(&backend, &slots, 1);
  for (const WalRecord& record : SampleRecords(600)) {
    ASSERT_TRUE(writer.Append(record).ok());
  }
  ASSERT_TRUE(writer.Commit().ok());
  ASSERT_GE(writer.pages_written(), 3u);

  // A freed interior page (e.g. a botched truncation of the wrong range)
  // must be a loud error, not a silently shortened log.
  ASSERT_TRUE(backend.Free(kWalFirstDataSlot + 1).ok());
  WalReplayStats stats;
  Result<std::vector<WalRecord>> replayed = Replay(backend, &stats);
  ASSERT_FALSE(replayed.ok());
  EXPECT_EQ(replayed.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(replayed.status().message().find("lost a committed page"),
            std::string::npos)
      << replayed.status().ToString();
}

TEST(WalTest, TruncateBeforeFreesAbsorbedPrefixAndRecyclesSlots) {
  MemoryPageBackend backend;
  WalSlotAllocator slots;
  WalWriter writer(&backend, &slots, 1);
  const std::vector<WalRecord> records = SampleRecords(500);
  for (const WalRecord& record : records) {
    ASSERT_TRUE(writer.Append(record).ok());
  }
  ASSERT_TRUE(writer.Commit().ok());
  ASSERT_GE(writer.tail_pages(), 3u);
  const size_t high_water = backend.SlotCount();

  // Truncate everything but the last flushed page, as a checkpoint whose
  // wal_start_seq falls there would.
  const uint64_t cut = writer.next_seq() - 1;
  size_t freed = 0;
  ASSERT_TRUE(writer.TruncateBefore(cut, &freed).ok());
  EXPECT_GT(freed, 0u);
  EXPECT_EQ(writer.tail_pages(), 1u);
  EXPECT_EQ(backend.LivePageCount(), 1u);

  // Replay from the cut sees exactly the surviving page's records.
  WalReplayStats stats;
  Result<std::vector<WalRecord>> tail = Replay(backend, &stats, cut);
  ASSERT_TRUE(tail.ok()) << tail.status().ToString();
  EXPECT_EQ(stats.pages, 1u);
  EXPECT_EQ(stats.next_seq, writer.next_seq());
  ASSERT_LE(tail.value().size(), records.size());
  EXPECT_TRUE(std::equal(tail.value().begin(), tail.value().end(),
                         records.end() - static_cast<long>(tail.value().size())));

  // Freed slots are recycled lowest-first: continuing to append does not
  // grow the file past its old high-water mark.
  for (const WalRecord& record : SampleRecords(400)) {
    ASSERT_TRUE(writer.Append(record).ok());
  }
  ASSERT_TRUE(writer.Commit().ok());
  EXPECT_LE(backend.SlotCount(), high_water);
}

TEST(LiveIndexTest, EnforcesStreamInvariants) {
  LiveIndex index(LiveIndexOptions{});
  bool applied = false;
  ASSERT_TRUE(index.Observe(1, 10, UnitRect(0.1, 0.2), &applied).ok());
  EXPECT_TRUE(applied);

  // Duplicate (the re-ingested tail after recovery): skipped, not applied.
  ASSERT_TRUE(index.Observe(1, 10, UnitRect(0.1, 0.2), &applied).ok());
  EXPECT_FALSE(applied);

  // A gap in the object's instants.
  EXPECT_FALSE(index.Observe(1, 12, UnitRect(0.1, 0.2), &applied).ok());

  // Global time regression: another object cannot start in the past.
  EXPECT_FALSE(index.Observe(2, 9, UnitRect(0.1, 0.2), &applied).ok());

  // End must follow the last instant...
  EXPECT_FALSE(index.End(1, 13, &applied).ok());
  ASSERT_TRUE(index.End(1, 11, &applied).ok());
  EXPECT_TRUE(applied);
  // ... is idempotent ...
  ASSERT_TRUE(index.End(1, 11, &applied).ok());
  EXPECT_FALSE(applied);
  // ... and is final: an ended object never moves again.
  EXPECT_FALSE(index.Observe(1, 11, UnitRect(0.1, 0.2), &applied).ok());
  // Ending an object never observed is an error.
  EXPECT_FALSE(index.End(5, 3, &applied).ok());
}

TEST(LiveIndexTest, SealingPolicyInputs) {
  LiveIndexOptions options;
  options.capacity = 3;
  options.buffer = 4;
  LiveIndex index(options);
  bool applied = false;
  ASSERT_TRUE(index.Observe(1, 0, UnitRect(0.1, 0.2), &applied).ok());
  ASSERT_TRUE(index.Observe(1, 1, UnitRect(0.1, 0.2), &applied).ok());
  EXPECT_FALSE(index.OverThreshold(1));
  ASSERT_TRUE(index.Observe(1, 2, UnitRect(0.1, 0.2), &applied).ok());
  EXPECT_TRUE(index.OverThreshold(1));
  EXPECT_EQ(index.RipeForCatchUp(), std::vector<ObjectId>{1});

  ASSERT_TRUE(index.Observe(2, 2, UnitRect(0.3, 0.4), &applied).ok());
  ASSERT_TRUE(index.Observe(2, 3, UnitRect(0.3, 0.4), &applied).ok());
  EXPECT_TRUE(index.OverBudget());  // 5 instants > budget of 4
  EXPECT_EQ(index.BudgetVictim(), 1u);  // oldest first instant

  Result<LiveIndex::SealedChunk> chunk = index.Seal(1);
  ASSERT_TRUE(chunk.ok());
  EXPECT_EQ(chunk.value().start, 0);
  EXPECT_EQ(chunk.value().rects.size(), 3u);
  EXPECT_FALSE(index.OverBudget());
  EXPECT_EQ(index.BudgetVictim(), 2u);
  EXPECT_EQ(index.buffered_instants(), 2u);
  EXPECT_EQ(index.Watermark(), 2);  // object 2's buffer opened at t=2

  // Sealing an empty buffer is an error.
  EXPECT_FALSE(index.Seal(1).ok());
}

TEST(LiveIndexTest, DurationRipensAgainstGlobalTime) {
  LiveIndexOptions options;
  options.capacity = 0;
  options.duration = 5;
  LiveIndex index(options);
  bool applied = false;
  ASSERT_TRUE(index.Observe(1, 0, UnitRect(0.1, 0.2), &applied).ok());
  ASSERT_TRUE(index.End(1, 1, &applied).ok());  // ended, buffer kept
  EXPECT_EQ(index.RipeForCatchUp(), std::vector<ObjectId>{1});

  // Another object advancing the clock ripens object 2's buffer by
  // duration even though object 2 itself only has one instant.
  ASSERT_TRUE(index.Observe(2, 3, UnitRect(0.3, 0.4), &applied).ok());
  EXPECT_FALSE(index.OverThreshold(2));
  ASSERT_TRUE(index.Observe(3, 7, UnitRect(0.5, 0.6), &applied).ok());
  EXPECT_TRUE(index.OverThreshold(2));
  EXPECT_EQ(index.RipeForCatchUp(), (std::vector<ObjectId>{1, 2}));
}

// Exact linear-scan reference: an object matches iff at some instant of
// the range (within its lifetime) its rectangle intersects the area.
// Migrated objects are approximated by segment MBRs (the paper's
// candidate semantics), so the tier may report a superset of this — but
// never miss one of these.
std::vector<ObjectId> ScanObjects(const std::vector<Trajectory>& objects,
                                  const STQuery& query) {
  std::vector<ObjectId> hits;
  for (const Trajectory& object : objects) {
    const TimeInterval life = object.Lifetime();
    const Time lo = std::max(query.range.start, life.start);
    const Time hi = std::min(query.range.end, life.end);
    for (Time t = lo; t < hi; ++t) {
      if (object.RectAt(t).Intersects(query.area)) {
        hits.push_back(object.id());
        break;
      }
    }
  }
  std::sort(hits.begin(), hits.end());
  return hits;
}

// Candidate-level reference: objects with a segment box intersecting the
// query. After Finish every observation lives in exactly one migrated
// segment, so the tiered query must equal this scan byte-for-byte.
std::vector<ObjectId> ScanSegments(const std::vector<SegmentRecord>& segments,
                                   const STQuery& query) {
  const STBox box(query.area, query.range);
  std::vector<ObjectId> hits;
  for (const SegmentRecord& segment : segments) {
    if (segment.box.Intersects(box)) hits.push_back(segment.object);
  }
  std::sort(hits.begin(), hits.end());
  hits.erase(std::unique(hits.begin(), hits.end()), hits.end());
  return hits;
}

bool IsSubset(const std::vector<ObjectId>& inner,
              const std::vector<ObjectId>& outer) {
  return std::includes(outer.begin(), outer.end(), inner.begin(), inner.end());
}

std::vector<Trajectory> SmallDataset(uint64_t seed) {
  RandomDatasetConfig config;
  config.num_objects = 40;
  config.time_domain = 120;
  config.max_lifetime = 40;
  config.min_extent = 0.01;
  config.max_extent = 0.05;
  config.seed = seed;
  return GenerateRandomDataset(config);
}

std::vector<STQuery> SmallQueries(uint64_t seed) {
  QuerySetConfig config = MixedSnapshotSet();
  config.count = 24;
  config.time_domain = 120;
  config.min_extent = 0.02;
  config.max_extent = 0.2;
  config.seed = seed;
  std::vector<STQuery> queries = GenerateQuerySet(config);
  QuerySetConfig ranges = SmallRangeSet();
  ranges.count = 12;
  ranges.time_domain = 120;
  ranges.min_extent = 0.02;
  ranges.max_extent = 0.2;
  ranges.seed = seed + 1;
  for (const STQuery& query : GenerateQuerySet(ranges)) queries.push_back(query);
  return queries;
}

LiveTierOptions SmallTierOptions() {
  LiveTierOptions options;
  options.index.capacity = 10;
  options.index.buffer = 200;
  return options;
}

TEST(LiveTierTest, AnswersMatchLinearScanMidStreamAndAfterFinish) {
  const std::vector<Trajectory> objects = SmallDataset(7);
  const std::vector<LiveObservation> stream = MakeObservationStream(objects);
  const std::vector<STQuery> queries = SmallQueries(11);

  Result<std::unique_ptr<LiveTier>> tier = LiveTier::Open(
      SmallTierOptions(), std::make_unique<MemoryPageBackend>());
  ASSERT_TRUE(tier.ok()) << tier.status().ToString();

  // Mid-stream: every truly-matching absorbed object must be reported
  // (live buffers are exact; migrated chunks report at segment-MBR
  // granularity, so extras beyond the exact scan must come from segment
  // boxes).
  const size_t half = stream.size() / 2;
  for (size_t i = 0; i < half; ++i) {
    ASSERT_TRUE(tier.value()->Apply(stream[i]).ok());
  }
  const Time seen_until = stream[half - 1].time;
  for (const STQuery& query : queries) {
    if (query.range.end > seen_until) continue;  // touches unseen instants
    std::vector<ObjectId> got;
    tier.value()->IntervalQuery(query.area, query.range, &got);
    const std::vector<ObjectId> exact = ScanObjects(objects, query);
    EXPECT_TRUE(IsSubset(exact, got)) << "false negative mid-stream";
    std::vector<ObjectId> bound =
        ScanSegments(tier.value()->migrated_segments(), query);
    bound.insert(bound.end(), exact.begin(), exact.end());
    std::sort(bound.begin(), bound.end());
    bound.erase(std::unique(bound.begin(), bound.end()), bound.end());
    EXPECT_TRUE(IsSubset(got, bound)) << "unexplainable candidate";
  }

  for (size_t i = half; i < stream.size(); ++i) {
    ASSERT_TRUE(tier.value()->Apply(stream[i]).ok());
  }
  ASSERT_TRUE(tier.value()->Finish().ok());
  EXPECT_EQ(tier.value()->live_objects(), 0u);
  EXPECT_EQ(tier.value()->pending_events(), 0u);
  EXPECT_GT(tier.value()->migrated_segments().size(), objects.size() / 2);

  size_t total_hits = 0;
  for (const STQuery& query : queries) {
    std::vector<ObjectId> got;
    if (query.IsSnapshot()) {
      tier.value()->SnapshotQuery(query.area, query.range.start, &got);
    } else {
      tier.value()->IntervalQuery(query.area, query.range, &got);
    }
    EXPECT_EQ(got, ScanSegments(tier.value()->migrated_segments(), query));
    EXPECT_TRUE(IsSubset(ScanObjects(objects, query), got))
        << "false negative after Finish";
    total_hits += got.size();
  }
  EXPECT_GT(total_hits, 0u);

  // Finish froze the tier.
  EXPECT_EQ(tier.value()->Observe(999, 500, UnitRect(0.1, 0.2)).code(),
            StatusCode::kFailedPrecondition);
}

TEST(LiveTierTest, DeletePendingRecordsDoNotLeakIntoLaterRanges) {
  LiveTierOptions options;
  options.index.capacity = 2;
  Result<std::unique_ptr<LiveTier>> tier =
      LiveTier::Open(options, std::make_unique<MemoryPageBackend>());
  ASSERT_TRUE(tier.ok());
  ASSERT_TRUE(tier.value()->Observe(1, 0, UnitRect(0.1, 0.2)).ok());
  ASSERT_TRUE(tier.value()->Observe(1, 1, UnitRect(0.1, 0.2)).ok());

  // The chunk [0, 2) sealed at capacity; its delete event (t=2) is still
  // queued, so inside the tree the record looks alive forever.
  std::vector<ObjectId> got;
  tier.value()->IntervalQuery(UnitRect(0.0, 1.0), TimeInterval(0, 2), &got);
  EXPECT_EQ(got, std::vector<ObjectId>{1});
  tier.value()->IntervalQuery(UnitRect(0.0, 1.0), TimeInterval(5, 9), &got);
  EXPECT_TRUE(got.empty());
}

TEST(LiveTierTest, CleanReopenContinuesAndReingestIsIdempotent) {
  const std::vector<Trajectory> objects = SmallDataset(13);
  const std::vector<LiveObservation> stream = MakeObservationStream(objects);
  const std::vector<STQuery> queries = SmallQueries(17);
  const std::string path = ::testing::TempDir() + "/live_reopen.stpages";

  const size_t half = stream.size() / 2;
  {
    Result<std::unique_ptr<FilePageBackend>> wal = FilePageBackend::Create(path);
    ASSERT_TRUE(wal.ok());
    Result<std::unique_ptr<LiveTier>> tier =
        LiveTier::Open(SmallTierOptions(), std::move(wal).value());
    ASSERT_TRUE(tier.ok());
    for (size_t i = 0; i < half; ++i) {
      ASSERT_TRUE(tier.value()->Apply(stream[i]).ok());
    }
    ASSERT_TRUE(tier.value()->Commit().ok());
  }

  Result<std::unique_ptr<FilePageBackend>> wal = FilePageBackend::Open(path);
  ASSERT_TRUE(wal.ok()) << wal.status().ToString();
  Result<std::unique_ptr<LiveTier>> tier =
      LiveTier::Open(SmallTierOptions(), std::move(wal).value());
  ASSERT_TRUE(tier.ok()) << tier.status().ToString();
  EXPECT_GT(tier.value()->recovered().records, 0u);

  // Re-ingest the whole stream: the absorbed half is skipped, the rest
  // applied.
  for (const LiveObservation& update : stream) {
    ASSERT_TRUE(tier.value()->Apply(update).ok());
  }
  ASSERT_TRUE(tier.value()->Finish().ok());
  for (const STQuery& query : queries) {
    std::vector<ObjectId> got;
    tier.value()->IntervalQuery(query.area, query.range, &got);
    EXPECT_EQ(got, ScanSegments(tier.value()->migrated_segments(), query));
    EXPECT_TRUE(IsSubset(ScanObjects(objects, query), got));
  }
}

TEST(LiveTierTest, RejectsSealRecordThatDoesNotMatchReplay) {
  auto backend = std::make_unique<MemoryPageBackend>();
  {
    WalSlotAllocator slots;
    WalWriter writer(backend.get(), &slots, 1);
    ASSERT_TRUE(writer.Append(WalRecord::Observe(7, 0, UnitRect(0.1, 0.2))).ok());
    ASSERT_TRUE(writer.Append(WalRecord::Observe(7, 1, UnitRect(0.1, 0.2))).ok());
    // Claims 9 segments; replaying the two observations yields 1.
    ASSERT_TRUE(writer.Append(WalRecord::Seal(7, 0, 9)).ok());
    ASSERT_TRUE(writer.Commit().ok());
  }
  Result<std::unique_ptr<LiveTier>> tier =
      LiveTier::Open(LiveTierOptions{}, std::move(backend));
  ASSERT_FALSE(tier.ok());
  EXPECT_EQ(tier.status().code(), StatusCode::kInvalidArgument);
}

TEST(LiveTierTest, UnjournaledUpdateIsInvisibleAfterWalFailure) {
  // The first WAL page write fails. Updates journal *before* they apply,
  // so the observation whose append hit the failure must never become
  // visible — a latched tier serves exactly the journaled prefix.
  FaultInjectingBackend::Faults faults;
  faults.fail_write_at = 1;
  auto fault = std::make_unique<FaultInjectingBackend>(
      std::make_unique<MemoryPageBackend>(), faults);
  LiveTierOptions options;
  options.index.capacity = 0;  // no sealing: every instant stays buffered
  options.index.duration = 0;
  options.index.buffer = 0;
  Result<std::unique_ptr<LiveTier>> tier =
      LiveTier::Open(options, std::move(fault));
  ASSERT_TRUE(tier.ok()) << tier.status().ToString();

  // Observations buffer into the open WAL page; the append that overflows
  // it triggers the (failing) page write.
  Time failed_at = -1;
  for (Time t = 0; t < 1000; ++t) {
    Status status = tier.value()->Observe(1, t, UnitRect(0.1, 0.2));
    if (!status.ok()) {
      EXPECT_EQ(status.code(), StatusCode::kIoError) << status.ToString();
      failed_at = t;
      break;
    }
  }
  ASSERT_GE(failed_at, 1) << "write fault never fired";

  // The failed instant is invisible...
  std::vector<ObjectId> got;
  tier.value()->SnapshotQuery(UnitRect(0.0, 1.0), failed_at, &got);
  EXPECT_TRUE(got.empty()) << "tier serves a never-journaled update";
  // ... while the journaled prefix still answers exactly.
  tier.value()->SnapshotQuery(UnitRect(0.0, 1.0), failed_at - 1, &got);
  EXPECT_EQ(got, std::vector<ObjectId>{1});
  EXPECT_EQ(tier.value()->buffered_instants(),
            static_cast<size_t>(failed_at));

  // And the tier is latched: no further updates, no commits.
  EXPECT_EQ(tier.value()->Observe(1, failed_at, UnitRect(0.1, 0.2)).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(tier.value()->Commit().code(), StatusCode::kFailedPrecondition);
}

TEST(LiveTierTest, CheckpointTruncatesJournalAndReopensFromIt) {
  const std::vector<Trajectory> objects = SmallDataset(23);
  const std::vector<LiveObservation> stream = MakeObservationStream(objects);
  const std::vector<STQuery> queries = SmallQueries(29);
  const std::string path = ::testing::TempDir() + "/live_ckpt.stpages";

  // Reference: the same stream through an in-memory tier, no checkpoints.
  Result<std::unique_ptr<LiveTier>> reference = LiveTier::Open(
      SmallTierOptions(), std::make_unique<MemoryPageBackend>());
  ASSERT_TRUE(reference.ok());
  for (const LiveObservation& update : stream) {
    ASSERT_TRUE(reference.value()->Apply(update).ok());
  }
  ASSERT_TRUE(reference.value()->Finish().ok());

  const size_t half = stream.size() / 2;
  {
    Result<std::unique_ptr<FilePageBackend>> wal = FilePageBackend::Create(path);
    ASSERT_TRUE(wal.ok());
    Result<std::unique_ptr<LiveTier>> tier =
        LiveTier::Open(SmallTierOptions(), std::move(wal).value());
    ASSERT_TRUE(tier.ok());
    for (size_t i = 0; i < half; ++i) {
      ASSERT_TRUE(tier.value()->Apply(stream[i]).ok());
    }
    ASSERT_TRUE(tier.value()->Commit().ok());
    ASSERT_GT(tier.value()->wal_tail_pages(), 0u);
    ASSERT_TRUE(tier.value()->Checkpoint().ok());
    // The checkpoint absorbed the whole journal prefix.
    EXPECT_EQ(tier.value()->wal_tail_pages(), 0u);
    EXPECT_EQ(tier.value()->checkpoint_seq(), 1u);
  }

  Result<std::unique_ptr<FilePageBackend>> wal = FilePageBackend::Open(path);
  ASSERT_TRUE(wal.ok()) << wal.status().ToString();
  Result<std::unique_ptr<LiveTier>> tier =
      LiveTier::Open(SmallTierOptions(), std::move(wal).value());
  ASSERT_TRUE(tier.ok()) << tier.status().ToString();
  // Recovery loaded the checkpoint, not the log: nothing to replay.
  EXPECT_EQ(tier.value()->recovered().records, 0u);
  EXPECT_EQ(tier.value()->checkpoint_seq(), 1u);

  // Re-ingest the whole stream (absorbed half skipped) and finish: the
  // answers must match the uninterrupted reference exactly.
  for (const LiveObservation& update : stream) {
    ASSERT_TRUE(tier.value()->Apply(update).ok());
  }
  ASSERT_TRUE(tier.value()->Finish().ok());
  ASSERT_EQ(tier.value()->migrated_segments().size(),
            reference.value()->migrated_segments().size());
  for (const STQuery& query : queries) {
    std::vector<ObjectId> got;
    std::vector<ObjectId> want;
    tier.value()->IntervalQuery(query.area, query.range, &got);
    reference.value()->IntervalQuery(query.area, query.range, &want);
    EXPECT_EQ(got, want);
  }
  std::remove(path.c_str());
}

TEST(LiveTierTest, GroupCommitCoalescesConcurrentCommitters) {
  LiveTierOptions options = SmallTierOptions();
  options.commit_interval_us = 2000;
  Result<std::unique_ptr<LiveTier>> tier =
      LiveTier::Open(options, std::make_unique<MemoryPageBackend>());
  ASSERT_TRUE(tier.ok());

  // Phase 1 — deterministic coalescing: all appends happen first, then
  // many threads Commit() the same log position. Whoever leads covers
  // everyone; the rest find their records already durable. Exactly one
  // fsync, however the threads interleave.
  for (Time t = 0; t < 5; ++t) {
    ASSERT_TRUE(tier.value()->Observe(1, t, UnitRect(0.1, 0.2)).ok());
  }
  {
    std::vector<std::thread> committers;
    std::atomic<int> failures{0};
    for (int w = 0; w < 8; ++w) {
      committers.emplace_back([&] {
        if (!tier.value()->Commit().ok()) ++failures;
      });
    }
    for (std::thread& worker : committers) worker.join();
    EXPECT_EQ(failures.load(), 0);
  }
  EXPECT_EQ(tier.value()->wal_commits(), 1u);

  // Phase 2 — writers interleaving appends and commits: every Commit()
  // that returns OK covers the caller's own appends regardless of which
  // thread led the batch. Cross-thread observations may race the shared
  // clock (kInvalidArgument) — that is stream validation, not durability,
  // and is tolerated here.
  constexpr int kThreads = 4;
  constexpr Time kTicks = 40;
  std::vector<std::thread> workers;
  std::atomic<int> failures{0};
  for (int w = 0; w < kThreads; ++w) {
    workers.emplace_back([&, w] {
      const ObjectId object = static_cast<ObjectId>(100 + w);
      for (Time t = 5; t < kTicks; ++t) {
        Status status = tier.value()->Observe(
            object, t, UnitRect(0.1 + 0.01 * w, 0.2 + 0.01 * w));
        if (!status.ok() && status.code() != StatusCode::kInvalidArgument) {
          ++failures;
          return;
        }
        if (t % 5 == 4 && !tier.value()->Commit().ok()) {
          ++failures;
          return;
        }
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_GT(tier.value()->wal_commits(), 0u);
}

}  // namespace
}  // namespace stindex
