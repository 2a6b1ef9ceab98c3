// Crash-point recovery harness for the live ingestion tier — the
// headline test of the crash-safety contract.
//
// A reference run streams a dataset through a LiveTier journaling onto a
// real FilePageBackend, committing every few updates, and records every
// mutating backend call (page write / sync) along the way. The sweep then
// repeats the run once per mutation site with FaultInjectingBackend's
// crash trigger armed at that site: the call fails, every later call
// fails too, and the file is closed, which syncs nothing, so the on-disk
// bytes are exactly what a killed process leaves behind: every page
// written before the crash, synced or not. Recovery reopens the file,
// replays the WAL, re-ingests the unacknowledged tail (everything after
// the last successful Commit), and finishes the stream.
//
// After every single crash point the recovered tier must be
// indistinguishable from the never-crashed reference: byte-identical
// query answers, the identical migrated segment list (same order, same
// boxes — so the same PprDataIds), and the identical tree shape.
#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "datagen/query_gen.h"
#include "datagen/random_dataset.h"
#include "live/live_tier.h"
#include "storage/fault_backend.h"
#include "storage/file_backend.h"
#include "temp_path.h"
#include "util/metrics.h"
#include "util/status.h"

namespace stindex {
namespace {

constexpr Time kTimeDomain = 150;
constexpr size_t kCommitEvery = 16;

// The sizes of the two sweeps: the mutating backend calls of their
// reference runs. A change to what the tier writes moves them, and the
// sweeps say so instead of silently covering a different space. The
// checkpointed run's eleven checkpoints once also wrote 10 node pages
// and freed the 8 earlier copies they replaced (148 sites); a checkpoint
// that keeps the active tree as its segments makes neither.
constexpr uint64_t kWriteSites = 86;
constexpr uint64_t kCheckpointedWriteSites = 130;

std::vector<Trajectory> MakeObjects() {
  RandomDatasetConfig config;
  config.num_objects = 40;
  config.time_domain = kTimeDomain;
  config.max_lifetime = 30;
  config.min_extent = 0.01;
  config.max_extent = 0.05;
  config.seed = 1234;
  return GenerateRandomDataset(config);
}

std::vector<STQuery> MakeQueries() {
  QuerySetConfig config = MixedSnapshotSet();
  config.count = 16;
  config.time_domain = kTimeDomain;
  config.min_extent = 0.02;
  config.max_extent = 0.2;
  std::vector<STQuery> queries = GenerateQuerySet(config);
  QuerySetConfig ranges = SmallRangeSet();
  ranges.count = 8;
  ranges.time_domain = kTimeDomain;
  ranges.min_extent = 0.02;
  ranges.max_extent = 0.2;
  for (const STQuery& query : GenerateQuerySet(ranges)) queries.push_back(query);
  return queries;
}

LiveTierOptions TierOptions() {
  LiveTierOptions options;
  options.index.capacity = 10;
  options.index.buffer = 120;
  return options;
}

struct RunResult {
  std::vector<std::vector<ObjectId>> answers;
  std::vector<SegmentRecord> segments;
  size_t tree_pages = 0;
  size_t tree_roots = 0;
};

bool SameSegments(const std::vector<SegmentRecord>& a,
                  const std::vector<SegmentRecord>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].object != b[i].object ||
        a[i].box.interval.start != b[i].box.interval.start ||
        a[i].box.interval.end != b[i].box.interval.end ||
        a[i].box.rect.xlo != b[i].box.rect.xlo ||
        a[i].box.rect.ylo != b[i].box.rect.ylo ||
        a[i].box.rect.xhi != b[i].box.rect.xhi ||
        a[i].box.rect.yhi != b[i].box.rect.yhi) {
      return false;
    }
  }
  return true;
}

RunResult Snapshot(const LiveTier& tier, const std::vector<STQuery>& queries) {
  RunResult result;
  for (const STQuery& query : queries) {
    std::vector<ObjectId> answer;
    tier.IntervalQuery(query.area, query.range, &answer);
    result.answers.push_back(std::move(answer));
  }
  const SegmentTable& segments = tier.migrated_segments();
  for (size_t i = 0; i < segments.size(); ++i) {
    result.segments.push_back(segments[i]);
  }
  result.tree_pages = tier.historical().PageCount();
  result.tree_roots = tier.historical().NumRoots();
  return result;
}

// The never-crashed run; `mutations` (when non-null) receives the number
// of mutating backend calls the whole run performs — the sweep space.
// `checkpoints` (when non-null) receives the run's final checkpoint
// sequence, to prove a checkpointed sweep actually cycled.
RunResult ReferenceRun(const LiveTierOptions& options, const std::string& path,
                       const std::vector<LiveObservation>& stream,
                       const std::vector<STQuery>& queries, uint64_t* mutations,
                       uint64_t* checkpoints = nullptr) {
  RunResult result;
  Result<std::unique_ptr<FilePageBackend>> file = FilePageBackend::Create(path);
  EXPECT_TRUE(file.ok()) << file.status().ToString();
  auto fault = std::make_unique<FaultInjectingBackend>(
      std::move(file).value(), FaultInjectingBackend::Faults{});
  FaultInjectingBackend* counter = fault.get();
  Result<std::unique_ptr<LiveTier>> tier =
      LiveTier::Open(options, std::move(fault));
  EXPECT_TRUE(tier.ok()) << tier.status().ToString();
  for (size_t i = 0; i < stream.size(); ++i) {
    EXPECT_TRUE(tier.value()->Apply(stream[i]).ok());
    if ((i + 1) % kCommitEvery == 0) {
      EXPECT_TRUE(tier.value()->Commit().ok());
    }
  }
  if (checkpoints != nullptr) *checkpoints = tier.value()->checkpoint_seq();
  EXPECT_TRUE(tier.value()->Finish().ok());
  if (mutations != nullptr) *mutations = counter->mutations();
  return Snapshot(*tier.value(), queries);
}

TEST(CrashRecoveryTest, EveryWriteSiteRecoversToTheReferenceRun) {
  const std::vector<Trajectory> objects = MakeObjects();
  const std::vector<LiveObservation> stream = MakeObservationStream(objects);
  const std::vector<STQuery> queries = MakeQueries();

  const TempPath ref_path("crash_ref.stpages");
  uint64_t mutations = 0;
  const RunResult reference =
      ReferenceRun(TierOptions(), ref_path, stream, queries, &mutations);
  ASSERT_GT(mutations, 50u) << "sweep space suspiciously small";
  RecordProperty("mutation_sites", static_cast<int>(mutations));
  EXPECT_EQ(mutations, kWriteSites);
  ASSERT_FALSE(reference.segments.empty());

  const TempPath path("crash_sweep.stpages");
  size_t crashes_mid_stream = 0;
  size_t crashes_in_finish = 0;

  for (uint64_t crash_at = 1; crash_at <= mutations; ++crash_at) {
    SCOPED_TRACE("crash_at_write=" + std::to_string(crash_at));

    // --- the doomed run -------------------------------------------------
    Result<std::unique_ptr<FilePageBackend>> file =
        FilePageBackend::Create(path);
    ASSERT_TRUE(file.ok()) << file.status().ToString();
    FaultInjectingBackend::Faults faults;
    faults.crash_at_write = crash_at;
    auto fault = std::make_unique<FaultInjectingBackend>(
        std::move(file).value(), faults);
    FaultInjectingBackend* raw_fault = fault.get();

    Result<std::unique_ptr<LiveTier>> doomed =
        LiveTier::Open(TierOptions(), std::move(fault));
    ASSERT_TRUE(doomed.ok()) << doomed.status().ToString();

    size_t acked = 0;  // updates acknowledged by a successful Commit
    bool crashed = false;
    for (size_t i = 0; i < stream.size() && !crashed; ++i) {
      if (!doomed.value()->Apply(stream[i]).ok()) {
        crashed = true;
        break;
      }
      if ((i + 1) % kCommitEvery == 0) {
        if (!doomed.value()->Commit().ok()) {
          crashed = true;
          break;
        }
        acked = i + 1;
      }
    }
    if (!crashed) {
      // The crash fires inside Finish. Updates applied after the last
      // successful Commit were never acknowledged, so `acked` stays put:
      // recovery re-ingests them.
      ASSERT_FALSE(doomed.value()->Finish().ok())
          << "crash point " << crash_at << " of " << mutations
          << " never fired";
      ++crashes_in_finish;
    } else {
      ++crashes_mid_stream;
    }
    ASSERT_TRUE(raw_fault->crashed());
    // Closing the file syncs nothing: the disk now holds exactly what the
    // dead process wrote.
    doomed.value().reset();

    // --- recovery -------------------------------------------------------
    Result<std::unique_ptr<FilePageBackend>> reopened =
        FilePageBackend::Open(path);
    ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
    Result<std::unique_ptr<LiveTier>> recovered =
        LiveTier::Open(TierOptions(), std::move(reopened).value());
    ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
    recovered.value()->historical().CheckInvariants();
    const Status copies = recovered.value()->VerifyCheckpointCopies();
    ASSERT_TRUE(copies.ok()) << copies.ToString();

    // Re-ingest the unacknowledged tail; absorbed records are skipped.
    for (size_t i = acked; i < stream.size(); ++i) {
      ASSERT_TRUE(recovered.value()->Apply(stream[i]).ok());
      if ((i + 1) % kCommitEvery == 0) {
        ASSERT_TRUE(recovered.value()->Commit().ok());
      }
    }
    ASSERT_TRUE(recovered.value()->Finish().ok());

    // --- equivalence ----------------------------------------------------
    const RunResult after = Snapshot(*recovered.value(), queries);
    ASSERT_EQ(after.answers, reference.answers);
    ASSERT_TRUE(SameSegments(after.segments, reference.segments));
    ASSERT_EQ(after.tree_pages, reference.tree_pages);
    ASSERT_EQ(after.tree_roots, reference.tree_roots);
  }

  // The sweep must have exercised both phases.
  EXPECT_GT(crashes_mid_stream, 0u);
  EXPECT_GT(crashes_in_finish, 0u);

}

// A second, smaller sweep where recovery itself reuses the file for
// further committed work and then "crashes" again (clean close), proving
// the journal stays replayable across generations of appends.
TEST(CrashRecoveryTest, RecoveredJournalSurvivesAnotherGeneration) {
  const std::vector<Trajectory> objects = MakeObjects();
  const std::vector<LiveObservation> stream = MakeObservationStream(objects);
  const std::vector<STQuery> queries = MakeQueries();

  const TempPath ref_path("crash_gen_ref.stpages");
  const RunResult reference =
      ReferenceRun(TierOptions(), ref_path, stream, queries, nullptr);

  const TempPath path("crash_gen.stpages");
  const size_t third = stream.size() / 3;

  // Generation 1: ingest a third, commit, drop the tier (clean close).
  {
    Result<std::unique_ptr<FilePageBackend>> file =
        FilePageBackend::Create(path);
    ASSERT_TRUE(file.ok());
    Result<std::unique_ptr<LiveTier>> tier =
        LiveTier::Open(TierOptions(), std::move(file).value());
    ASSERT_TRUE(tier.ok());
    for (size_t i = 0; i < third; ++i) {
      ASSERT_TRUE(tier.value()->Apply(stream[i]).ok());
    }
    ASSERT_TRUE(tier.value()->Commit().ok());
  }
  // Generation 2: recover, ingest another third with a mid-write crash.
  size_t acked = third;
  {
    Result<std::unique_ptr<FilePageBackend>> file = FilePageBackend::Open(path);
    ASSERT_TRUE(file.ok());
    FaultInjectingBackend::Faults faults;
    faults.crash_at_write = 7;
    auto fault = std::make_unique<FaultInjectingBackend>(
        std::move(file).value(), faults);
    Result<std::unique_ptr<LiveTier>> tier =
        LiveTier::Open(TierOptions(), std::move(fault));
    ASSERT_TRUE(tier.ok());
    for (size_t i = third; i < 2 * third; ++i) {
      if (!tier.value()->Apply(stream[i]).ok()) break;
      if ((i + 1) % kCommitEvery == 0) {
        if (!tier.value()->Commit().ok()) break;
        acked = i + 1;
      }
    }
  }
  // Generation 3: recover again and run to the end.
  {
    Result<std::unique_ptr<FilePageBackend>> file = FilePageBackend::Open(path);
    ASSERT_TRUE(file.ok());
    Result<std::unique_ptr<LiveTier>> tier =
        LiveTier::Open(TierOptions(), std::move(file).value());
    ASSERT_TRUE(tier.ok()) << tier.status().ToString();
    for (size_t i = acked; i < stream.size(); ++i) {
      ASSERT_TRUE(tier.value()->Apply(stream[i]).ok());
    }
    ASSERT_TRUE(tier.value()->Finish().ok());
    const RunResult after = Snapshot(*tier.value(), queries);
    EXPECT_EQ(after.answers, reference.answers);
    EXPECT_TRUE(SameSegments(after.segments, reference.segments));
  }

}

// The checkpointed sweep: with automatic checkpointing armed, the
// mutation space now includes every write of the checkpoint
// procedure — segment pages, the metadata chain, both syncs around the
// header, the header itself, and every Free of truncation. A crash
// at ANY of those sites (mid-checkpoint, between tree flush and header
// commit, mid-truncation) must recover to the uninterrupted reference.
TEST(CrashRecoveryTest, CheckpointedCrashSweepRecoversAtEveryMutationSite) {
  RandomDatasetConfig data;
  data.num_objects = 12;  // small on purpose: the sweep is O(mutations^2)
  data.time_domain = 60;
  data.max_lifetime = 24;
  data.min_extent = 0.01;
  data.max_extent = 0.05;
  data.seed = 4321;
  const std::vector<Trajectory> objects = GenerateRandomDataset(data);
  const std::vector<LiveObservation> stream = MakeObservationStream(objects);
  const std::vector<STQuery> queries = MakeQueries();

  LiveTierOptions options = TierOptions();
  options.checkpoint_every_pages = 1;  // checkpoint at (nearly) every commit

  const TempPath ref_path("ckpt_ref.stpages");
  uint64_t mutations = 0;
  uint64_t checkpoints = 0;
  const RunResult reference = ReferenceRun(options, ref_path, stream, queries,
                                           &mutations, &checkpoints);
  ASSERT_GE(checkpoints, 2u) << "sweep never cycles a checkpoint";
  ASSERT_GT(mutations, 100u) << "sweep space suspiciously small";
  RecordProperty("mutation_sites", static_cast<int>(mutations));
  EXPECT_EQ(mutations, kCheckpointedWriteSites);
  ASSERT_FALSE(reference.segments.empty());

  const TempPath path("ckpt_sweep.stpages");
  for (uint64_t crash_at = 1; crash_at <= mutations; ++crash_at) {
    SCOPED_TRACE("crash_at_write=" + std::to_string(crash_at));

    Result<std::unique_ptr<FilePageBackend>> file =
        FilePageBackend::Create(path);
    ASSERT_TRUE(file.ok()) << file.status().ToString();
    FaultInjectingBackend::Faults faults;
    faults.crash_at_write = crash_at;
    auto fault = std::make_unique<FaultInjectingBackend>(
        std::move(file).value(), faults);
    FaultInjectingBackend* raw_fault = fault.get();

    Result<std::unique_ptr<LiveTier>> doomed =
        LiveTier::Open(options, std::move(fault));
    ASSERT_TRUE(doomed.ok()) << doomed.status().ToString();

    size_t acked = 0;
    bool crashed = false;
    for (size_t i = 0; i < stream.size() && !crashed; ++i) {
      if (!doomed.value()->Apply(stream[i]).ok()) {
        crashed = true;
        break;
      }
      if ((i + 1) % kCommitEvery == 0) {
        if (!doomed.value()->Commit().ok()) {
          crashed = true;
          break;
        }
        acked = i + 1;
      }
    }
    if (!crashed) {
      ASSERT_FALSE(doomed.value()->Finish().ok())
          << "crash point " << crash_at << " of " << mutations
          << " never fired";
    }
    ASSERT_TRUE(raw_fault->crashed());
    doomed.value().reset();

    Result<std::unique_ptr<FilePageBackend>> reopened =
        FilePageBackend::Open(path);
    ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
    Result<std::unique_ptr<LiveTier>> recovered =
        LiveTier::Open(options, std::move(reopened).value());
    ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
    recovered.value()->historical().CheckInvariants();
    const Status copies = recovered.value()->VerifyCheckpointCopies();
    ASSERT_TRUE(copies.ok()) << copies.ToString();

    for (size_t i = acked; i < stream.size(); ++i) {
      ASSERT_TRUE(recovered.value()->Apply(stream[i]).ok());
      if ((i + 1) % kCommitEvery == 0) {
        ASSERT_TRUE(recovered.value()->Commit().ok());
      }
    }
    ASSERT_TRUE(recovered.value()->Finish().ok());

    const RunResult after = Snapshot(*recovered.value(), queries);
    ASSERT_EQ(after.answers, reference.answers);
    ASSERT_TRUE(SameSegments(after.segments, reference.segments));
    ASSERT_EQ(after.tree_pages, reference.tree_pages);
    ASSERT_EQ(after.tree_roots, reference.tree_roots);
  }

}

// A checkpoint header slot whose read fails is an I/O error naming the
// slot, not a torn header: the slot may hold the newer checkpoint, and
// recovering from the other slot — or from none — would replay a journal
// that checkpoint already truncated. Recovery reads slot 0, then slot 1;
// the fault hits the newest header's read: with one checkpoint the only
// header is in slot 1 (slot 0 was never written and reads as zeros), with
// two, slot 0 holds the newer one. A later reopen without the fault
// recovers to the reference answers.
TEST(CrashRecoveryTest, UnreadableCheckpointHeaderSlotIsAnIoError) {
  const std::vector<LiveObservation> stream =
      MakeObservationStream(MakeObjects());
  const std::vector<STQuery> queries = MakeQueries();
  const TempPath ref_path("header_ref.stpages");
  const RunResult reference =
      ReferenceRun(TierOptions(), ref_path, stream, queries, nullptr);

  const TempPath path("header_fault.stpages");
  const size_t half = stream.size() / 2;
  for (const uint64_t checkpoints : {uint64_t{1}, uint64_t{2}}) {
    SCOPED_TRACE("checkpoints=" + std::to_string(checkpoints));
    {
      Result<std::unique_ptr<FilePageBackend>> file =
          FilePageBackend::Create(path);
      ASSERT_TRUE(file.ok()) << file.status().ToString();
      Result<std::unique_ptr<LiveTier>> tier =
          LiveTier::Open(TierOptions(), std::move(file).value());
      ASSERT_TRUE(tier.ok()) << tier.status().ToString();
      for (size_t i = 0; i < half; ++i) {
        ASSERT_TRUE(tier.value()->Apply(stream[i]).ok());
        if ((i + 1) % kCommitEvery == 0) {
          ASSERT_TRUE(tier.value()->Commit().ok());
        }
        if (checkpoints == 2 && i + 1 == half / 2) {
          ASSERT_TRUE(tier.value()->Checkpoint().ok());
        }
      }
      ASSERT_TRUE(tier.value()->Commit().ok());
      ASSERT_TRUE(tier.value()->Checkpoint().ok());
      ASSERT_EQ(tier.value()->checkpoint_seq(), checkpoints);
    }

    const uint64_t newest = checkpoints % 2;
    const std::string slot = "checkpoint header slot " + std::to_string(newest);
    for (const bool short_read : {false, true}) {
      SCOPED_TRACE(short_read ? "short read" : "failed read");
      FaultInjectingBackend::Faults faults;
      (short_read ? faults.short_read_at : faults.fail_read_at) = newest + 1;
      Result<std::unique_ptr<FilePageBackend>> file =
          FilePageBackend::Open(path);
      ASSERT_TRUE(file.ok()) << file.status().ToString();
      const Result<std::unique_ptr<LiveTier>> refused = LiveTier::Open(
          TierOptions(), std::make_unique<FaultInjectingBackend>(
                             std::move(file).value(), faults));
      ASSERT_FALSE(refused.ok());
      EXPECT_EQ(refused.status().code(), StatusCode::kIoError)
          << refused.status().ToString();
      EXPECT_NE(refused.status().message().find(slot), std::string::npos)
          << refused.status().ToString();
    }

    Result<std::unique_ptr<FilePageBackend>> file = FilePageBackend::Open(path);
    ASSERT_TRUE(file.ok()) << file.status().ToString();
    Result<std::unique_ptr<LiveTier>> tier =
        LiveTier::Open(TierOptions(), std::move(file).value());
    ASSERT_TRUE(tier.ok()) << tier.status().ToString();
    EXPECT_EQ(tier.value()->checkpoint_seq(), checkpoints);
    for (size_t i = half; i < stream.size(); ++i) {
      ASSERT_TRUE(tier.value()->Apply(stream[i]).ok());
      if ((i + 1) % kCommitEvery == 0) {
        ASSERT_TRUE(tier.value()->Commit().ok());
      }
    }
    ASSERT_TRUE(tier.value()->Finish().ok());
    const RunResult after = Snapshot(*tier.value(), queries);
    EXPECT_EQ(after.answers, reference.answers);
    EXPECT_TRUE(SameSegments(after.segments, reference.segments));
  }
}

// Checkpoints must bound the journal: across generations of
// reopen-ingest-close cycles, recovery replays only the tail past the
// last committed checkpoint — O(checkpoint interval), never O(history) —
// and truncation actually frees pages. Answers stay byte-identical to an
// uninterrupted run throughout.
TEST(CrashRecoveryTest, JournalStaysBoundedAcrossCheckpointCycles) {
  const std::vector<Trajectory> objects = MakeObjects();
  const std::vector<LiveObservation> stream = MakeObservationStream(objects);
  const std::vector<STQuery> queries = MakeQueries();

  LiveTierOptions options = TierOptions();
  options.checkpoint_every_pages = 2;

  const TempPath ref_path("bound_ref.stpages");
  const RunResult reference =
      ReferenceRun(TierOptions(), ref_path, stream, queries, nullptr);

  Counter* truncated =
      MetricRegistry::Global().GetCounter("live.wal.truncated_pages");
  const uint64_t truncated_before = truncated->Value();

  const TempPath path("bound_gens.stpages");
  // Replay on reopen may never exceed the checkpoint trigger plus the
  // pages of one commit interval flushed after the last checkpoint.
  const uint64_t tail_bound = options.checkpoint_every_pages + 2;
  constexpr size_t kGenerations = 4;
  uint64_t last_checkpoint_seq = 0;
  uint64_t pages_flushed_total = 0;

  for (size_t gen = 0; gen < kGenerations; ++gen) {
    SCOPED_TRACE("generation=" + std::to_string(gen));
    Result<std::unique_ptr<FilePageBackend>> file =
        gen == 0 ? FilePageBackend::Create(path) : FilePageBackend::Open(path);
    ASSERT_TRUE(file.ok()) << file.status().ToString();
    Result<std::unique_ptr<LiveTier>> tier =
        LiveTier::Open(options, std::move(file).value());
    ASSERT_TRUE(tier.ok()) << tier.status().ToString();

    // Bounded recovery: the replayed tail never grows with history.
    EXPECT_LE(tier.value()->recovered().pages, tail_bound);
    EXPECT_GE(tier.value()->checkpoint_seq(), last_checkpoint_seq);

    const size_t begin = gen * stream.size() / kGenerations;
    const size_t end = (gen + 1) * stream.size() / kGenerations;
    for (size_t i = begin; i < end; ++i) {
      ASSERT_TRUE(tier.value()->Apply(stream[i]).ok());
      if ((i + 1) % kCommitEvery == 0) {
        ASSERT_TRUE(tier.value()->Commit().ok());
      }
    }
    if (gen + 1 < kGenerations) {
      ASSERT_TRUE(tier.value()->Commit().ok());
      pages_flushed_total += tier.value()->wal_pages();
      last_checkpoint_seq = tier.value()->checkpoint_seq();
      EXPECT_GT(last_checkpoint_seq, 0u);
      continue;  // clean close; the next generation reopens
    }

    // Final generation: prove the cycle kept going, then finish and
    // compare against the uninterrupted reference.
    pages_flushed_total += tier.value()->wal_pages();
    EXPECT_GT(tier.value()->checkpoint_seq(), last_checkpoint_seq);
    ASSERT_TRUE(tier.value()->Finish().ok());
    const RunResult after = Snapshot(*tier.value(), queries);
    EXPECT_EQ(after.answers, reference.answers);
    EXPECT_TRUE(SameSegments(after.segments, reference.segments));
  }

  // The bound is non-trivial: the run flushed far more journal pages than
  // any reopen ever replayed, and truncation reclaimed pages.
  EXPECT_GT(pages_flushed_total, tail_bound * kGenerations);
  EXPECT_GT(truncated->Value(), truncated_before);

}

}  // namespace
}  // namespace stindex
