// Crash-point recovery harness for the live ingestion tier — the
// headline test of the crash-safety contract.
//
// A reference run streams a dataset through a LiveTier journaling onto a
// real FilePageBackend, committing every few updates, and records every
// mutating backend call (page write / sync) along the way, in order and
// with its slot. The sweep then
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

#include <algorithm>
#include <cstdio>
#include <deque>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "datagen/query_gen.h"
#include "datagen/random_dataset.h"
#include "live/live_tier.h"
#include "pprtree/ppr_tree.h"
#include "storage/fault_backend.h"
#include "storage/file_backend.h"
#include "temp_path.h"
#include "util/metrics.h"
#include "util/status.h"

namespace stindex {
namespace {

constexpr Time kTimeDomain = 150;
constexpr size_t kCommitEvery = 16;

// The sizes of the three sweeps: the mutating backend calls of their
// reference runs, and an FNV-1a 64 hash of those calls in order — each
// call's op and slot (RecordingBackend). A change to what the tier
// writes, or where, moves them, and the sweeps say so instead of
// silently covering a different space. The plain run makes 43 writes
// and 43 syncs; the checkpointed run 55 writes and 34 syncs. Its eleven
// checkpoints once also wrote 10 node pages and freed the 8 earlier
// copies they replaced (148 sites), and truncation once freed 41 slots
// in the backend (130 sites), each a site where a crash left the file
// as a crash one site earlier did. The counts and hashes were taken by
// a probe of the reference runs while the backend still freed slots:
// the writes and syncs, and their slots, are the same.
constexpr uint64_t kWriteSites = 86;
constexpr uint64_t kWriteSitesHash = 0xceee99c9889fd068ull;
constexpr uint64_t kCheckpointedWriteSites = 89;
constexpr uint64_t kCheckpointedWriteSitesHash = 0x3b102caa0e6fb9e5ull;
// The packed sweep: a pack halfway through, whose checkpoint releases the
// chain pages of the segments it froze; the plain run's 40 objects,
// checkpointed every 2 journal pages.
constexpr uint64_t kPackedWriteSites = 213;
constexpr uint64_t kPackedWriteSitesHash = 0x92ab0f87ddaa6e29ull;

// Forwards to `inner` and records every Write and Sync it receives: the
// calls, and an FNV-1a 64 hash over each call's op ('W' or 'S') and slot
// (kInvalidPage for a sync), each as eight little-endian bytes.
class RecordingBackend final : public PageBackend {
 public:
  explicit RecordingBackend(std::unique_ptr<PageBackend> inner)
      : inner_(std::move(inner)) {}

  size_t page_size() const override { return inner_->page_size(); }
  Status Read(PageId id, uint8_t* out) const override {
    return inner_->Read(id, out);
  }
  Status Write(PageId id, const uint8_t* data) override {
    Record('W', id);
    return inner_->Write(id, data);
  }
  size_t SlotCount() const override { return inner_->SlotCount(); }
  Status Sync() override {
    Record('S', kInvalidPage);
    return inner_->Sync();
  }
  std::string Name() const override {
    return "recording(" + inner_->Name() + ")";
  }

  uint64_t calls() const { return calls_; }
  uint64_t hash() const { return hash_; }

 private:
  void Record(char op, PageId slot) {
    ++calls_;
    for (const uint64_t value :
         {static_cast<uint64_t>(op), static_cast<uint64_t>(slot)}) {
      for (int byte = 0; byte < 8; ++byte) {
        hash_ ^= (value >> (8 * byte)) & 0xff;
        hash_ *= 0x100000001b3ull;
      }
    }
  }

  std::unique_ptr<PageBackend> inner_;
  uint64_t calls_ = 0;
  uint64_t hash_ = 0xcbf29ce484222325ull;
};

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
  // Every migrated segment, the frozen layers' as they hold them.
  std::vector<SegmentRecord> segments;
  size_t tree_pages = 0;
  size_t tree_roots = 0;
  std::vector<size_t> frozen_pages;  // per frozen layer
  size_t segment_base = 0;  // the first segment the table holds
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
  result.segments = tier.AllMigratedSegments();
  result.tree_pages = tier.historical().PageCount();
  result.tree_roots = tier.historical().NumRoots();
  for (size_t l = 0; l < tier.frozen_layers(); ++l) {
    result.frozen_pages.push_back(tier.frozen_layer(l).PageCount());
  }
  result.segment_base = tier.migrated_segments().base();
  return result;
}

// The never-crashed run; `mutations` (when non-null) receives the number
// of mutating backend calls the whole run performs — the sweep space —
// and `hash` (when non-null) their RecordingBackend hash. `checkpoints`
// (when non-null) receives the run's final checkpoint sequence, to prove
// a checkpointed sweep actually cycled. With `pack_at` > 0 the run packs
// its active tree into `snapshot` once it has applied (and, at a multiple
// of kCommitEvery, committed) that many updates, then checkpoints.
RunResult ReferenceRun(const LiveTierOptions& options, const std::string& path,
                       const std::vector<LiveObservation>& stream,
                       const std::vector<STQuery>& queries, uint64_t* mutations,
                       uint64_t* hash = nullptr,
                       uint64_t* checkpoints = nullptr, size_t pack_at = 0,
                       const std::string& snapshot = "") {
  Result<std::unique_ptr<FilePageBackend>> file = FilePageBackend::Create(path);
  EXPECT_TRUE(file.ok()) << file.status().ToString();
  auto recording = std::make_unique<RecordingBackend>(std::move(file).value());
  RecordingBackend* recorder = recording.get();
  Result<std::unique_ptr<LiveTier>> tier =
      LiveTier::Open(options, std::move(recording));
  EXPECT_TRUE(tier.ok()) << tier.status().ToString();
  for (size_t i = 0; i < stream.size(); ++i) {
    EXPECT_TRUE(tier.value()->Apply(stream[i]).ok());
    if ((i + 1) % kCommitEvery == 0) {
      EXPECT_TRUE(tier.value()->Commit().ok());
    }
    if (i + 1 == pack_at) {
      EXPECT_TRUE(tier.value()->PackHistorical(snapshot).ok());
      EXPECT_TRUE(tier.value()->Checkpoint().ok());
    }
  }
  if (checkpoints != nullptr) *checkpoints = tier.value()->checkpoint_seq();
  EXPECT_TRUE(tier.value()->Finish().ok());
  if (mutations != nullptr) *mutations = recorder->calls();
  if (hash != nullptr) *hash = recorder->hash();
  return Snapshot(*tier.value(), queries);
}

TEST(CrashRecoveryTest, EveryWriteSiteRecoversToTheReferenceRun) {
  const std::vector<Trajectory> objects = MakeObjects();
  const std::vector<LiveObservation> stream = MakeObservationStream(objects);
  const std::vector<STQuery> queries = MakeQueries();

  const TempPath ref_path("crash_ref.stpages");
  uint64_t mutations = 0;
  uint64_t hash = 0;
  const RunResult reference = ReferenceRun(TierOptions(), ref_path, stream,
                                           queries, &mutations, &hash);
  ASSERT_GT(mutations, 50u) << "sweep space suspiciously small";
  RecordProperty("mutation_sites", static_cast<int>(mutations));
  EXPECT_EQ(mutations, kWriteSites);
  EXPECT_EQ(hash, kWriteSitesHash);
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
// header, and the header itself. A crash at ANY of those sites
// (mid-checkpoint, between the chains' sync and the header commit, right
// after it) must recover to the uninterrupted reference.
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
  uint64_t hash = 0;
  uint64_t checkpoints = 0;
  const RunResult reference = ReferenceRun(options, ref_path, stream, queries,
                                           &mutations, &hash, &checkpoints);
  ASSERT_GE(checkpoints, 2u) << "sweep never cycles a checkpoint";
  ASSERT_GT(mutations, 50u) << "sweep space suspiciously small";
  RecordProperty("mutation_sites", static_cast<int>(mutations));
  EXPECT_EQ(mutations, kCheckpointedWriteSites);
  EXPECT_EQ(hash, kCheckpointedWriteSitesHash);
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

// The packed sweep: the reference run packs its active tree halfway
// through and checkpoints at once — the cycle that retires the frozen
// segments from the segment table and releases their chain pages — then
// checkpoints automatically on. A crash at ANY mutation site recovers to
// the reference answers, the full record set and the same layering: a
// recovery that lost the pack (its checkpoint never committed) packs
// again where the reference did.
TEST(CrashRecoveryTest, PackedCrashSweepRecoversAtEveryMutationSite) {
  const std::vector<LiveObservation> stream =
      MakeObservationStream(MakeObjects());
  const std::vector<STQuery> queries = MakeQueries();
  LiveTierOptions options = TierOptions();
  options.checkpoint_every_pages = 2;
  const size_t pack_at = stream.size() / 2 / kCommitEvery * kCommitEvery;

  const TempPath ref_path("pack_ref.stpages");
  const TempPath ref_snapshot("pack_ref.stsnap");
  uint64_t mutations = 0;
  uint64_t hash = 0;
  uint64_t checkpoints = 0;
  const RunResult reference =
      ReferenceRun(options, ref_path, stream, queries, &mutations, &hash,
                   &checkpoints, pack_at, ref_snapshot.path());
  ASSERT_GE(checkpoints, 2u) << "sweep never cycles a checkpoint";
  ASSERT_EQ(reference.frozen_pages.size(), 1u);
  // The pack's checkpoint released at least one chain page.
  ASSERT_GE(reference.segment_base, kSegmentsPerPage);
  RecordProperty("mutation_sites", static_cast<int>(mutations));
  EXPECT_EQ(mutations, kPackedWriteSites);
  EXPECT_EQ(hash, kPackedWriteSitesHash);

  const TempPath path("pack_sweep.stpages");
  const TempPath snapshot("pack_sweep.stsnap");
  // Packs `tier` where the reference did, unless a layer survived.
  const auto pack = [&](LiveTier* tier) {
    if (tier->frozen_layers() > 0) return true;
    return tier->PackHistorical(snapshot.path()).ok() &&
           tier->Checkpoint().ok();
  };
  size_t packs_recovered = 0;
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
      crashed = !doomed.value()->Apply(stream[i]).ok();
      if (!crashed && (i + 1) % kCommitEvery == 0) {
        crashed = !doomed.value()->Commit().ok();
        if (!crashed) acked = i + 1;
      }
      // The snapshot is outside the journal: only the checkpoint fails.
      if (!crashed && i + 1 == pack_at) crashed = !pack(doomed.value().get());
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
    for (size_t l = 0; l < recovered.value()->frozen_layers(); ++l) {
      recovered.value()->frozen_layer(l).CheckInvariants();
    }
    packs_recovered += recovered.value()->frozen_layers();
    const Status copies = recovered.value()->VerifyCheckpointCopies();
    ASSERT_TRUE(copies.ok()) << copies.ToString();

    if (acked == pack_at) {
      ASSERT_TRUE(pack(recovered.value().get()));
    }
    for (size_t i = acked; i < stream.size(); ++i) {
      ASSERT_TRUE(recovered.value()->Apply(stream[i]).ok());
      if ((i + 1) % kCommitEvery == 0) {
        ASSERT_TRUE(recovered.value()->Commit().ok());
      }
      if (i + 1 == pack_at) {
        ASSERT_TRUE(pack(recovered.value().get()));
      }
    }
    ASSERT_TRUE(recovered.value()->Finish().ok());

    const RunResult after = Snapshot(*recovered.value(), queries);
    ASSERT_EQ(after.answers, reference.answers);
    ASSERT_TRUE(SameSegments(after.segments, reference.segments));
    ASSERT_EQ(after.tree_pages, reference.tree_pages);
    ASSERT_EQ(after.tree_roots, reference.tree_roots);
    ASSERT_EQ(after.frozen_pages, reference.frozen_pages);
  }
  // Crashes before the pack's checkpoint and after it were both swept.
  EXPECT_GT(packs_recovered, 0u);
  EXPECT_LT(packs_recovered, mutations);
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
// and truncation releases slots the journal reuses, which the live.wal
// slot gauges show; a reopen rebuilds the free slots the closed tier
// held. Answers stay byte-identical to an uninterrupted run throughout.
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
  // The journal's slot gauges when the last generation closed, and the
  // most slots it ever held.
  LiveTier::Telemetry closed;
  uint64_t max_slots = 0;

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
    // Recovery rebuilds the free slots the closed tier held.
    const LiveTier::Telemetry opened = tier.value()->GetTelemetry();
    EXPECT_EQ(opened.wal_slots, closed.wal_slots);
    EXPECT_EQ(opened.wal_free_slots, closed.wal_free_slots);

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
      closed = tier.value()->GetTelemetry();
      max_slots = std::max(max_slots, closed.wal_slots);
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
  // any reopen ever replayed, and truncation reclaimed pages: the journal
  // never grew to hold what it flushed, since its allocator handed the
  // released slots out again.
  EXPECT_GT(pages_flushed_total, tail_bound * kGenerations);
  EXPECT_GT(truncated->Value(), truncated_before);
  EXPECT_GT(closed.wal_free_slots, 0u);
  EXPECT_LT(max_slots, pages_flushed_total);

}

// The segment chain of the committed checkpoint of the journal at `path`.
CheckpointHeader HeaderOf(const std::string& path) {
  Result<std::unique_ptr<FilePageBackend>> file = FilePageBackend::Open(path);
  EXPECT_TRUE(file.ok()) << file.status().ToString();
  const Result<CheckpointHeader> header =
      ReadLatestCheckpointHeader(*file.value());
  EXPECT_TRUE(header.ok()) << header.status().ToString();
  return header.value();
}

// Packs retire history: across generations of reopen-ingest-close
// cycles that pack the active tree every few dozen checkpoints, each
// pack's checkpoint releases the chain pages of the segments it froze,
// so the chain never holds more than a generation's segments and the
// journal's slots stay a fraction of an unpacked journal's, which grow
// with the whole chain; every pack shrinks the segment table; every
// frozen layer passes its invariants after each reopen; and the answers
// at the end equal an unpacked tier's and a batch build's.
TEST(CrashRecoveryTest, JournalStaysBoundedAcrossPacks) {
  RandomDatasetConfig data;
  data.num_objects = 1500;
  data.time_domain = 300;
  data.max_lifetime = 40;
  data.min_extent = 0.01;
  data.max_extent = 0.05;
  data.seed = 2468;
  const std::vector<LiveObservation> stream =
      MakeObservationStream(GenerateRandomDataset(data));
  const std::vector<STQuery> queries = MakeQueries();
  LiveTierOptions options = TierOptions();
  options.index.capacity = 4;
  options.checkpoint_every_pages = 4;
  constexpr uint64_t kCheckpointsPerPack = 60;
  constexpr size_t kGenerations = 5;
  MetricRegistry& registry = MetricRegistry::Global();
  const auto gauge = [&registry](LiveTier* tier, const char* name) {
    tier->PublishGauges();
    return registry.GetGauge(name)->Value();
  };

  // The unpacked reference, on a journal of the same schedule.
  const TempPath ref_path("packs_ref.stpages");
  int64_t unpacked_slots = 0;
  RunResult reference;
  {
    Result<std::unique_ptr<FilePageBackend>> file =
        FilePageBackend::Create(ref_path);
    ASSERT_TRUE(file.ok()) << file.status().ToString();
    Result<std::unique_ptr<LiveTier>> tier =
        LiveTier::Open(options, std::move(file).value());
    ASSERT_TRUE(tier.ok()) << tier.status().ToString();
    for (size_t i = 0; i < stream.size(); ++i) {
      ASSERT_TRUE(tier.value()->Apply(stream[i]).ok());
      if ((i + 1) % kCommitEvery == 0) {
        ASSERT_TRUE(tier.value()->Commit().ok());
      }
    }
    ASSERT_TRUE(tier.value()->Checkpoint().ok());
    unpacked_slots = gauge(tier.value().get(), "live.wal.slots");
    ASSERT_TRUE(tier.value()->Finish().ok());
    reference = Snapshot(*tier.value(), queries);
  }
  const uint32_t unpacked_chain = HeaderOf(ref_path.path()).segment_pages;

  const TempPath path("packs_gens.stpages");
  std::deque<TempPath> snapshots;  // one per pack
  uint64_t packed_at_seq = 0;
  for (size_t gen = 0; gen < kGenerations; ++gen) {
    SCOPED_TRACE("generation=" + std::to_string(gen));
    Result<std::unique_ptr<FilePageBackend>> file =
        gen == 0 ? FilePageBackend::Create(path) : FilePageBackend::Open(path);
    ASSERT_TRUE(file.ok()) << file.status().ToString();
    Result<std::unique_ptr<LiveTier>> tier =
        LiveTier::Open(options, std::move(file).value());
    ASSERT_TRUE(tier.ok()) << tier.status().ToString();
    EXPECT_EQ(tier.value()->frozen_layers(), snapshots.size());
    for (size_t l = 0; l < tier.value()->frozen_layers(); ++l) {
      tier.value()->frozen_layer(l).CheckInvariants();
    }
    tier.value()->historical().CheckInvariants();
    const Status copies = tier.value()->VerifyCheckpointCopies();
    ASSERT_TRUE(copies.ok()) << copies.ToString();

    const size_t begin = gen * stream.size() / kGenerations;
    const size_t end = (gen + 1) * stream.size() / kGenerations;
    for (size_t i = begin; i < end; ++i) {
      ASSERT_TRUE(tier.value()->Apply(stream[i]).ok());
      if ((i + 1) % kCommitEvery != 0) continue;
      ASSERT_TRUE(tier.value()->Commit().ok());
      if (tier.value()->checkpoint_seq() < packed_at_seq + kCheckpointsPerPack) {
        continue;
      }
      const int64_t table_bytes =
          gauge(tier.value().get(), "live.segment_table_bytes");
      snapshots.emplace_back("packs_gens_" + std::to_string(snapshots.size()) +
                             ".stsnap");
      ASSERT_TRUE(tier.value()->PackHistorical(snapshots.back().path()).ok());
      EXPECT_LT(gauge(tier.value().get(), "live.segment_table_bytes"),
                table_bytes)
          << "pack " << snapshots.size();
      ASSERT_TRUE(tier.value()->Checkpoint().ok());
      packed_at_seq = tier.value()->checkpoint_seq();
    }
    ASSERT_TRUE(tier.value()->Commit().ok());
    ASSERT_TRUE(tier.value()->Checkpoint().ok());
    EXPECT_LT(gauge(tier.value().get(), "live.wal.slots") * 4, unpacked_slots);
    if (gen + 1 == kGenerations) {
      ASSERT_TRUE(tier.value()->Finish().ok());
      const RunResult after = Snapshot(*tier.value(), queries);
      EXPECT_EQ(after.answers, reference.answers);
      EXPECT_TRUE(SameSegments(after.segments, reference.segments));
    }
    tier.value().reset();  // clean close; the next generation reopens
    EXPECT_LE(HeaderOf(path.path()).segment_pages * kGenerations,
              unpacked_chain);
  }
  EXPECT_GE(snapshots.size(), kGenerations) << "too few packs";

  // A batch build over every segment answers as both tiers did.
  const std::unique_ptr<PprTree> batch = BuildPprTree(reference.segments);
  for (size_t q = 0; q < queries.size(); ++q) {
    std::vector<PprDataId> ids;
    batch->IntervalQuery(queries[q].area, queries[q].range, &ids);
    std::vector<ObjectId> objects;
    for (const PprDataId id : ids) {
      objects.push_back(reference.segments[id].object);
    }
    std::sort(objects.begin(), objects.end());
    objects.erase(std::unique(objects.begin(), objects.end()), objects.end());
    EXPECT_EQ(reference.answers[q], objects) << "query " << q;
  }
}

}  // namespace
}  // namespace stindex
