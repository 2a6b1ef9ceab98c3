// Unit tests for the live ingestion tier: WAL round-trip and torn-tail
// semantics, LiveIndex stream invariants and sealing policy inputs
// (against a brute-force model), checkpoint-state decoding of LiveIndex
// and MigrationPipeline, and LiveTier end-to-end behaviour (tiered
// queries, clean reopen, corrupt journals). Crash-point sweeps live in
// crash_recovery_test.cc; the live-vs-batch equivalence in
// backend_differential_test.cc.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <functional>
#include <iterator>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <span>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/query_profile.h"
#include "datagen/query_gen.h"
#include "datagen/random_dataset.h"
#include "live/checkpoint.h"
#include "live/live_index.h"
#include "live/live_tier.h"
#include "live/migration.h"
#include "live/wal.h"
#include "storage/fault_backend.h"
#include "storage/file_backend.h"
#include "storage/page_backend.h"
#include "storage/page_codec.h"
#include "storage/shared_buffer_pool.h"
#include "temp_path.h"
#include "util/metrics.h"
#include "util/prom_writer.h"
#include "util/random.h"

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

  // Recovery's allocator takes only the tail, so it holds the debris
  // free; a continuing writer reuses the slot and the log is whole again.
  std::vector<PageId> taken;
  for (const WalPageRef& page : stats.tail) taken.push_back(page.slot);
  WalSlotAllocator rebuilt(backend.SlotCount(), taken);
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

  // An interior page whose slot was released and reused by another kind
  // of page (e.g. a botched truncation of the wrong range) must be a loud
  // error, not a silently shortened log.
  uint8_t reused[kPageSize] = {};
  SealPage(reused, PageKind::kCheckpointPage);
  ASSERT_TRUE(backend.Write(kWalFirstDataSlot + 1, reused).ok());
  WalReplayStats stats;
  Result<std::vector<WalRecord>> replayed = Replay(backend, &stats);
  ASSERT_FALSE(replayed.ok());
  EXPECT_EQ(replayed.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(replayed.status().message().find("lost a committed page"),
            std::string::npos)
      << replayed.status().ToString();
}

TEST(WalTest, TruncateBeforeReleasesAbsorbedPrefixAndRecyclesSlots) {
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
  const size_t freed = writer.TruncateBefore(cut);
  EXPECT_GT(freed, 0u);
  EXPECT_EQ(writer.tail_pages(), 1u);
  // Every data slot but the surviving page's is free.
  EXPECT_EQ(slots.free_slots(), freed);
  EXPECT_EQ(slots.free_slots(), high_water - kWalFirstDataSlot - 1);

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

// Rebuilt from the slots a journal of `slot_count` slots still uses, the
// allocator holds every other data slot free and hands out the lowest
// first, then grows the journal.
TEST(WalSlotAllocatorTest, RebuiltAllocatorHandsOutTheLowestFreeSlot) {
  WalSlotAllocator slots(7, {kWalFirstDataSlot + 1, kWalFirstDataSlot + 3});
  EXPECT_EQ(slots.free_slots(), 3u);
  EXPECT_EQ(slots.Acquire(), kWalFirstDataSlot);
  slots.Release(kWalFirstDataSlot + 1);
  for (const PageId expected :
       {kWalFirstDataSlot + 1, kWalFirstDataSlot + 2, kWalFirstDataSlot + 4,
        kWalFirstDataSlot + 5}) {
    EXPECT_EQ(slots.Acquire(), expected);
  }
  EXPECT_EQ(slots.free_slots(), 0u);
}

// The allocator is the one record of free journal slots, so a slot
// released twice, or one it never handed out, is a checked error.
TEST(WalSlotAllocatorDeathTest, DoubleReleaseAborts) {
  WalSlotAllocator slots;
  const PageId slot = slots.Acquire();
  slots.Release(slot);
  EXPECT_DEATH(slots.Release(slot), "double release of a journal slot");
  EXPECT_DEATH(slots.Release(slot + 1), "never handed out");
  EXPECT_DEATH(slots.Release(0), "never handed out");
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
  EXPECT_TRUE(index.RipeForCatchUp().empty());
  ASSERT_TRUE(index.Observe(1, 2, UnitRect(0.1, 0.2), &applied).ok());
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
  EXPECT_EQ(index.RipeForCatchUp(), std::vector<ObjectId>{1});
  ASSERT_TRUE(index.Observe(3, 7, UnitRect(0.5, 0.6), &applied).ok());
  EXPECT_EQ(index.RipeForCatchUp(), (std::vector<ObjectId>{1, 2}));
}

// Brute-force reference for LiveIndex's sealing-policy inputs: plain
// per-object state, every answer recomputed by a full scan in the order
// the policy documents.
class PolicyModel {
 public:
  explicit PolicyModel(const LiveIndexOptions& options) : options_(options) {}

  void Observe(ObjectId object, Time t) {
    ++buffers_.try_emplace(object, Buffer{t, 0}).first->second.size;
    ++buffered_instants_;
    last_global_ = t;
  }
  void End(ObjectId object) { retired_.insert(object); }
  void Seal(ObjectId object) {
    buffered_instants_ -= buffers_.at(object).size;
    buffers_.erase(object);
  }

  Time StartOf(ObjectId object) const { return buffers_.at(object).start; }
  size_t SizeOf(ObjectId object) const { return buffers_.at(object).size; }
  size_t live_objects() const { return buffers_.size(); }
  size_t buffered_instants() const { return buffered_instants_; }
  // The `k`-th buffered object in id order.
  ObjectId NthBuffered(size_t k) const {
    return std::next(buffers_.begin(), static_cast<std::ptrdiff_t>(k))->first;
  }

  Time Watermark() const {
    if (buffers_.empty()) return last_global_;
    Time watermark = std::numeric_limits<Time>::max();
    for (const auto& [object, buffer] : buffers_) {
      watermark = std::min(watermark, buffer.start);
    }
    return watermark;
  }
  bool OverBudget() const {
    return options_.buffer != 0 && buffered_instants_ > options_.buffer;
  }
  ObjectId BudgetVictim() const {
    ObjectId victim = LiveIndex::kInvalidObject;
    Time victim_start = std::numeric_limits<Time>::max();
    for (const auto& [object, buffer] : buffers_) {  // ascending id
      if (buffer.start < victim_start) {
        victim = object;
        victim_start = buffer.start;
      }
    }
    return victim;
  }
  std::vector<ObjectId> RipeForCatchUp() const {
    std::vector<ObjectId> ended;
    std::vector<ObjectId> over;
    for (const auto& [object, buffer] : buffers_) {  // ascending id
      if (retired_.count(object) != 0) {
        ended.push_back(object);
      } else if ((options_.capacity != 0 && buffer.size >= options_.capacity) ||
                 (options_.duration != 0 &&
                  last_global_ - buffer.start + 1 >= options_.duration)) {
        over.push_back(object);
      }
    }
    ended.insert(ended.end(), over.begin(), over.end());
    return ended;
  }

 private:
  struct Buffer {
    Time start;
    size_t size;
  };

  LiveIndexOptions options_;
  std::map<ObjectId, Buffer> buffers_;
  std::set<ObjectId> retired_;
  size_t buffered_instants_ = 0;
  Time last_global_ = std::numeric_limits<Time>::min();
};

::testing::AssertionResult SamePolicy(const LiveIndex& index,
                                      const PolicyModel& model) {
  if (index.Watermark() != model.Watermark()) {
    return ::testing::AssertionFailure()
           << "Watermark " << index.Watermark() << ", model "
           << model.Watermark();
  }
  if (index.BudgetVictim() != model.BudgetVictim()) {
    return ::testing::AssertionFailure()
           << "BudgetVictim " << index.BudgetVictim() << ", model "
           << model.BudgetVictim();
  }
  if (index.OverBudget() != model.OverBudget()) {
    return ::testing::AssertionFailure()
           << "OverBudget " << index.OverBudget() << ", model "
           << model.OverBudget();
  }
  if (index.RipeForCatchUp() != model.RipeForCatchUp()) {
    return ::testing::AssertionFailure()
           << "RipeForCatchUp has " << index.RipeForCatchUp().size()
           << " ids, model " << model.RipeForCatchUp().size();
  }
  if (index.live_objects() != model.live_objects() ||
      index.buffered_instants() != model.buffered_instants()) {
    return ::testing::AssertionFailure()
           << "buffers " << index.live_objects() << "/"
           << index.buffered_instants() << ", model " << model.live_objects()
           << "/" << model.buffered_instants();
  }
  return ::testing::AssertionSuccess();
}

// One update of a random valid stream; `redelivery` marks a copy of an
// earlier update that the index must skip.
struct PolicyStep {
  ObjectId object = 0;
  Time t = 0;
  bool is_end = false;
  bool redelivery = false;
};

// Random valid Observe/End stream over a few hundred objects with
// scattered ids: each object observes every instant of its lifetime,
// most end one past it, and updates of one tick come in random order.
// About one update in twenty is followed by a re-delivery of an earlier
// one.
std::vector<PolicyStep> RandomPolicyStream(Rng& rng) {
  const int64_t num_objects = rng.UniformInt(200, 400);
  const Time domain = 150;
  struct Life {
    ObjectId object;
    Time birth;
    Time death;
    bool ends;
  };
  std::vector<Life> lives;
  std::set<ObjectId> ids;
  while (static_cast<int64_t>(ids.size()) < num_objects) {
    const ObjectId object =
        static_cast<ObjectId>(rng.UniformInt(0, 10 * num_objects));
    if (!ids.insert(object).second) continue;
    const Time birth = rng.UniformInt(0, domain - 1);
    lives.push_back(Life{object, birth, birth + rng.UniformInt(1, 40),
                         rng.Bernoulli(0.9)});
  }
  std::vector<PolicyStep> stream;
  for (Time t = 0; t <= domain + 40; ++t) {
    std::vector<PolicyStep> tick;
    for (const Life& life : lives) {
      if (life.birth <= t && t < life.death) {
        tick.push_back(PolicyStep{life.object, t, false, false});
      } else if (life.ends && t == life.death) {
        tick.push_back(PolicyStep{life.object, t, true, false});
      }
    }
    for (size_t i = tick.size(); i > 1; --i) {
      std::swap(tick[i - 1], tick[static_cast<size_t>(rng.UniformInt(
                                 0, static_cast<int64_t>(i) - 1))]);
    }
    for (const PolicyStep& step : tick) {
      stream.push_back(step);
      if (rng.Bernoulli(0.05)) {
        PolicyStep again = stream[static_cast<size_t>(rng.UniformInt(
            0, static_cast<int64_t>(stream.size()) - 1))];
        again.redelivery = true;
        stream.push_back(again);
      }
    }
  }
  return stream;
}

// Drives LiveIndex and the brute-force model through the same random
// streams, seals and one checkpoint round trip, and compares every
// policy input after every step.
TEST(LiveIndexTest, PolicyMatchesBruteForce) {
  struct Knobs {
    const char* name;
    bool capacity;
    bool duration;
    bool buffer;
  };
  const Knobs knob_sets[] = {{"capacity", true, false, false},
                             {"duration", false, true, false},
                             {"buffer", false, false, true},
                             {"all", true, true, true}};
  for (const Knobs& knobs : knob_sets) {
    for (uint64_t seed = 1; seed <= 3; ++seed) {
      Rng rng(seed);
      LiveIndexOptions options;
      options.capacity =
          knobs.capacity ? static_cast<size_t>(rng.UniformInt(2, 16)) : 0;
      options.duration = knobs.duration ? rng.UniformInt(2, 30) : 0;
      options.buffer =
          knobs.buffer ? static_cast<size_t>(rng.UniformInt(50, 600)) : 0;
      const std::vector<PolicyStep> stream = RandomPolicyStream(rng);
      const size_t round_trip_at = static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(stream.size()) - 1));
      const std::string where =
          std::string("knobs=") + knobs.name + " seed=" + std::to_string(seed);

      auto index = std::make_unique<LiveIndex>(options);
      PolicyModel model(options);
      size_t seals = 0;
      size_t deferred_until = 0;
      const auto seal = [&](ObjectId object) -> ::testing::AssertionResult {
        Result<LiveIndex::SealedChunk> chunk = index->Seal(object);
        if (!chunk.ok()) {
          return ::testing::AssertionFailure() << chunk.status().ToString();
        }
        if (chunk.value().start != model.StartOf(object) ||
            chunk.value().rects.size() != model.SizeOf(object)) {
          return ::testing::AssertionFailure()
                 << "chunk of object " << object << " differs from the model";
        }
        model.Seal(object);
        ++seals;
        return SamePolicy(*index, model);
      };

      for (size_t i = 0; i < stream.size(); ++i) {
        const PolicyStep& step = stream[i];
        bool applied = false;
        const Status status =
            step.is_end ? index->End(step.object, step.t, &applied)
                        : index->Observe(step.object, step.t,
                                         UnitRect(0.1, 0.2), &applied);
        ASSERT_TRUE(status.ok()) << where << " step " << i << ": "
                                 << status.ToString();
        ASSERT_EQ(applied, !step.redelivery) << where << " step " << i;
        if (applied) {
          if (step.is_end) {
            model.End(step.object);
          } else {
            model.Observe(step.object, step.t);
          }
        }
        ASSERT_TRUE(SamePolicy(*index, model)) << where << " step " << i;

        // SealRipe's order, plus random extra seals. Random stretches of
        // steps, and the 100 steps before the round trip, defer the
        // policy's seals, so buffers run past their knobs, ripe objects
        // end, and catch-up lists of several ids build up.
        if (i >= deferred_until && rng.Bernoulli(0.01)) {
          deferred_until = i + static_cast<size_t>(rng.UniformInt(1, 200));
        }
        const bool before_round_trip =
            i <= round_trip_at && i + 100 >= round_trip_at;
        if (i >= deferred_until && !before_round_trip) {
          for (ObjectId object : index->RipeForCatchUp()) {
            ASSERT_TRUE(seal(object)) << where << " step " << i;
          }
          while (index->OverBudget()) {
            ASSERT_TRUE(seal(index->BudgetVictim())) << where << " step " << i;
          }
        }
        if (model.live_objects() > 0 && rng.Bernoulli(0.03)) {
          ASSERT_TRUE(seal(model.NthBuffered(static_cast<size_t>(
              rng.UniformInt(0, static_cast<int64_t>(model.live_objects()) -
                                    1)))))
              << where << " step " << i;
        }

        if (i == round_trip_at) {
          MemorySink sink;
          index->EncodeState(&sink);
          index = std::make_unique<LiveIndex>(options);
          PageReader source(sink.bytes().data(), sink.bytes().size());
          const Status decoded = index->DecodeState(&source);
          ASSERT_TRUE(decoded.ok()) << where << ": " << decoded.ToString();
          ASSERT_EQ(source.remaining(), 0u) << where;
          ASSERT_TRUE(SamePolicy(*index, model))
              << where << " after the round trip at step " << i;
        }
      }
      EXPECT_GT(seals, stream.size() / 100) << where;
    }
  }
}

// LiveTier skips CollectLive for a range that ends at or before the
// watermark, since no open buffer starts earlier. Over random streams
// with policy and random seals, such a range collects nothing, while the
// instant at the watermark collects an object whenever a buffer is open.
TEST(LiveIndexTest, NothingLiveBeforeTheWatermark) {
  const Rect2D everywhere = UnitRect(0.0, 1.0);
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    Rng rng(seed);
    LiveIndexOptions options;
    options.capacity = static_cast<size_t>(rng.UniformInt(2, 16));
    options.buffer = static_cast<size_t>(rng.UniformInt(50, 600));
    LiveIndex index(options);
    const std::vector<PolicyStep> stream = RandomPolicyStream(rng);
    size_t checked_open = 0;
    for (size_t i = 0; i < stream.size(); ++i) {
      const PolicyStep& step = stream[i];
      const std::string where =
          "seed " + std::to_string(seed) + " step " + std::to_string(i);
      bool applied = false;
      const Status status =
          step.is_end ? index.End(step.object, step.t, &applied)
                      : index.Observe(step.object, step.t, UnitRect(0.1, 0.2),
                                      &applied);
      ASSERT_TRUE(status.ok()) << where << ": " << status.ToString();
      for (ObjectId object : index.RipeForCatchUp()) {
        ASSERT_TRUE(index.Seal(object).ok()) << where;
      }
      while (index.OverBudget()) {
        ASSERT_TRUE(index.Seal(index.BudgetVictim()).ok()) << where;
      }
      if (index.live_objects() > 0 && rng.Bernoulli(0.03)) {
        const std::vector<ObjectId> buffered = index.BufferedObjects();
        ASSERT_TRUE(index
                        .Seal(buffered[static_cast<size_t>(rng.UniformInt(
                            0, static_cast<int64_t>(buffered.size()) - 1))])
                        .ok())
            << where;
      }

      const Time watermark = index.Watermark();
      std::vector<ObjectId> live;
      index.CollectLive(
          everywhere, TimeInterval(watermark - rng.UniformInt(1, 200), watermark),
          &live);
      ASSERT_TRUE(live.empty()) << where << ": " << live.size()
                                << " objects before watermark " << watermark;
      if (index.live_objects() > 0) {
        index.CollectLive(everywhere, TimeInterval(watermark, watermark + 1),
                          &live);
        ASSERT_FALSE(live.empty()) << where << ": nothing at the watermark";
        ++checked_open;
      }
    }
    EXPECT_GT(checked_open, stream.size() / 2) << "seed " << seed;
  }
}

// A hand-built LiveIndex checkpoint state: `buffers` as (object, first
// instant, rect count), one last instant per object, nothing retired.
struct BufferState {
  ObjectId object;
  Time start;
  uint64_t rects;
};
Status DecodeIndexState(const std::vector<BufferState>& buffers,
                        const std::vector<std::pair<ObjectId, Time>>& lasts) {
  MemorySink sink;
  sink.Write(static_cast<uint64_t>(buffers.size()));
  for (const BufferState& buffer : buffers) {
    sink.Write(buffer.object);
    sink.Write(buffer.start);
    sink.Write(buffer.rects);
    for (uint64_t i = 0; i < buffer.rects; ++i) sink.Write(UnitRect(0.1, 0.2));
  }
  sink.Write(static_cast<uint64_t>(lasts.size()));
  for (const auto& [object, t] : lasts) {
    sink.Write(object);
    sink.Write(t);
  }
  sink.Write(uint64_t{0});  // retired
  sink.Write(Time{9});      // last global time
  LiveIndex index(LiveIndexOptions{});
  PageReader source(sink.bytes().data(), sink.bytes().size());
  return index.DecodeState(&source);
}

bool Mentions(const Status& status, const std::string& text) {
  return status.message().find(text) != std::string::npos;
}

TEST(LiveIndexTest, DecodeStateAcceptsConsistentBuffers) {
  EXPECT_TRUE(DecodeIndexState({{7, 0, 2}, {8, 3, 4}}, {{7, 1}, {8, 6}}).ok());
}

TEST(LiveIndexTest, DecodeStateRejectsBufferListedTwice) {
  const Status status = DecodeIndexState({{7, 0, 2}, {7, 2, 2}}, {{7, 3}});
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(Mentions(status, "object 7 listed twice")) << status.ToString();
}

TEST(LiveIndexTest, DecodeStateRejectsEmptyBuffer) {
  const Status status = DecodeIndexState({{7, 2, 0}}, {{7, 1}});
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(Mentions(status, "object 7 holds no observations"))
      << status.ToString();
}

TEST(LiveIndexTest, DecodeStateRejectsRectCountBeyondTheBytes) {
  MemorySink sink;
  sink.Write(uint64_t{1});
  sink.Write(ObjectId{7});
  sink.Write(Time{0});
  sink.Write(uint64_t{1} << 40);  // rects the state cannot hold
  sink.Write(UnitRect(0.1, 0.2));
  LiveIndex index(LiveIndexOptions{});
  PageReader source(sink.bytes().data(), sink.bytes().size());
  const Status status = index.DecodeState(&source);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(Mentions(status, "truncated live buffer")) << status.ToString();
}

TEST(LiveIndexTest, DecodeStateRejectsBufferNotEndingAtLastInstant) {
  for (const auto& lasts : {std::vector<std::pair<ObjectId, Time>>{{7, 5}},
                            std::vector<std::pair<ObjectId, Time>>{{7, 0}},
                            std::vector<std::pair<ObjectId, Time>>{}}) {
    const Status status = DecodeIndexState({{7, 2, 2}}, lasts);
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
    EXPECT_TRUE(Mentions(status, "object 7 does not end at"))
        << status.ToString();
  }
}

// Four segments: ids 0..3 over [0, 3), [2, 6), [5, 9), [1, 4).
SegmentTable PipelineSegments() {
  SegmentTable segments;
  for (const auto& [start, end] : std::vector<std::pair<Time, Time>>{
           {0, 3}, {2, 6}, {5, 9}, {1, 4}}) {
    SegmentRecord segment;
    segment.object = 4 + segments.size();
    segment.box = STBox(UnitRect(0.1, 0.2), TimeInterval(start, end));
    segments.push_back(segment);
  }
  return segments;
}

// Decodes the first `bytes` bytes of a pipeline state holding the
// watermarks W and W_pack into `pipeline`, over PipelineSegments().
Status DecodeWatermarks(Time watermark, Time pack_watermark, size_t bytes,
                        MigrationPipeline* pipeline) {
  MemorySink sink;
  sink.Write(watermark);
  sink.Write(pack_watermark);
  PageReader source(sink.bytes().data(), bytes);
  return pipeline->DecodeState(PipelineSegments(), &source);
}

// The active tree is replayed from the segments that start at or after
// W_pack, up to W; what is left is queued.
TEST(MigrationPipelineTest, DecodeStateReplaysTheActiveTreeFromItsWatermarks) {
  PprTree tree;
  MigrationPipeline pipeline(&tree);
  const Status status = DecodeWatermarks(5, 1, 16, &pipeline);
  ASSERT_TRUE(status.ok()) << status.ToString();
  // Segment 0 starts before W_pack: a pack froze it. Segments 1 and 3
  // were inserted, and 3 deleted at 4; segment 2 starts at W.
  EXPECT_EQ(tree.Size(), 2u);
  EXPECT_EQ(tree.AliveCount(), 1u);
  tree.CheckInvariants();
  // Pending: segment 2's insert and delete, segment 1's delete.
  EXPECT_EQ(pipeline.pending_events(), 3u);
  EXPECT_EQ(pipeline.watermark(), 5);
  std::vector<ObjectId> pending;
  pipeline.CollectPending(UnitRect(0.0, 1.0), TimeInterval(0, 10), &pending);
  EXPECT_EQ(pending, std::vector<ObjectId>{6});
  // Applying the rest gives the tree an uninterrupted pipeline would.
  pipeline.Drain();
  EXPECT_EQ(tree.Size(), 3u);
  EXPECT_EQ(tree.AliveCount(), 0u);
  tree.CheckInvariants();
}

// The queued inserts all start at or after W, so a range that ends at W
// tests none of them, and one that ends at W + 1 tests them all.
TEST(MigrationPipelineTest, CollectPendingSkipsRangesEndingByTheWatermark) {
  PprTree tree;
  MigrationPipeline pipeline(&tree);
  ASSERT_TRUE(DecodeWatermarks(5, 1, 16, &pipeline).ok());
  std::vector<ObjectId> pending;
  QueryProfile profile;
  pipeline.CollectPending(UnitRect(0.0, 1.0), TimeInterval(0, 5), &pending,
                          &profile);
  EXPECT_TRUE(pending.empty());
  EXPECT_EQ(profile.pending_scanned, 0u);
  pipeline.CollectPending(UnitRect(0.0, 1.0), TimeInterval(0, 6), &pending,
                          &profile);
  EXPECT_EQ(pending, std::vector<ObjectId>{6});
  EXPECT_EQ(profile.pending_scanned, 1u);
}

TEST(MigrationPipelineTest, DecodeStateRejectsBadWatermarks) {
  for (const size_t bytes : {size_t{0}, size_t{8}, size_t{12}}) {
    PprTree tree;
    MigrationPipeline pipeline(&tree);
    const Status status = DecodeWatermarks(5, 1, bytes, &pipeline);
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
    EXPECT_TRUE(Mentions(status, "truncated pipeline watermarks"))
        << status.ToString();
  }
  PprTree tree;
  MigrationPipeline pipeline(&tree);
  const Status status = DecodeWatermarks(3, 4, 16, &pipeline);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(Mentions(status, "watermark 3 precedes the pack watermark 4"))
      << status.ToString();
  EXPECT_EQ(tree.Size(), 0u);
}

// A record table as MigrationPipeline::EncodeFrozenRecords lays it out.
std::vector<uint8_t> RecordTable(
    uint64_t first_id, const std::vector<ObjectId>& objects,
    const std::vector<FrozenRecords::AliveEnd>& alive) {
  MemorySink sink;
  sink.Write(first_id);
  sink.Write(static_cast<uint64_t>(objects.size()));
  sink.Write(static_cast<uint64_t>(alive.size()));
  for (const FrozenRecords::AliveEnd& end : alive) {
    sink.Write(end.id);
    sink.Write(end.end);
  }
  for (const ObjectId object : objects) sink.Write(object);
  return sink.bytes();
}

// A frozen layer resolves its hits on its own: each id's object, and for
// a record alive at the pack, its true end; any other hit is exact.
TEST(FrozenRecordsTest, ResolvesObjectsAndClipsRecordsAliveAtThePack) {
  // Ids 10..14; 11 and 13 were alive at the pack, ending at 30 and 25.
  const std::vector<uint8_t> table =
      RecordTable(10, {7, 8, 9, 7, 6}, {{11, 30}, {13, 25}});
  const Result<FrozenRecords> records = FrozenRecords::Parse(table);
  ASSERT_TRUE(records.ok()) << records.status().ToString();
  EXPECT_EQ(records.value().first_id(), 10u);
  EXPECT_EQ(records.value().end_id(), 15u);
  EXPECT_EQ(records.value().ObjectOf(10), 7u);
  EXPECT_EQ(records.value().ObjectOf(14), 6u);
  EXPECT_EQ(records.value().AliveEndOf(13), 25);
  EXPECT_EQ(records.value().AliveEndOf(12), kTimeInfinity);
  // Before the earliest alive end every hit stands.
  for (PprDataId id = 10; id < 15; ++id) {
    EXPECT_TRUE(records.value().ClipToInterval(id, TimeInterval(0, 25)));
  }
  EXPECT_FALSE(records.value().ClipToInterval(13, TimeInterval(25, 26)));
  EXPECT_TRUE(records.value().ClipToInterval(11, TimeInterval(25, 26)));
  EXPECT_FALSE(records.value().ClipToInterval(11, TimeInterval(30, 40)));
  EXPECT_TRUE(records.value().ClipToInterval(12, TimeInterval(30, 40)));
}

TEST(FrozenRecordsTest, ParseRefusesATableThatDoesNotFit) {
  const std::vector<uint8_t> table = RecordTable(10, {7, 8, 9}, {{11, 30}});
  ASSERT_EQ(table.size(), 24u + 16 + 3 * 4);
  ASSERT_TRUE(FrozenRecords::Parse(table).ok());
  for (const size_t cut :
       {size_t{0}, size_t{23}, table.size() - 1, table.size() - 4}) {
    const Result<FrozenRecords> records =
        FrozenRecords::Parse(std::span(table).first(cut));
    EXPECT_EQ(records.status().code(), StatusCode::kInvalidArgument) << cut;
  }
  // An alive id outside the table's ids, or out of order.
  for (const auto& alive :
       {std::vector<FrozenRecords::AliveEnd>{{13, 30}},
        std::vector<FrozenRecords::AliveEnd>{{9, 30}},
        std::vector<FrozenRecords::AliveEnd>{{12, 30}, {11, 31}}}) {
    const Result<FrozenRecords> records =
        FrozenRecords::Parse(RecordTable(10, {7, 8, 9}, alive));
    EXPECT_EQ(records.status().code(), StatusCode::kInvalidArgument);
    EXPECT_TRUE(Mentions(records.status(), "is out of order or outside ids"))
        << records.status().ToString();
  }
}

// A pack retires the segments it froze from the table, keeping their ids:
// the table holds ids from the lowest one not frozen, the pipeline's
// record table for the layer names the objects of the ids from the old
// base and the ends of the records the layer holds alive.
TEST(MigrationPipelineTest, PackRetiresTheFrozenSegments) {
  PprTree tree;
  MigrationPipeline pipeline(&tree);
  // Segments 0..3 over [0, 3), [2, 6), [5, 9), [1, 4); W = 5.
  ASSERT_TRUE(DecodeWatermarks(5, std::numeric_limits<Time>::min(), 16,
                               &pipeline)
                  .ok());
  MemorySink sink;
  pipeline.EncodeFrozenRecords(&sink);
  const Result<FrozenRecords> records = FrozenRecords::Parse(sink.bytes());
  ASSERT_TRUE(records.ok()) << records.status().ToString();
  EXPECT_EQ(records.value().first_id(), 0u);
  EXPECT_EQ(records.value().end_id(), 4u);
  EXPECT_EQ(records.value().ObjectOf(2), 6u);
  // Segment 1 was inserted and is still alive at W; 0 and 3 ended
  // before it, and 2 starts at W.
  ASSERT_EQ(records.value().alive_count(), 1u);
  EXPECT_EQ(records.value().alive(0).id, 1u);
  EXPECT_EQ(records.value().alive(0).end, 6);

  PprTree fresh;
  pipeline.RetargetAfterPack(&fresh);
  // Segment 2 is the lowest not frozen.
  EXPECT_EQ(pipeline.segments().size(), 4u);
  EXPECT_EQ(pipeline.segments().base(), 2u);
  EXPECT_EQ(pipeline.pending_events(), 2u);
  pipeline.Drain();
  EXPECT_EQ(fresh.Size(), 1u);
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
std::vector<ObjectId> ScanSegments(const SegmentTable& segments,
                                   const STQuery& query) {
  const STBox box(query.area, query.range);
  std::vector<ObjectId> hits;
  for (size_t i = 0; i < segments.size(); ++i) {
    if (segments[i].box.Intersects(box)) hits.push_back(segments[i].object);
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

// EXPLAIN shows the pending scan: a query that ends at or before the
// watermark tests no insert-pending segment, any later one tests every
// queued insert (the segments that start at or after the watermark).
TEST(LiveTierTest, ProfileCountsThePendingScan) {
  const std::vector<LiveObservation> stream =
      MakeObservationStream(SmallDataset(17));
  Result<std::unique_ptr<LiveTier>> tier = LiveTier::Open(
      SmallTierOptions(), std::make_unique<MemoryPageBackend>());
  ASSERT_TRUE(tier.ok()) << tier.status().ToString();
  for (size_t i = 0; i < stream.size() / 2; ++i) {
    ASSERT_TRUE(tier.value()->Apply(stream[i]).ok());
  }
  const Time watermark = tier.value()->GetTelemetry().watermark;
  const SegmentTable& segments = tier.value()->migrated_segments();
  uint64_t queued = 0;
  for (size_t i = 0; i < segments.size(); ++i) {
    if (segments[i].box.interval.start >= watermark) ++queued;
  }
  ASSERT_GT(queued, 0u);

  std::vector<ObjectId> got;
  QueryProfile historical;
  tier.value()->IntervalQuery(UnitRect(0.0, 1.0), TimeInterval(0, watermark),
                              &got, &historical);
  EXPECT_EQ(historical.pending_scanned, 0u);
  QueryProfile fresh;
  tier.value()->SnapshotQuery(UnitRect(0.0, 1.0), watermark, &got, &fresh);
  EXPECT_EQ(fresh.pending_scanned, queued);

  historical.Merge(fresh);
  EXPECT_EQ(historical.pending_scanned, queued);
  EXPECT_NE(historical.ToTable().find("pending scanned      " +
                                      std::to_string(queued) + "\n"),
            std::string::npos)
      << historical.ToTable();
}

TEST(LiveTierTest, CleanReopenContinuesAndReingestIsIdempotent) {
  const std::vector<Trajectory> objects = SmallDataset(13);
  const std::vector<LiveObservation> stream = MakeObservationStream(objects);
  const std::vector<STQuery> queries = SmallQueries(17);
  const TempPath path("live_reopen.stpages");

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
  const TempPath path("live_ckpt.stpages");

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
}

// A page file keeps the bytes of the slots the journal freed: a reopen
// after two checkpoints finds the first one's metadata pages and the
// journal pages the checkpoints covered still in the file. Recovery frees
// them as garbage, but they are sealed pages, not a torn tail.
TEST(LiveTierTest, FreedSlotsOfAFileJournalAreGarbageNotATornTail) {
  const std::vector<LiveObservation> stream =
      MakeObservationStream(SmallDataset(37));
  const TempPath path("live_freed.stpages");
  {
    Result<std::unique_ptr<FilePageBackend>> wal = FilePageBackend::Create(path);
    ASSERT_TRUE(wal.ok());
    Result<std::unique_ptr<LiveTier>> tier =
        LiveTier::Open(SmallTierOptions(), std::move(wal).value());
    ASSERT_TRUE(tier.ok());
    for (size_t i = 0; i < stream.size(); ++i) {
      ASSERT_TRUE(tier.value()->Apply(stream[i]).ok());
      if (i + 1 == stream.size() / 2 || i + 1 == stream.size()) {
        ASSERT_TRUE(tier.value()->Commit().ok());
        ASSERT_TRUE(tier.value()->Checkpoint().ok());
      }
    }
    ASSERT_EQ(tier.value()->checkpoint_seq(), 2u);
  }

  Result<std::unique_ptr<FilePageBackend>> wal = FilePageBackend::Open(path);
  ASSERT_TRUE(wal.ok()) << wal.status().ToString();
  Result<std::unique_ptr<LiveTier>> tier =
      LiveTier::Open(SmallTierOptions(), std::move(wal).value());
  ASSERT_TRUE(tier.ok()) << tier.status().ToString();
  EXPECT_EQ(tier.value()->checkpoint_seq(), 2u);
  EXPECT_FALSE(tier.value()->recovered().torn_tail);
  EXPECT_FALSE(tier.value()->recovered().garbage.empty());
}

std::string FileBytes(const std::string& path) {
  std::string bytes;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return bytes;
  char chunk[4096];
  size_t n = 0;
  while ((n = std::fread(chunk, 1, sizeof(chunk), f)) > 0) {
    bytes.append(chunk, n);
  }
  std::fclose(f);
  return bytes;
}

// A file of whole pages that holds neither a checkpoint header nor a
// journal page is not a journal: Open refuses it, and leaves every byte
// as it was instead of freeing its pages and starting a journal over
// them.
TEST(LiveTierTest, OpenRefusesAFileThatIsNotAJournal) {
  Rng rng(53);
  for (const bool random : {false, true}) {
    SCOPED_TRACE(random ? "random bytes" : "zero-filled");
    const TempPath path("not_a_journal.stpages");
    std::string bytes(8 * kPageSize, '\0');
    if (random) {
      for (char& byte : bytes) byte = static_cast<char>(rng.Next());
    }
    std::FILE* f = std::fopen(path.path().c_str(), "wb");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
    ASSERT_EQ(std::fclose(f), 0);

    Result<std::unique_ptr<FilePageBackend>> wal = FilePageBackend::Open(path);
    ASSERT_TRUE(wal.ok()) << wal.status().ToString();
    const Result<std::unique_ptr<LiveTier>> refused =
        LiveTier::Open(SmallTierOptions(), std::move(wal).value());
    ASSERT_FALSE(refused.ok());
    EXPECT_EQ(refused.status().code(), StatusCode::kInvalidArgument);
    EXPECT_TRUE(Mentions(refused.status(), "not a live-tier journal: 8 pages"))
        << refused.status().ToString();
    EXPECT_TRUE(FileBytes(path) == bytes) << "the file changed";
  }
}

// A second checkpoint writes what changed since the first — the new
// segments, from the partial last page of the chain on, and the metadata
// — and inherits every full segment page; a reopen from it answers like
// the uninterrupted run.
TEST(LiveTierTest, CheckpointWritesOnlyWhatChangedAndInheritsTheRest) {
  const std::vector<Trajectory> objects = SmallDataset(31);
  const std::vector<LiveObservation> stream = MakeObservationStream(objects);
  const std::vector<STQuery> queries = SmallQueries(37);
  const TempPath path("live_ckpt_delta.stpages");
  Counter* written =
      MetricRegistry::Global().GetCounter("live.wal.checkpoint_pages_written");
  Counter* inherited = MetricRegistry::Global().GetCounter(
      "live.wal.checkpoint_pages_inherited");

  Result<std::unique_ptr<LiveTier>> reference = LiveTier::Open(
      SmallTierOptions(), std::make_unique<MemoryPageBackend>());
  ASSERT_TRUE(reference.ok());
  for (const LiveObservation& update : stream) {
    ASSERT_TRUE(reference.value()->Apply(update).ok());
  }
  ASSERT_TRUE(reference.value()->Finish().ok());

  const size_t first = stream.size() * 3 / 4;
  const size_t second = stream.size() - 8;
  {
    Result<std::unique_ptr<FilePageBackend>> wal =
        FilePageBackend::Create(path);
    ASSERT_TRUE(wal.ok());
    const FilePageBackend* journal = wal.value().get();
    const auto header_of = [journal]() {
      const Result<CheckpointHeader> header =
          ReadLatestCheckpointHeader(*journal);
      EXPECT_TRUE(header.ok()) << header.status().ToString();
      return header.value();
    };
    Result<std::unique_ptr<LiveTier>> tier =
        LiveTier::Open(SmallTierOptions(), std::move(wal).value());
    ASSERT_TRUE(tier.ok());
    for (size_t i = 0; i < first; ++i) {
      ASSERT_TRUE(tier.value()->Apply(stream[i]).ok());
    }
    uint64_t written_before = written->Value();
    uint64_t inherited_before = inherited->Value();
    ASSERT_TRUE(tier.value()->Checkpoint().ok());
    const CheckpointHeader one = header_of();
    // The first checkpoint has nothing to inherit.
    EXPECT_EQ(written->Value() - written_before,
              one.segment_pages + one.meta_pages);
    EXPECT_EQ(inherited->Value(), inherited_before);
    EXPECT_TRUE(tier.value()->VerifyCheckpointCopies().ok());

    for (size_t i = first; i < second; ++i) {
      ASSERT_TRUE(tier.value()->Apply(stream[i]).ok());
    }
    written_before = written->Value();
    inherited_before = inherited->Value();
    ASSERT_TRUE(tier.value()->Checkpoint().ok());
    const CheckpointHeader two = header_of();
    ASSERT_GT(two.segment_count, one.segment_count) << "no new segment";
    const uint64_t full_pages = one.segment_count / kSegmentsPerPage;
    ASSERT_GT(full_pages, 0u);
    EXPECT_EQ(inherited->Value() - inherited_before, full_pages);
    EXPECT_EQ(written->Value() - written_before,
              two.segment_pages - full_pages + two.meta_pages);
    const Status copies = tier.value()->VerifyCheckpointCopies();
    EXPECT_TRUE(copies.ok()) << copies.ToString();
  }

  Result<std::unique_ptr<FilePageBackend>> wal = FilePageBackend::Open(path);
  ASSERT_TRUE(wal.ok()) << wal.status().ToString();
  Result<std::unique_ptr<LiveTier>> tier =
      LiveTier::Open(SmallTierOptions(), std::move(wal).value());
  ASSERT_TRUE(tier.ok()) << tier.status().ToString();
  EXPECT_EQ(tier.value()->checkpoint_seq(), 2u);
  EXPECT_EQ(tier.value()->recovered().records, 0u);
  const Status copies = tier.value()->VerifyCheckpointCopies();
  EXPECT_TRUE(copies.ok()) << copies.ToString();
  for (const LiveObservation& update : stream) {
    ASSERT_TRUE(tier.value()->Apply(update).ok());
  }
  ASSERT_TRUE(tier.value()->Finish().ok());
  for (const STQuery& query : queries) {
    std::vector<ObjectId> got;
    std::vector<ObjectId> want;
    tier.value()->IntervalQuery(query.area, query.range, &got);
    reference.value()->IntervalQuery(query.area, query.range, &want);
    EXPECT_EQ(got, want);
  }
}

// The tier's segment chain stays exact when a checkpoint follows every
// update, each appending at most a few segments to a partial last page.
// A deep tree (fanout 6), a pack halfway and a reopen at the end cover
// the chain and the replayed active tree across packs and recovery.
TEST(LiveTierTest, CopiesStayExactWithACheckpointAfterEveryUpdate) {
  const std::vector<Trajectory> objects = SmallDataset(43);
  const std::vector<LiveObservation> stream = MakeObservationStream(objects);
  const std::vector<STQuery> queries = SmallQueries(47);
  LiveTierOptions options = SmallTierOptions();
  options.ppr.max_entries = 6;
  const TempPath path("live_ckpt_every.stpages");
  const TempPath snap_path("live_ckpt_every.stsnap");

  Result<std::unique_ptr<LiveTier>> reference =
      LiveTier::Open(options, std::make_unique<MemoryPageBackend>());
  ASSERT_TRUE(reference.ok());
  for (const LiveObservation& update : stream) {
    ASSERT_TRUE(reference.value()->Apply(update).ok());
  }
  ASSERT_TRUE(reference.value()->Finish().ok());

  const size_t cut = stream.size() * 3 / 4;
  {
    Result<std::unique_ptr<FilePageBackend>> wal =
        FilePageBackend::Create(path);
    ASSERT_TRUE(wal.ok());
    Result<std::unique_ptr<LiveTier>> tier =
        LiveTier::Open(options, std::move(wal).value());
    ASSERT_TRUE(tier.ok());
    for (size_t i = 0; i < cut; ++i) {
      ASSERT_TRUE(tier.value()->Apply(stream[i]).ok());
      const Status copies = tier.value()->VerifyCheckpointCopies();
      ASSERT_TRUE(copies.ok()) << "update " << i << ": " << copies.ToString();
      if (i == stream.size() / 2) {
        ASSERT_TRUE(tier.value()->PackHistorical(snap_path).ok());
      }
      ASSERT_TRUE(tier.value()->Checkpoint().ok());
    }
  }

  Result<std::unique_ptr<FilePageBackend>> wal = FilePageBackend::Open(path);
  ASSERT_TRUE(wal.ok()) << wal.status().ToString();
  Result<std::unique_ptr<LiveTier>> tier =
      LiveTier::Open(options, std::move(wal).value());
  ASSERT_TRUE(tier.ok()) << tier.status().ToString();
  for (size_t i = cut; i < stream.size(); ++i) {
    ASSERT_TRUE(tier.value()->Apply(stream[i]).ok());
    const Status copies = tier.value()->VerifyCheckpointCopies();
    ASSERT_TRUE(copies.ok()) << "update " << i << ": " << copies.ToString();
    ASSERT_TRUE(tier.value()->Checkpoint().ok());
  }
  ASSERT_TRUE(tier.value()->Finish().ok());
  tier.value()->historical().CheckInvariants();
  for (const STQuery& query : queries) {
    std::vector<ObjectId> got;
    std::vector<ObjectId> want;
    tier.value()->IntervalQuery(query.area, query.range, &got);
    reference.value()->IntervalQuery(query.area, query.range, &want);
    EXPECT_EQ(got, want);
  }
}

// Journal pages holding a sealed PPR-tree node.
size_t NodePages(const PageBackend& wal) {
  size_t pages = 0;
  uint8_t page[kPageSize];
  for (PageId slot = 0; slot < wal.SlotCount(); ++slot) {
    if (!wal.Read(slot, page).ok()) continue;
    if (OpenPagePayload(page, PageKind::kPprNode, slot).ok()) ++pages;
  }
  return pages;
}

// An in-memory journal that records the kind of every page written to it.
class KindRecordingBackend final : public PageBackend {
 public:
  size_t page_size() const override { return pages_.page_size(); }
  Status Read(PageId id, uint8_t* out) const override {
    return pages_.Read(id, out);
  }
  Status Write(PageId id, const uint8_t* data) override {
    uint16_t kind = 0;  // envelope bytes [4, 6)
    std::memcpy(&kind, data + 4, sizeof(kind));
    written_.insert(static_cast<PageKind>(kind));
    return pages_.Write(id, data);
  }
  size_t SlotCount() const override { return pages_.SlotCount(); }
  Status Sync() override { return pages_.Sync(); }
  std::string Name() const override { return "kind-recording"; }

  // The kinds written since the last call.
  std::set<PageKind> TakeWrittenKinds() { return std::exchange(written_, {}); }

 private:
  MemoryPageBackend pages_;
  std::set<PageKind> written_;
};

// The active tree is derived state, and a frozen layer is named by its
// snapshot file: a checkpoint writes segment, metadata and header pages
// — besides the journal page that carries its marker — and no node page,
// before a pack and after one, so the journal never holds a node page.
TEST(LiveTierTest, CheckpointsWriteNoNodePage) {
  const std::vector<LiveObservation> stream =
      MakeObservationStream(SmallDataset(53));
  const TempPath snap_path("live_no_nodes.stsnap");
  auto memory = std::make_unique<KindRecordingBackend>();
  KindRecordingBackend* wal = memory.get();
  Result<std::unique_ptr<LiveTier>> tier =
      LiveTier::Open(SmallTierOptions(), std::move(memory));
  ASSERT_TRUE(tier.ok());
  const std::set<PageKind> checkpoint_kinds = {
      PageKind::kWalPage, PageKind::kSegmentPage, PageKind::kCheckpointPage,
      PageKind::kCheckpointHeader};
  const size_t half = stream.size() / 2;
  for (const bool pack : {false, true}) {
    SCOPED_TRACE(pack ? "after a pack" : "no pack");
    if (pack) {
      ASSERT_TRUE(tier.value()->PackHistorical(snap_path).ok());
    }
    for (size_t i = pack ? half : 0; i < (pack ? stream.size() : half); ++i) {
      ASSERT_TRUE(tier.value()->Apply(stream[i]).ok());
    }
    ASSERT_GT(tier.value()->historical().PageCount(), 0u);
    wal->TakeWrittenKinds();
    ASSERT_TRUE(tier.value()->Checkpoint().ok());
    const std::set<PageKind> written = wal->TakeWrittenKinds();
    EXPECT_EQ(written, checkpoint_kinds);
    EXPECT_EQ(NodePages(*wal), 0u);
    const Status copies = tier.value()->VerifyCheckpointCopies();
    EXPECT_TRUE(copies.ok()) << copies.ToString();
  }
}

// Every node page of an arena tree, in node order.
std::vector<std::vector<uint8_t>> NodePagesOf(const PprTree& tree) {
  std::unique_ptr<SharedBufferPool> pool = tree.NewSharedQueryPool(1);
  std::vector<std::vector<uint8_t>> pages;
  for (PageId id = 0; id < tree.PageCount(); ++id) {
    bool missed = false;
    const Result<const Page*> page = pool->Pin(id, &missed);
    EXPECT_TRUE(page.ok()) << page.status().ToString();
    pages.emplace_back(page.value()->bytes, page.value()->bytes + kPageSize);
    pool->Unpin(id);
  }
  return pages;
}

// The first node at which two trees' pages differ; SIZE_MAX when none do.
size_t FirstDifferentNode(const std::vector<std::vector<uint8_t>>& a,
                          const std::vector<std::vector<uint8_t>>& b) {
  for (size_t i = 0; i < std::max(a.size(), b.size()); ++i) {
    if (i >= a.size() || i >= b.size() || a[i] != b[i]) return i;
  }
  return SIZE_MAX;
}

// Recovery replays the active tree from the segments and the pipeline's
// two watermarks. Checkpointed mid-stream — with no pack before, after
// one and after two — the reopened tier's active tree equals, page for
// page, the tree of the tier it was checkpointed from at that update, and
// the reopened tier goes on to the never-crashed reference's answers.
TEST(LiveTierTest, RecoveryReplaysTheActiveTreePageForPage) {
  const std::vector<Trajectory> objects = SmallDataset(61);
  const std::vector<LiveObservation> stream = MakeObservationStream(objects);
  const std::vector<STQuery> queries = SmallQueries(67);
  LiveTierOptions options = SmallTierOptions();
  options.ppr.max_entries = 8;  // deep trees that restructure often

  Result<std::unique_ptr<LiveTier>> reference =
      LiveTier::Open(options, std::make_unique<MemoryPageBackend>());
  ASSERT_TRUE(reference.ok());
  for (const LiveObservation& update : stream) {
    ASSERT_TRUE(reference.value()->Apply(update).ok());
  }
  ASSERT_TRUE(reference.value()->Finish().ok());

  const size_t cut = stream.size() * 2 / 3;
  for (const size_t packs : {size_t{0}, size_t{1}, size_t{2}}) {
    SCOPED_TRACE(std::to_string(packs) + " packs");
    const TempPath path("live_replay.stpages");
    const TempPath snap_paths[] = {TempPath("live_replay_0.stsnap"),
                                   TempPath("live_replay_1.stsnap")};
    std::vector<std::vector<uint8_t>> pages;
    size_t size = 0;
    size_t alive = 0;
    size_t roots = 0;
    size_t pending = 0;
    {
      Result<std::unique_ptr<FilePageBackend>> wal =
          FilePageBackend::Create(path);
      ASSERT_TRUE(wal.ok());
      Result<std::unique_ptr<LiveTier>> tier =
          LiveTier::Open(options, std::move(wal).value());
      ASSERT_TRUE(tier.ok());
      for (size_t i = 0; i < cut; ++i) {
        ASSERT_TRUE(tier.value()->Apply(stream[i]).ok());
        for (size_t p = 0; p < packs; ++p) {
          if (i + 1 == (p + 1) * cut / 3) {
            ASSERT_TRUE(tier.value()->PackHistorical(snap_paths[p]).ok());
          }
        }
      }
      ASSERT_TRUE(tier.value()->Checkpoint().ok());
      const PprTree& active = tier.value()->historical();
      active.CheckInvariants();
      pages = NodePagesOf(active);
      size = active.Size();
      alive = active.AliveCount();
      roots = active.NumRoots();
      pending = tier.value()->pending_events();
      ASSERT_GT(pages.size(), 10u) << "a shallow active tree";
      ASSERT_GT(alive, 0u);
      ASSERT_GT(pending, 0u);
    }

    Result<std::unique_ptr<FilePageBackend>> wal = FilePageBackend::Open(path);
    ASSERT_TRUE(wal.ok()) << wal.status().ToString();
    Result<std::unique_ptr<LiveTier>> tier =
        LiveTier::Open(options, std::move(wal).value());
    ASSERT_TRUE(tier.ok()) << tier.status().ToString();
    EXPECT_EQ(tier.value()->recovered().records, 0u);
    EXPECT_EQ(tier.value()->frozen_layers(), packs);
    const PprTree& active = tier.value()->historical();
    active.CheckInvariants();
    const std::vector<std::vector<uint8_t>> recovered = NodePagesOf(active);
    EXPECT_EQ(recovered.size(), pages.size());
    EXPECT_EQ(FirstDifferentNode(recovered, pages), SIZE_MAX);
    EXPECT_EQ(active.Size(), size);
    EXPECT_EQ(active.AliveCount(), alive);
    EXPECT_EQ(active.NumRoots(), roots);
    EXPECT_EQ(tier.value()->pending_events(), pending);

    for (const LiveObservation& update : stream) {
      ASSERT_TRUE(tier.value()->Apply(update).ok());
    }
    ASSERT_TRUE(tier.value()->Finish().ok());
    tier.value()->historical().CheckInvariants();
    for (const STQuery& query : queries) {
      std::vector<ObjectId> got;
      std::vector<ObjectId> want;
      tier.value()->IntervalQuery(query.area, query.range, &got);
      reference.value()->IntervalQuery(query.area, query.range, &want);
      EXPECT_EQ(got, want);
    }
  }
}

// A checkpoint names each frozen layer's snapshot by its path, so it is
// refused — FailedPrecondition naming the layer and the path, nothing
// written, the tier not latched — while the path no longer names the
// file the layer maps: deleted, or replaced by another file. So is a
// Commit whose automatic trigger it is. A reopen then recovers the
// pre-pack layering from the checkpoint before the pack and finishes
// with the never-crashed reference's answers.
TEST(LiveTierTest, CheckpointRefusesASnapshotPathThatNamesAnotherFile) {
  const std::vector<Trajectory> objects = SmallDataset(71);
  const std::vector<LiveObservation> stream = MakeObservationStream(objects);
  const std::vector<STQuery> queries = SmallQueries(73);
  LiveTierOptions options = SmallTierOptions();
  options.checkpoint_every_pages = 1;

  Result<std::unique_ptr<LiveTier>> reference =
      LiveTier::Open(options, std::make_unique<MemoryPageBackend>());
  ASSERT_TRUE(reference.ok());
  for (const LiveObservation& update : stream) {
    ASSERT_TRUE(reference.value()->Apply(update).ok());
  }
  ASSERT_TRUE(reference.value()->Finish().ok());

  const TempPath path("live_gone.stpages");
  const TempPath snap_path("live_gone.stsnap");
  const TempPath other_path("live_gone_other.stsnap");
  const std::vector<std::pair<const char*, std::function<void()>>> damages = {
      {"deleted", [&] { std::filesystem::remove(snap_path.path()); }},
      {"replaced",
       [&] {
         SegmentRecord other;
         other.object = 1;
         other.box = STBox(UnitRect(0.3, 0.4), TimeInterval(0, 9));
         ASSERT_TRUE(BuildPprTree({other})->PackSnapshot(other_path).ok());
         std::filesystem::rename(other_path.path(), snap_path.path());
       }},
  };
  const size_t half = stream.size() / 2;
  for (const auto& [name, damage] : damages) {
    SCOPED_TRACE(name);
    size_t acked = 0;
    {
      Result<std::unique_ptr<FilePageBackend>> wal =
          FilePageBackend::Create(path);
      ASSERT_TRUE(wal.ok());
      const FilePageBackend* journal = wal.value().get();
      Result<std::unique_ptr<LiveTier>> tier =
          LiveTier::Open(options, std::move(wal).value());
      ASSERT_TRUE(tier.ok());
      for (size_t i = 0; i < half; ++i) {
        ASSERT_TRUE(tier.value()->Apply(stream[i]).ok());
        if ((i + 1) % 16 == 0) {
          ASSERT_TRUE(tier.value()->Commit().ok());
        }
      }
      ASSERT_TRUE(tier.value()->Checkpoint().ok());
      const uint64_t seq = tier.value()->checkpoint_seq();
      ASSERT_TRUE(tier.value()->PackHistorical(snap_path).ok());
      damage();

      const auto expect_refused = [&](const Status& status) {
        EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition)
            << status.ToString();
        for (const std::string& text :
             {"frozen layer 0 snapshot " + snap_path.path(),
              std::string("no longer names the file")}) {
          EXPECT_TRUE(Mentions(status, text)) << status.ToString();
        }
      };
      const LiveTier::Telemetry before = tier.value()->GetTelemetry();
      expect_refused(tier.value()->Checkpoint());
      // The refused checkpoint took no journal slot.
      const LiveTier::Telemetry after = tier.value()->GetTelemetry();
      EXPECT_EQ(after.wal_slots, before.wal_slots);
      EXPECT_EQ(after.wal_free_slots, before.wal_free_slots);
      EXPECT_EQ(after.wal_pages, before.wal_pages);
      // The automatic trigger of a Commit past the threshold.
      for (size_t i = half; i < half + 40; ++i) {
        ASSERT_TRUE(tier.value()->Apply(stream[i]).ok());
      }
      expect_refused(tier.value()->Commit());
      acked = half + 40;
      EXPECT_FALSE(tier.value()->latched());
      EXPECT_EQ(tier.value()->checkpoint_seq(), seq);
      const Result<CheckpointHeader> header =
          ReadLatestCheckpointHeader(*journal);
      ASSERT_TRUE(header.ok());
      EXPECT_EQ(header.value().checkpoint_seq, seq);
    }

    Result<std::unique_ptr<FilePageBackend>> wal = FilePageBackend::Open(path);
    ASSERT_TRUE(wal.ok()) << wal.status().ToString();
    Result<std::unique_ptr<LiveTier>> tier =
        LiveTier::Open(options, std::move(wal).value());
    ASSERT_TRUE(tier.ok()) << tier.status().ToString();
    EXPECT_EQ(tier.value()->frozen_layers(), 0u);
    for (size_t i = acked; i < stream.size(); ++i) {
      ASSERT_TRUE(tier.value()->Apply(stream[i]).ok());
    }
    ASSERT_TRUE(tier.value()->Finish().ok());
    for (const STQuery& query : queries) {
      std::vector<ObjectId> got;
      std::vector<ObjectId> want;
      tier.value()->IntervalQuery(query.area, query.range, &got);
      reference.value()->IntervalQuery(query.area, query.range, &want);
      EXPECT_EQ(got, want);
    }
  }
}

// Recovery maps the snapshot a checkpoint names again, and refuses — with
// a Status naming the checkpoint, the layer and the path — a snapshot
// that was deleted, truncated, or re-packed with other content.
TEST(LiveTierTest, RecoveryRefusesASnapshotThatIsNotTheOneNamed) {
  const std::vector<LiveObservation> stream =
      MakeObservationStream(SmallDataset(59));
  const TempPath path("live_named.stpages");
  const TempPath snap_path("live_named.stsnap");
  const TempPath saved("live_named.stsnap.saved");
  {
    Result<std::unique_ptr<FilePageBackend>> wal =
        FilePageBackend::Create(path);
    ASSERT_TRUE(wal.ok());
    Result<std::unique_ptr<LiveTier>> tier =
        LiveTier::Open(SmallTierOptions(), std::move(wal).value());
    ASSERT_TRUE(tier.ok());
    for (size_t i = 0; i < stream.size() / 2; ++i) {
      ASSERT_TRUE(tier.value()->Apply(stream[i]).ok());
    }
    ASSERT_TRUE(tier.value()->PackHistorical(snap_path).ok());
    ASSERT_TRUE(tier.value()->Checkpoint().ok());
  }
  std::filesystem::copy_file(snap_path.path(), saved.path(),
                             std::filesystem::copy_options::overwrite_existing);
  const auto recover = [&path]() -> Result<std::unique_ptr<LiveTier>> {
    Result<std::unique_ptr<FilePageBackend>> wal = FilePageBackend::Open(path);
    if (!wal.ok()) return wal.status();
    return LiveTier::Open(SmallTierOptions(), std::move(wal).value());
  };
  {
    const Result<std::unique_ptr<LiveTier>> tier = recover();
    ASSERT_TRUE(tier.ok()) << tier.status().ToString();
    ASSERT_EQ(tier.value()->frozen_layers(), 1u);
    EXPECT_NE(tier.value()->frozen_layer(0).backend(), nullptr);
  }

  const std::vector<std::pair<const char*, std::function<void()>>> damages = {
      {"deleted", [&] { std::filesystem::remove(snap_path.path()); }},
      {"truncated",
       [&] {
         std::filesystem::resize_file(
             snap_path.path(),
             std::filesystem::file_size(snap_path.path()) - kPageSize);
       }},
      {"re-packed",
       [&] {
         SegmentRecord other;
         other.object = 1;
         other.box = STBox(UnitRect(0.3, 0.4), TimeInterval(0, 9));
         ASSERT_TRUE(BuildPprTree({other})->PackSnapshot(snap_path).ok());
       }},
  };
  for (const auto& [name, damage] : damages) {
    SCOPED_TRACE(name);
    std::filesystem::copy_file(
        saved.path(), snap_path.path(),
        std::filesystem::copy_options::overwrite_existing);
    damage();
    const Result<std::unique_ptr<LiveTier>> tier = recover();
    ASSERT_FALSE(tier.ok());
    for (const std::string& text :
         {std::string("checkpoint 1: frozen layer 0"), snap_path.path()}) {
      EXPECT_TRUE(Mentions(tier.status(), text)) << tier.status().ToString();
    }
  }
}

// A checkpointed journal whose pages a test rewrites — resealed, so every
// checksum passes — to plant a count that no page could back. Recovery
// must refuse it with InvalidArgument naming where it broke, before
// sizing any memory from it.
class CheckpointCountTest : public ::testing::Test {
 protected:
  void SetUp() override { Build(/*pack=*/false); }

  // Checkpoints half the stream into a fresh journal — after packing the
  // active tree into a frozen layer when `pack` — and commits a journal
  // tail past the checkpoint.
  void Build(bool pack) {
    path_ = ::testing::TempDir() + "/ckpt_counts.stpages";
    snap_path_ = ::testing::TempDir() + "/ckpt_counts.stsnap";
    const std::vector<LiveObservation> stream =
        MakeObservationStream(SmallDataset(41));
    Result<std::unique_ptr<FilePageBackend>> wal =
        FilePageBackend::Create(path_);
    ASSERT_TRUE(wal.ok());
    Result<std::unique_ptr<LiveTier>> tier =
        LiveTier::Open(SmallTierOptions(), std::move(wal).value());
    ASSERT_TRUE(tier.ok());
    const size_t half = stream.size() / 2;
    for (size_t i = 0; i < half; ++i) {
      ASSERT_TRUE(tier.value()->Apply(stream[i]).ok());
    }
    if (pack) {
      ASSERT_TRUE(tier.value()->PackHistorical(snap_path_).ok());
    }
    ASSERT_TRUE(tier.value()->Checkpoint().ok());
    // A journal tail past the checkpoint.
    for (size_t i = half; i < half + 50; ++i) {
      ASSERT_TRUE(tier.value()->Apply(stream[i]).ok());
    }
    ASSERT_TRUE(tier.value()->Commit().ok());
  }

  void TearDown() override {
    std::remove(path_.c_str());
    std::remove(snap_path_.c_str());
  }

  std::unique_ptr<FilePageBackend> Backend() {
    Result<std::unique_ptr<FilePageBackend>> wal = FilePageBackend::Open(path_);
    EXPECT_TRUE(wal.ok()) << wal.status().ToString();
    return std::move(wal).value();
  }

  // Overwrites `size` bytes at page byte `offset` of `slot` and reseals
  // the page as `kind`.
  void Poke(PageId slot, PageKind kind, size_t offset, const void* bytes,
            size_t size) {
    std::unique_ptr<FilePageBackend> wal = Backend();
    uint8_t page[kPageSize];
    ASSERT_TRUE(wal->Read(slot, page).ok());
    std::memcpy(page + offset, bytes, size);
    SealPage(page, kind);
    ASSERT_TRUE(wal->Write(slot, page).ok());
    ASSERT_TRUE(wal->Sync().ok());
  }

  CheckpointHeader Header() {
    const Result<CheckpointHeader> header =
        ReadLatestCheckpointHeader(*Backend());
    EXPECT_TRUE(header.ok()) << header.status().ToString();
    return header.value();
  }

  // Overwrites the u64 at byte `offset` of the checkpoint's metadata
  // stream, whose pages hold 4068 stream bytes after a 20-byte link.
  void PokeMeta(uint64_t offset, uint64_t value) {
    constexpr size_t kLinkBytes = 20;
    constexpr size_t kStreamBytes = kPagePayloadBytes - kLinkBytes;
    std::vector<PageId> slots;
    ASSERT_TRUE(ReadCheckpointMeta(*Backend(), Header(), &slots).ok());
    uint8_t bytes[sizeof(value)];
    std::memcpy(bytes, &value, sizeof(value));
    for (size_t i = 0; i < sizeof(value); ++i) {
      const uint64_t at = offset + i;
      Poke(slots[at / kStreamBytes], PageKind::kCheckpointPage,
           kPageEnvelopeBytes + kLinkBytes + at % kStreamBytes, &bytes[i], 1);
    }
  }

  // Stream offsets of the fields RestoreFromCheckpoint decodes, found by
  // walking the stream's layout (no frozen layer: no pack).
  struct MetaCounts {
    uint64_t watermark = 0;
    uint64_t pack_watermark = 0;
    uint64_t live_buffers = 0;
    uint64_t last_instants = 0;
  };
  MetaCounts FindCounts() {
    std::vector<PageId> slots;
    const Result<std::vector<uint8_t>> meta =
        ReadCheckpointMeta(*Backend(), Header(), &slots);
    EXPECT_TRUE(meta.ok());
    const std::vector<uint8_t>& bytes = meta.value();
    const auto u64 = [&bytes](uint64_t at) {
      uint64_t value = 0;
      std::memcpy(&value, bytes.data() + at, sizeof(value));
      return value;
    };
    MetaCounts counts;
    EXPECT_EQ(u64(0), 0u) << "no frozen layer";
    counts.watermark = 8;
    counts.pack_watermark = counts.watermark + sizeof(Time);
    counts.live_buffers = counts.pack_watermark + sizeof(Time);
    uint64_t at = counts.live_buffers + 8;
    for (uint64_t b = 0; b < u64(counts.live_buffers); ++b) {
      at += sizeof(ObjectId) + sizeof(Time);
      at += 8 + u64(at) * sizeof(Rect2D);
    }
    counts.last_instants = at;
    return counts;
  }

  Status OpenStatus() {
    Result<std::unique_ptr<LiveTier>> tier =
        LiveTier::Open(SmallTierOptions(), Backend());
    return tier.ok() ? Status::OK() : tier.status();
  }

  // Recovery refuses the journal with InvalidArgument mentioning every
  // one of `texts`.
  void ExpectRefused(std::initializer_list<const char*> texts) {
    const Status status = OpenStatus();
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << status.ToString();
    for (const char* text : texts) {
      EXPECT_TRUE(Mentions(status, text)) << status.ToString();
    }
  }

  static constexpr uint64_t kHuge = uint64_t{1} << 50;
  std::string path_;
  std::string snap_path_;
};

TEST_F(CheckpointCountTest, IntactJournalRecovers) {
  const Status status = OpenStatus();
  EXPECT_TRUE(status.ok()) << status.ToString();
}

// The tier's checkpoint streams its metadata into a chain of
// max(1, ceil(bytes / kMetaBytesPerPage)) pages in ascending slots.
TEST_F(CheckpointCountTest, MetadataChainIsCompactAndAscending) {
  for (const bool pack : {false, true}) {
    SCOPED_TRACE(pack ? "with a frozen layer" : "no frozen layer");
    if (pack) {
      TearDown();
      Build(/*pack=*/true);
    }
    const CheckpointHeader header = Header();
    std::vector<PageId> slots;
    const Result<std::vector<uint8_t>> meta =
        ReadCheckpointMeta(*Backend(), header, &slots);
    ASSERT_TRUE(meta.ok()) << meta.status().ToString();
    EXPECT_EQ(meta.value().size(), header.meta_bytes);
    EXPECT_GT(header.meta_bytes, 0u);
    const uint64_t pages =
        (header.meta_bytes + kMetaBytesPerPage - 1) / kMetaBytesPerPage;
    EXPECT_EQ(header.meta_pages, std::max<uint64_t>(1, pages));
    EXPECT_TRUE(std::adjacent_find(slots.begin(), slots.end(),
                                   std::greater_equal<PageId>()) ==
                slots.end());
  }
}

TEST_F(CheckpointCountTest, HeaderMetadataBytes) {
  // Header payload: seq, wal_start_seq, meta_head, meta_pages, meta_bytes.
  Poke(1, PageKind::kCheckpointHeader, kPageEnvelopeBytes + 24, &kHuge,
       sizeof(kHuge));
  ExpectRefused({"checkpoint 1 (header slot 1)", "metadata bytes cannot fit"});
}

TEST_F(CheckpointCountTest, HeaderSegmentCount) {
  // ... then layout, segment_tail, segment_pages, segment_count.
  Poke(1, PageKind::kCheckpointHeader, kPageEnvelopeBytes + 44, &kHuge,
       sizeof(kHuge));
  ExpectRefused({"checkpoint 1 (header slot 1)", "segment chain of"});
}

TEST_F(CheckpointCountTest, SegmentPageCount) {
  // Segment page payload: page_index, prev_slot, count.
  const CheckpointHeader header = Header();
  ASSERT_GT(header.segment_pages, 0u);
  const uint32_t count = std::numeric_limits<uint32_t>::max();
  Poke(header.segment_tail, PageKind::kSegmentPage, kPageEnvelopeBytes + 8,
       &count, sizeof(count));
  ExpectRefused({("segment page " + std::to_string(header.segment_pages - 1) +
                  " in slot " + std::to_string(header.segment_tail) +
                  " is corrupt")
                     .c_str()});
}

TEST_F(CheckpointCountTest, JournalOfAnOlderLayoutIsRefused) {
  const uint32_t old_layout = 0;  // layout 1 wrote no layout field
  Poke(1, PageKind::kCheckpointHeader, kPageEnvelopeBytes + 32, &old_layout,
       sizeof(old_layout));
  ExpectRefused({"checkpoint 1 (header slot 1) has layout 0",
                 "predates the append-only segment chain"});
}

TEST_F(CheckpointCountTest, JournalThatCopiesFrozenLayersIsRefused) {
  const uint32_t old_layout = 2;
  Poke(1, PageKind::kCheckpointHeader, kPageEnvelopeBytes + 32, &old_layout,
       sizeof(old_layout));
  ExpectRefused({"checkpoint 1 (header slot 1) has layout 2",
                 "predates named frozen layers"});
}

TEST_F(CheckpointCountTest, FrozenLayerPathLength) {
  Build(/*pack=*/true);
  // The stream opens with the frozen layer count, then layer 0's tree
  // meta — size, clock, root journal — snapshot checksum and path length.
  std::vector<PageId> slots;
  const Result<std::vector<uint8_t>> meta =
      ReadCheckpointMeta(*Backend(), Header(), &slots);
  ASSERT_TRUE(meta.ok());
  uint64_t frozen = 0;
  uint64_t roots = 0;
  std::memcpy(&frozen, meta.value().data(), sizeof(frozen));
  std::memcpy(&roots, meta.value().data() + 24, sizeof(roots));
  ASSERT_EQ(frozen, 1u);
  const Status intact = OpenStatus();
  ASSERT_TRUE(intact.ok()) << intact.ToString();
  PokeMeta(32 + roots * (sizeof(Time) + sizeof(PageId)) + sizeof(uint32_t),
           kHuge);
  ExpectRefused({"frozen layer 0 path of", "bytes overruns the",
                 "(page 0, slot "});
}

TEST_F(CheckpointCountTest, JournalThatCopiesTheActiveTreeIsRefused) {
  const uint32_t old_layout = 3;
  Poke(1, PageKind::kCheckpointHeader, kPageEnvelopeBytes + 32, &old_layout,
       sizeof(old_layout));
  ExpectRefused({"checkpoint 1 (header slot 1) has layout 3",
                 "predates derived active trees"});
}

// Layout 4 kept every migrated segment in the chain, frozen ones too,
// and had no chain base: refused, naming the layout.
TEST_F(CheckpointCountTest, JournalThatChainsFrozenSegmentsIsRefused) {
  const uint32_t old_layout = 4;
  Poke(1, PageKind::kCheckpointHeader, kPageEnvelopeBytes + 32, &old_layout,
       sizeof(old_layout));
  ExpectRefused({"checkpoint 1 (header slot 1) has layout 4",
                 "this build reads layout 5",
                 "predates frozen layers that hold their records"});
}

// The chain holds the segments from the table's base, the lowest id the
// pack left unfrozen: a base past the pages the header names is refused.
TEST_F(CheckpointCountTest, HeaderSegmentBase) {
  Build(/*pack=*/true);
  const CheckpointHeader header = Header();
  ASSERT_GT(header.segment_base, 0u) << "the pack froze no segment";
  ASSERT_GT(header.segment_pages, 0u);
  // Header payload: ..., segment_count, then segment_base.
  const uint64_t base = header.segment_count;
  Poke(1, PageKind::kCheckpointHeader, kPageEnvelopeBytes + 52, &base,
       sizeof(base));
  ExpectRefused({"checkpoint 1 (header slot 1)", "segment chain of"});
}

TEST_F(CheckpointCountTest, TreeRootJournal) {
  Build(/*pack=*/true);
  // The stream opens with the frozen layer count, then layer 0's tree
  // meta: size, clock, root journal.
  PokeMeta(24, kHuge);
  ExpectRefused({"root journal of", "overruns the", "(page 0, slot "});
}

// W, the pipeline's watermark, cannot precede W_pack, the one at the
// last pack.
TEST_F(CheckpointCountTest, PipelineWatermarksOutOfOrder) {
  const MetaCounts counts = FindCounts();
  std::vector<PageId> slots;
  const Result<std::vector<uint8_t>> meta =
      ReadCheckpointMeta(*Backend(), Header(), &slots);
  ASSERT_TRUE(meta.ok());
  Time watermark = 0;
  std::memcpy(&watermark, meta.value().data() + counts.watermark,
              sizeof(watermark));
  PokeMeta(counts.pack_watermark, static_cast<uint64_t>(watermark + 1));
  ExpectRefused({("metadata byte " + std::to_string(counts.live_buffers) +
                  " (page 0, slot ")
                     .c_str(),
                 "precedes the pack watermark"});
}

// No later segment can start before the live index's watermark, so the
// pipeline's cannot be past it.
TEST_F(CheckpointCountTest, PipelineWatermarkPastTheLiveIndex) {
  const MetaCounts counts = FindCounts();
  PokeMeta(counts.watermark, uint64_t{1} << 40);
  ExpectRefused(
      {"metadata byte", ", slot ", "is past the live index's watermark"});
}

// A metadata stream that ends inside the watermarks: the header and the
// last metadata page agree on its length.
TEST_F(CheckpointCountTest, PipelineWatermarksTruncated) {
  const MetaCounts counts = FindCounts();
  const uint64_t length = counts.pack_watermark + 4;
  // Header payload: seq, wal_start_seq, meta_head, meta_pages, meta_bytes.
  Poke(1, PageKind::kCheckpointHeader, kPageEnvelopeBytes + 24, &length,
       sizeof(length));
  // Metadata page payload: u64 seq, u32 page_index, u32 next, u32 count.
  const PageId head = Header().meta_head;
  const uint32_t count = static_cast<uint32_t>(length);
  const uint32_t no_next = kInvalidPage;
  Poke(head, PageKind::kCheckpointPage, kPageEnvelopeBytes + 12, &no_next,
       sizeof(no_next));
  Poke(head, PageKind::kCheckpointPage, kPageEnvelopeBytes + 16, &count,
       sizeof(count));
  const uint32_t one_page = 1;
  Poke(1, PageKind::kCheckpointHeader, kPageEnvelopeBytes + 20, &one_page,
       sizeof(one_page));
  ExpectRefused({("metadata byte " + std::to_string(counts.pack_watermark) +
                  " (page 0, slot " + std::to_string(head) + ")")
                     .c_str(),
                 "truncated pipeline watermarks"});
}

TEST_F(CheckpointCountTest, LiveIndexLists) {
  const MetaCounts counts = FindCounts();
  PokeMeta(counts.live_buffers, kHuge);
  ExpectRefused({"live-buffer list of", ", slot "});
  SetUp();
  PokeMeta(counts.last_instants, kHuge);
  ExpectRefused({"last-instant list of", ", slot "});
}

TEST_F(CheckpointCountTest, WalPageRecordCount) {
  std::unique_ptr<FilePageBackend> wal = Backend();
  PageId tail = kInvalidPage;
  uint8_t page[kPageSize];
  for (PageId slot = kWalFirstDataSlot; slot < wal->SlotCount(); ++slot) {
    if (!wal->Read(slot, page).ok()) continue;
    if (OpenPagePayload(page, PageKind::kWalPage, slot).ok()) tail = slot;
  }
  wal.reset();
  ASSERT_NE(tail, kInvalidPage) << "no journal page past the checkpoint";
  // Journal page payload: u64 seq, then the u32 record count.
  const uint32_t count = std::numeric_limits<uint32_t>::max();
  Poke(tail, PageKind::kWalPage, kPageEnvelopeBytes + 8, &count, sizeof(count));
  ExpectRefused({("wal: page in slot " + std::to_string(tail)).c_str(),
                 "records, more than its payload holds"});
}

// A state of `bytes` metadata bytes, encoded as the tier's encoders do —
// typed writes of mixed widths, so values straddle page boundaries —
// ending in single bytes.
void EncodeStateOfSize(uint64_t bytes, ByteSink* out) {
  uint64_t written = 0;
  for (uint32_t i = 0; written < bytes; ++i) {
    if (bytes - written >= sizeof(Rect2D) && i % 4 == 3) {
      out->Write(UnitRect(0.001 * i, 0.25));
      written += sizeof(Rect2D);
    } else if (bytes - written >= sizeof(uint64_t) && i % 4 == 1) {
      out->Write(uint64_t{0x0101010101010101} * (i % 255));
      written += sizeof(uint64_t);
    } else if (bytes - written >= sizeof(uint32_t) && i % 4 == 2) {
      out->Write(i);
      written += sizeof(uint32_t);
    } else {
      out->Write(static_cast<uint8_t>(i));
      written += 1;
    }
  }
}

// The metadata chain streamed a page at a time reads back as the bytes of
// an in-memory encode of the same state, whether the stream ends below
// one page, exactly on a page boundary or after many pages; it takes
// max(1, ceil(bytes / kMetaBytesPerPage)) pages, in ascending slots.
TEST(CheckpointMetaWriterTest, StreamedChainIsTheEncodedStream) {
  for (const uint64_t bytes :
       {uint64_t{0}, uint64_t{1}, uint64_t{100}, kMetaBytesPerPage - 1,
        kMetaBytesPerPage, kMetaBytesPerPage + 1, 3 * kMetaBytesPerPage,
        40 * kMetaBytesPerPage + 1234}) {
    SCOPED_TRACE(bytes);
    MemoryPageBackend backend;
    WalSlotAllocator allocator;
    CheckpointHeader header;
    header.checkpoint_seq = 3;
    CheckpointMetaWriter writer(&backend, &allocator, header.checkpoint_seq);
    EncodeStateOfSize(bytes, &writer);
    std::vector<PageId> slots;
    ASSERT_TRUE(writer.Finish(&header, &slots).ok());

    const uint64_t pages = std::max<uint64_t>(
        1, (bytes + kMetaBytesPerPage - 1) / kMetaBytesPerPage);
    EXPECT_EQ(header.meta_pages, pages);
    EXPECT_EQ(header.meta_bytes, bytes);
    ASSERT_EQ(slots.size(), pages);
    EXPECT_EQ(header.meta_head, slots.front());
    EXPECT_TRUE(std::adjacent_find(slots.begin(), slots.end(),
                                   std::greater_equal<PageId>()) ==
                slots.end());
    EXPECT_EQ(backend.SlotCount(), kWalFirstDataSlot + pages);

    MemorySink encoded;
    EncodeStateOfSize(bytes, &encoded);
    ASSERT_EQ(encoded.bytes().size(), bytes);
    std::vector<PageId> read_slots;
    const Result<std::vector<uint8_t>> meta =
        ReadCheckpointMeta(backend, header, &read_slots);
    ASSERT_TRUE(meta.ok()) << meta.status().ToString();
    EXPECT_EQ(meta.value(), encoded.bytes());
    EXPECT_EQ(read_slots, slots);
  }
}

// A failed page write is Finish's result, and no page is written after
// it.
TEST(CheckpointMetaWriterTest, FailedPageWriteIsTheResult) {
  FaultInjectingBackend::Faults faults;
  faults.fail_write_at = 2;  // the chain's second page
  FaultInjectingBackend backend(std::make_unique<MemoryPageBackend>(),
                                faults);
  WalSlotAllocator allocator;
  CheckpointHeader header;
  header.checkpoint_seq = 1;
  CheckpointMetaWriter writer(&backend, &allocator, header.checkpoint_seq);
  EncodeStateOfSize(5 * kMetaBytesPerPage, &writer);
  std::vector<PageId> slots;
  const Status status = writer.Finish(&header, &slots);
  EXPECT_EQ(status.code(), StatusCode::kIoError) << status.ToString();
  EXPECT_TRUE(slots.empty());
  EXPECT_EQ(header.meta_pages, 0u);
  EXPECT_EQ(backend.mutations(), 2u);
  EXPECT_EQ(backend.SlotCount(), kWalFirstDataSlot + 1);
}

// PublishGauges reports the segment table — the segments migrated and
// the bytes of its blocks, which fall at a pack — and the journal's
// slots, all deterministic.
TEST(LiveTierTest, PublishGaugesReportsTheSegmentTable) {
  Result<std::unique_ptr<LiveTier>> tier = LiveTier::Open(
      SmallTierOptions(), std::make_unique<MemoryPageBackend>());
  ASSERT_TRUE(tier.ok()) << tier.status().ToString();
  MetricRegistry& registry = MetricRegistry::Global();
  tier.value()->PublishGauges();
  EXPECT_EQ(registry.GetGauge("live.segments")->Value(), 0);
  EXPECT_EQ(registry.GetGauge("live.segment_table_bytes")->Value(), 0);

  for (const LiveObservation& update :
       MakeObservationStream(SmallDataset(5))) {
    ASSERT_TRUE(tier.value()->Apply(update).ok());
  }
  ASSERT_TRUE(tier.value()->Finish().ok());
  tier.value()->PublishGauges();
  const size_t segments = tier.value()->migrated_segments().size();
  ASSERT_GT(segments, 0u);
  EXPECT_EQ(registry.GetGauge("live.segments")->Value(),
            static_cast<int64_t>(segments));
  const int64_t blocks = static_cast<int64_t>(
      (segments + SegmentTable::kBlockRecords - 1) /
      SegmentTable::kBlockRecords);
  EXPECT_EQ(registry.GetGauge("live.segment_table_bytes")->Value(),
            blocks * 57344);
  // The journal's size and the slots its allocator holds free, as
  // /statusz reads them.
  const LiveTier::Telemetry telemetry = tier.value()->GetTelemetry();
  EXPECT_GT(telemetry.wal_slots, kWalFirstDataSlot);
  EXPECT_EQ(registry.GetGauge("live.wal.slots")->Value(),
            static_cast<int64_t>(telemetry.wal_slots));
  EXPECT_EQ(registry.GetGauge("live.wal.free_slots")->Value(),
            static_cast<int64_t>(telemetry.wal_free_slots));

  // The table's bytes fall at a pack: it frees every block below the
  // lowest id the pack left unfrozen, while live.segments still counts
  // every segment migrated.
  RandomDatasetConfig config;
  config.num_objects = 600;
  config.time_domain = 120;
  config.max_lifetime = 40;
  config.min_extent = 0.01;
  config.max_extent = 0.05;
  config.seed = 5;
  const std::vector<LiveObservation> stream =
      MakeObservationStream(GenerateRandomDataset(config));
  LiveTierOptions options = SmallTierOptions();
  options.index.capacity = 4;
  Result<std::unique_ptr<LiveTier>> packed =
      LiveTier::Open(options, std::make_unique<MemoryPageBackend>());
  ASSERT_TRUE(packed.ok()) << packed.status().ToString();
  const TempPath snap_paths[] = {TempPath("live_gauges_0.stsnap"),
                                 TempPath("live_gauges_1.stsnap")};
  for (size_t p = 0; p < 2; ++p) {
    SCOPED_TRACE("pack " + std::to_string(p));
    for (size_t i = p * stream.size() / 3; i < (p + 1) * stream.size() / 3;
         ++i) {
      ASSERT_TRUE(packed.value()->Apply(stream[i]).ok());
    }
    packed.value()->PublishGauges();
    const int64_t before =
        registry.GetGauge("live.segment_table_bytes")->Value();
    ASSERT_TRUE(packed.value()->PackHistorical(snap_paths[p].path()).ok());
    packed.value()->PublishGauges();
    const SegmentTable& table = packed.value()->migrated_segments();
    EXPECT_GE(table.base(), (p + 1) * SegmentTable::kBlockRecords);
    EXPECT_LT(registry.GetGauge("live.segment_table_bytes")->Value(), before);
    EXPECT_EQ(registry.GetGauge("live.segment_table_bytes")->Value(),
              static_cast<int64_t>(table.blocks() * 57344));
    EXPECT_EQ(registry.GetGauge("live.segments")->Value(),
              static_cast<int64_t>(table.size()));
    const Status copies = packed.value()->VerifyCheckpointCopies();
    EXPECT_TRUE(copies.ok()) << copies.ToString();
  }
}

// Every metric name has one kind: the Prometheus rendering of the
// registry, with the WAL's counters and the tier's gauges both in it,
// carries one # TYPE line per name.
TEST(LiveTierTest, PrometheusRenderingTypesEveryNameOnce) {
  Result<std::unique_ptr<LiveTier>> tier = LiveTier::Open(
      SmallTierOptions(), std::make_unique<MemoryPageBackend>());
  ASSERT_TRUE(tier.ok()) << tier.status().ToString();
  for (const LiveObservation& update :
       MakeObservationStream(SmallDataset(3))) {
    ASSERT_TRUE(tier.value()->Apply(update).ok());
  }
  ASSERT_TRUE(tier.value()->Commit().ok());
  ASSERT_TRUE(tier.value()->Checkpoint().ok());
  tier.value()->PublishGauges();
  std::istringstream lines(
      RenderPrometheus(MetricRegistry::Global().Snapshot()));
  std::map<std::string, int> types;
  std::string line;
  while (std::getline(lines, line)) {
    if (line.rfind("# TYPE ", 0) != 0) continue;
    std::istringstream fields(line.substr(7));
    std::string name;
    fields >> name;
    ++types[name];
  }
  ASSERT_GT(types.count("stindex_live_wal_records"), 0u);
  ASSERT_GT(types.count("stindex_live_wal_tail_pages"), 0u);
  for (const auto& [name, count] : types) {
    EXPECT_EQ(count, 1) << name << " has " << count << " # TYPE lines";
  }
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
