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
#include <iterator>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "datagen/query_gen.h"
#include "datagen/random_dataset.h"
#include "live/live_index.h"
#include "live/live_tier.h"
#include "live/migration.h"
#include "live/wal.h"
#include "storage/fault_backend.h"
#include "storage/file_backend.h"
#include "storage/page_backend.h"
#include "storage/page_codec.h"
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
          ByteSink sink;
          index->EncodeState(&sink);
          index = std::make_unique<LiveIndex>(options);
          ByteSource source(sink.bytes().data(), sink.bytes().size());
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
  ByteSink sink;
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
  ByteSource source(sink.bytes().data(), sink.bytes().size());
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
  ByteSink sink;
  sink.Write(uint64_t{1});
  sink.Write(ObjectId{7});
  sink.Write(Time{0});
  sink.Write(uint64_t{1} << 40);  // rects the state cannot hold
  sink.Write(UnitRect(0.1, 0.2));
  LiveIndex index(LiveIndexOptions{});
  ByteSource source(sink.bytes().data(), sink.bytes().size());
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

// A pipeline state with one segment whose id `list` (0: insert-pending,
// 1: delete-pending, 2: frozen deletes) names twice.
TEST(MigrationPipelineTest, DecodeStateRejectsIdListedTwice) {
  for (int list = 0; list < 3; ++list) {
    ByteSink sink;
    sink.Write(uint64_t{1});
    sink.Write(ObjectId{4});
    sink.Write(UnitRect(0.1, 0.2));
    sink.Write(TimeInterval(0, 3));
    for (int l = 0; l < 3; ++l) {
      const uint64_t copies = l == list ? 2 : 0;
      sink.Write(copies);
      for (uint64_t i = 0; i < copies; ++i) sink.Write(PprDataId{0});
    }
    sink.Write(uint64_t{0});  // applied events
    PprTree tree;
    MigrationPipeline pipeline(&tree);
    ByteSource source(sink.bytes().data(), sink.bytes().size());
    const Status status = pipeline.DecodeState(&source);
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << "list " << list;
    EXPECT_TRUE(Mentions(status, "id 0 listed twice")) << status.ToString();
  }
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
