// Differential fuzzing: random evolutions (bursty same-instant updates,
// degenerate rects, immortal records, random node capacities) are
// replayed into the PPR-tree and the HR-tree, then bombarded with random
// snapshot/interval queries whose answers must match a linear-scan
// reference exactly — across both structures, which implement partial
// persistence in entirely different ways.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "datagen/query_gen.h"
#include "datagen/random_dataset.h"
#include "hrtree/hr_tree.h"
#include "live/live_tier.h"
#include "pprtree/ppr_tree.h"
#include "storage/fault_backend.h"
#include "storage/file_backend.h"
#include "temp_path.h"
#include "util/metrics.h"
#include "util/random.h"

namespace stindex {
namespace {

struct FuzzRecord {
  Rect2D rect;
  TimeInterval life;  // end may be kTimeInfinity (never deleted)
};

std::vector<FuzzRecord> RandomEvolution(Rng& rng, size_t count,
                                        Time domain) {
  std::vector<FuzzRecord> records;
  for (size_t i = 0; i < count; ++i) {
    FuzzRecord record;
    // Bursty: many records share the same few timestamps.
    const Time start = rng.Bernoulli(0.3)
                           ? (rng.UniformInt(0, 4)) * domain / 5
                           : rng.UniformInt(0, domain - 1);
    Time end;
    if (rng.Bernoulli(0.15)) {
      end = kTimeInfinity;  // immortal
    } else {
      end = start + rng.UniformInt(1, domain / 3);
    }
    record.life = TimeInterval(start, end);
    const double x = rng.UniformDouble(0, 1);
    const double y = rng.UniformDouble(0, 1);
    // 20% degenerate points, else small rects.
    const double w = rng.Bernoulli(0.2) ? 0.0 : rng.UniformDouble(0, 0.08);
    const double h = w == 0.0 ? 0.0 : rng.UniformDouble(0.001, 0.08);
    record.rect = Rect2D(x, y, x + w, y + h);
    records.push_back(record);
  }
  return records;
}

template <typename Tree>
void Replay(const std::vector<FuzzRecord>& records, Tree* tree) {
  struct Event {
    Time time;
    bool is_insert;
    uint64_t record;
  };
  std::vector<Event> events;
  for (uint64_t i = 0; i < records.size(); ++i) {
    events.push_back({records[i].life.start, true, i});
    if (records[i].life.end != kTimeInfinity) {
      events.push_back({records[i].life.end, false, i});
    }
  }
  std::sort(events.begin(), events.end(), [](const Event& a, const Event& b) {
    if (a.time != b.time) return a.time < b.time;
    if (a.is_insert != b.is_insert) return !a.is_insert;
    return a.record < b.record;
  });
  for (const Event& event : events) {
    if (event.is_insert) {
      tree->Insert(records[event.record].rect, event.time, event.record);
    } else {
      tree->Delete(event.record, event.time);
    }
  }
}

std::vector<uint64_t> ScanInterval(const std::vector<FuzzRecord>& records,
                                   const Rect2D& area,
                                   const TimeInterval& range) {
  std::vector<uint64_t> hits;
  for (uint64_t i = 0; i < records.size(); ++i) {
    if (records[i].life.Intersects(range) &&
        records[i].rect.Intersects(area)) {
      hits.push_back(i);
    }
  }
  return hits;
}

class FuzzDifferentialTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FuzzDifferentialTest, PprAndHrMatchReference) {
  Rng rng(GetParam());
  const Time domain = 60 + rng.UniformInt(0, 140);
  const size_t count = 150 + static_cast<size_t>(rng.UniformInt(0, 450));
  const std::vector<FuzzRecord> records =
      RandomEvolution(rng, count, domain);

  PprConfig ppr_config;
  ppr_config.max_entries = static_cast<size_t>(rng.UniformInt(8, 50));
  PprTree ppr(ppr_config);
  Replay(records, &ppr);
  ppr.CheckInvariants();

  HrConfig hr_config;
  hr_config.max_entries = static_cast<size_t>(rng.UniformInt(6, 50));
  hr_config.min_entries = std::max<size_t>(2, hr_config.max_entries / 3);
  HrTree hr(hr_config);
  Replay(records, &hr);
  hr.CheckInvariants();

  std::vector<PprDataId> ppr_hits;
  std::vector<HrDataId> hr_hits;
  for (int q = 0; q < 80; ++q) {
    Rect2D area;
    if (rng.Bernoulli(0.1)) {
      area = Rect2D(0, 0, 1, 1);  // everything
    } else {
      const double x = rng.UniformDouble(0, 0.9);
      const double y = rng.UniformDouble(0, 0.9);
      area = Rect2D(x, y, x + rng.UniformDouble(0, 0.3),
                    y + rng.UniformDouble(0, 0.3));
    }
    // Edge times included: instant 0, far future, empty-adjacent eras.
    Time start;
    switch (q % 4) {
      case 0:
        start = 0;
        break;
      case 1:
        start = domain - 1;
        break;
      case 2:
        start = domain + rng.UniformInt(0, 100);  // beyond all deletes
        break;
      default:
        start = rng.UniformInt(0, domain - 1);
    }
    const Time duration = 1 + rng.UniformInt(0, domain / 2);
    const TimeInterval range(start, start + duration);

    const std::vector<uint64_t> expected =
        ScanInterval(records, area, range);

    ppr.IntervalQuery(area, range, &ppr_hits);
    std::sort(ppr_hits.begin(), ppr_hits.end());
    EXPECT_EQ(ppr_hits, expected)
        << "ppr seed=" << GetParam() << " q=" << q;

    hr.IntervalQuery(area, range, &hr_hits);
    std::sort(hr_hits.begin(), hr_hits.end());
    EXPECT_EQ(hr_hits, expected) << "hr seed=" << GetParam() << " q=" << q;

    // Snapshot at the interval start must match a duration-1 interval.
    ppr.SnapshotQuery(area, range.start, &ppr_hits);
    std::sort(ppr_hits.begin(), ppr_hits.end());
    EXPECT_EQ(ppr_hits,
              ScanInterval(records, area,
                           TimeInterval(range.start, range.start + 1)))
        << "ppr snapshot seed=" << GetParam() << " q=" << q;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzDifferentialTest,
                         ::testing::Range<uint64_t>(1000, 1012));

// ---------------------------------------------------------------------------
// Live-tier fuzzing: randomized interleaved update/query/crash schedules.
//
// Each seed draws a random dataset, random tier knobs (capacity /
// duration / buffer), random queries, a random crash point, a random
// mid-stream pack point (the historical tree freezes into a read-only
// mmap snapshot layer while a fresh tree takes over migration), and a
// random commit cadence, then runs the schedule once per querier-thread
// count in {1, 2, 7}: a writer streams updates (crashing partway if the
// trigger fires) while querier threads hammer IntervalQuery
// concurrently. Two invariants must hold, both reported with the seed on
// failure:
//
//   1. Every concurrently observed answer is a subset of the final
//      answer — answers only accumulate: live rects are exact, sealed
//      segments cover them, and the migrated segment list only grows.
//   2. After crash recovery (reopen, WAL replay, re-ingest of the
//      unacknowledged tail) and Finish, every answer is byte-identical
//      to a never-crashed, never-packed reference run of the same
//      schedule — packing is invisible to queries, and a crash after an
//      unjournaled pack recovers to the pre-pack layering with the same
//      answers.
//   3. The active tree's structural invariants hold after every recovery
//      and at the end of every schedule.
//   4. So does the checkpoint's copy (LiveTier::VerifyCheckpointCopies)
//      after every commit as well: the segment chain decodes to the
//      migrated segments, from which a recovery replays the active tree.
//      Two thirds of the schedules checkpoint automatically, every 1 to 4
//      journal pages, so checkpoints land before and after the pack and
//      among the crash points. Half of all schedules use a small node
//      fanout, for deeper trees that restructure more often.
// ---------------------------------------------------------------------------

std::vector<STQuery> RandomLiveQueries(Rng& rng, Time domain, int count) {
  std::vector<STQuery> queries;
  for (int i = 0; i < count; ++i) {
    STQuery query;
    const double x = rng.UniformDouble(0, 0.8);
    const double y = rng.UniformDouble(0, 0.8);
    query.area = Rect2D(x, y, x + rng.UniformDouble(0.05, 0.4),
                        y + rng.UniformDouble(0.05, 0.4));
    const Time start = rng.UniformInt(0, domain - 1);
    query.range =
        TimeInterval(start, start + 1 + rng.UniformInt(0, domain / 2));
    queries.push_back(query);
  }
  return queries;
}

std::vector<std::vector<ObjectId>> FinalAnswers(
    const LiveTier& tier, const std::vector<STQuery>& queries) {
  std::vector<std::vector<ObjectId>> answers;
  for (const STQuery& query : queries) {
    std::vector<ObjectId> answer;
    tier.IntervalQuery(query.area, query.range, &answer);
    answers.push_back(std::move(answer));
  }
  return answers;
}

class LiveTierFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(LiveTierFuzzTest, InterleavedUpdatesQueriesAndCrashes) {
  const uint64_t seed = GetParam();
  Rng rng(seed);

  RandomDatasetConfig dataset_config;
  dataset_config.num_objects = static_cast<size_t>(rng.UniformInt(20, 45));
  dataset_config.time_domain = rng.UniformInt(80, 160);
  dataset_config.max_lifetime = rng.UniformInt(15, 40);
  dataset_config.min_extent = 0.01;
  dataset_config.max_extent = 0.06;
  dataset_config.seed = Rng::DeriveSeed(seed, 1);
  const std::vector<Trajectory> objects =
      GenerateRandomDataset(dataset_config);
  const std::vector<LiveObservation> stream = MakeObservationStream(objects);

  LiveTierOptions options;
  options.index.capacity = static_cast<size_t>(rng.UniformInt(4, 16));
  options.index.duration =
      rng.Bernoulli(0.3) ? rng.UniformInt(20, 50) : 0;
  options.index.buffer =
      rng.Bernoulli(0.5)
          ? static_cast<size_t>(rng.UniformInt(60, 200))
          : 0;

  const std::vector<STQuery> queries =
      RandomLiveQueries(rng, dataset_config.time_domain, 12);
  const size_t commit_every = static_cast<size_t>(rng.UniformInt(4, 40));
  const uint64_t crash_at = static_cast<uint64_t>(rng.UniformInt(1, 120));
  // Pack the historical tree partway through the update stream (0 in a
  // third of the schedules: no pack).
  const size_t pack_at =
      rng.Bernoulli(0.33)
          ? 0
          : static_cast<size_t>(
                rng.UniformInt(1, static_cast<int64_t>(stream.size())));
  options.checkpoint_every_pages =
      rng.Bernoulli(0.33) ? 0 : static_cast<size_t>(rng.UniformInt(1, 4));
  if (rng.Bernoulli(0.5)) {
    options.ppr.max_entries = static_cast<size_t>(rng.UniformInt(6, 16));
  }

  // The never-crashed reference for this schedule (WAL on memory: the
  // journal's backend must not change the answers either).
  std::vector<std::vector<ObjectId>> reference;
  {
    Result<std::unique_ptr<LiveTier>> tier =
        LiveTier::Open(options, std::make_unique<MemoryPageBackend>());
    ASSERT_TRUE(tier.ok()) << "seed=" << seed;
    for (size_t i = 0; i < stream.size(); ++i) {
      ASSERT_TRUE(tier.value()->Apply(stream[i]).ok()) << "seed=" << seed;
      if ((i + 1) % commit_every == 0) {
        ASSERT_TRUE(tier.value()->Commit().ok()) << "seed=" << seed;
        const Status copies = tier.value()->VerifyCheckpointCopies();
        ASSERT_TRUE(copies.ok()) << "seed=" << seed << " " << copies.ToString();
      }
    }
    ASSERT_TRUE(tier.value()->Finish().ok()) << "seed=" << seed;
    tier.value()->historical().CheckInvariants();
    const Status copies = tier.value()->VerifyCheckpointCopies();
    ASSERT_TRUE(copies.ok()) << "seed=" << seed << " " << copies.ToString();
    reference = FinalAnswers(*tier.value(), queries);
  }

  for (const int querier_threads : {1, 2, 7}) {
    const TempPath path("fuzz_live_" + std::to_string(seed) + "_" +
                        std::to_string(querier_threads) + ".stpages");

    Result<std::unique_ptr<FilePageBackend>> file =
        FilePageBackend::Create(path);
    ASSERT_TRUE(file.ok()) << "seed=" << seed;
    FaultInjectingBackend::Faults faults;
    faults.crash_at_write = crash_at;
    auto fault = std::make_unique<FaultInjectingBackend>(
        std::move(file).value(), faults);

    Result<std::unique_ptr<LiveTier>> tier =
        LiveTier::Open(options, std::move(fault));
    ASSERT_TRUE(tier.ok()) << "seed=" << seed;

    // Queriers record (query index, answer) pairs while the writer runs;
    // each holds its own Rng (shared Rngs are a data race).
    std::atomic<bool> done{false};
    std::vector<std::vector<std::pair<size_t, std::vector<ObjectId>>>>
        observed(static_cast<size_t>(querier_threads));
    std::vector<std::thread> queriers;
    for (int t = 0; t < querier_threads; ++t) {
      queriers.emplace_back([&, t] {
        Rng thread_rng(Rng::DeriveSeed(seed, 100 + static_cast<uint64_t>(t)));
        // Bounded so heavy thread counts don't starve the writer (and so
        // sanitizer runs stay fast); 200 overlapped answers per querier
        // is plenty of interleaving.
        while (!done.load(std::memory_order_acquire) &&
               observed[static_cast<size_t>(t)].size() < 200) {
          const size_t q = static_cast<size_t>(
              thread_rng.UniformInt(0, static_cast<int64_t>(queries.size()) - 1));
          std::vector<ObjectId> answer;
          tier.value()->IntervalQuery(queries[q].area, queries[q].range,
                                      &answer);
          observed[static_cast<size_t>(t)].emplace_back(q, std::move(answer));
        }
      });
    }

    const TempPath snap_path("fuzz_snap_" + std::to_string(seed) + "_" +
                             std::to_string(querier_threads) + ".stsnap");
    size_t acked = 0;
    bool crashed = false;
    Status copies;  // the first failed check of the checkpoint's copies
    for (size_t i = 0; i < stream.size() && !crashed; ++i) {
      if (!tier.value()->Apply(stream[i]).ok()) {
        crashed = true;
        break;
      }
      if ((i + 1) % commit_every == 0) {
        if (!tier.value()->Commit().ok()) {
          crashed = true;
          break;
        }
        acked = i + 1;
        if (copies.ok()) copies = tier.value()->VerifyCheckpointCopies();
      }
      if (pack_at != 0 && i + 1 == pack_at) {
        // The snapshot file is outside the fault-injected WAL, so the
        // pack itself must succeed; queriers keep hammering the tier
        // while the historical tree freezes into a zero-copy layer.
        ASSERT_TRUE(tier.value()->PackHistorical(snap_path).ok())
            << "seed=" << seed;
        if (copies.ok()) copies = tier.value()->VerifyCheckpointCopies();
      }
    }
    if (!crashed) {
      crashed = !tier.value()->Finish().ok();
      if (!crashed) acked = stream.size();
    }
    done.store(true, std::memory_order_release);
    for (std::thread& thread : queriers) thread.join();
    EXPECT_TRUE(copies.ok()) << "seed=" << seed << " threads="
                             << querier_threads << " " << copies.ToString();

    if (crashed) {
      // Closing the file syncs nothing: it holds what the dead process
      // wrote.
      tier.value().reset();
      Result<std::unique_ptr<FilePageBackend>> reopened =
          FilePageBackend::Open(path);
      ASSERT_TRUE(reopened.ok()) << "seed=" << seed;
      tier = LiveTier::Open(options, std::move(reopened).value());
      ASSERT_TRUE(tier.ok())
          << "seed=" << seed << " " << tier.status().ToString();
      tier.value()->historical().CheckInvariants();
      // Every frozen layer the checkpoint named serves from its snapshot's
      // mapping again: a query over all of space and time borrows pages.
      bool frozen_nodes = false;
      for (size_t l = 0; l < tier.value()->frozen_layers(); ++l) {
        const MmapSnapshotBackend* mapped =
            tier.value()->frozen_layer(l).backend();
        ASSERT_NE(mapped, nullptr) << "seed=" << seed << " layer=" << l;
        tier.value()->frozen_layer(l).CheckInvariants();
        frozen_nodes = frozen_nodes || mapped->SlotCount() > 0;
      }
      Counter* borrows =
          MetricRegistry::Global().GetCounter("backend.mmap.borrows");
      const uint64_t borrows_before = borrows->Value();
      std::vector<ObjectId> everything;
      tier.value()->IntervalQuery(
          Rect2D(-1.0, -1.0, 2.0, 2.0),
          TimeInterval(0, dataset_config.time_domain + 1), &everything);
      if (frozen_nodes) {
        EXPECT_GT(borrows->Value(), borrows_before) << "seed=" << seed;
      }
      copies = tier.value()->VerifyCheckpointCopies();
      ASSERT_TRUE(copies.ok()) << "seed=" << seed << " " << copies.ToString();
      for (size_t i = acked; i < stream.size(); ++i) {
        ASSERT_TRUE(tier.value()->Apply(stream[i]).ok()) << "seed=" << seed;
      }
      ASSERT_TRUE(tier.value()->Finish().ok()) << "seed=" << seed;
    }

    tier.value()->historical().CheckInvariants();
    copies = tier.value()->VerifyCheckpointCopies();
    EXPECT_TRUE(copies.ok()) << "seed=" << seed << " threads="
                             << querier_threads << " " << copies.ToString();

    // Invariant 2: the finished (possibly recovered) run answers exactly
    // like the never-crashed reference.
    const std::vector<std::vector<ObjectId>> final_answers =
        FinalAnswers(*tier.value(), queries);
    EXPECT_EQ(final_answers, reference)
        << "seed=" << seed << " threads=" << querier_threads
        << " crashed=" << crashed;

    // Invariant 1: every concurrent observation is a subset of the final
    // answer for its query.
    for (int t = 0; t < querier_threads; ++t) {
      for (const auto& entry : observed[static_cast<size_t>(t)]) {
        EXPECT_TRUE(std::includes(final_answers[entry.first].begin(),
                                  final_answers[entry.first].end(),
                                  entry.second.begin(), entry.second.end()))
            << "seed=" << seed << " threads=" << querier_threads
            << " querier=" << t << " q=" << entry.first;
      }
    }

  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LiveTierFuzzTest,
                         ::testing::Range<uint64_t>(7000, 7004));

}  // namespace
}  // namespace stindex
