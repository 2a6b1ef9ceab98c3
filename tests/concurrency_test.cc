// Concurrent read paths: indexes are immutable during queries, and every
// querying thread uses its own Session of one shared pool, so parallel
// queries must return exactly the single-threaded answers (TSan-clean:
// the pool's only shared mutable state is behind its shard mutexes).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

#include "hrtree/hr_tree.h"
#include "pprtree/ppr_tree.h"
#include "rstar/rstar_tree.h"
#include "storage/shared_buffer_pool.h"
#include "util/random.h"

namespace stindex {
namespace {

std::vector<SegmentRecord> RandomRecords(uint64_t seed, size_t count) {
  Rng rng(seed);
  std::vector<SegmentRecord> records;
  for (size_t i = 0; i < count; ++i) {
    SegmentRecord record;
    record.object = static_cast<ObjectId>(i);
    const Time life = rng.UniformInt(1, 40);
    const Time start = rng.UniformInt(0, 200 - life);
    const double x = rng.UniformDouble(0, 0.95);
    const double y = rng.UniformDouble(0, 0.95);
    record.box.rect = Rect2D(x, y, x + rng.UniformDouble(0.005, 0.05),
                             y + rng.UniformDouble(0.005, 0.05));
    record.box.interval = TimeInterval(start, start + life);
    records.push_back(record);
  }
  return records;
}

struct ThreadQuery {
  Rect2D area;
  Time t;
};

std::vector<ThreadQuery> MakeQueries(uint64_t seed, size_t count) {
  Rng rng(seed);
  std::vector<ThreadQuery> queries;
  for (size_t i = 0; i < count; ++i) {
    const double x = rng.UniformDouble(0, 0.8);
    const double y = rng.UniformDouble(0, 0.8);
    queries.push_back(ThreadQuery{
        Rect2D(x, y, x + rng.UniformDouble(0.02, 0.2),
               y + rng.UniformDouble(0.02, 0.2)),
        rng.UniformInt(0, 199)});
  }
  return queries;
}

TEST(ConcurrencyTest, ParallelPprSnapshotsMatchSerial) {
  const std::vector<SegmentRecord> records = RandomRecords(21, 800);
  std::unique_ptr<PprTree> tree = BuildPprTree(records);
  const std::vector<ThreadQuery> queries = MakeQueries(22, 200);

  // Serial reference.
  std::vector<std::vector<PprDataId>> expected(queries.size());
  for (size_t q = 0; q < queries.size(); ++q) {
    tree->SnapshotQuery(queries[q].area, queries[q].t, &expected[q]);
    std::sort(expected[q].begin(), expected[q].end());
  }

  constexpr int kThreads = 4;
  std::vector<std::vector<std::vector<PprDataId>>> got(
      kThreads, std::vector<std::vector<PprDataId>>(queries.size()));
  std::atomic<int> mismatches{0};
  const std::unique_ptr<SharedBufferPool> pool = tree->NewSharedQueryPool();
  std::vector<std::thread> workers;
  for (int w = 0; w < kThreads; ++w) {
    workers.emplace_back([&, w]() {
      SharedBufferPool::Session session(pool.get(), pool->capacity());
      for (size_t q = 0; q < queries.size(); ++q) {
        tree->SnapshotQuery(queries[q].area, queries[q].t, &session,
                            &got[static_cast<size_t>(w)][q]);
        std::sort(got[static_cast<size_t>(w)][q].begin(),
                  got[static_cast<size_t>(w)][q].end());
        if (got[static_cast<size_t>(w)][q] != expected[q]) ++mismatches;
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  EXPECT_EQ(mismatches.load(), 0);
}

TEST(ConcurrencyTest, ParallelIntervalQueriesAcrossStructures) {
  const std::vector<SegmentRecord> records = RandomRecords(23, 600);
  std::unique_ptr<PprTree> ppr = BuildPprTree(records);
  std::unique_ptr<HrTree> hr = BuildHrTree(records);

  const std::vector<ThreadQuery> queries = MakeQueries(24, 100);
  std::atomic<int> mismatches{0};
  const std::unique_ptr<SharedBufferPool> ppr_pool = ppr->NewSharedQueryPool();
  const std::unique_ptr<SharedBufferPool> hr_pool = hr->NewSharedQueryPool();
  auto worker = [&]() {
    SharedBufferPool::Session ppr_session(ppr_pool.get(), ppr_pool->capacity());
    SharedBufferPool::Session hr_session(hr_pool.get(), hr_pool->capacity());
    std::vector<PprDataId> a;
    std::vector<HrDataId> b;
    for (const ThreadQuery& query : queries) {
      const TimeInterval range(query.t, std::min<Time>(200, query.t + 12));
      ppr->IntervalQuery(query.area, range, &ppr_session, &a);
      hr->IntervalQuery(query.area, range, &hr_session, &b);
      std::sort(a.begin(), a.end());
      std::sort(b.begin(), b.end());
      if (a != b) ++mismatches;
    }
  };
  std::vector<std::thread> workers;
  for (int w = 0; w < 4; ++w) workers.emplace_back(worker);
  for (std::thread& thread : workers) thread.join();
  EXPECT_EQ(mismatches.load(), 0);
}

TEST(ConcurrencyTest, ParallelRStarSearchesMatchSerial) {
  Rng rng(25);
  RStarTree tree;
  std::vector<Box3D> boxes;
  for (DataId i = 0; i < 1500; ++i) {
    const double x = rng.UniformDouble(0, 1);
    const double y = rng.UniformDouble(0, 1);
    const double t = rng.UniformDouble(0, 1);
    boxes.emplace_back(x, y, t, x + 0.02, y + 0.02, t + 0.02);
    tree.Insert(boxes.back(), i);
  }
  std::vector<Box3D> windows;
  for (int q = 0; q < 80; ++q) {
    const double x = rng.UniformDouble(0, 0.8);
    const double y = rng.UniformDouble(0, 0.8);
    const double t = rng.UniformDouble(0, 0.8);
    windows.emplace_back(x, y, t, x + 0.15, y + 0.15, t + 0.15);
  }
  std::vector<std::vector<DataId>> expected(windows.size());
  for (size_t q = 0; q < windows.size(); ++q) {
    tree.Search(windows[q], &expected[q]);
    std::sort(expected[q].begin(), expected[q].end());
  }
  std::atomic<int> mismatches{0};
  const std::unique_ptr<SharedBufferPool> pool = tree.NewSharedQueryPool();
  auto worker = [&]() {
    SharedBufferPool::Session session(pool.get(), pool->capacity());
    std::vector<DataId> results;
    for (size_t q = 0; q < windows.size(); ++q) {
      tree.Search(windows[q], &session, &results);
      std::sort(results.begin(), results.end());
      if (results != expected[q]) ++mismatches;
    }
  };
  std::vector<std::thread> workers;
  for (int w = 0; w < 4; ++w) workers.emplace_back(worker);
  for (std::thread& thread : workers) thread.join();
  EXPECT_EQ(mismatches.load(), 0);
}

// N workers over ONE tree's read-only arena, each owning a protocol
// Session (a simulated private 10-page LRU) of one shared pool and
// issuing a worker-specific mix of range + snapshot
// queries generated from a deterministically derived sub-seed
// (Rng::DeriveSeed, never a shared Rng — sharing one generator across
// threads is both a race and a determinism bug). Results must match a
// serial oracle that replays every worker's stream, and the aggregated
// IoStats must be self-consistent.
TEST(ConcurrencyTest, SharedStorePrivateBuffersAggregateConsistently) {
  const std::vector<SegmentRecord> records = RandomRecords(27, 900);
  std::unique_ptr<PprTree> tree = BuildPprTree(records);

  constexpr int kWorkers = 6;
  constexpr size_t kQueriesPerWorker = 120;
  constexpr uint64_t kBaseSeed = 28;

  // Every worker replays this stream shape from its own derived seed.
  auto run_worker_stream = [&](uint64_t worker, PageCache* buffer,
                               std::vector<std::vector<PprDataId>>* results) {
    Rng rng(Rng::DeriveSeed(kBaseSeed, worker));
    results->resize(kQueriesPerWorker);
    for (size_t q = 0; q < kQueriesPerWorker; ++q) {
      const double x = rng.UniformDouble(0, 0.8);
      const double y = rng.UniformDouble(0, 0.8);
      const Rect2D area(x, y, x + rng.UniformDouble(0.02, 0.2),
                        y + rng.UniformDouble(0.02, 0.2));
      const Time t = rng.UniformInt(0, 180);
      std::vector<PprDataId>& out = (*results)[q];
      if (rng.Bernoulli(0.5)) {
        tree->SnapshotQuery(area, t, buffer, &out);
      } else {
        tree->IntervalQuery(area, TimeInterval(t, t + 15), buffer, &out);
      }
      std::sort(out.begin(), out.end());
    }
  };

  std::vector<std::vector<std::vector<PprDataId>>> got(kWorkers);
  std::vector<IoStats> worker_stats(kWorkers);
  const std::unique_ptr<SharedBufferPool> pool = tree->NewSharedQueryPool();
  std::vector<std::thread> workers;
  for (int w = 0; w < kWorkers; ++w) {
    workers.emplace_back([&, w]() {
      SharedBufferPool::Session session(pool.get(), pool->capacity());
      run_worker_stream(static_cast<uint64_t>(w), &session,
                        &got[static_cast<size_t>(w)]);
      worker_stats[static_cast<size_t>(w)] = session.stats();
    });
  }
  for (std::thread& worker : workers) worker.join();

  // Serial oracle: the same derived-seed streams, one worker at a time.
  IoStats aggregate;
  for (int w = 0; w < kWorkers; ++w) {
    const std::unique_ptr<SharedBufferPool> serial_pool =
        tree->NewSharedQueryPool();
    SharedBufferPool::Session session(serial_pool.get(),
                                      serial_pool->capacity());
    std::vector<std::vector<PprDataId>> expected;
    run_worker_stream(static_cast<uint64_t>(w), &session, &expected);
    EXPECT_EQ(got[static_cast<size_t>(w)], expected) << "worker " << w;
    // A protocol session's counters depend only on its own query stream,
    // so the concurrent counters must equal the serial replay exactly.
    EXPECT_EQ(worker_stats[static_cast<size_t>(w)].accesses,
              session.stats().accesses)
        << "worker " << w;
    EXPECT_EQ(worker_stats[static_cast<size_t>(w)].misses,
              session.stats().misses)
        << "worker " << w;
    aggregate.accesses += worker_stats[static_cast<size_t>(w)].accesses;
    aggregate.misses += worker_stats[static_cast<size_t>(w)].misses;
  }

  // Aggregated stats are self-consistent: every miss was an access, some
  // accesses hit the cache, and work actually happened.
  EXPECT_GT(aggregate.accesses, 0u);
  EXPECT_GT(aggregate.misses, 0u);
  EXPECT_GE(aggregate.accesses, aggregate.misses);
  EXPECT_EQ(aggregate.Hits(), aggregate.accesses - aggregate.misses);
}

// Distinct workers must draw distinct query streams: DeriveSeed gives
// decorrelated sub-seeds, so two workers' first draws differ (the seed
// issue this suite regressed on was every worker sharing one Rng).
TEST(ConcurrencyTest, DerivedSubSeedsProduceDistinctStreams) {
  Rng a(Rng::DeriveSeed(42, 0));
  Rng b(Rng::DeriveSeed(42, 1));
  Rng base(42);
  EXPECT_NE(a.Next(), b.Next());
  // Stream 0 is not the parent stream either.
  Rng a2(Rng::DeriveSeed(42, 0));
  EXPECT_NE(a2.Next(), base.Next());
  // And the derivation is deterministic.
  EXPECT_EQ(Rng::DeriveSeed(42, 3), Rng::DeriveSeed(42, 3));
  EXPECT_NE(Rng::DeriveSeed(42, 3), Rng::DeriveSeed(43, 3));
}

TEST(ConcurrencyTest, PerBufferStatsAreIndependent) {
  const std::vector<SegmentRecord> records = RandomRecords(26, 400);
  std::unique_ptr<PprTree> tree = BuildPprTree(records);
  const std::unique_ptr<SharedBufferPool> pool = tree->NewSharedQueryPool();
  SharedBufferPool::Session a(pool.get(), 10);
  SharedBufferPool::Session b(pool.get(), 3);
  std::vector<PprDataId> results;
  tree->SnapshotQuery(Rect2D(0, 0, 1, 1), 100, &a, &results);
  EXPECT_GT(a.stats().accesses, 0u);
  EXPECT_EQ(b.stats().accesses, 0u);
  EXPECT_EQ(b.protocol_pages(), 3u);
}

}  // namespace
}  // namespace stindex
