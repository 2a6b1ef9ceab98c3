#include "util/thread_pool.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <numeric>
#include <stdexcept>
#include <utility>
#include <vector>

namespace stindex {
namespace {

TEST(ThreadPoolTest, StartupAndShutdown) {
  // Pools of various sizes come up and join cleanly, with and without
  // having run work.
  for (int threads : {1, 2, 4, 8}) {
    ThreadPool idle(threads);
    EXPECT_EQ(idle.num_threads(), threads);
  }
  ThreadPool pool(3);
  std::atomic<int> calls{0};
  pool.ParallelFor(100, 3, [&](size_t, size_t begin, size_t end) {
    calls += static_cast<int>(end - begin);
  });
  EXPECT_EQ(calls.load(), 100);
}

TEST(ThreadPoolTest, ClampsNonPositiveThreadCounts) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.num_threads(), 1);
  ThreadPool negative(-4);
  EXPECT_EQ(negative.num_threads(), 1);
}

TEST(ThreadPoolTest, ParallelForEmptyRangeNeverCallsBody) {
  ThreadPool pool(4);
  std::atomic<int> calls{0};
  pool.ParallelFor(0, 4, [&](size_t, size_t, size_t) { ++calls; });
  EXPECT_EQ(calls.load(), 0);
  ParallelFor(4, 0, [&](size_t, size_t, size_t) { ++calls; });
  EXPECT_EQ(calls.load(), 0);
}

TEST(ThreadPoolTest, ParallelForSingleElement) {
  ThreadPool pool(7);
  std::atomic<int> calls{0};
  size_t seen_begin = 99, seen_end = 99, seen_chunk = 99;
  pool.ParallelFor(1, 7, [&](size_t chunk, size_t begin, size_t end) {
    ++calls;
    seen_chunk = chunk;
    seen_begin = begin;
    seen_end = end;
  });
  // More chunks than elements clamps to one chunk covering [0, 1).
  EXPECT_EQ(calls.load(), 1);
  EXPECT_EQ(seen_chunk, 0u);
  EXPECT_EQ(seen_begin, 0u);
  EXPECT_EQ(seen_end, 1u);
}

TEST(ThreadPoolTest, ParallelForNonDivisibleRangeCoversEveryIndexOnce) {
  ThreadPool pool(3);
  for (size_t n : {2u, 5u, 10u, 17u, 101u}) {
    for (int chunks : {1, 2, 3, 4, 7, 16}) {
      std::vector<std::atomic<int>> hits(n);
      pool.ParallelFor(n, chunks, [&](size_t, size_t begin, size_t end) {
        for (size_t i = begin; i < end; ++i) ++hits[i];
      });
      for (size_t i = 0; i < n; ++i) {
        EXPECT_EQ(hits[i].load(), 1) << "n=" << n << " chunks=" << chunks
                                     << " index=" << i;
      }
    }
  }
}

TEST(ThreadPoolTest, ChunkBoundariesAreDeterministic) {
  // The decomposition depends only on (n, chunks): the first n % chunks
  // ranges are one element longer. Scheduling cannot change it.
  ThreadPool pool(4);
  const size_t n = 11;
  const int chunks = 4;
  std::vector<std::pair<size_t, size_t>> ranges(chunks);
  pool.ParallelFor(n, chunks, [&](size_t chunk, size_t begin, size_t end) {
    ranges[chunk] = {begin, end};
  });
  const std::vector<std::pair<size_t, size_t>> expected = {
      {0, 3}, {3, 6}, {6, 9}, {9, 11}};
  EXPECT_EQ(ranges, expected);
}

TEST(ThreadPoolTest, ExceptionPropagatesAndPoolStaysUsable) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.ParallelFor(8, 4,
                       [](size_t, size_t begin, size_t) {
                         if (begin >= 4) {
                           throw std::runtime_error("chunk failed");
                         }
                       }),
      std::runtime_error);

  // All chunks of the failed batch completed; the pool accepts new work.
  std::atomic<int> calls{0};
  pool.ParallelFor(8, 4, [&](size_t, size_t begin, size_t end) {
    calls += static_cast<int>(end - begin);
  });
  EXPECT_EQ(calls.load(), 8);
}

TEST(ThreadPoolTest, ExceptionMessageIsPreserved) {
  ThreadPool pool(2);
  try {
    pool.ParallelFor(2, 2, [](size_t, size_t, size_t) {
      throw std::runtime_error("boom");
    });
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "boom");
  }
}

TEST(ThreadPoolTest, NestedParallelForDoesNotDeadlock) {
  // Regression: a ParallelFor issued from inside a pool task must not
  // queue behind the outer chunks that are waiting for it. With 2 workers
  // and 2 outer chunks, every worker is busy when the inner batches are
  // issued; without the inline fallback this deadlocks.
  ThreadPool pool(2);
  std::atomic<int> inner_total{0};
  pool.ParallelFor(2, 2, [&](size_t, size_t, size_t) {
    pool.ParallelFor(10, 2, [&](size_t, size_t begin, size_t end) {
      inner_total += static_cast<int>(end - begin);
    });
  });
  EXPECT_EQ(inner_total.load(), 20);
}

TEST(ThreadPoolTest, DeeplyNestedSubmissionCompletes) {
  ThreadPool pool(2);
  std::atomic<int> leaves{0};
  pool.ParallelFor(4, 4, [&](size_t, size_t, size_t) {
    pool.ParallelFor(4, 4, [&](size_t, size_t, size_t) {
      pool.ParallelFor(4, 4, [&](size_t, size_t, size_t) { ++leaves; });
    });
  });
  EXPECT_EQ(leaves.load(), 64);
}

TEST(ThreadPoolTest, SharedPoolGrowsButNeverShrinks) {
  ThreadPool& a = ThreadPool::Shared(2);
  EXPECT_GE(a.num_threads(), 2);
  const int before = a.num_threads();
  ThreadPool& b = ThreadPool::Shared(before + 2);
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(b.num_threads(), before + 2);
  ThreadPool& c = ThreadPool::Shared(1);
  EXPECT_EQ(c.num_threads(), before + 2);
}

TEST(ThreadPoolTest, ParallelChunksMatchesExecution) {
  EXPECT_EQ(ParallelChunks(4, 100u), 4u * kParallelChunksPerThread);
  EXPECT_EQ(ParallelChunks(8, 3u), 3u);
  EXPECT_EQ(ParallelChunks(0, 5u), 1u);
  EXPECT_EQ(ParallelChunks(1, 5u), 1u);
  EXPECT_EQ(ParallelChunks(3, 0u), 0u);

  std::atomic<size_t> max_chunk{0};
  std::atomic<int> calls{0};
  ParallelFor(5, 3, [&](size_t chunk, size_t, size_t) {
    ++calls;
    size_t seen = max_chunk.load();
    while (chunk > seen && !max_chunk.compare_exchange_weak(seen, chunk)) {
    }
  });
  EXPECT_EQ(static_cast<size_t>(calls.load()), ParallelChunks(5, 3u));
  EXPECT_EQ(max_chunk.load(), ParallelChunks(5, 3u) - 1);
}

TEST(ThreadPoolTest, FreeParallelForBoundariesDependOnlyOnRangeAndThreads) {
  // Chunk c of n = 1000 at 3 threads covers [c*q + min(c, r), ...) with
  // q, r = divmod(n, ParallelChunks(3, n)), however the workers ran.
  constexpr size_t kN = 1000;
  const size_t chunks = ParallelChunks(3, kN);
  ASSERT_EQ(chunks, 3u * kParallelChunksPerThread);
  for (int round = 0; round < 3; ++round) {
    std::vector<std::pair<size_t, size_t>> ranges(chunks);
    ParallelFor(3, kN, [&](size_t chunk, size_t begin, size_t end) {
      ranges[chunk] = {begin, end};
    });
    const size_t q = kN / chunks;
    const size_t r = kN % chunks;
    for (size_t c = 0; c < chunks; ++c) {
      EXPECT_EQ(ranges[c].first, c * q + std::min(c, r)) << "chunk " << c;
      EXPECT_EQ(ranges[c].second, (c + 1) * q + std::min(c + 1, r))
          << "chunk " << c;
    }
  }
}

TEST(ThreadPoolTest, FreeParallelForSerialPathRunsInline) {
  // num_threads <= 1 must execute on the calling thread (one chunk).
  const std::thread::id caller = std::this_thread::get_id();
  std::thread::id seen;
  int calls = 0;
  ParallelFor(1, 42, [&](size_t chunk, size_t begin, size_t end) {
    ++calls;
    seen = std::this_thread::get_id();
    EXPECT_EQ(chunk, 0u);
    EXPECT_EQ(begin, 0u);
    EXPECT_EQ(end, 42u);
  });
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(seen, caller);
}

TEST(ThreadPoolTest, ManyBatchesReuseTheSameWorkers) {
  // A smoke test that the pool is actually reusable: hundreds of small
  // batches on one pool complete with correct totals.
  ThreadPool pool(4);
  std::atomic<long> total{0};
  for (int round = 0; round < 200; ++round) {
    pool.ParallelFor(32, 4, [&](size_t, size_t begin, size_t end) {
      long sum = 0;
      for (size_t i = begin; i < end; ++i) sum += static_cast<long>(i);
      total += sum;
    });
  }
  EXPECT_EQ(total.load(), 200L * (31L * 32L / 2));
}

}  // namespace
}  // namespace stindex
