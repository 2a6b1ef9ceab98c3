#include "storage/shared_buffer_pool.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "lru_oracle.h"
#include "storage/buffer_pool.h"
#include "storage/page_backend.h"
#include "storage/page_codec.h"
#include "util/metrics.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace stindex {
namespace {

// Test pages carry an int32 tag as their first payload bytes so tests
// can verify identity: unsealed in an arena, sealed (kTest) in a backend
// a pool checks through TestCodec.
void TagPage(Page* page, int32_t tag) {
  std::memcpy(page->bytes + kPageEnvelopeBytes, &tag, sizeof(tag));
}

int TagOf(const Page* page) {
  int32_t tag = 0;
  std::memcpy(&tag, page->bytes + kPageEnvelopeBytes, sizeof(tag));
  return tag;
}

class TestCodec : public PageCodec {
 public:
  Status Check(const uint8_t* page, PageId id) const override {
    return OpenPagePayload(page, PageKind::kTest, id).status();
  }
};

// Allocates `pages` arena pages, page i tagged i.
void FillArena(MemoryPageBackend* arena, size_t pages) {
  for (size_t i = 0; i < pages; ++i) {
    TagPage(&arena->MutablePage(arena->Allocate()), static_cast<int>(i));
  }
}

// Pins and unpins `id`; returns whether the pin missed.
bool Touch(SharedBufferPool* pool, PageId id) {
  bool missed = false;
  EXPECT_TRUE(pool->Pin(id, &missed).ok());
  pool->Unpin(id);
  return missed;
}

// The first `count` page ids of `arena` that land in shard `shard` of a
// pool of `capacity` frames, found through a throwaway probe pool of the
// same shape (pinning one page shows which shard holds the pin).
std::vector<PageId> IdsInShard(const MemoryPageBackend* arena,
                               size_t capacity, size_t shard, size_t count) {
  SharedBufferPoolOptions options;
  options.capacity = capacity;
  SharedBufferPool probe(arena, nullptr, options);
  std::vector<PageId> ids;
  for (PageId id = 0; ids.size() < count; ++id) {
    bool missed = false;
    EXPECT_TRUE(probe.Pin(id, &missed).ok());
    if (probe.ShardOccupancies()[shard].pinned == 1) ids.push_back(id);
    probe.Unpin(id);
  }
  return ids;
}

TEST(SharedBufferPoolTest, ArenaHitsAndMisses) {
  MemoryPageBackend arena;
  FillArena(&arena, 8);
  SharedBufferPoolOptions options;
  options.capacity = 4;
  SharedBufferPool pool(&arena, nullptr, options);
  EXPECT_EQ(pool.capacity(), 4u);

  bool missed = false;
  Result<const Page*> page = pool.Pin(0, &missed);
  ASSERT_TRUE(page.ok());
  EXPECT_TRUE(missed);
  EXPECT_EQ(TagOf(page.value()), 0);
  pool.Unpin(0);

  page = pool.Pin(0, &missed);
  ASSERT_TRUE(page.ok());
  EXPECT_FALSE(missed);  // resident now
  pool.Unpin(0);

  const IoStats stats = pool.AggregateStats();
  EXPECT_EQ(stats.accesses, 2u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.Hits(), 1u);
  EXPECT_EQ(pool.CachedPages(), 1u);
  EXPECT_EQ(pool.PinnedPages(), 0u);
}

TEST(SharedBufferPoolTest, ShardCountDerivesFromCapacity) {
  MemoryPageBackend arena;
  FillArena(&arena, 1);
  // The largest power of two <= min(16, capacity); the slices sum to the
  // capacity.
  const std::pair<size_t, size_t> expected[] = {
      {1, 1}, {2, 2}, {3, 2}, {10, 8}, {16, 16}, {1000, 16}};
  for (const auto& [capacity, shards] : expected) {
    SharedBufferPoolOptions options;
    options.capacity = capacity;
    SharedBufferPool pool(&arena, nullptr, options);
    EXPECT_EQ(pool.shard_count(), shards) << "capacity=" << capacity;
    size_t total = 0;
    for (const auto& shard : pool.ShardOccupancies()) total += shard.capacity;
    EXPECT_EQ(total, capacity);
  }
}

TEST(SharedBufferPoolTest, CapacityIsTotalAcrossShards) {
  MemoryPageBackend arena;
  FillArena(&arena, 64);
  SharedBufferPoolOptions options;
  options.capacity = 10;
  SharedBufferPool pool(&arena, nullptr, options);
  EXPECT_EQ(pool.shard_count(), 8u);
  for (PageId id = 0; id < 64; ++id) Touch(&pool, id);
  // No shard may hold more than its slice: the whole pool never exceeds
  // the requested total.
  EXPECT_LE(pool.CachedPages(), 10u);
  EXPECT_GT(pool.Evictions(), 0u);
}

TEST(SharedBufferPoolDeathTest, PinOfOutOfRangePageAborts) {
  MemoryPageBackend arena;
  arena.Allocate();
  SharedBufferPoolOptions options;
  options.capacity = 4;
  SharedBufferPool pool(&arena, nullptr, options);
  bool missed = false;
  EXPECT_DEATH(static_cast<void>(pool.Pin(999, &missed)),
               "out-of-range PageId");
  EXPECT_DEATH(static_cast<void>(pool.Pin(kInvalidPage, &missed)),
               "out-of-range PageId");
}

TEST(SharedBufferPoolTest, EvictsLeastRecentlyUsedWithinShard) {
  MemoryPageBackend arena;
  FillArena(&arena, 64);
  // Capacity 3 splits into two shards; shard 0 holds two frames.
  const std::vector<PageId> ids = IdsInShard(&arena, 3, 0, 3);
  SharedBufferPoolOptions options;
  options.capacity = 3;
  SharedBufferPool pool(&arena, nullptr, options);
  ASSERT_EQ(pool.ShardOccupancies()[0].capacity, 2u);
  EXPECT_TRUE(Touch(&pool, ids[0]));   // miss, shard {0}
  EXPECT_TRUE(Touch(&pool, ids[1]));   // miss, shard {1, 0}
  EXPECT_FALSE(Touch(&pool, ids[0]));  // hit, shard {0, 1}
  EXPECT_TRUE(Touch(&pool, ids[2]));   // miss, evicts 1, shard {2, 0}
  EXPECT_FALSE(Touch(&pool, ids[0]));  // hit
  EXPECT_TRUE(Touch(&pool, ids[1]));   // miss again (was evicted)
  EXPECT_EQ(pool.AggregateStats().misses, 4u);
  EXPECT_EQ(pool.AggregateStats().accesses, 6u);
  EXPECT_EQ(pool.Evictions(), 2u);
}

TEST(SharedBufferPoolTest, CapacityOneThrashes) {
  MemoryPageBackend arena;
  FillArena(&arena, 2);
  SharedBufferPoolOptions options;
  options.capacity = 1;
  SharedBufferPool pool(&arena, nullptr, options);
  for (int round = 0; round < 5; ++round) {
    Touch(&pool, 0);
    Touch(&pool, 1);
  }
  EXPECT_EQ(pool.AggregateStats().misses, 10u);
  EXPECT_EQ(pool.Evictions(), 9u);
}

TEST(SharedBufferPoolTest, LargeCapacityHoldsWorkingSet) {
  MemoryPageBackend arena;
  FillArena(&arena, 8);
  SharedBufferPoolOptions options;
  options.capacity = 256;  // 16 shards of 16 frames
  SharedBufferPool pool(&arena, nullptr, options);
  for (int round = 0; round < 3; ++round) {
    for (PageId id = 0; id < 8; ++id) Touch(&pool, id);
  }
  EXPECT_EQ(pool.AggregateStats().misses, 8u);  // only cold misses
  EXPECT_EQ(pool.CachedPages(), 8u);
  EXPECT_EQ(pool.Evictions(), 0u);
}

TEST(SharedBufferPoolTest, PinBlocksEviction) {
  MemoryPageBackend arena;
  FillArena(&arena, 3);
  SharedBufferPoolOptions options;
  options.capacity = 1;
  SharedBufferPool pool(&arena, nullptr, options);
  bool missed = false;
  ASSERT_TRUE(pool.Pin(0, &missed).ok());
  // The only frame is pinned: page 1 takes a transient extra frame and
  // page 0 stays resident; unpinning page 1 trims it straight back out.
  EXPECT_TRUE(Touch(&pool, 1));
  EXPECT_EQ(pool.CachedPages(), 1u);
  EXPECT_FALSE(Touch(&pool, 0));  // hit: the pinned frame survived
  EXPECT_EQ(pool.PinnedPages(), 1u);
  pool.Unpin(0);
  EXPECT_EQ(pool.PinnedPages(), 0u);
  EXPECT_TRUE(Touch(&pool, 2));  // unpinned now: page 0 is the victim
  EXPECT_TRUE(Touch(&pool, 0));
}

TEST(SharedBufferPoolTest, PinOverflowGrowsTransientlyAndTrimsBack) {
  MemoryPageBackend arena;
  FillArena(&arena, 8);
  SharedBufferPoolOptions options;
  options.capacity = 1;
  SharedBufferPool pool(&arena, nullptr, options);

  bool missed = false;
  ASSERT_TRUE(pool.Pin(0, &missed).ok());
  ASSERT_TRUE(pool.Pin(1, &missed).ok());
  ASSERT_TRUE(pool.Pin(2, &missed).ok());  // two transient extra frames
  EXPECT_EQ(pool.CachedPages(), 3u);
  EXPECT_EQ(pool.ShardOccupancies()[0].cached, 3u);
  pool.Unpin(0);
  // Releasing a pin trims the overage as far as unpinned victims allow —
  // the overflow must not linger until the next miss happens to land in
  // this shard.
  EXPECT_EQ(pool.CachedPages(), 2u);
  pool.Unpin(1);
  EXPECT_EQ(pool.CachedPages(), 1u);
  pool.Unpin(2);
  EXPECT_EQ(pool.CachedPages(), 1u);
  Touch(&pool, 3);
  EXPECT_EQ(pool.CachedPages(), 1u);
}

TEST(SharedBufferPoolDeathTest, UnpinOfNonResidentPageAborts) {
  MemoryPageBackend arena;
  FillArena(&arena, 2);
  SharedBufferPoolOptions options;
  options.capacity = 2;
  SharedBufferPool pool(&arena, nullptr, options);
  EXPECT_DEATH(pool.Unpin(1), "non-resident");
}

// --- Sessions: the per-worker PageCache view ---

TEST(SharedBufferPoolTest, PassThroughSessionReportsRealOutcomes) {
  MemoryPageBackend arena;
  FillArena(&arena, 2);
  SharedBufferPoolOptions options;
  options.capacity = 4;
  SharedBufferPool pool(&arena, nullptr, options);
  SharedBufferPool::Session session(&pool);
  session.FetchPinned(0);
  EXPECT_EQ(session.stats().accesses, 1u);
  EXPECT_EQ(session.stats().misses, 1u);
  session.FetchPinned(0);
  EXPECT_EQ(session.stats().accesses, 2u);
  EXPECT_EQ(session.stats().misses, 1u);
  EXPECT_EQ(session.stats().Hits(), 1u);
  // A second pass-through session sees the shared residency: a hit.
  SharedBufferPool::Session other(&pool);
  other.FetchPinned(0);
  EXPECT_EQ(other.stats().misses, 0u);
}

TEST(SharedBufferPoolTest, SessionResetCacheForcesProtocolMisses) {
  MemoryPageBackend arena;
  FillArena(&arena, 1);
  SharedBufferPoolOptions options;
  options.capacity = 4;
  SharedBufferPool pool(&arena, nullptr, options);
  SharedBufferPool::Session session(&pool, 4);
  session.FetchPinned(0);
  session.ResetCache();
  session.FetchPinned(0);  // resident in the pool, a protocol miss anyway
  EXPECT_EQ(session.stats().misses, 2u);
  EXPECT_EQ(pool.AggregateStats().misses, 1u);
}

TEST(SharedBufferPoolTest, SessionResetStatsKeepsProtocolCache) {
  MemoryPageBackend arena;
  FillArena(&arena, 1);
  SharedBufferPoolOptions options;
  options.capacity = 4;
  SharedBufferPool pool(&arena, nullptr, options);
  SharedBufferPool::Session session(&pool, 4);
  session.FetchPinned(0);
  session.ResetStats();
  session.FetchPinned(0);  // still in the simulated LRU: a hit
  EXPECT_EQ(session.stats().accesses, 1u);
  EXPECT_EQ(session.stats().misses, 0u);
  EXPECT_EQ(session.lifetime_stats().accesses, 2u);
  EXPECT_EQ(session.lifetime_stats().misses, 1u);
}

TEST(SharedBufferPoolTest, PageRefMoveTransfersPin) {
  MemoryPageBackend arena;
  FillArena(&arena, 1);
  SharedBufferPoolOptions options;
  options.capacity = 2;
  SharedBufferPool pool(&arena, nullptr, options);
  SharedBufferPool::Session session(&pool);
  PageRef ref = session.FetchPinned(0);
  EXPECT_EQ(pool.PinnedPages(), 1u);
  PageRef moved = std::move(ref);
  EXPECT_EQ(pool.PinnedPages(), 1u);  // exactly one pin, now owned by `moved`
  EXPECT_TRUE(static_cast<bool>(moved));
  EXPECT_FALSE(static_cast<bool>(ref));  // NOLINT(bugprone-use-after-move)
  moved.Release();
  EXPECT_EQ(pool.PinnedPages(), 0u);
}

TEST(SharedBufferPoolTest, PageRefMoveResetsSourceCompletely) {
  // The move operations must not leave a stale id_ in the moved-from
  // ref, claiming the old PageId while holding no pin.
  MemoryPageBackend arena;
  FillArena(&arena, 2);
  SharedBufferPoolOptions options;
  options.capacity = 2;
  SharedBufferPool pool(&arena, nullptr, options);
  SharedBufferPool::Session session(&pool);

  PageRef ref = session.FetchPinned(0);
  PageRef moved = std::move(ref);
  EXPECT_EQ(ref.id(), kInvalidPage);  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(ref.get(), nullptr);
  EXPECT_FALSE(static_cast<bool>(ref));

  // Move assignment must reset the source the same way (and release the
  // destination's old pin exactly once).
  PageRef target = session.FetchPinned(1);
  EXPECT_EQ(pool.PinnedPages(), 2u);
  target = std::move(moved);
  EXPECT_EQ(pool.PinnedPages(), 1u);
  EXPECT_EQ(target.id(), 0u);
  EXPECT_EQ(moved.id(), kInvalidPage);  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(moved.get(), nullptr);
}

TEST(SharedBufferPoolTest, PageRefReleaseIsIdempotentAndMovedFromSafe) {
  MemoryPageBackend arena;
  FillArena(&arena, 1);
  SharedBufferPoolOptions options;
  options.capacity = 2;
  SharedBufferPool pool(&arena, nullptr, options);
  SharedBufferPool::Session session(&pool);

  PageRef ref = session.FetchPinned(0);
  PageRef moved = std::move(ref);
  // Releasing a moved-from ref must not unpin anything (the pin moved).
  ref.Release();  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(pool.PinnedPages(), 1u);

  moved.Release();
  EXPECT_EQ(pool.PinnedPages(), 0u);
  EXPECT_EQ(moved.id(), kInvalidPage);
  EXPECT_EQ(moved.get(), nullptr);
  // Double release is a no-op, not a double unpin.
  moved.Release();
  EXPECT_EQ(pool.PinnedPages(), 0u);
}

// The Session's simulated LRU must reproduce the paper's LRU exactly:
// same misses as the recency oracle for an arbitrary access stream with
// periodic protocol resets.
TEST(SharedBufferPoolTest, SessionProtocolMatchesLruOracle) {
  constexpr size_t kPages = 40;
  constexpr size_t kCapacity = 10;
  constexpr size_t kResetEvery = 50;
  MemoryPageBackend arena;
  FillArena(&arena, kPages);

  // One fixed pseudo-random access stream, reset every 50 accesses.
  Rng rng(1234);
  std::vector<PageId> accesses;
  for (size_t i = 0; i < 2000; ++i) {
    accesses.push_back(static_cast<PageId>(
        rng.UniformInt(0, static_cast<int64_t>(kPages) - 1)));
  }
  uint64_t oracle_misses = 0;
  for (size_t i = 0; i < accesses.size(); i += kResetEvery) {
    const std::vector<PageId> segment(
        accesses.begin() + static_cast<std::ptrdiff_t>(i),
        accesses.begin() + static_cast<std::ptrdiff_t>(
                               std::min(i + kResetEvery, accesses.size())));
    oracle_misses += LruOracleMisses(segment, kCapacity);
  }

  SharedBufferPoolOptions options;
  options.capacity = kCapacity;
  SharedBufferPool pool(&arena, nullptr, options);
  SharedBufferPool::Session session(&pool, kCapacity);
  for (size_t i = 0; i < accesses.size(); ++i) {
    if (i % kResetEvery == 0) session.ResetCache();
    const PageRef ref = session.FetchPinned(accesses[i]);
    ASSERT_TRUE(static_cast<bool>(ref));
  }

  EXPECT_EQ(session.lifetime_stats().accesses, accesses.size());
  EXPECT_EQ(session.lifetime_stats().misses, oracle_misses);
  EXPECT_GT(oracle_misses, 0u);
  EXPECT_LT(oracle_misses, accesses.size());
  // The shared pool underneath saw every access but, keeping its frames
  // across protocol resets, loaded no more pages than the protocol missed.
  EXPECT_EQ(pool.AggregateStats().accesses, accesses.size());
  EXPECT_LE(pool.AggregateStats().misses, oracle_misses);
}

// The oracle itself, on a hand-checked sequence.
TEST(SharedBufferPoolTest, LruOracleDefinesMissesByRecency) {
  // Capacity 2: a, b, a (hit), c (miss; the last two distinct are c's
  // predecessors a, b), a (hit), b (miss: last two distinct are a, c).
  EXPECT_EQ(LruOracleMisses({0, 1, 0, 2, 0, 1}, 2), 4u);
  EXPECT_EQ(LruOracleMisses({0, 0, 0}, 1), 1u);
  EXPECT_EQ(LruOracleMisses({0, 1, 0, 1}, 1), 4u);
  EXPECT_EQ(LruOracleMisses({}, 10), 0u);
}

// Partitioning one query stream across N worker sessions of one shared
// pool must sum to the oracle's miss count exactly, for every N.
TEST(SharedBufferPoolTest, MissAggregateInvariantAcrossThreadCounts) {
  constexpr size_t kPages = 60;
  constexpr size_t kCapacity = 10;
  constexpr size_t kQueries = 120;
  constexpr size_t kAccessesPerQuery = 30;
  MemoryPageBackend arena;
  FillArena(&arena, kPages);

  // Queries are deterministic functions of their index, so any partition
  // replays the same per-query access sequences.
  const auto query_pages = [](size_t query) {
    Rng rng(Rng::DeriveSeed(777, query));
    std::vector<PageId> pages;
    for (size_t s = 0; s < kAccessesPerQuery; ++s) {
      pages.push_back(static_cast<PageId>(
          rng.UniformInt(0, static_cast<int64_t>(kPages) - 1)));
    }
    return pages;
  };

  uint64_t baseline_misses = 0;
  for (size_t q = 0; q < kQueries; ++q) {
    baseline_misses += LruOracleMisses(query_pages(q), kCapacity);
  }

  for (const int threads : {1, 2, 7, 16}) {
    SharedBufferPoolOptions options;
    options.capacity = kCapacity;
    SharedBufferPool pool(&arena, nullptr, options);
    const size_t chunks = ParallelChunks(threads, kQueries);
    std::vector<uint64_t> chunk_misses(chunks, 0);
    ParallelFor(threads, kQueries,
                [&](size_t chunk, size_t begin, size_t end) {
                  SharedBufferPool::Session session(&pool, kCapacity);
                  for (size_t q = begin; q < end; ++q) {
                    session.ResetCache();
                    session.ResetStats();
                    for (const PageId id : query_pages(q)) {
                      const PageRef ref = session.FetchPinned(id);
                      ASSERT_TRUE(static_cast<bool>(ref));
                    }
                    chunk_misses[chunk] += session.stats().misses;
                  }
                });
    uint64_t total = 0;
    for (const uint64_t misses : chunk_misses) total += misses;
    EXPECT_EQ(total, baseline_misses) << "threads=" << threads;
    EXPECT_LE(pool.CachedPages(), kCapacity);
  }
}

TEST(SharedBufferPoolTest, PublishStatsDoesNotDoubleCount) {
  MemoryPageBackend arena;
  FillArena(&arena, 4);
  MetricRegistry& registry = MetricRegistry::Global();
  const std::string scope = "test.shared_publish";
  const uint64_t accesses_before =
      registry.GetCounter("bufferpool." + scope + ".accesses")->Value();
  const uint64_t misses_before =
      registry.GetCounter("bufferpool." + scope + ".misses")->Value();
  {
    SharedBufferPoolOptions options;
    options.capacity = 2;
    options.metric_scope = scope;
    SharedBufferPool pool(&arena, nullptr, options);
    Touch(&pool, 0);
    pool.PublishStats();  // mid-run publish, e.g. a stats endpoint
    Touch(&pool, 0);
    pool.PublishStats();
    pool.PublishStats();  // idempotent with no new traffic
    Touch(&pool, 1);
    // Destruction publishes only the remainder.
  }
  EXPECT_EQ(
      registry.GetCounter("bufferpool." + scope + ".accesses")->Value() -
          accesses_before,
      3u);
  EXPECT_EQ(registry.GetCounter("bufferpool." + scope + ".misses")->Value() -
                misses_before,
            2u);
}

// --- Sealed backends: a miss is a real read (or a lent page) + check ---

// Seals test pages (tag = id + offset) into slots [0, pages) of `backend`.
void WritePages(PageBackend* backend, size_t pages, int offset = 0) {
  Page page;
  for (size_t i = 0; i < pages; ++i) {
    std::memset(page.bytes, 0, kPageSize);
    TagPage(&page, static_cast<int>(i) + offset);
    SealPage(page.bytes, PageKind::kTest);
    ASSERT_TRUE(backend->Write(static_cast<PageId>(i), page.bytes).ok());
  }
}

TEST(SharedBufferPoolBackendTest, MissChecksWrittenPage) {
  MemoryPageBackend backend;
  WritePages(&backend, 2, 10);
  TestCodec codec;
  SharedBufferPoolOptions options;
  options.capacity = 64;  // 16 shards of 4 frames: both pages stay
  SharedBufferPool pool(&backend, &codec, options);
  SharedBufferPool::Session session(&pool);
  EXPECT_EQ(TagOf(session.FetchPinned(0).get()), 10);
  EXPECT_EQ(TagOf(session.FetchPinned(1).get()), 11);
  EXPECT_EQ(session.stats().misses, 2u);
  session.FetchPinned(0);  // resident: a hit, no backend read
  EXPECT_EQ(session.stats().misses, 2u);
}

TEST(SharedBufferPoolBackendTest, MissCountsMatchArenaExactly) {
  // The property the differential suite relies on, in miniature: the same
  // access pattern costs the oracle's misses over an arena and over a
  // sealed backend, and the real pools evict identically (same shard
  // layout).
  MemoryPageBackend arena;
  FillArena(&arena, 3);
  MemoryPageBackend backend;
  WritePages(&backend, 3);
  TestCodec codec;
  SharedBufferPoolOptions options;
  options.capacity = 2;
  SharedBufferPool arena_pool(&arena, nullptr, options);
  SharedBufferPool backend_pool(&backend, &codec, options);
  SharedBufferPool::Session arena_session(&arena_pool, 2);
  SharedBufferPool::Session backend_session(&backend_pool, 2);
  const std::vector<PageId> pattern = {0, 1, 0, 2, 0, 1, 2};
  for (const PageId id : pattern) {
    EXPECT_EQ(TagOf(arena_session.FetchPinned(id).get()),
              TagOf(backend_session.FetchPinned(id).get()));
  }
  EXPECT_EQ(arena_session.stats().misses, LruOracleMisses(pattern, 2));
  EXPECT_EQ(backend_session.stats().misses, LruOracleMisses(pattern, 2));
  EXPECT_EQ(arena_pool.AggregateStats().misses,
            backend_pool.AggregateStats().misses);
  EXPECT_EQ(arena_pool.Evictions(), backend_pool.Evictions());
}

TEST(SharedBufferPoolBackendDeathTest, CorruptLentPageDiesOnMiss) {
  // A memory backend lends its pages; the codec still checks each miss.
  MemoryPageBackend backend;
  WritePages(&backend, 2);
  Page page;
  ASSERT_TRUE(backend.Read(1, page.bytes).ok());
  page.bytes[kPageEnvelopeBytes + 9] ^= 0x20;
  ASSERT_TRUE(backend.Write(1, page.bytes).ok());
  TestCodec codec;
  SharedBufferPoolOptions options;
  options.capacity = 4;
  SharedBufferPool pool(&backend, &codec, options);
  bool missed = false;
  EXPECT_TRUE(pool.Pin(0, &missed).ok());
  pool.Unpin(0);
  EXPECT_DEATH(static_cast<void>(pool.Pin(1, &missed)),
               "decode of page 1 failed.*checksum mismatch");
}

TEST(SharedBufferPoolBackendDeathTest, PinOfUnwrittenPageAborts) {
  MemoryPageBackend backend;
  WritePages(&backend, 1);
  TestCodec codec;
  SharedBufferPoolOptions options;
  options.capacity = 4;
  SharedBufferPool pool(&backend, &codec, options);
  bool missed = false;
  EXPECT_DEATH(static_cast<void>(pool.Pin(9, &missed)),
               "out-of-range PageId");
}

// TSan-targeted stress: 10 threads hammer one backend-mode pool with
// protocol and pass-through session reads and direct pins. The
// assertions are deliberately loose — the point is the data-race-free
// execution under ThreadSanitizer (including transient pin overflow and
// its trim) and the self-consistency of the aggregate counters.
TEST(SharedBufferPoolTest, ConcurrentStressIsRaceFree) {
  constexpr PageId kPages = 64;
  MemoryPageBackend backend;
  WritePages(&backend, kPages);
  TestCodec codec;
  SharedBufferPoolOptions options;
  options.capacity = 12;
  SharedBufferPool pool(&backend, &codec, options);

  constexpr int kThreads = 10;
  constexpr int kOpsPerThread = 2000;
  std::atomic<uint64_t> direct_pins{0};
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      Rng rng(Rng::DeriveSeed(42, static_cast<uint64_t>(t)));
      SharedBufferPool::Session session(&pool, t % 2 == 0 ? 0 : 10);
      std::vector<PageRef> held;
      for (int op = 0; op < kOpsPerThread; ++op) {
        const PageId id = static_cast<PageId>(
            rng.UniformInt(0, static_cast<int64_t>(kPages) - 1));
        if (rng.UniformInt(0, 9) < 8) {
          // Hold up to three pins at once, like a root-to-leaf path.
          held.push_back(session.FetchPinned(id));
          ASSERT_EQ(TagOf(held.back().get()), static_cast<int>(id));
          if (held.size() > 3) held.erase(held.begin());
        } else {
          bool missed = false;
          Result<const Page*> page = pool.Pin(id, &missed);
          ASSERT_TRUE(page.ok());
          ASSERT_EQ(TagOf(page.value()), static_cast<int>(id));
          pool.Unpin(id);
          direct_pins.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& worker : workers) worker.join();

  EXPECT_EQ(pool.PinnedPages(), 0u);
  EXPECT_LE(pool.CachedPages(), pool.capacity());
  const IoStats stats = pool.AggregateStats();
  EXPECT_EQ(stats.accesses,
            static_cast<uint64_t>(kThreads) * kOpsPerThread);
  EXPECT_GE(stats.accesses, stats.misses);
  EXPECT_GT(direct_pins.load(), 0u);
}

}  // namespace
}  // namespace stindex
