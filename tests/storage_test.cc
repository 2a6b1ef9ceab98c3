#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "storage/page_backend.h"
#include "util/metrics.h"

namespace stindex {
namespace {

// Tags page `id` of `arena` so tests can verify identity.
void Tag(MemoryPageBackend* arena, PageId id, int tag) {
  std::memcpy(arena->MutablePage(id).bytes, &tag, sizeof(tag));
}

int TagOf(const MemoryPageBackend& arena, PageId id) {
  int tag = 0;
  std::memcpy(&tag, arena.BorrowPage(id), sizeof(tag));
  return tag;
}

TEST(MemoryArenaTest, AllocateAndGet) {
  MemoryPageBackend arena;
  const PageId a = arena.Allocate();
  const PageId b = arena.Allocate();
  EXPECT_NE(a, b);
  Tag(&arena, a, 1);
  Tag(&arena, b, 2);
  EXPECT_EQ(TagOf(arena, a), 1);
  EXPECT_EQ(TagOf(arena, b), 2);
  EXPECT_EQ(arena.LivePageCount(), 2u);
}

TEST(MemoryArenaTest, FreeReducesLiveCount) {
  MemoryPageBackend arena;
  const PageId a = arena.Allocate();
  arena.Allocate();
  EXPECT_TRUE(arena.IsAllocated(a));
  ASSERT_TRUE(arena.Free(a).ok());
  EXPECT_FALSE(arena.IsAllocated(a));
  EXPECT_EQ(arena.BorrowPage(a), nullptr);
  EXPECT_EQ(arena.LivePageCount(), 1u);
  EXPECT_EQ(arena.SlotCount(), 2u);
  EXPECT_FALSE(arena.Free(a).ok());  // double free
}

TEST(MemoryArenaTest, PeakPageCountTracksHighWaterMark) {
  MemoryPageBackend arena;
  PageId pages[3];
  for (PageId& page : pages) page = arena.Allocate();
  EXPECT_EQ(arena.PeakPageCount(), 3u);
  ASSERT_TRUE(arena.Free(pages[0]).ok());
  ASSERT_TRUE(arena.Free(pages[1]).ok());
  EXPECT_EQ(arena.LivePageCount(), 1u);
  EXPECT_EQ(arena.PeakPageCount(), 3u);  // the peak never decays
  arena.Allocate();
  EXPECT_EQ(arena.LivePageCount(), 2u);
  EXPECT_EQ(arena.PeakPageCount(), 3u);
}

TEST(MemoryArenaTest, FreedSlotsAreReusedLowestFirst) {
  // Regression for the slot leak: Free used to strand the slot forever,
  // so insert/delete workloads grew the id space without bound.
  MemoryPageBackend arena;
  PageId pages[4];
  for (PageId& page : pages) page = arena.Allocate();
  EXPECT_EQ(arena.SlotCount(), 4u);
  ASSERT_TRUE(arena.Free(pages[2]).ok());
  ASSERT_TRUE(arena.Free(pages[0]).ok());
  // Reuse picks the lowest free id first — deterministic for a given
  // operation sequence.
  EXPECT_EQ(arena.Allocate(), pages[0]);
  EXPECT_EQ(arena.Allocate(), pages[2]);
  EXPECT_EQ(arena.SlotCount(), 4u);  // the id space did not grow
  EXPECT_EQ(arena.LivePageCount(), 4u);
  EXPECT_EQ(arena.TotalAllocations(), 6u);
  // An arena with no free slots grows again.
  arena.Allocate();
  EXPECT_EQ(arena.SlotCount(), 5u);
}

TEST(MemoryArenaTest, SlotCountStaysFlatUnderChurn) {
  MemoryPageBackend arena;
  std::vector<PageId> live;
  for (int i = 0; i < 8; ++i) live.push_back(arena.Allocate());
  for (int round = 0; round < 50; ++round) {
    ASSERT_TRUE(arena.Free(live.back()).ok());
    live.pop_back();
    live.push_back(arena.Allocate());
  }
  EXPECT_EQ(arena.SlotCount(), 8u);
  EXPECT_EQ(arena.LivePageCount(), 8u);
  EXPECT_EQ(arena.TotalAllocations(), 58u);
}

TEST(MemoryArenaTest, ReusedSlotKeepsItsAddressAndIsZeroed) {
  // A pool frame over a lent page stays valid across free and reuse: the
  // slot keeps its page, and a reallocated page starts zeroed.
  MemoryPageBackend arena;
  const PageId a = arena.Allocate();
  Tag(&arena, a, 7);
  const uint8_t* lent = arena.BorrowPage(a);
  ASSERT_TRUE(arena.Free(a).ok());
  ASSERT_EQ(arena.Allocate(), a);
  EXPECT_EQ(arena.BorrowPage(a), lent);
  EXPECT_EQ(TagOf(arena, a), 0);
}

TEST(MemoryArenaTest, WriteOfAFreedSlotTakesItOffTheFreeList) {
  MemoryPageBackend arena;
  arena.Allocate();
  arena.Allocate();
  ASSERT_TRUE(arena.Free(0).ok());
  uint8_t page[kPageSize] = {};
  ASSERT_TRUE(arena.Write(0, page).ok());
  EXPECT_TRUE(arena.IsAllocated(0));
  EXPECT_EQ(arena.Allocate(), 2u);  // slot 0 is live again, not reused
}

TEST(MemoryArenaTest, ScopePublishesPageStoreMetrics) {
  MetricRegistry& registry = MetricRegistry::Global();
  const uint64_t before =
      registry.GetCounter("pagestore.arena_test.allocations")->Value();
  {
    MemoryPageBackend arena("arena_test");
    for (int i = 0; i < 3; ++i) arena.Allocate();
    ASSERT_TRUE(arena.Free(1).ok());
  }
  EXPECT_EQ(registry.GetCounter("pagestore.arena_test.allocations")->Value() -
                before,
            3u);
  EXPECT_GE(registry.GetGauge("pagestore.arena_test.peak_pages")->Value(), 3);
  EXPECT_GE(registry.GetGauge("pagestore.arena_test.live_pages")->Value(), 2);
}

}  // namespace
}  // namespace stindex
