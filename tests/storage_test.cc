#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "proc_status.h"
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
  EXPECT_EQ(arena.SlotCount(), 2u);
}

constexpr size_t kSlabPages = MemoryPageBackend::kSlabPages;

TEST(MemoryArenaTest, LentPageKeepsItsAddressAsTheArenaGrowsBySlabs) {
  MemoryPageBackend arena;
  const PageId a = arena.Allocate();
  Page& page = arena.MutablePage(a);
  for (size_t i = 0; i < kPageSize; ++i) {
    page.bytes[i] = static_cast<uint8_t>(i * 7 + 1);
  }
  const Page before = page;
  const uint8_t* lent = arena.BorrowPage(a);
  for (size_t i = 0; i < 3 * kSlabPages + 1; ++i) arena.Allocate();
  ASSERT_GT(arena.SlotCount(), 3 * kSlabPages + 1);
  EXPECT_EQ(arena.BorrowPage(a), lent);
  EXPECT_EQ(std::memcmp(lent, before.bytes, kPageSize), 0);
}

TEST(MemoryArenaTest, WriteFarBeyondTheEndReadsBack) {
  MemoryPageBackend arena;
  arena.Allocate();
  const PageId far = static_cast<PageId>(5 * kSlabPages + 17);
  uint8_t page[kPageSize];
  for (size_t i = 0; i < kPageSize; ++i) {
    page[i] = static_cast<uint8_t>(i * 31 + 5);
  }
  ASSERT_TRUE(arena.Write(far, page).ok());
  EXPECT_EQ(arena.SlotCount(), far + 1u);
  uint8_t back[kPageSize] = {};
  ASSERT_TRUE(arena.Read(far, back).ok());
  EXPECT_EQ(std::memcmp(back, page, kPageSize), 0);
  // The skipped slots, in slabs no write touched too, read as zeros, and
  // are lent like every other slot.
  const Page zero{};
  for (const PageId skipped :
       {far - 1, static_cast<PageId>(2 * kSlabPages)}) {
    ASSERT_TRUE(arena.Read(skipped, back).ok()) << skipped;
    EXPECT_EQ(std::memcmp(back, zero.bytes, kPageSize), 0) << skipped;
    ASSERT_NE(arena.BorrowPage(skipped), nullptr) << skipped;
  }
  // Past the last slot is refused, naming the page.
  const Status past = arena.Read(far + 1, back);
  EXPECT_EQ(past.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(past.message().find("page " + std::to_string(far + 1)),
            std::string::npos)
      << past.ToString();
  EXPECT_EQ(arena.BorrowPage(far + 1), nullptr);
  // Allocation appends: it continues past `far`.
  EXPECT_EQ(arena.Allocate(), far + 1);
  EXPECT_EQ(arena.SlotCount(), far + 2u);
}

// A destroyed arena goes back to the OS, even when other allocations
// made while it grew outlive it, as a tree's maps do: a heap would keep
// the freed pages between them resident.
TEST(MemoryArenaTest, DestroyedArenaLeavesTheResidentSet) {
  if (kAnonRssSkipReason != nullptr) GTEST_SKIP() << kAnonRssSkipReason;
  constexpr size_t kPages = 8192;
  auto arena = std::make_unique<MemoryPageBackend>();
  std::vector<std::unique_ptr<uint64_t>> survivors;
  for (size_t i = 0; i < kPages; ++i) {
    std::memset(arena->MutablePage(arena->Allocate()).bytes, 0xa5, kPageSize);
    if (i % 16 == 0) survivors.push_back(std::make_unique<uint64_t>(i));
  }
  const int64_t before = ProcStatusBytes("RssAnon");
  ASSERT_GT(before, 0);
  arena.reset();
  const int64_t after = ProcStatusBytes("RssAnon");
  const int64_t arena_bytes = static_cast<int64_t>(kPages * kPageSize);
  EXPECT_GE(before - after, arena_bytes * 3 / 4)
      << "RssAnon " << before << " -> " << after << " bytes";
}

TEST(MemoryArenaTest, ScopePublishesPageStoreMetrics) {
  {
    MemoryPageBackend arena("arena_test");
    for (int i = 0; i < 3; ++i) arena.Allocate();
  }
  EXPECT_GE(MetricRegistry::Global().GetGauge("pagestore.arena_test.pages")
                ->Value(),
            3);
}

}  // namespace
}  // namespace stindex
