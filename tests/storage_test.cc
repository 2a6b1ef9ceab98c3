#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "storage/page_store.h"

namespace stindex {
namespace {

// A trivial page type carrying a tag so tests can verify identity.
class TestPage : public Page {
 public:
  explicit TestPage(int tag) : tag_(tag) {}
  int tag() const { return tag_; }

 private:
  int tag_;
};

TEST(PageStoreTest, AllocateAndGet) {
  PageStore store;
  const PageId a = store.Allocate(std::make_unique<TestPage>(1));
  const PageId b = store.Allocate(std::make_unique<TestPage>(2));
  EXPECT_NE(a, b);
  EXPECT_EQ(static_cast<TestPage*>(store.Get(a))->tag(), 1);
  EXPECT_EQ(static_cast<TestPage*>(store.Get(b))->tag(), 2);
  EXPECT_EQ(store.PageCount(), 2u);
}

TEST(PageStoreTest, FreeReducesLiveCount) {
  PageStore store;
  const PageId a = store.Allocate(std::make_unique<TestPage>(1));
  store.Allocate(std::make_unique<TestPage>(2));
  EXPECT_TRUE(store.IsLive(a));
  store.Free(a);
  EXPECT_FALSE(store.IsLive(a));
  EXPECT_EQ(store.PageCount(), 1u);
  EXPECT_EQ(store.AllocatedCount(), 2u);
}

TEST(PageStoreTest, PeakPageCountTracksHighWaterMark) {
  PageStore store;
  PageId pages[3];
  for (int i = 0; i < 3; ++i) {
    pages[i] = store.Allocate(std::make_unique<TestPage>(i));
  }
  EXPECT_EQ(store.PeakPageCount(), 3u);
  store.Free(pages[0]);
  store.Free(pages[1]);
  EXPECT_EQ(store.PageCount(), 1u);
  EXPECT_EQ(store.PeakPageCount(), 3u);  // the peak never decays
  store.Allocate(std::make_unique<TestPage>(9));
  EXPECT_EQ(store.PageCount(), 2u);
  EXPECT_EQ(store.PeakPageCount(), 3u);
}

TEST(PageStoreTest, FreedSlotsAreReusedLowestFirst) {
  // Regression for the slot leak: Free used to strand the slot forever,
  // so insert/delete workloads grew AllocatedCount() without bound.
  PageStore store;
  PageId pages[4];
  for (int i = 0; i < 4; ++i) {
    pages[i] = store.Allocate(std::make_unique<TestPage>(i));
  }
  EXPECT_EQ(store.AllocatedCount(), 4u);
  store.Free(pages[2]);
  store.Free(pages[0]);
  // Reuse picks the lowest free id first — deterministic for a given
  // operation sequence.
  EXPECT_EQ(store.Allocate(std::make_unique<TestPage>(10)), pages[0]);
  EXPECT_EQ(store.Allocate(std::make_unique<TestPage>(12)), pages[2]);
  EXPECT_EQ(store.AllocatedCount(), 4u);  // the id space did not grow
  EXPECT_EQ(store.PageCount(), 4u);
  EXPECT_EQ(store.TotalAllocations(), 6u);
  // A store with no free slots grows again.
  store.Allocate(std::make_unique<TestPage>(13));
  EXPECT_EQ(store.AllocatedCount(), 5u);
}

TEST(PageStoreTest, AllocatedCountStaysFlatUnderChurn) {
  PageStore store;
  std::vector<PageId> live;
  for (int i = 0; i < 8; ++i) {
    live.push_back(store.Allocate(std::make_unique<TestPage>(i)));
  }
  for (int round = 0; round < 50; ++round) {
    store.Free(live.back());
    live.pop_back();
    live.push_back(store.Allocate(std::make_unique<TestPage>(round)));
  }
  EXPECT_EQ(store.AllocatedCount(), 8u);
  EXPECT_EQ(store.PageCount(), 8u);
  EXPECT_EQ(store.TotalAllocations(), 58u);
}

}  // namespace
}  // namespace stindex
