#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "rstar/rstar_tree.h"
#include "util/random.h"

namespace stindex {
namespace {

Box3D RandomBox(Rng& rng, double max_extent = 0.04) {
  const double x = rng.UniformDouble(0, 1);
  const double y = rng.UniformDouble(0, 1);
  const double t = rng.UniformDouble(0, 1);
  return Box3D(x, y, t, x + rng.UniformDouble(0, max_extent),
               y + rng.UniformDouble(0, max_extent),
               t + rng.UniformDouble(0, max_extent));
}

std::vector<DataId> BruteForceSearch(
    const std::vector<std::pair<Box3D, bool>>& boxes, const Box3D& query) {
  std::vector<DataId> hits;
  for (size_t i = 0; i < boxes.size(); ++i) {
    if (boxes[i].second && boxes[i].first.Intersects(query)) {
      hits.push_back(i);
    }
  }
  return hits;
}

TEST(RStarDeleteTest, DeleteMissingEntryReturnsFalse) {
  RStarTree tree;
  EXPECT_FALSE(tree.Delete(Box3D(0, 0, 0, 1, 1, 1), 0));
  tree.Insert(Box3D(0.1, 0.1, 0.1, 0.2, 0.2, 0.2), 7);
  EXPECT_FALSE(tree.Delete(Box3D(0.1, 0.1, 0.1, 0.2, 0.2, 0.2), 8));
  EXPECT_FALSE(tree.Delete(Box3D(0.3, 0.3, 0.3, 0.4, 0.4, 0.4), 7));
  EXPECT_EQ(tree.Size(), 1u);
}

TEST(RStarDeleteTest, InsertDeleteRoundTripEmptiesTree) {
  RStarTree tree;
  Rng rng(301);
  std::vector<Box3D> boxes;
  for (DataId i = 0; i < 300; ++i) {
    boxes.push_back(RandomBox(rng));
    tree.Insert(boxes.back(), i);
  }
  for (DataId i = 0; i < 300; ++i) {
    EXPECT_TRUE(tree.Delete(boxes[i], i)) << i;
    tree.CheckInvariants();
  }
  EXPECT_EQ(tree.Size(), 0u);
  EXPECT_EQ(tree.Height(), 0u);
  std::vector<DataId> results;
  tree.Search(Box3D(-1, -1, -1, 2, 2, 2), &results);
  EXPECT_TRUE(results.empty());
}

class RStarDeleteFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RStarDeleteFuzzTest, InterleavedInsertDeleteMatchesScan) {
  Rng rng(GetParam());
  RStarTree tree;
  std::vector<std::pair<Box3D, bool>> boxes;  // (box, present)
  for (int step = 0; step < 1200; ++step) {
    const bool do_delete = !boxes.empty() && rng.Bernoulli(0.4);
    if (do_delete) {
      // Delete a random present entry (if any).
      const size_t pick =
          static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(
                                                    boxes.size()) - 1));
      if (boxes[pick].second) {
        EXPECT_TRUE(tree.Delete(boxes[pick].first, pick));
        boxes[pick].second = false;
      }
    } else {
      boxes.emplace_back(RandomBox(rng), true);
      tree.Insert(boxes.back().first, boxes.size() - 1);
    }
    if (step % 100 == 99) {
      tree.CheckInvariants();
      const Box3D query = RandomBox(rng, 0.3);
      std::vector<DataId> results;
      tree.Search(query, &results);
      std::sort(results.begin(), results.end());
      EXPECT_EQ(results, BruteForceSearch(boxes, query)) << "step " << step;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RStarDeleteFuzzTest,
                         ::testing::Values(311, 312, 313, 314));

TEST(RStarDeleteTest, PagesReclaimedOnMassDeletion) {
  RStarTree tree;
  Rng rng(321);
  std::vector<Box3D> boxes;
  for (DataId i = 0; i < 2000; ++i) {
    boxes.push_back(RandomBox(rng));
    tree.Insert(boxes.back(), i);
  }
  const size_t full_pages = tree.PageCount();
  for (DataId i = 0; i < 1900; ++i) EXPECT_TRUE(tree.Delete(boxes[i], i));
  tree.CheckInvariants();
  EXPECT_LT(tree.PageCount(), full_pages / 4);
  // Remaining entries still retrievable.
  std::vector<DataId> results;
  tree.Search(Box3D(-1, -1, -1, 2, 2, 2), &results);
  EXPECT_EQ(results.size(), 100u);
}

}  // namespace
}  // namespace stindex
