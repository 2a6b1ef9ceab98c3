#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdio>
#include <limits>
#include <queue>
#include <string>
#include <vector>

#include "core/distribute.h"
#include "core/dp_split.h"
#include "core/merge_split.h"
#include "core/piecewise_split.h"
#include "core/segment.h"
#include "core/split_pipeline.h"
#include "core/volume_curve.h"
#include "datagen/random_dataset.h"
#include "pprtree/ppr_tree.h"
#include "storage/page_codec.h"
#include "trajectory/trajectory.h"
#include "util/random.h"

namespace stindex {
namespace {

std::vector<Rect2D> RandomRects(uint64_t seed, int n, double step = 0.05) {
  Rng rng(seed);
  std::vector<Rect2D> rects;
  double x = rng.UniformDouble(0, 1);
  double y = rng.UniformDouble(0, 1);
  for (int i = 0; i < n; ++i) {
    x += rng.UniformDouble(-step, step);
    y += rng.UniformDouble(-step, step);
    const double w = rng.UniformDouble(0.01, 0.05);
    const double h = rng.UniformDouble(0.01, 0.05);
    rects.emplace_back(x, y, x + w, y + h);
  }
  return rects;
}

// Exhaustive optimum over all ways to place k cuts among n-1 positions.
double BruteForceBestVolume(const std::vector<Rect2D>& rects, int k) {
  const int n = static_cast<int>(rects.size());
  double best = std::numeric_limits<double>::infinity();
  std::vector<int> cuts(static_cast<size_t>(k));
  // Iterate over all k-combinations of {1, ..., n-1}.
  std::vector<int> indices(static_cast<size_t>(k));
  for (int i = 0; i < k; ++i) indices[static_cast<size_t>(i)] = i + 1;
  if (k == 0) return SplitVolume(rects, {});
  if (k > n - 1) return BruteForceBestVolume(rects, n - 1);
  while (true) {
    best = std::min(best, SplitVolume(rects, indices));
    // Next combination.
    int pos = k - 1;
    while (pos >= 0 &&
           indices[static_cast<size_t>(pos)] == n - 1 - (k - 1 - pos)) {
      --pos;
    }
    if (pos < 0) break;
    ++indices[static_cast<size_t>(pos)];
    for (int p = pos + 1; p < k; ++p) {
      indices[static_cast<size_t>(p)] = indices[static_cast<size_t>(p - 1)] + 1;
    }
  }
  return best;
}

TEST(ApplySplitsTest, NoCutsYieldsSingleBox) {
  const std::vector<Rect2D> rects = RandomRects(1, 10);
  const std::vector<SegmentRecord> records = ApplySplits(5, rects, 100, {});
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].object, 5u);
  EXPECT_EQ(records[0].box.interval, TimeInterval(100, 110));
  for (const Rect2D& rect : rects) {
    EXPECT_TRUE(records[0].box.rect.Contains(rect));
  }
}

TEST(ApplySplitsTest, CutsProduceConsecutiveIntervals) {
  const std::vector<Rect2D> rects = RandomRects(2, 10);
  const std::vector<SegmentRecord> records =
      ApplySplits(0, rects, 50, {3, 7});
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[0].box.interval, TimeInterval(50, 53));
  EXPECT_EQ(records[1].box.interval, TimeInterval(53, 57));
  EXPECT_EQ(records[2].box.interval, TimeInterval(57, 60));
  // Each segment covers its instants.
  for (int t = 0; t < 10; ++t) {
    const SegmentRecord& seg = records[t < 3 ? 0 : (t < 7 ? 1 : 2)];
    EXPECT_TRUE(seg.box.rect.Contains(rects[static_cast<size_t>(t)]));
  }
}

TEST(SplitVolumeTest, MatchesRecordVolumes) {
  const std::vector<Rect2D> rects = RandomRects(3, 20);
  const std::vector<int> cuts = {5, 11, 16};
  const std::vector<SegmentRecord> records = ApplySplits(0, rects, 0, cuts);
  double total = 0.0;
  for (const SegmentRecord& record : records) total += record.box.Volume();
  EXPECT_NEAR(SplitVolume(rects, cuts), total, 1e-12);
}

// Record i of a table under test: object i, alive over
// [i % 200, i % 200 + 1 + i % 13).
SegmentRecord NumberedRecord(size_t i) {
  const double x = static_cast<double>(i % 50) * 0.02;
  const Time start = static_cast<Time>(i % 200);
  const Time end = start + 1 + static_cast<Time>(i % 13);
  SegmentRecord record;
  record.object = static_cast<ObjectId>(i);
  record.box = STBox(Rect2D(x, 0.5 * x, x + 0.03, 0.5 * x + 0.03),
                     TimeInterval(start, end));
  return record;
}

bool IsNumbered(const SegmentRecord& record, size_t i) {
  const SegmentRecord want = NumberedRecord(i);
  return record.object == want.object && record.box == want.box;
}

TEST(SegmentTableTest, IndicesAcrossABlockBoundary) {
  SegmentTable table;
  for (size_t i = 0; i < 1026; ++i) table.push_back(NumberedRecord(i));
  EXPECT_EQ(table.size(), 1026u);
  EXPECT_EQ(table.blocks(), 2u);
  for (const size_t i : {size_t{1023}, size_t{1024}, size_t{1025}}) {
    EXPECT_TRUE(IsNumbered(table[i], i)) << i;
  }
  table[1024].object = 9;
  EXPECT_EQ(table[1024].object, 9u);
  EXPECT_TRUE(IsNumbered(table[1023], 1023));
  EXPECT_TRUE(IsNumbered(table[1025], 1025));
}

// ReadSegmentChain sizes the table, then fills it from the last page down.
TEST(SegmentTableTest, ResizeThenFillFromTheLastIndexDown) {
  SegmentTable table;
  table.resize(2500);
  EXPECT_EQ(table.size(), 2500u);
  EXPECT_EQ(table.blocks(), 3u);
  for (const size_t i : {size_t{0}, size_t{1024}, size_t{2499}}) {
    EXPECT_EQ(table[i].object, 0u) << i;
    EXPECT_EQ(table[i].box, STBox()) << i;
  }
  for (size_t i = table.size(); i-- > 0;) table[i] = NumberedRecord(i);
  for (size_t i = 0; i < table.size(); ++i) {
    ASSERT_TRUE(IsNumbered(table[i], i)) << i;
  }
  // Growing keeps what the table holds; the new records are default.
  table.resize(3100);
  EXPECT_EQ(table.blocks(), 4u);
  EXPECT_TRUE(IsNumbered(table[2499], 2499));
  for (const size_t i : {size_t{2500}, size_t{3071}, size_t{3072},
                         size_t{3099}}) {
    EXPECT_EQ(table[i].object, 0u) << i;
    EXPECT_EQ(table[i].box, STBox()) << i;
  }
}

TEST(SegmentTableTest, RecordsNeverMove) {
  SegmentTable table;
  table.push_back(NumberedRecord(0));
  const SegmentRecord* first = &table[0];
  for (size_t i = 1; i <= 100000; ++i) table.push_back(NumberedRecord(i));
  EXPECT_EQ(&table[0], first);
  EXPECT_TRUE(IsNumbered(*first, 0));
  EXPECT_EQ(table.size(), 100001u);
  EXPECT_EQ(table.blocks(), 98u);  // ceil(100001 / 1024)
  EXPECT_TRUE(IsNumbered(table[100000], 100000));
}

TEST(SegmentTableTest, MovedFromTableIsEmpty) {
  SegmentTable table;
  for (size_t i = 0; i < 1500; ++i) table.push_back(NumberedRecord(i));
  SegmentTable moved(std::move(table));
  EXPECT_EQ(table.size(), 0u);
  EXPECT_EQ(table.blocks(), 0u);
  EXPECT_EQ(moved.size(), 1500u);
  EXPECT_TRUE(IsNumbered(moved[1499], 1499));

  SegmentTable assigned;
  assigned.push_back(NumberedRecord(7));
  assigned = std::move(moved);
  EXPECT_EQ(moved.size(), 0u);
  EXPECT_EQ(moved.blocks(), 0u);
  EXPECT_EQ(assigned.size(), 1500u);
  EXPECT_TRUE(IsNumbered(assigned[0], 0));

  // A moved-from table takes records again.
  table.push_back(NumberedRecord(5));
  EXPECT_EQ(table.size(), 1u);
  EXPECT_TRUE(IsNumbered(table[0], 5));
}

// ReplayPprEvents builds the same tree from a table as from a vector.
TEST(SegmentTableTest, ReplaysLikeTheVector) {
  std::vector<SegmentRecord> records;
  SegmentTable table;
  for (size_t i = 0; i < 3000; ++i) {
    records.push_back(NumberedRecord(i));
    table.push_back(NumberedRecord(i));
  }
  for (const Time from : {std::numeric_limits<Time>::min(), Time{40}}) {
    PprTree from_vector;
    PprTree from_table;
    ReplayPprEvents(records, from, Time{150}, &from_vector);
    ReplayPprEvents(table, from, Time{150}, &from_table);
    EXPECT_EQ(from_table.Size(), from_vector.Size());
    EXPECT_EQ(from_table.AliveCount(), from_vector.AliveCount());
    EXPECT_EQ(from_table.PageCount(), from_vector.PageCount());
    EXPECT_EQ(from_table.NumRoots(), from_vector.NumRoots());
    for (const Time t : {Time{0}, Time{45}, Time{100}, Time{149}}) {
      std::vector<PprDataId> want;
      std::vector<PprDataId> got;
      from_vector.IntervalQuery(Rect2D(0.2, 0.1, 0.6, 0.4),
                                TimeInterval(t, t + 5), &want);
      from_table.IntervalQuery(Rect2D(0.2, 0.1, 0.6, 0.4),
                               TimeInterval(t, t + 5), &got);
      EXPECT_EQ(got, want) << "from " << from << " at " << t;
    }
  }
}

TEST(DpSplitTest, ZeroSplitsIsFullMbr) {
  const std::vector<Rect2D> rects = RandomRects(4, 15);
  const SplitResult result = DpSplit(rects, 0);
  EXPECT_TRUE(result.cuts.empty());
  EXPECT_NEAR(result.total_volume, SplitVolume(rects, {}), 1e-12);
}

TEST(DpSplitTest, ReportedVolumeMatchesCuts) {
  const std::vector<Rect2D> rects = RandomRects(5, 25);
  for (int k : {1, 2, 5, 10}) {
    const SplitResult result = DpSplit(rects, k);
    EXPECT_EQ(result.NumSplits(), k);
    EXPECT_NEAR(result.total_volume, SplitVolume(rects, result.cuts), 1e-9);
  }
}

TEST(DpSplitTest, SaturatesAtOneBoxPerInstant) {
  const std::vector<Rect2D> rects = RandomRects(6, 5);
  const SplitResult result = DpSplit(rects, 100);
  EXPECT_EQ(result.NumSplits(), 4);
  double singleton_volume = 0.0;
  for (const Rect2D& rect : rects) singleton_volume += rect.Area();
  EXPECT_NEAR(result.total_volume, singleton_volume, 1e-12);
}

TEST(DpSplitTest, ObviousSplitPoint) {
  // Two tight clusters far apart: the single best cut is between them.
  std::vector<Rect2D> rects;
  for (int i = 0; i < 4; ++i) rects.emplace_back(0, 0, 0.1, 0.1);
  for (int i = 0; i < 4; ++i) rects.emplace_back(10, 10, 10.1, 10.1);
  const SplitResult result = DpSplit(rects, 1);
  ASSERT_EQ(result.cuts.size(), 1u);
  EXPECT_EQ(result.cuts[0], 4);
  EXPECT_NEAR(result.total_volume, 0.01 * 4 * 2, 1e-9);
}

class DpOptimalityTest
    : public ::testing::TestWithParam<std::tuple<uint64_t, int, int>> {};

TEST_P(DpOptimalityTest, MatchesBruteForce) {
  const auto [seed, n, k] = GetParam();
  const std::vector<Rect2D> rects = RandomRects(seed, n);
  const SplitResult dp = DpSplit(rects, k);
  const double brute = BruteForceBestVolume(rects, k);
  EXPECT_NEAR(dp.total_volume, brute, 1e-9)
      << "seed=" << seed << " n=" << n << " k=" << k;
}

INSTANTIATE_TEST_SUITE_P(
    SmallInstances, DpOptimalityTest,
    ::testing::Combine(::testing::Values(11, 22, 33, 44),
                       ::testing::Values(6, 9, 12),
                       ::testing::Values(1, 2, 3)));

TEST(DpVolumeCurveTest, MonotoneNonIncreasing) {
  const std::vector<Rect2D> rects = RandomRects(7, 40);
  const std::vector<double> curve = DpVolumeCurve(rects, 20);
  ASSERT_EQ(curve.size(), 21u);
  for (size_t j = 1; j < curve.size(); ++j) {
    EXPECT_LE(curve[j], curve[j - 1] + 1e-12);
  }
  EXPECT_NEAR(curve[0], SplitVolume(rects, {}), 1e-9);
}

TEST(DpVolumeCurveTest, EachEntryMatchesDpSplit) {
  const std::vector<Rect2D> rects = RandomRects(8, 20);
  const std::vector<double> curve = DpVolumeCurve(rects, 6);
  for (int k = 0; k <= 6; ++k) {
    EXPECT_NEAR(curve[static_cast<size_t>(k)], DpSplit(rects, k).total_volume,
                1e-9);
  }
}

TEST(MergeSplitTest, ReportedVolumeMatchesCuts) {
  const std::vector<Rect2D> rects = RandomRects(9, 50);
  for (int k : {0, 1, 5, 20, 49}) {
    const SplitResult result = MergeSplit(rects, k);
    EXPECT_EQ(result.NumSplits(), std::min(k, 49));
    EXPECT_NEAR(result.total_volume, SplitVolume(rects, result.cuts), 1e-9);
  }
}

TEST(MergeSplitTest, NeverBeatsOptimal) {
  for (uint64_t seed : {10u, 20u, 30u, 40u, 50u}) {
    const std::vector<Rect2D> rects = RandomRects(seed, 30);
    for (int k : {1, 3, 7}) {
      const double dp = DpSplit(rects, k).total_volume;
      const double merge = MergeSplit(rects, k).total_volume;
      EXPECT_GE(merge, dp - 1e-9) << "seed=" << seed << " k=" << k;
      // ... and is usually close (within 2x is a loose sanity bound).
      EXPECT_LE(merge, 2.0 * dp + 1e-9) << "seed=" << seed << " k=" << k;
    }
  }
}

TEST(MergeSplitTest, CutsAreSortedAndInRange) {
  const std::vector<Rect2D> rects = RandomRects(12, 64);
  const SplitResult result = MergeSplit(rects, 10);
  ASSERT_EQ(result.cuts.size(), 10u);
  for (size_t i = 0; i < result.cuts.size(); ++i) {
    EXPECT_GT(result.cuts[i], 0);
    EXPECT_LT(result.cuts[i], 64);
    if (i > 0) {
      EXPECT_LT(result.cuts[i - 1], result.cuts[i]);
    }
  }
}

TEST(MergeVolumeCurveTest, MonotoneAndConsistent) {
  const std::vector<Rect2D> rects = RandomRects(13, 40);
  const std::vector<double> curve = MergeVolumeCurve(rects, 39);
  ASSERT_EQ(curve.size(), 40u);
  for (size_t j = 1; j < curve.size(); ++j) {
    EXPECT_LE(curve[j], curve[j - 1] + 1e-12);
  }
  // Fully split = sum of per-instant areas.
  double singleton_volume = 0.0;
  for (const Rect2D& rect : rects) singleton_volume += rect.Area();
  EXPECT_NEAR(curve[39], singleton_volume, 1e-9);
  EXPECT_NEAR(curve[0], SplitVolume(rects, {}), 1e-9);
}

TEST(MergeVolumeCurveTest, DominatedByDpCurve) {
  for (uint64_t seed : {14u, 15u, 16u}) {
    const std::vector<Rect2D> rects = RandomRects(seed, 25);
    const std::vector<double> dp = DpVolumeCurve(rects, 24);
    const std::vector<double> merge = MergeVolumeCurve(rects, 24);
    ASSERT_EQ(dp.size(), merge.size());
    for (size_t j = 0; j < dp.size(); ++j) {
      EXPECT_GE(merge[j], dp[j] - 1e-9) << "seed=" << seed << " j=" << j;
    }
  }
}

TEST(VolumeCurveTest, GainAccessors) {
  VolumeCurve curve;
  curve.volume = {10.0, 6.0, 5.0, 4.5};
  EXPECT_EQ(curve.MaxSplits(), 3);
  EXPECT_DOUBLE_EQ(curve.VolumeAt(0), 10.0);
  EXPECT_DOUBLE_EQ(curve.VolumeAt(99), 4.5);  // saturates
  EXPECT_DOUBLE_EQ(curve.Gain(1), 4.0);
  EXPECT_DOUBLE_EQ(curve.Gain(3), 0.5);
  EXPECT_DOUBLE_EQ(curve.Gain(4), 0.0);
  EXPECT_DOUBLE_EQ(curve.Gain2(0), 5.0);
  EXPECT_DOUBLE_EQ(curve.Gain2(2), 0.5);
}

TEST(PiecewiseSplitTest, CutsAtTupleBoundaries) {
  std::vector<MovementTuple> tuples;
  auto make_tuple = [](Time a, Time b, double x) {
    MovementTuple tuple;
    tuple.interval = TimeInterval(a, b);
    tuple.center_x = Polynomial::Constant(x);
    tuple.center_y = Polynomial::Constant(0.5);
    tuple.extent_x = Polynomial::Constant(0.01);
    tuple.extent_y = Polynomial::Constant(0.01);
    return tuple;
  };
  tuples.push_back(make_tuple(10, 15, 0.1));
  tuples.push_back(make_tuple(15, 22, 0.5));
  tuples.push_back(make_tuple(22, 30, 0.9));
  const Trajectory trajectory(3, std::move(tuples));
  const SplitResult result = PiecewiseSplit(trajectory);
  EXPECT_EQ(result.cuts, (std::vector<int>{5, 12}));

  int64_t total_splits = 0;
  const std::vector<SegmentRecord> records =
      PiecewiseSplitAll({trajectory}, &total_splits);
  EXPECT_EQ(total_splits, 2);
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[0].box.interval, TimeInterval(10, 15));
  EXPECT_EQ(records[2].box.interval, TimeInterval(22, 30));
}

// --- GreedyMerger against the priority-queue oracle ---
//
// The reference merger: the same greedy algorithm on a
// std::priority_queue, with two per-segment versions instead of stamps.
// Equal merge costs are common (stationary objects, points, integer-grid
// moves), and which tied pair merges first decides the splits, so
// GreedyMerger must make exactly this merger's choices and produce
// bit-identical volumes.
class OracleMerger {
 public:
  explicit OracleMerger(const std::vector<Rect2D>& rects) {
    const int n = static_cast<int>(rects.size());
    for (int i = 0; i < n; ++i) {
      Segment seg;
      seg.lo = i;
      seg.hi = i;
      seg.mbr = rects[static_cast<size_t>(i)];
      seg.prev = i - 1;
      seg.next = i + 1 < n ? i + 1 : -1;
      segments_.push_back(seg);
      total_volume_ += seg.mbr.Area();
    }
    count_ = n;
    for (int i = 0; i + 1 < n; ++i) PushCandidate(i);
  }

  int count() const { return count_; }
  double total_volume() const { return total_volume_; }

  void MergeOnce() {
    while (true) {
      const Candidate top = heap_.top();
      heap_.pop();
      Segment& left = segments_[static_cast<size_t>(top.left)];
      if (!left.alive || left.version != top.left_version ||
          left.next != top.right) {
        continue;
      }
      Segment& right = segments_[static_cast<size_t>(top.right)];
      if (!right.alive || right.version != top.right_version) continue;
      total_volume_ += top.cost;
      left.hi = right.hi;
      left.mbr.ExpandToInclude(right.mbr);
      left.next = right.next;
      ++left.version;
      right.alive = false;
      if (left.next >= 0) {
        segments_[static_cast<size_t>(left.next)].prev = top.left;
        PushCandidate(top.left);
      }
      if (left.prev >= 0) PushCandidate(left.prev);
      --count_;
      return;
    }
  }

  std::vector<int> Cuts() const {
    std::vector<int> cuts;
    for (const Segment& seg : segments_) {
      if (seg.alive && seg.lo > 0) cuts.push_back(seg.lo);
    }
    std::sort(cuts.begin(), cuts.end());
    return cuts;
  }

 private:
  struct Segment {
    int lo = 0;
    int hi = 0;
    Rect2D mbr;
    int prev = -1;
    int next = -1;
    uint32_t version = 0;
    bool alive = true;

    double Volume() const {
      return mbr.Area() * static_cast<double>(hi - lo + 1);
    }
  };

  struct Candidate {
    double cost;
    int left;
    int right;
    uint32_t left_version;
    uint32_t right_version;

    bool operator>(const Candidate& other) const { return cost > other.cost; }
  };

  void PushCandidate(int left) {
    const Segment& a = segments_[static_cast<size_t>(left)];
    const Segment& b = segments_[static_cast<size_t>(a.next)];
    const double merged_volume = a.mbr.Union(b.mbr).Area() *
                                 static_cast<double>(b.hi - a.lo + 1);
    heap_.push(Candidate{merged_volume - a.Volume() - b.Volume(), left,
                         a.next, a.version, b.version});
  }

  std::vector<Segment> segments_;
  std::priority_queue<Candidate, std::vector<Candidate>,
                      std::greater<Candidate>>
      heap_;
  double total_volume_ = 0.0;
  int count_ = 0;
};

uint64_t Bits(double value) { return std::bit_cast<uint64_t>(value); }

// MergeVolumeCurve and MergeSplit at several split counts must equal the
// oracle bit for bit.
void ExpectSameAsOracle(const std::vector<Rect2D>& rects,
                        const std::string& label) {
  const int n = static_cast<int>(rects.size());
  OracleMerger curve_oracle(rects);
  std::vector<double> want_curve(static_cast<size_t>(n));
  want_curve[static_cast<size_t>(n) - 1] = curve_oracle.total_volume();
  while (curve_oracle.count() > 1) {
    curve_oracle.MergeOnce();
    want_curve[static_cast<size_t>(curve_oracle.count()) - 1] =
        curve_oracle.total_volume();
  }
  const std::vector<double> curve = MergeVolumeCurve(rects, n);
  ASSERT_EQ(curve.size(), want_curve.size()) << label;
  for (size_t j = 0; j < curve.size(); ++j) {
    ASSERT_EQ(Bits(curve[j]), Bits(want_curve[j])) << label << " j=" << j;
  }
  for (int k : {0, 1, 2, 3, n / 4, n / 2, n - 2, n - 1}) {
    if (k < 0) continue;
    OracleMerger oracle(rects);
    while (oracle.count() > std::min(k, n - 1) + 1) oracle.MergeOnce();
    const SplitResult split = MergeSplit(rects, k);
    ASSERT_EQ(split.cuts, oracle.Cuts()) << label << " k=" << k;
    ASSERT_EQ(Bits(split.total_volume), Bits(oracle.total_volume()))
        << label << " k=" << k;
  }
}

TEST(MergeOrderTest, StationaryObjectsTieEveryMerge) {
  // Every merge cost is exactly 0.
  for (int n : {2, 3, 5, 8, 17, 33, 64, 101}) {
    const std::vector<Rect2D> rects(static_cast<size_t>(n),
                                    Rect2D(3, 4, 5, 7));
    ExpectSameAsOracle(rects, "stationary n=" + std::to_string(n));
  }
}

TEST(MergeOrderTest, ConstantVelocityGridMovesTie) {
  // Integer positions and extents: equal-length runs cost exactly the
  // same wherever they sit.
  for (int n : {4, 9, 16, 31, 50, 97}) {
    for (int vx : {0, 1, 2}) {
      for (int vy : {0, 1, 3}) {
        std::vector<Rect2D> rects;
        for (int t = 0; t < n; ++t) {
          const double x = 10.0 + vx * t;
          const double y = -4.0 + vy * t;
          rects.emplace_back(x, y, x + 2, y + 1);
        }
        ExpectSameAsOracle(rects, "grid n=" + std::to_string(n) +
                                      " v=" + std::to_string(vx) + "," +
                                      std::to_string(vy));
      }
    }
  }
}

TEST(MergeOrderTest, MovingPointsHaveZeroAreas) {
  for (int n : {5, 20, 64}) {
    std::vector<Rect2D> horizontal;  // zero area everywhere: all costs 0
    std::vector<Rect2D> diagonal;    // zero-area instants, positive unions
    for (int t = 0; t < n; ++t) {
      const double x = 0.25 * t;
      horizontal.emplace_back(x, 1, x, 1);
      diagonal.emplace_back(x, 0.5 * (t % 7), x, 0.5 * (t % 7));
    }
    ExpectSameAsOracle(horizontal, "points n=" + std::to_string(n));
    ExpectSameAsOracle(diagonal, "diagonal points n=" + std::to_string(n));
  }
}

TEST(MergeOrderTest, GeneratedObjectsMatchOracle) {
  RandomDatasetConfig config;
  config.num_objects = 2000;
  config.seed = 2002;
  for (const Trajectory& object : GenerateRandomDataset(config)) {
    ExpectSameAsOracle(object.Sample(),
                       "object " + std::to_string(object.id()));
  }
}

TEST(MergeOrderTest, ReusedMergerMatchesFreshOne) {
  // One merger across objects of shrinking and growing lifetimes keeps no
  // state from the previous object.
  RandomDatasetConfig config;
  config.num_objects = 200;
  config.seed = 7;
  GreedyMerger merger;
  for (const Trajectory& object : GenerateRandomDataset(config)) {
    merger.Load(object);
    const std::vector<double> curve = merger.VolumeCurve(32);
    EXPECT_EQ(curve, MergeVolumeCurve(object.Sample(), 32));
    merger.Load(object);
    merger.MergeTo(4);
    EXPECT_EQ(merger.Cuts(), MergeSplit(object.Sample(), 3).cuts);
  }
}

// --- Pinned split-pipeline bytes ---
//
// A hand-made dataset on the integer grid (integer coefficients, integer
// extents, so exact cost ties are everywhere) runs through curves,
// LAGreedy, segment building (merge and DP) and a packed PPR-tree at 1
// and 3 threads. The CRC-32 of each stage's output must equal a recorded
// constant: a change in merge order, in record layout or in the replay
// fails here.

std::vector<Trajectory> GridObjects() {
  std::vector<Trajectory> objects;
  for (ObjectId id = 0; id < 150; ++id) {
    const Time start = static_cast<Time>((id * 7) % 60);
    const int tuples = 1 + static_cast<int>(id % 3);
    std::vector<MovementTuple> movement;
    Time t = start;
    double x = static_cast<double>((id * 13) % 50);
    double y = static_cast<double>((id * 29) % 50);
    for (int k = 0; k < tuples; ++k) {
      const Time length = 3 + static_cast<Time>((id * 5 + k * 11) % 25);
      const double vx = static_cast<double>(static_cast<int>((id + k) % 5)) - 2;
      const double vy =
          static_cast<double>(static_cast<int>((id * 3 + k) % 3)) - 1;
      MovementTuple tuple;
      tuple.interval = TimeInterval(t, t + length);
      tuple.center_x = Polynomial::Linear(x, vx);
      tuple.center_y = Polynomial::Linear(y, vy);
      tuple.extent_x = Polynomial::Constant(static_cast<double>(id % 4) * 2);
      tuple.extent_y = Polynomial::Constant(static_cast<double>(id % 3) * 2);
      movement.push_back(tuple);
      x += vx * static_cast<double>(length);
      y += vy * static_cast<double>(length);
      t += length;
    }
    objects.emplace_back(id, std::move(movement));
  }
  return objects;
}

class Crc {
 public:
  template <typename T>
  void Add(const T& value) {
    const auto* p = reinterpret_cast<const uint8_t*>(&value);
    bytes_.insert(bytes_.end(), p, p + sizeof(T));
  }
  void Add(const SegmentRecord& record) {
    Add(record.object);
    Add(record.box.rect.xlo);
    Add(record.box.rect.ylo);
    Add(record.box.rect.xhi);
    Add(record.box.rect.yhi);
    Add(record.box.interval.start);
    Add(record.box.interval.end);
  }
  uint32_t Value() const { return Crc32(bytes_.data(), bytes_.size()); }

 private:
  std::vector<uint8_t> bytes_;
};

uint32_t FileCrc(const std::string& path) {
  std::vector<uint8_t> bytes;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr) << path;
  if (f == nullptr) return 0;
  uint8_t chunk[4096];
  size_t n = 0;
  while ((n = std::fread(chunk, 1, sizeof(chunk), f)) > 0) {
    bytes.insert(bytes.end(), chunk, chunk + n);
  }
  std::fclose(f);
  return Crc32(bytes.data(), bytes.size());
}

TEST(PinnedSplitBytesTest, GridDatasetKeepsItsBytes) {
  const std::vector<Trajectory> objects = GridObjects();
  for (int threads : {1, 3}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const std::vector<VolumeCurve> curves =
        ComputeVolumeCurves(objects, 24, SplitMethod::kMerge, threads);
    Crc curve_crc;
    for (const VolumeCurve& curve : curves) {
      for (double volume : curve.volume) curve_crc.Add(volume);
    }
    EXPECT_EQ(curve_crc.Value(), 0xb47088deu);

    const Distribution dist = DistributeLAGreedy(curves, 225, threads);
    Crc split_crc;
    for (int splits : dist.splits) split_crc.Add(splits);
    EXPECT_EQ(split_crc.Value(), 0x8fb8178fu);

    const std::vector<SegmentRecord> merged =
        BuildSegments(objects, dist.splits, SplitMethod::kMerge, threads);
    Crc merge_crc;
    for (const SegmentRecord& record : merged) merge_crc.Add(record);
    EXPECT_EQ(merged.size(), 375u);
    EXPECT_EQ(merge_crc.Value(), 0xd28d8994u);

    const std::vector<SegmentRecord> optimal =
        BuildSegments(objects, dist.splits, SplitMethod::kDp, threads);
    Crc dp_crc;
    for (const SegmentRecord& record : optimal) dp_crc.Add(record);
    EXPECT_EQ(optimal.size(), merged.size());
    EXPECT_EQ(dp_crc.Value(), 0x2fa6ce88u);

    const std::string path = ::testing::TempDir() + "/pinned_split_" +
                             std::to_string(threads) + ".stsnap";
    const std::unique_ptr<PprTree> tree = BuildPprTree(merged);
    ASSERT_TRUE(tree->PackSnapshot(path).ok());
    EXPECT_EQ(FileCrc(path), 0x17211bd3u);
    std::remove(path.c_str());
  }
}

}  // namespace
}  // namespace stindex
