#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "core/split_pipeline.h"
#include "datagen/random_dataset.h"
#include "hybrid/mv3r_index.h"
#include "util/random.h"

namespace stindex {
namespace {

std::set<uint64_t> ScanQuery(const std::vector<SegmentRecord>& records,
                             const STQuery& query) {
  std::set<uint64_t> hits;
  for (size_t i = 0; i < records.size(); ++i) {
    if (records[i].box.interval.Intersects(query.range) &&
        records[i].box.rect.Intersects(query.area)) {
      hits.insert(i);
    }
  }
  return hits;
}

std::vector<SegmentRecord> MakeRecords(size_t n) {
  RandomDatasetConfig config;
  config.num_objects = n;
  config.seed = 91;
  const std::vector<Trajectory> objects = GenerateRandomDataset(config);
  const std::vector<VolumeCurve> curves =
      ComputeVolumeCurves(objects, 64, SplitMethod::kMerge);
  const Distribution dist =
      DistributeLAGreedy(curves, static_cast<int64_t>(n));
  return BuildSegments(objects, dist.splits, SplitMethod::kMerge);
}

TEST(Mv3rTest, RoutingByDuration) {
  const std::vector<SegmentRecord> records = MakeRecords(200);
  Mv3rConfig config;
  config.long_query_threshold = 16;
  Mv3rIndex index(records, 1000, config);

  STQuery snapshot;
  snapshot.area = Rect2D(0.2, 0.2, 0.4, 0.4);
  snapshot.range = TimeInterval(100, 101);
  EXPECT_FALSE(index.RoutesToAuxiliary(snapshot));

  STQuery medium;
  medium.area = snapshot.area;
  medium.range = TimeInterval(100, 140);
  EXPECT_TRUE(index.RoutesToAuxiliary(medium));

  STQuery boundary;
  boundary.area = snapshot.area;
  boundary.range = TimeInterval(100, 116);  // duration exactly 16
  EXPECT_TRUE(index.RoutesToAuxiliary(boundary));
}

TEST(Mv3rTest, BothPathsMatchScan) {
  const std::vector<SegmentRecord> records = MakeRecords(500);
  Mv3rIndex index(records, 1000);

  Rng rng(92);
  std::vector<uint64_t> results;
  for (int q = 0; q < 60; ++q) {
    STQuery query;
    const double x = rng.UniformDouble(0, 0.8);
    const double y = rng.UniformDouble(0, 0.8);
    query.area = Rect2D(x, y, x + rng.UniformDouble(0.01, 0.15),
                        y + rng.UniformDouble(0.01, 0.15));
    // Mix of short and long durations so both members get exercised.
    const Time duration = q % 2 == 0 ? rng.UniformInt(1, 10)
                                     : rng.UniformInt(30, 120);
    const Time start = rng.UniformInt(0, 999 - duration);
    query.range = TimeInterval(start, start + duration);

    index.Query(query, &results);
    const std::set<uint64_t> got(results.begin(), results.end());
    EXPECT_EQ(got, ScanQuery(records, query)) << "query " << q;
    EXPECT_EQ(got.size(), results.size()) << "duplicates in query " << q;
  }
}

TEST(Mv3rTest, AuxiliaryHelpsLongIntervals) {
  // For long interval queries the hybrid must not be slower than the pure
  // PPR-tree answering the same query.
  const std::vector<SegmentRecord> records = MakeRecords(2000);
  Mv3rIndex index(records, 1000);

  Rng rng(93);
  uint64_t hybrid_io = 0;
  uint64_t ppr_io = 0;
  std::vector<uint64_t> results;
  std::vector<PprDataId> ppr_results;
  for (int q = 0; q < 40; ++q) {
    STQuery query;
    const double x = rng.UniformDouble(0, 0.9);
    const double y = rng.UniformDouble(0, 0.9);
    query.area = Rect2D(x, y, x + 0.01, y + 0.01);
    const Time start = rng.UniformInt(0, 799);
    query.range = TimeInterval(start, start + 200);

    index.Query(query, &results);
    hybrid_io += index.LastQueryMisses();

    index.ppr().ResetQueryState();
    index.ppr().IntervalQuery(query.area, query.range, &ppr_results);
    ppr_io += index.ppr().stats().misses;
  }
  EXPECT_LT(hybrid_io, ppr_io);
}

}  // namespace
}  // namespace stindex
