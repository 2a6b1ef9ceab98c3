#include <gtest/gtest.h>

#include <cstdio>
#include <set>
#include <string>

#include "datagen/clustered_dataset.h"
#include "datagen/query_gen.h"
#include "datagen/railway.h"
#include "datagen/random_dataset.h"
#include "io/csv.h"
#include "proc_status.h"
#include "storage/page_codec.h"
#include "trajectory/fit.h"
#include "util/random.h"

namespace stindex {
namespace {

// A movement tuple owns no heap memory, so a dataset costs little more
// than 112 bytes a tuple: each trajectory's one allocation of tuples and
// its entry in the dataset's vector. First in the file, so no heap that
// earlier tests freed absorbs the growth.
TEST(RandomDatasetTest, TuplesHoldNoHeapMemory) {
  if (kHeapRssSkipReason != nullptr) GTEST_SKIP() << kHeapRssSkipReason;
  RandomDatasetConfig config;
  config.num_objects = 20000;
  config.seed = 7;
  const int64_t before = ProcStatusBytes("RssAnon");
  ASSERT_GT(before, 0);
  const std::vector<Trajectory> objects = GenerateRandomDataset(config);
  const int64_t after = ProcStatusBytes("RssAnon");
  size_t tuples = 0;
  for (const Trajectory& object : objects) tuples += object.tuples().size();
  ASSERT_EQ(tuples, 105543u);
  EXPECT_LT(static_cast<double>(after - before) / static_cast<double>(tuples),
            160.0)
      << "RssAnon " << before << " -> " << after << " bytes";
}

TEST(RandomDatasetTest, RespectsCardinalityAndIds) {
  RandomDatasetConfig config;
  config.num_objects = 500;
  const std::vector<Trajectory> objects = GenerateRandomDataset(config);
  ASSERT_EQ(objects.size(), 500u);
  for (size_t i = 0; i < objects.size(); ++i) {
    EXPECT_EQ(objects[i].id(), i);
    EXPECT_TRUE(objects[i].Validate().ok());
  }
}

TEST(RandomDatasetTest, LifetimesWithinConfiguredBounds) {
  RandomDatasetConfig config;
  config.num_objects = 400;
  config.min_lifetime = 5;
  config.max_lifetime = 60;
  const std::vector<Trajectory> objects = GenerateRandomDataset(config);
  for (const Trajectory& object : objects) {
    const TimeInterval life = object.Lifetime();
    EXPECT_GE(life.Duration(), 5);
    EXPECT_LE(life.Duration(), 60);
    EXPECT_GE(life.start, 0);
    EXPECT_LE(life.end, config.time_domain);
  }
}

TEST(RandomDatasetTest, TupleCountsWithinBounds) {
  RandomDatasetConfig config;
  config.num_objects = 300;
  const std::vector<Trajectory> objects = GenerateRandomDataset(config);
  for (const Trajectory& object : objects) {
    EXPECT_GE(object.tuples().size(), 1u);
    EXPECT_LE(object.tuples().size(), 10u);
    EXPECT_LE(static_cast<int64_t>(object.tuples().size()),
              object.NumInstants());
  }
}

TEST(RandomDatasetTest, CentersNormalizedToUnitSquare) {
  RandomDatasetConfig config;
  config.num_objects = 300;
  const std::vector<Trajectory> objects = GenerateRandomDataset(config);
  for (const Trajectory& object : objects) {
    const TimeInterval life = object.Lifetime();
    for (Time t = life.start; t < life.end; ++t) {
      const Point2D center = object.RectAt(t).Center();
      EXPECT_GE(center.x, -1e-9);
      EXPECT_LE(center.x, 1.0 + 1e-9);
      EXPECT_GE(center.y, -1e-9);
      EXPECT_LE(center.y, 1.0 + 1e-9);
    }
  }
}

TEST(RandomDatasetTest, ExtentsWithinConfiguredRange) {
  RandomDatasetConfig config;
  config.num_objects = 200;
  const std::vector<Trajectory> objects = GenerateRandomDataset(config);
  for (const Trajectory& object : objects) {
    const Rect2D rect = object.RectAt(object.Lifetime().start);
    EXPECT_GE(rect.Width(), config.min_extent - 1e-9);
    EXPECT_LE(rect.Width(), config.max_extent + 1e-9);
    EXPECT_GE(rect.Height(), config.min_extent - 1e-9);
    EXPECT_LE(rect.Height(), config.max_extent + 1e-9);
  }
}

TEST(RandomDatasetTest, DeterministicForSeed) {
  RandomDatasetConfig config;
  config.num_objects = 50;
  const std::vector<Trajectory> a = GenerateRandomDataset(config);
  const std::vector<Trajectory> b = GenerateRandomDataset(config);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].Lifetime(), b[i].Lifetime());
    EXPECT_EQ(a[i].RectAt(a[i].Lifetime().start),
              b[i].RectAt(b[i].Lifetime().start));
  }
  config.seed = 43;
  const std::vector<Trajectory> c = GenerateRandomDataset(config);
  int differing = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!(a[i].Lifetime() == c[i].Lifetime())) ++differing;
  }
  EXPECT_GT(differing, 0);
}

TEST(RandomDatasetTest, ChangingExtentsStayValid) {
  RandomDatasetConfig config;
  config.num_objects = 100;
  config.changing_extents = true;
  const std::vector<Trajectory> objects = GenerateRandomDataset(config);
  for (const Trajectory& object : objects) {
    for (const Rect2D& rect : object.Sample()) {
      EXPECT_TRUE(rect.IsValid());
    }
  }
}

TEST(RandomDatasetDeathTest, DegreeAboveTwoDies) {
  RandomDatasetConfig config;
  config.num_objects = 10;
  config.max_degree = 3;
  EXPECT_DEATH(GenerateRandomDataset(config), "max_degree");
}

TEST(DatasetStatsTest, MatchesHandComputation) {
  RandomDatasetConfig config;
  config.num_objects = 250;
  const std::vector<Trajectory> objects = GenerateRandomDataset(config);
  const DatasetStats stats = ComputeDatasetStats(objects, config.time_domain);
  EXPECT_EQ(stats.total_objects, 250u);
  int64_t instants = 0;
  size_t segments = 0;
  for (const Trajectory& object : objects) {
    instants += object.NumInstants();
    segments += object.tuples().size();
  }
  EXPECT_NEAR(stats.avg_objects_per_instant,
              static_cast<double>(instants) / 1000.0, 1e-9);
  EXPECT_EQ(stats.total_segments, segments);
  EXPECT_NEAR(stats.avg_lifetime,
              static_cast<double>(instants) / 250.0, 1e-9);
  // Table I shape: avg lifetime ~50 for lifetimes U[1, 100].
  EXPECT_GT(stats.avg_lifetime, 35.0);
  EXPECT_LT(stats.avg_lifetime, 65.0);
}

TEST(RailwayMapTest, PaperCardinalities) {
  const RailwayMap map = BuildRailwayMap();
  EXPECT_EQ(map.cities.size(), 22u);
  EXPECT_EQ(map.tracks.size(), 51u);
  // Valid endpoints, no self loops.
  std::set<std::pair<int, int>> seen;
  for (const Track& track : map.tracks) {
    EXPECT_GE(track.from, 0);
    EXPECT_LT(track.from, 22);
    EXPECT_GE(track.to, 0);
    EXPECT_LT(track.to, 22);
    EXPECT_NE(track.from, track.to);
    auto key = std::minmax(track.from, track.to);
    EXPECT_TRUE(seen.emplace(key.first, key.second).second)
        << "duplicate track " << track.from << "-" << track.to;
  }
  // Every city is connected.
  for (int c = 0; c < 22; ++c) {
    EXPECT_FALSE(map.Neighbors(c).empty()) << map.cities[c].name;
  }
}

TEST(RailwayMapTest, CitiesInsideUnitSquare) {
  const RailwayMap map = BuildRailwayMap();
  for (const City& city : map.cities) {
    EXPECT_GE(city.position.x, 0.0);
    EXPECT_LE(city.position.x, 1.0);
    EXPECT_GE(city.position.y, 0.0);
    EXPECT_LE(city.position.y, 1.0);
  }
}

TEST(RailwayDatasetTest, TrainsHonorTravelBudget) {
  RailwayDatasetConfig config;
  config.num_trains = 400;
  const std::vector<Trajectory> trains = GenerateRailwayDataset(config);
  ASSERT_EQ(trains.size(), 400u);
  const Time max_instants = static_cast<Time>(
      config.max_travel_hours / config.hours_per_instant) + 1;
  for (const Trajectory& train : trains) {
    EXPECT_TRUE(train.Validate().ok());
    EXPECT_LE(train.NumInstants(), max_instants);
    EXPECT_GE(train.Lifetime().start, 0);
    EXPECT_LE(train.Lifetime().end, config.time_domain);
  }
}

TEST(RailwayDatasetTest, ShortLifetimesMatchTableOne) {
  RailwayDatasetConfig config;
  config.num_trains = 1000;
  const std::vector<Trajectory> trains = GenerateRailwayDataset(config);
  const DatasetStats stats = ComputeDatasetStats(trains, config.time_domain);
  // Table I: average train lifetime ~18 instants — an order of magnitude
  // below the random datasets' 50.
  EXPECT_GT(stats.avg_lifetime, 5.0);
  EXPECT_LT(stats.avg_lifetime, 30.0);
}

TEST(RailwayDatasetTest, TrainsMoveAlongTracks) {
  RailwayDatasetConfig config;
  config.num_trains = 50;
  const RailwayMap map = BuildRailwayMap();
  const std::vector<Trajectory> trains = GenerateRailwayDataset(config);
  for (const Trajectory& train : trains) {
    // Tuple endpoints must be at city positions.
    for (const MovementTuple& tuple : train.tuples()) {
      const double x0 = tuple.center_x.Evaluate(0.0);
      const double y0 = tuple.center_y.Evaluate(0.0);
      bool at_city = false;
      for (const City& city : map.cities) {
        if (std::abs(city.position.x - x0) < 1e-9 &&
            std::abs(city.position.y - y0) < 1e-9) {
          at_city = true;
          break;
        }
      }
      EXPECT_TRUE(at_city) << "tuple does not start at a city";
    }
  }
}

TEST(ClusteredDatasetTest, ObjectsStayNearTheirCluster) {
  ClusteredDatasetConfig config;
  config.num_objects = 300;
  config.num_clusters = 4;
  config.cluster_stddev = 0.03;
  const std::vector<Trajectory> objects = GenerateClusteredDataset(config);
  ASSERT_EQ(objects.size(), 300u);
  size_t small_span = 0;
  for (const Trajectory& object : objects) {
    EXPECT_TRUE(object.Validate().ok());
    const Rect2D mbr = object.FullBox().rect;
    // All positions stay inside the unit square...
    EXPECT_GE(mbr.xlo, -1e-9);
    EXPECT_LE(mbr.xhi, 1.0 + 1e-9);
    // ... and most objects roam only a small patch around their cluster.
    if (mbr.Width() < 0.3 && mbr.Height() < 0.3) ++small_span;
  }
  EXPECT_GT(small_span, objects.size() * 9 / 10);
}

TEST(ClusteredDatasetTest, SkewIsVisibleInSpatialDensity) {
  ClusteredDatasetConfig config;
  config.num_objects = 1000;
  config.num_clusters = 3;
  const std::vector<Trajectory> objects = GenerateClusteredDataset(config);
  // Count objects starting in each cell of a 4x4 grid; skewed data puts
  // most mass in few cells, unlike the uniform generator.
  int cells[16] = {};
  for (const Trajectory& object : objects) {
    const Point2D p = object.RectAt(object.Lifetime().start).Center();
    const int cx = std::min(3, static_cast<int>(p.x * 4));
    const int cy = std::min(3, static_cast<int>(p.y * 4));
    ++cells[cy * 4 + cx];
  }
  int top3 = 0;
  std::sort(std::begin(cells), std::end(cells), std::greater<int>());
  for (int i = 0; i < 3; ++i) top3 += cells[i];
  EXPECT_GT(top3, 500);  // >half the mass in 3 of 16 cells
}

TEST(RngTest, GaussianMoments) {
  Rng rng(31);
  double sum = 0.0, sum2 = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double value = rng.Gaussian(2.0, 0.5);
    sum += value;
    sum2 += value * value;
  }
  const double mean = sum / n;
  const double variance = sum2 / n - mean * mean;
  EXPECT_NEAR(mean, 2.0, 0.02);
  EXPECT_NEAR(variance, 0.25, 0.02);
}

TEST(QueryGenTest, SnapshotSetsHaveUnitDuration) {
  for (const QuerySetConfig& config :
       {TinySnapshotSet(), SmallSnapshotSet(), MixedSnapshotSet(),
        LargeSnapshotSet()}) {
    const std::vector<STQuery> queries = GenerateQuerySet(config);
    EXPECT_EQ(queries.size(), 1000u) << config.name;
    for (const STQuery& query : queries) {
      EXPECT_TRUE(query.IsSnapshot()) << config.name;
      EXPECT_GE(query.range.start, 0);
      EXPECT_LT(query.range.end, 1001);
    }
  }
}

TEST(QueryGenTest, RangeSetsHaveConfiguredDurations) {
  const std::vector<STQuery> small = GenerateQuerySet(SmallRangeSet());
  for (const STQuery& query : small) {
    EXPECT_GE(query.range.Duration(), 1);
    EXPECT_LE(query.range.Duration(), 10);
  }
  const std::vector<STQuery> medium = GenerateQuerySet(MediumRangeSet());
  for (const STQuery& query : medium) {
    EXPECT_GE(query.range.Duration(), 10);
    EXPECT_LE(query.range.Duration(), 50);
  }
}

TEST(QueryGenTest, ExtentsWithinConfiguredFractions) {
  const std::vector<STQuery> queries = GenerateQuerySet(SmallSnapshotSet());
  for (const STQuery& query : queries) {
    EXPECT_GE(query.area.Width(), 0.001 - 1e-12);
    EXPECT_LE(query.area.Width(), 0.01 + 1e-12);
    EXPECT_GE(query.area.Height(), 0.001 - 1e-12);
    EXPECT_LE(query.area.Height(), 0.01 + 1e-12);
    // Window inside the unit square.
    EXPECT_GE(query.area.xlo, -1e-12);
    EXPECT_LE(query.area.xhi, 1.0 + 1e-12);
  }
}

TEST(QueryGenTest, DistinctSetsUseDistinctSeeds) {
  const std::vector<STQuery> a = GenerateQuerySet(SmallSnapshotSet());
  const std::vector<STQuery> b = GenerateQuerySet(MixedSnapshotSet());
  int identical = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].range.start == b[i].range.start) ++identical;
  }
  EXPECT_LT(identical, 50);
}


// CRC-32 of every rect Sample() gives for `objects`, in order.
uint32_t SampleCrc(const std::vector<Trajectory>& objects) {
  std::vector<uint8_t> bytes;
  for (const Trajectory& object : objects) {
    for (const Rect2D& rect : object.Sample()) {
      for (const double value : {rect.xlo, rect.ylo, rect.xhi, rect.yhi}) {
        const auto* p = reinterpret_cast<const uint8_t*>(&value);
        bytes.insert(bytes.end(), p, p + sizeof(value));
      }
    }
  }
  return Crc32(bytes.data(), bytes.size());
}

RandomDatasetConfig PinnedRandomConfig(bool changing_extents) {
  RandomDatasetConfig config;
  config.num_objects = 2000;
  config.seed = 42;
  config.changing_extents = changing_extents;
  return config;
}

// The generators' and the fit's floats, bit for bit: every sampled rect
// of these datasets keeps its CRC when polynomials change representation.
TEST(PinnedDatasetTest, RandomDatasetKeepsItsRects) {
  EXPECT_EQ(SampleCrc(GenerateRandomDataset(PinnedRandomConfig(false))),
            0x95915040u);
  EXPECT_EQ(SampleCrc(GenerateRandomDataset(PinnedRandomConfig(true))),
            0x0b9b63a1u);
}

TEST(PinnedDatasetTest, ClusteredAndRailwayDatasetsKeepTheirRects) {
  ClusteredDatasetConfig clustered;
  clustered.num_objects = 2000;
  EXPECT_EQ(SampleCrc(GenerateClusteredDataset(clustered)), 0x8b870c9bu);
  RailwayDatasetConfig railway;
  railway.num_trains = 2000;
  EXPECT_EQ(SampleCrc(GenerateRailwayDataset(railway)), 0x351155b6u);
}

TEST(PinnedDatasetTest, FittedTrajectoryKeepsItsRects) {
  Rng rng(95);
  std::vector<RawObservation> obs;
  double x = 0.5, y = 0.5, vx = 0.0;
  for (int i = 0; i < 400; ++i) {
    vx += rng.UniformDouble(-0.0004, 0.0004);
    x += vx;
    y += rng.UniformDouble(-0.003, 0.003);
    RawObservation o;
    o.t = 50 + i;
    o.center = Point2D(x, y);
    o.extent_x = 0.02 + 0.00005 * i + rng.UniformDouble(-0.0005, 0.0005);
    o.extent_y = 0.01;
    obs.push_back(o);
  }
  FitOptions options;
  options.max_error = 0.003;
  Result<Trajectory> fitted = FitTrajectory(3, obs, options);
  ASSERT_TRUE(fitted.ok()) << fitted.status().ToString();
  EXPECT_EQ(fitted.value().tuples().size(), 23u);
  EXPECT_EQ(SampleCrc({fitted.value()}), 0x2d36437au);
}

TEST(PinnedDatasetTest, CsvRoundTripKeepsTheRects) {
  const std::vector<Trajectory> objects =
      GenerateRandomDataset(PinnedRandomConfig(true));
  const std::string path = ::testing::TempDir() + "/pinned_dataset.csv";
  ASSERT_TRUE(WriteTrajectoriesCsv(path, objects).ok());
  Result<std::vector<Trajectory>> read = ReadTrajectoriesCsv(path);
  std::remove(path.c_str());
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(SampleCrc(read.value()), 0x0b9b63a1u);
}

}  // namespace
}  // namespace stindex
