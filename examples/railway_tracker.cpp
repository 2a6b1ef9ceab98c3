// Railway tracker: the paper's motivating skewed workload as an
// application. Generates a day of train traffic on the synthetic CA/NY
// railway map, builds a split PPR-tree over it, and answers the kinds of
// questions a dispatcher's dashboard would ask about the past: which
// trains were near a city at a given time, and which passed through a
// corridor during a time window.
#include <cstdio>
#include <set>

#include "core/distribute.h"
#include "core/split_pipeline.h"
#include "datagen/railway.h"
#include "pprtree/ppr_tree.h"

using namespace stindex;

int main() {
  // A day of traffic: 2000 trains on the 22-city / 51-track map.
  RailwayDatasetConfig config;
  config.num_trains = 2000;
  config.seed = 2026;
  const std::vector<Trajectory> trains = GenerateRailwayDataset(config);
  const RailwayMap map = BuildRailwayMap();
  std::printf("generated %zu trains over %lld instants (%.1f h each)\n",
              trains.size(), static_cast<long long>(config.time_domain),
              config.hours_per_instant);

  // Split with a 100% budget and index.
  const std::vector<VolumeCurve> curves =
      ComputeVolumeCurves(trains, 64, SplitMethod::kMerge);
  const Distribution dist =
      DistributeLAGreedy(curves, static_cast<int64_t>(trains.size()));
  const std::vector<SegmentRecord> records =
      BuildSegments(trains, dist.splits, SplitMethod::kMerge);
  std::unique_ptr<PprTree> index = BuildPprTree(records);
  std::printf("indexed %zu segments in %zu pages across %zu eras\n\n",
              records.size(), index->PageCount(), index->NumRoots());

  // Dashboard question 1: which trains were within ~60 miles of
  // Sacramento at instant 500?
  const Point2D sacramento = map.cities[0].position;
  const double radius = 60.0 / map.map_width_miles;
  const Rect2D near_sac(sacramento.x - radius, sacramento.y - radius,
                        sacramento.x + radius, sacramento.y + radius);
  std::vector<PprDataId> hits;
  index->ResetQueryState();
  index->SnapshotQuery(near_sac, 500, &hits);
  std::set<ObjectId> train_ids;
  for (PprDataId id : hits) train_ids.insert(records[id].object);
  std::printf("trains near Sacramento at t=500: %zu (%llu disk accesses)\n",
              train_ids.size(),
              static_cast<unsigned long long>(index->stats().misses));

  // Dashboard question 2: traffic through the Denver corridor during
  // instants [400, 440) — an interval (small range) query.
  const Point2D denver = map.cities[19].position;
  const Rect2D corridor(denver.x - radius, denver.y - radius,
                        denver.x + radius, denver.y + radius);
  index->ResetQueryState();
  index->IntervalQuery(corridor, TimeInterval(400, 440), &hits);
  train_ids.clear();
  for (PprDataId id : hits) train_ids.insert(records[id].object);
  std::printf(
      "trains through the Denver corridor in [400,440): %zu (%llu disk "
      "accesses)\n",
      train_ids.size(),
      static_cast<unsigned long long>(index->stats().misses));

  // Dashboard question 3: occupancy of downtown NYC over a day slice,
  // one snapshot query every 10 instants.
  const Point2D nyc = map.cities[16].position;
  const Rect2D downtown(nyc.x - radius, nyc.y - radius, nyc.x + radius,
                        nyc.y + radius);
  std::printf("\nNYC area occupancy, instants 480..590 (segment counts "
              "of snapshot queries):\n");
  for (Time t = 480; t < 590; t += 10) {
    index->SnapshotQuery(downtown, t, &hits);
    std::printf("  t=%3lld: %zu trains\n", static_cast<long long>(t),
                hits.size());
  }
  return 0;
}
