#include "datagen/clustered_dataset.h"

#include <algorithm>

#include "util/check.h"
#include "util/random.h"

namespace stindex {
namespace {

double Clamp01(double value, double margin) {
  return std::min(1.0 - margin, std::max(margin, value));
}

}  // namespace

std::vector<Trajectory> GenerateClusteredDataset(
    const ClusteredDatasetConfig& config) {
  STINDEX_CHECK(config.num_objects > 0);
  STINDEX_CHECK(config.num_clusters >= 1);
  STINDEX_CHECK(config.min_lifetime >= 1 &&
                config.min_lifetime <= config.max_lifetime);
  STINDEX_CHECK(config.max_lifetime <= config.time_domain);
  STINDEX_CHECK(config.min_waypoints >= 1 &&
                config.min_waypoints <= config.max_waypoints);
  Rng rng(config.seed);

  // Cluster centers away from the borders.
  std::vector<Point2D> centers;
  for (int c = 0; c < config.num_clusters; ++c) {
    centers.emplace_back(rng.UniformDouble(0.15, 0.85),
                         rng.UniformDouble(0.15, 0.85));
  }

  std::vector<Trajectory> objects;
  objects.reserve(config.num_objects);
  for (size_t id = 0; id < config.num_objects; ++id) {
    const Point2D& home =
        centers[static_cast<size_t>(rng.UniformInt(
            0, config.num_clusters - 1))];
    const Time lifetime =
        rng.UniformInt(config.min_lifetime, config.max_lifetime);
    const Time start = rng.UniformInt(0, config.time_domain - lifetime);
    const double extent =
        rng.UniformDouble(config.min_extent, config.max_extent);
    const double margin = extent / 2.0;

    auto waypoint = [&]() {
      return Point2D(
          Clamp01(rng.Gaussian(home.x, config.cluster_stddev), margin),
          Clamp01(rng.Gaussian(home.y, config.cluster_stddev), margin));
    };

    // Piecewise-linear legs between waypoints near the home cluster.
    const int legs = static_cast<int>(rng.UniformInt(
        config.min_waypoints,
        std::min<int64_t>(config.max_waypoints, lifetime)));
    std::vector<Time> boundaries = {start, start + lifetime};
    while (static_cast<int>(boundaries.size()) < legs + 1) {
      const Time cut = rng.UniformInt(start + 1, start + lifetime - 1);
      if (std::find(boundaries.begin(), boundaries.end(), cut) ==
          boundaries.end()) {
        boundaries.push_back(cut);
      }
    }
    std::sort(boundaries.begin(), boundaries.end());

    std::vector<MovementTuple> movement;
    movement.reserve(boundaries.size() - 1);
    Point2D at = waypoint();
    for (size_t b = 0; b + 1 < boundaries.size(); ++b) {
      const Point2D next = waypoint();
      MovementTuple tuple;
      tuple.interval = TimeInterval(boundaries[b], boundaries[b + 1]);
      const double duration = static_cast<double>(tuple.interval.Duration());
      tuple.center_x = Polynomial::Linear(at.x, (next.x - at.x) / duration);
      tuple.center_y = Polynomial::Linear(at.y, (next.y - at.y) / duration);
      tuple.extent_x = Polynomial::Constant(extent);
      tuple.extent_y = Polynomial::Constant(extent);
      movement.push_back(std::move(tuple));
      at = next;
    }
    objects.emplace_back(static_cast<ObjectId>(id), std::move(movement));
    STINDEX_DCHECK(objects.back().Validate().ok());
  }
  return objects;
}

}  // namespace stindex
