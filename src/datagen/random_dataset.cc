#include "datagen/random_dataset.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/check.h"
#include "util/random.h"

namespace stindex {
namespace {

// Applies x' = a * x + b to a center polynomial.
Polynomial AffineTransform(const Polynomial& poly, double a, double b) {
  Polynomial::Coefficients coefficients{};
  const std::span<const double> in = poly.coefficients();
  for (size_t i = 0; i < in.size(); ++i) coefficients[i] = in[i] * a;
  coefficients[0] += b;
  return Polynomial(coefficients);
}

// Random movement polynomial of the requested degree with the given start
// position, using per-instant velocity/acceleration scales small enough
// that normalization rarely has to shrink much.
Polynomial RandomMovement(Rng& rng, int degree, double start) {
  double velocity = 0.0, acceleration = 0.0;
  if (degree >= 1) velocity = rng.UniformDouble(-0.02, 0.02);
  if (degree >= 2) acceleration = rng.UniformDouble(-0.002, 0.002);
  return Polynomial({start, velocity, acceleration});
}

}  // namespace

std::vector<Trajectory> GenerateRandomDataset(
    const RandomDatasetConfig& config) {
  STINDEX_CHECK(config.num_objects > 0);
  STINDEX_CHECK(config.min_lifetime >= 1);
  STINDEX_CHECK(config.min_lifetime <= config.max_lifetime);
  STINDEX_CHECK(config.max_lifetime <= config.time_domain);
  STINDEX_CHECK(config.min_tuples >= 1 &&
                config.min_tuples <= config.max_tuples);
  STINDEX_CHECK(config.max_degree >= 1 &&
                config.max_degree <= Polynomial::kMaxDegree);
  // Zero extents are allowed: the moving-points special case the paper
  // cites ([20], [21]) flows through the same pipeline.
  STINDEX_CHECK(config.min_extent >= 0.0 &&
                config.min_extent <= config.max_extent);
  Rng rng(config.seed);

  std::vector<Trajectory> objects;
  objects.reserve(config.num_objects);
  for (size_t obj = 0; obj < config.num_objects; ++obj) {
    const Time lifetime =
        rng.UniformInt(config.min_lifetime, config.max_lifetime);
    const Time start = rng.UniformInt(0, config.time_domain - lifetime);

    // Choose tuple boundaries: at most one tuple per instant.
    const int tuples =
        static_cast<int>(rng.UniformInt(config.min_tuples,
                                        std::min<int64_t>(config.max_tuples,
                                                          lifetime)));
    std::vector<Time> boundaries = {start, start + lifetime};
    while (static_cast<int>(boundaries.size()) < tuples + 1) {
      const Time cut = rng.UniformInt(start + 1, start + lifetime - 1);
      if (std::find(boundaries.begin(), boundaries.end(), cut) ==
          boundaries.end()) {
        boundaries.push_back(cut);
      }
    }
    std::sort(boundaries.begin(), boundaries.end());

    const double extent_x =
        rng.UniformDouble(config.min_extent, config.max_extent);
    const double extent_y =
        rng.UniformDouble(config.min_extent, config.max_extent);

    // Build continuous movement: each tuple starts where the previous
    // ended.
    std::vector<MovementTuple> movement;
    movement.reserve(boundaries.size() - 1);
    double x = rng.NextDouble();
    double y = rng.NextDouble();
    for (size_t b = 0; b + 1 < boundaries.size(); ++b) {
      MovementTuple tuple;
      tuple.interval = TimeInterval(boundaries[b], boundaries[b + 1]);
      const int degree =
          static_cast<int>(rng.UniformInt(1, config.max_degree));
      tuple.center_x = RandomMovement(rng, degree, x);
      tuple.center_y = RandomMovement(rng, degree, y);
      if (config.changing_extents) {
        tuple.extent_x = Polynomial::Linear(
            extent_x, rng.UniformDouble(-1.0, 1.0) * extent_x /
                          static_cast<double>(lifetime));
        tuple.extent_y = Polynomial::Linear(
            extent_y, rng.UniformDouble(-1.0, 1.0) * extent_y /
                          static_cast<double>(lifetime));
      } else {
        tuple.extent_x = Polynomial::Constant(extent_x);
        tuple.extent_y = Polynomial::Constant(extent_y);
      }
      const double duration =
          static_cast<double>(tuple.interval.Duration());
      x = tuple.center_x.Evaluate(duration);
      y = tuple.center_y.Evaluate(duration);
      movement.push_back(tuple);
    }

    // Normalize: map the center bounding box into the unit square
    // (shrinking if the random walk drifted out, translating otherwise).
    Rect2D centers = Rect2D::Empty();
    for (const MovementTuple& tuple : movement) {
      for (Time t = tuple.interval.start; t < tuple.interval.end; ++t) {
        centers.ExpandToInclude(tuple.RectAt(t).Center());
      }
    }
    auto normalize_axis = [&rng](double lo, double hi, double margin,
                                 double* a, double* b) {
      const double available = 1.0 - 2.0 * margin;
      const double range = hi - lo;
      if (range > available) {
        *a = available / range;
        *b = margin - lo * (*a);
      } else {
        *a = 1.0;
        *b = margin - lo + rng.UniformDouble(0.0, available - range);
      }
    };
    double ax, bx, ay, by;
    normalize_axis(centers.xlo, centers.xhi, extent_x / 2.0, &ax, &bx);
    normalize_axis(centers.ylo, centers.yhi, extent_y / 2.0, &ay, &by);
    for (MovementTuple& tuple : movement) {
      tuple.center_x = AffineTransform(tuple.center_x, ax, bx);
      tuple.center_y = AffineTransform(tuple.center_y, ay, by);
    }
    objects.emplace_back(static_cast<ObjectId>(obj), std::move(movement));
    STINDEX_DCHECK(objects.back().Validate().ok());
  }
  return objects;
}

DatasetStats ComputeDatasetStats(const std::vector<Trajectory>& objects,
                                 Time time_domain) {
  DatasetStats stats;
  stats.total_objects = objects.size();
  if (objects.empty()) return stats;
  int64_t total_alive_instants = 0;
  int64_t total_lifetime = 0;
  double min_extent = std::numeric_limits<double>::infinity();
  double max_extent = 0.0;
  for (const Trajectory& object : objects) {
    total_alive_instants += object.NumInstants();
    total_lifetime += object.NumInstants();
    stats.total_segments += object.tuples().size();
    const Rect2D rect = object.RectAt(object.Lifetime().start);
    min_extent = std::min({min_extent, rect.Width(), rect.Height()});
    max_extent = std::max({max_extent, rect.Width(), rect.Height()});
  }
  stats.avg_objects_per_instant =
      static_cast<double>(total_alive_instants) /
      static_cast<double>(time_domain);
  stats.avg_lifetime = static_cast<double>(total_lifetime) /
                       static_cast<double>(objects.size());
  stats.min_extent = min_extent;
  stats.max_extent = max_extent;
  return stats;
}

}  // namespace stindex
