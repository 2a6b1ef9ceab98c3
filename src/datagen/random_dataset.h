#ifndef STINDEX_DATAGEN_RANDOM_DATASET_H_
#define STINDEX_DATAGEN_RANDOM_DATASET_H_

#include <cstdint>
#include <vector>

#include "trajectory/trajectory.h"

namespace stindex {

// Parameters of the paper's uniform "random" datasets (Section V,
// Table I): moving rectangles in the unit square over 1000 discrete
// instants, lifetime U[1, 100], movements made of 1..10 polynomial tuples
// of degree 1 or 2, rectangle extents 0.1%..1% of the space side.
struct RandomDatasetConfig {
  size_t num_objects = 10000;
  // Instants are 0 .. time_domain - 1.
  Time time_domain = 1000;
  Time min_lifetime = 1;
  Time max_lifetime = 100;
  int min_tuples = 1;
  int max_tuples = 10;
  // Movement polynomial degree is chosen uniformly in [1, max_degree];
  // max_degree is at most Polynomial::kMaxDegree (CHECKed).
  int max_degree = 2;
  // Rectangle extents as a fraction of the unit-square side.
  double min_extent = 0.001;
  double max_extent = 0.01;
  // When true, extents also change linearly within each tuple (the
  // shape-changing objects of Figure 6); the paper's random datasets use
  // constant extents.
  bool changing_extents = false;
  uint64_t seed = 42;
};

// Generates the dataset. Object i has id i. All trajectories are
// normalized so rectangle centers stay inside the unit square.
std::vector<Trajectory> GenerateRandomDataset(const RandomDatasetConfig&);

// Dataset statistics as reported in Table I.
struct DatasetStats {
  size_t total_objects = 0;
  double avg_objects_per_instant = 0.0;
  // Total number of movement tuples ("segments" in Table I).
  size_t total_segments = 0;
  double avg_lifetime = 0.0;
  double min_extent = 0.0;
  double max_extent = 0.0;
};

DatasetStats ComputeDatasetStats(const std::vector<Trajectory>& objects,
                                 Time time_domain);

}  // namespace stindex

#endif  // STINDEX_DATAGEN_RANDOM_DATASET_H_
