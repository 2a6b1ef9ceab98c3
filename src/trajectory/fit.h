#ifndef STINDEX_TRAJECTORY_FIT_H_
#define STINDEX_TRAJECTORY_FIT_H_

#include <vector>

#include "geometry/point.h"
#include "trajectory/trajectory.h"
#include "util/status.h"

namespace stindex {

// One raw observation of an object (e.g. a GPS fix plus measured size) at
// a discrete instant. Observations of an object must be per-instant and
// contiguous in time.
struct RawObservation {
  Time t = 0;
  Point2D center;
  double extent_x = 0.0;
  double extent_y = 0.0;
};

struct FitOptions {
  // Maximum degree of the fitted center polynomials, 0..kMaxDegree (paper
  // Section II-A: bounding the degree keeps the representation compact
  // while most common movements are approximated well).
  int max_degree = 2;
  // Maximum degree for the extent polynomials, 0..kMaxDegree.
  int max_extent_degree = 1;
  // Maximum absolute deviation, per axis and instant, between the fitted
  // tuple and the observations.
  double max_error = 0.005;
};

// Fits a piecewise-polynomial Trajectory to raw observations: a greedy
// scan extends the current movement tuple instant by instant, refitting
// by least squares, and starts a new tuple when the error bound breaks —
// the representation the paper assumes as input ("objects move/change
// with general motions", approximated by a few polynomial tuples).
//
// The fitted trajectory covers exactly [obs.front().t, obs.back().t + 1)
// and deviates from every observation by at most max_error per axis
// (centers and extents). A degree option above Polynomial::kMaxDegree is
// InvalidArgument.
Result<Trajectory> FitTrajectory(ObjectId id,
                                 const std::vector<RawObservation>& obs,
                                 const FitOptions& options = FitOptions());

// Least-squares polynomial fit of degree <= `degree` to values sampled at
// local times 0..n-1; the degree is clamped to n - 1 and to kMaxDegree.
// Exposed for tests and reuse.
Polynomial FitPolynomial(const std::vector<double>& values, int degree);

}  // namespace stindex

#endif  // STINDEX_TRAJECTORY_FIT_H_
