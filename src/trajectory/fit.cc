#include "trajectory/fit.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <string>

#include "util/check.h"

namespace stindex {
namespace {

using Vector = Polynomial::Coefficients;
constexpr size_t kTerms = Polynomial::kMaxDegree + 1;

// Solves the leading n x n block of the normal equations (n <= kTerms)
// by Gaussian elimination with partial pivoting; the rest of x is zero.
Vector SolveNormalEquations(std::array<Vector, kTerms> a, Vector b,
                            size_t n) {
  for (size_t col = 0; col < n; ++col) {
    size_t pivot = col;
    for (size_t row = col + 1; row < n; ++row) {
      if (std::abs(a[row][col]) > std::abs(a[pivot][col])) pivot = row;
    }
    std::swap(a[col], a[pivot]);
    std::swap(b[col], b[pivot]);
    if (std::abs(a[col][col]) < 1e-30) continue;  // singular: leave zero
    for (size_t row = col + 1; row < n; ++row) {
      const double factor = a[row][col] / a[col][col];
      for (size_t k = col; k < n; ++k) a[row][k] -= factor * a[col][k];
      b[row] -= factor * b[col];
    }
  }
  Vector x{};
  for (size_t row = n; row-- > 0;) {
    double sum = b[row];
    for (size_t k = row + 1; k < n; ++k) sum -= a[row][k] * x[k];
    x[row] = std::abs(a[row][row]) < 1e-30 ? 0.0 : sum / a[row][row];
  }
  return x;
}

}  // namespace

Polynomial FitPolynomial(const std::vector<double>& values, int degree) {
  STINDEX_CHECK(!values.empty());
  STINDEX_CHECK(degree >= 0);
  const int n = static_cast<int>(values.size());
  // Cannot determine more coefficients than samples, nor hold more than
  // kMaxDegree + 1.
  const int d = std::min({degree, Polynomial::kMaxDegree, n - 1});

  // Normal equations: sum over s of s^(i+j) * c_j = sum of s^i * y_s.
  std::array<Vector, kTerms> a{};
  Vector b{};
  for (int s = 0; s < n; ++s) {
    double power_i = 1.0;
    for (int i = 0; i <= d; ++i) {
      double power_ij = power_i;
      for (int j = 0; j <= d; ++j) {
        a[static_cast<size_t>(i)][static_cast<size_t>(j)] += power_ij;
        power_ij *= static_cast<double>(s);
      }
      b[static_cast<size_t>(i)] += power_i * values[static_cast<size_t>(s)];
      power_i *= static_cast<double>(s);
    }
  }
  return Polynomial(SolveNormalEquations(a, b, static_cast<size_t>(d) + 1));
}

namespace {

// Max |poly(s) - values[s]| over the sample range.
double MaxDeviation(const Polynomial& poly,
                    const std::vector<double>& values) {
  double worst = 0.0;
  for (size_t s = 0; s < values.size(); ++s) {
    worst = std::max(worst, std::abs(poly.Evaluate(static_cast<double>(s)) -
                                     values[s]));
  }
  return worst;
}

// Fits one axis of a candidate tuple; true when within the error bound.
bool TryFitAxis(const std::vector<double>& values, int degree,
                double max_error, Polynomial* out) {
  *out = FitPolynomial(values, degree);
  return MaxDeviation(*out, values) <= max_error;
}

}  // namespace

Result<Trajectory> FitTrajectory(ObjectId id,
                                 const std::vector<RawObservation>& obs,
                                 const FitOptions& options) {
  if (obs.empty()) {
    return Status::InvalidArgument("no observations");
  }
  if (options.max_degree < 0 || options.max_extent_degree < 0 ||
      options.max_error < 0.0) {
    return Status::InvalidArgument("invalid fit options");
  }
  if (options.max_degree > Polynomial::kMaxDegree ||
      options.max_extent_degree > Polynomial::kMaxDegree) {
    return Status::InvalidArgument(
        "max_degree and max_extent_degree must be at most " +
        std::to_string(Polynomial::kMaxDegree));
  }
  for (size_t i = 1; i < obs.size(); ++i) {
    if (obs[i].t != obs[i - 1].t + 1) {
      return Status::InvalidArgument(
          "observations must be contiguous per-instant samples");
    }
  }

  std::vector<MovementTuple> tuples;
  size_t start = 0;
  while (start < obs.size()) {
    // Grow the segment greedily: largest end such that all four axes fit
    // within the bound. Extending one instant at a time keeps behavior
    // predictable; each refit is O(len).
    size_t end = start + 1;  // exclusive
    MovementTuple best;
    auto fit_segment = [&](size_t hi, MovementTuple* tuple) {
      std::vector<double> cx, cy, ex, ey;
      for (size_t i = start; i < hi; ++i) {
        cx.push_back(obs[i].center.x);
        cy.push_back(obs[i].center.y);
        ex.push_back(obs[i].extent_x);
        ey.push_back(obs[i].extent_y);
      }
      return TryFitAxis(cx, options.max_degree, options.max_error,
                        &tuple->center_x) &&
             TryFitAxis(cy, options.max_degree, options.max_error,
                        &tuple->center_y) &&
             TryFitAxis(ex, options.max_extent_degree, options.max_error,
                        &tuple->extent_x) &&
             TryFitAxis(ey, options.max_extent_degree, options.max_error,
                        &tuple->extent_y);
    };
    // A single instant always fits exactly.
    STINDEX_CHECK(fit_segment(end, &best));
    while (end < obs.size()) {
      MovementTuple candidate;
      if (!fit_segment(end + 1, &candidate)) break;
      best = candidate;
      ++end;
    }
    best.interval = TimeInterval(obs[start].t, obs[end - 1].t + 1);
    tuples.push_back(std::move(best));
    start = end;
  }

  Trajectory trajectory(id, std::move(tuples));
  const Status status = trajectory.Validate();
  if (!status.ok()) return status;
  return trajectory;
}

}  // namespace stindex
