#include <gtest/gtest.h>

#include <cmath>

#include "trajectory/fit.h"
#include "util/random.h"

namespace stindex {
namespace {

TEST(FitPolynomialTest, ExactRecoveryOfLowDegreeData) {
  const Polynomial truth({0.3, -0.02, 0.001});
  std::vector<double> values;
  for (int s = 0; s < 40; ++s) {
    values.push_back(truth.Evaluate(static_cast<double>(s)));
  }
  const Polynomial fitted = FitPolynomial(values, 2);
  for (int s = 0; s < 40; ++s) {
    EXPECT_NEAR(fitted.Evaluate(s), values[static_cast<size_t>(s)], 1e-9);
  }
}

TEST(FitPolynomialTest, DegreeClampedToSampleCount) {
  const std::vector<double> values = {1.0, 3.0};
  const Polynomial fitted = FitPolynomial(values, 5);  // only 2 samples
  EXPECT_LE(fitted.Degree(), 1);
  EXPECT_NEAR(fitted.Evaluate(0), 1.0, 1e-9);
  EXPECT_NEAR(fitted.Evaluate(1), 3.0, 1e-9);
}

TEST(FitPolynomialTest, ConstantFitIsMean) {
  const std::vector<double> values = {1.0, 2.0, 3.0, 6.0};
  const Polynomial fitted = FitPolynomial(values, 0);
  EXPECT_NEAR(fitted.Evaluate(17.0), 3.0, 1e-9);
}

std::vector<RawObservation> Observe(const Trajectory& trajectory) {
  std::vector<RawObservation> obs;
  const TimeInterval life = trajectory.Lifetime();
  for (Time t = life.start; t < life.end; ++t) {
    const Rect2D rect = trajectory.RectAt(t);
    RawObservation o;
    o.t = t;
    o.center = rect.Center();
    o.extent_x = rect.Width();
    o.extent_y = rect.Height();
    obs.push_back(o);
  }
  return obs;
}

TEST(FitTrajectoryTest, ExactPolynomialMovementNeedsOneTuple) {
  MovementTuple tuple;
  tuple.interval = TimeInterval(10, 60);
  tuple.center_x = Polynomial({0.2, 0.004, 0.00005});
  tuple.center_y = Polynomial::Linear(0.7, -0.003);
  tuple.extent_x = Polynomial::Constant(0.02);
  tuple.extent_y = Polynomial::Constant(0.03);
  const Trajectory truth(4, {tuple});

  Result<Trajectory> fitted = FitTrajectory(4, Observe(truth));
  ASSERT_TRUE(fitted.ok()) << fitted.status().ToString();
  EXPECT_EQ(fitted.value().tuples().size(), 1u);
  EXPECT_EQ(fitted.value().Lifetime(), truth.Lifetime());
  for (Time t = 10; t < 60; ++t) {
    const Rect2D a = fitted.value().RectAt(t);
    const Rect2D b = truth.RectAt(t);
    EXPECT_NEAR(a.Center().x, b.Center().x, 1e-6);
    EXPECT_NEAR(a.Center().y, b.Center().y, 1e-6);
  }
}

TEST(FitTrajectoryTest, SharpTurnForcesTupleBoundary) {
  // Move right for 30 instants, then up: one quadratic cannot track both
  // within a tight bound.
  std::vector<RawObservation> obs;
  for (int i = 0; i < 30; ++i) {
    RawObservation o;
    o.t = i;
    o.center = Point2D(0.1 + 0.01 * i, 0.2);
    o.extent_x = o.extent_y = 0.01;
    obs.push_back(o);
  }
  for (int i = 0; i < 30; ++i) {
    RawObservation o;
    o.t = 30 + i;
    o.center = Point2D(0.4, 0.2 + 0.01 * i);
    o.extent_x = o.extent_y = 0.01;
    obs.push_back(o);
  }
  FitOptions options;
  options.max_error = 0.002;
  Result<Trajectory> fitted = FitTrajectory(0, obs, options);
  ASSERT_TRUE(fitted.ok());
  EXPECT_GE(fitted.value().tuples().size(), 2u);
  // Error bound holds everywhere.
  for (const RawObservation& o : obs) {
    const Rect2D rect = fitted.value().RectAt(o.t);
    EXPECT_LE(std::abs(rect.Center().x - o.center.x), 0.002 + 1e-9);
    EXPECT_LE(std::abs(rect.Center().y - o.center.y), 0.002 + 1e-9);
  }
}

TEST(FitTrajectoryTest, NoisyWalkHonorsErrorBound) {
  Rng rng(95);
  std::vector<RawObservation> obs;
  double x = 0.5, y = 0.5;
  for (int i = 0; i < 200; ++i) {
    x += rng.UniformDouble(-0.004, 0.004);
    y += rng.UniformDouble(-0.004, 0.004);
    RawObservation o;
    o.t = 100 + i;
    o.center = Point2D(x, y);
    o.extent_x = 0.02 + rng.UniformDouble(-0.001, 0.001);
    o.extent_y = 0.02;
    obs.push_back(o);
  }
  FitOptions options;
  options.max_error = 0.01;
  Result<Trajectory> fitted = FitTrajectory(7, obs, options);
  ASSERT_TRUE(fitted.ok());
  // Compact representation: far fewer tuples than instants.
  EXPECT_LT(fitted.value().tuples().size(), obs.size() / 4);
  for (const RawObservation& o : obs) {
    const Rect2D rect = fitted.value().RectAt(o.t);
    EXPECT_LE(std::abs(rect.Center().x - o.center.x), 0.01 + 1e-9);
    EXPECT_LE(std::abs(rect.Center().y - o.center.y), 0.01 + 1e-9);
    EXPECT_LE(std::abs(rect.Width() - o.extent_x), 0.01 + 1e-9);
  }
}

TEST(FitTrajectoryTest, TighterBoundMeansMoreTuples) {
  Rng rng(96);
  std::vector<RawObservation> obs;
  double x = 0.5;
  for (int i = 0; i < 150; ++i) {
    x += rng.UniformDouble(-0.01, 0.012);
    RawObservation o;
    o.t = i;
    o.center = Point2D(x, 0.4);
    o.extent_x = o.extent_y = 0.01;
    obs.push_back(o);
  }
  FitOptions loose;
  loose.max_error = 0.05;
  FitOptions tight;
  tight.max_error = 0.003;
  Result<Trajectory> coarse = FitTrajectory(0, obs, loose);
  Result<Trajectory> fine = FitTrajectory(0, obs, tight);
  ASSERT_TRUE(coarse.ok() && fine.ok());
  EXPECT_LT(coarse.value().tuples().size(), fine.value().tuples().size());
}

TEST(FitTrajectoryTest, RejectsBadInput) {
  EXPECT_FALSE(FitTrajectory(0, {}).ok());
  std::vector<RawObservation> gap(2);
  gap[0].t = 5;
  gap[1].t = 7;  // not contiguous
  EXPECT_FALSE(FitTrajectory(0, gap).ok());
}

TEST(FitTrajectoryTest, RejectsDegreeAboveTwo) {
  std::vector<RawObservation> obs(4);
  for (size_t i = 0; i < obs.size(); ++i) {
    obs[i].t = static_cast<Time>(i);
    obs[i].center = Point2D(0.1 * static_cast<double>(i), 0.5);
  }
  FitOptions options;
  options.max_degree = 3;
  Result<Trajectory> fitted = FitTrajectory(0, obs, options);
  ASSERT_FALSE(fitted.ok());
  EXPECT_EQ(fitted.status().code(), StatusCode::kInvalidArgument);
  options.max_degree = 2;
  options.max_extent_degree = 3;
  fitted = FitTrajectory(0, obs, options);
  ASSERT_FALSE(fitted.ok());
  EXPECT_EQ(fitted.status().code(), StatusCode::kInvalidArgument);
  options.max_extent_degree = 2;
  EXPECT_TRUE(FitTrajectory(0, obs, options).ok());
}

}  // namespace
}  // namespace stindex
