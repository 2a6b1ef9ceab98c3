#include <gtest/gtest.h>

#include "trajectory/polynomial.h"
#include "trajectory/prefix_mbr.h"
#include "trajectory/trajectory.h"
#include "util/random.h"

namespace stindex {
namespace {

TEST(PolynomialTest, EvaluateConstantLinearQuadratic) {
  EXPECT_DOUBLE_EQ(Polynomial::Constant(3.0).Evaluate(100.0), 3.0);
  EXPECT_DOUBLE_EQ(Polynomial::Linear(1.0, 2.0).Evaluate(3.0), 7.0);
  const Polynomial quad({1.0, -2.0, 0.5});
  EXPECT_DOUBLE_EQ(quad.Evaluate(0.0), 1.0);
  EXPECT_DOUBLE_EQ(quad.Evaluate(2.0), 1.0 - 4.0 + 2.0);
}

TEST(PolynomialTest, DegreeTrimsTrailingZeros) {
  EXPECT_EQ(Polynomial({1.0, 0.0, 0.0}).Degree(), 0);
  EXPECT_EQ(Polynomial({1.0, 2.0, 0.0}).Degree(), 1);
  EXPECT_EQ(Polynomial({0.0, 0.0, 3.0}).Degree(), 2);
  EXPECT_EQ(Polynomial({1.0, 2.0, -0.0}).Degree(), 1);
  EXPECT_EQ(Polynomial({1.0, 2.0, 0.0}).coefficients().size(), 2u);
}

TEST(PolynomialTest, Derivative) {
  const Polynomial quad({1.0, 2.0, 3.0});
  const Polynomial derivative = quad.Derivative();
  EXPECT_EQ(derivative, Polynomial({2.0, 6.0}));
  EXPECT_EQ(Polynomial::Constant(5.0).Derivative(),
            Polynomial::Constant(0.0));
}

MovementTuple MakeTuple(Time start, Time end, Polynomial cx, Polynomial cy,
                        double extent = 0.1) {
  MovementTuple tuple;
  tuple.interval = TimeInterval(start, end);
  tuple.center_x = std::move(cx);
  tuple.center_y = std::move(cy);
  tuple.extent_x = Polynomial::Constant(extent);
  tuple.extent_y = Polynomial::Constant(extent);
  return tuple;
}

TEST(MovementTupleTest, RectAtUsesLocalTime) {
  // Center moves from (0, 0) at local time 0 to (10, 5) at local time 10.
  const MovementTuple tuple = MakeTuple(
      100, 111, Polynomial::Linear(0.0, 1.0), Polynomial::Linear(0.0, 0.5));
  const Rect2D at_start = tuple.RectAt(100);
  EXPECT_DOUBLE_EQ(at_start.Center().x, 0.0);
  const Rect2D at_105 = tuple.RectAt(105);
  EXPECT_DOUBLE_EQ(at_105.Center().x, 5.0);
  EXPECT_DOUBLE_EQ(at_105.Center().y, 2.5);
  EXPECT_NEAR(at_105.Width(), 0.1, 1e-12);
}

TEST(MovementTupleTest, NegativeExtentClampsToPoint) {
  MovementTuple tuple = MakeTuple(0, 10, Polynomial::Constant(0.5),
                                  Polynomial::Constant(0.5));
  tuple.extent_x = Polynomial::Linear(0.1, -0.05);  // negative from s=2
  const Rect2D rect = tuple.RectAt(5);
  EXPECT_DOUBLE_EQ(rect.Width(), 0.0);
  EXPECT_TRUE(rect.IsValid());
}

Trajectory MakeTwoPhaseTrajectory() {
  // Phase 1 [0, 5): moves right. Phase 2 [5, 10): moves up.
  std::vector<MovementTuple> tuples;
  tuples.push_back(MakeTuple(0, 5, Polynomial::Linear(0.0, 0.1),
                             Polynomial::Constant(0.0)));
  tuples.push_back(MakeTuple(5, 10, Polynomial::Constant(0.5),
                             Polynomial::Linear(0.0, 0.1)));
  return Trajectory(7, std::move(tuples));
}

TEST(TrajectoryTest, LifetimeAndValidation) {
  const Trajectory trajectory = MakeTwoPhaseTrajectory();
  EXPECT_TRUE(trajectory.Validate().ok());
  EXPECT_EQ(trajectory.Lifetime(), TimeInterval(0, 10));
  EXPECT_EQ(trajectory.NumInstants(), 10);
  EXPECT_EQ(trajectory.id(), 7u);
}

TEST(TrajectoryTest, ValidationRejectsGaps) {
  std::vector<MovementTuple> tuples;
  tuples.push_back(MakeTuple(0, 5, Polynomial::Constant(0.0),
                             Polynomial::Constant(0.0)));
  tuples.push_back(MakeTuple(6, 10, Polynomial::Constant(0.0),
                             Polynomial::Constant(0.0)));
  const Trajectory trajectory(0, std::move(tuples));
  EXPECT_FALSE(trajectory.Validate().ok());
}

TEST(TrajectoryTest, ValidationRejectsEmpty) {
  const Trajectory trajectory(0, {});
  EXPECT_FALSE(trajectory.Validate().ok());
}

TEST(TrajectoryTest, RectAtSelectsCorrectTuple) {
  const Trajectory trajectory = MakeTwoPhaseTrajectory();
  EXPECT_DOUBLE_EQ(trajectory.RectAt(2).Center().x, 0.2);
  EXPECT_DOUBLE_EQ(trajectory.RectAt(2).Center().y, 0.0);
  EXPECT_DOUBLE_EQ(trajectory.RectAt(7).Center().x, 0.5);
  EXPECT_DOUBLE_EQ(trajectory.RectAt(7).Center().y, 0.2);
}

TEST(TrajectoryTest, SampleMatchesRectAt) {
  const Trajectory trajectory = MakeTwoPhaseTrajectory();
  const std::vector<Rect2D> rects = trajectory.Sample();
  ASSERT_EQ(rects.size(), 10u);
  for (Time t = 0; t < 10; ++t) {
    EXPECT_EQ(rects[static_cast<size_t>(t)], trajectory.RectAt(t));
  }
}

TEST(TrajectoryTest, MbrOverSubrange) {
  const Trajectory trajectory = MakeTwoPhaseTrajectory();
  const Rect2D mbr = trajectory.MbrOver(TimeInterval(0, 3));
  // Centers 0.0, 0.1, 0.2 with extent 0.1.
  EXPECT_NEAR(mbr.xlo, -0.05, 1e-12);
  EXPECT_NEAR(mbr.xhi, 0.25, 1e-12);
}

TEST(TrajectoryTest, FullBoxCoversEverything) {
  const Trajectory trajectory = MakeTwoPhaseTrajectory();
  const STBox box = trajectory.FullBox();
  EXPECT_EQ(box.interval, TimeInterval(0, 10));
  for (const Rect2D& rect : trajectory.Sample()) {
    EXPECT_TRUE(box.rect.Contains(rect));
  }
}

TEST(TrajectoryTest, ChangePointsAreTupleBoundaries) {
  const Trajectory trajectory = MakeTwoPhaseTrajectory();
  const std::vector<Time> points = trajectory.ChangePoints();
  ASSERT_EQ(points.size(), 1u);
  EXPECT_EQ(points[0], 5);
}

TEST(MbrVolumeTableTest, SingleInstantRun) {
  const std::vector<Rect2D> rects = {Rect2D(0, 0, 2, 3)};
  const MbrVolumeTable table(rects);
  EXPECT_DOUBLE_EQ(table.RunVolume(0, 0), 6.0);
}

TEST(MbrVolumeTableTest, RunVolumeMatchesManualComputation) {
  const std::vector<Rect2D> rects = {
      Rect2D(0, 0, 1, 1), Rect2D(1, 1, 2, 2), Rect2D(4, 4, 5, 5)};
  const MbrVolumeTable table(rects);
  // MBR of all three: [0,5]x[0,5], 3 instants.
  EXPECT_DOUBLE_EQ(table.RunVolume(0, 2), 25.0 * 3.0);
  // MBR of first two: [0,2]x[0,2], 2 instants.
  EXPECT_DOUBLE_EQ(table.RunVolume(0, 1), 4.0 * 2.0);
  EXPECT_DOUBLE_EQ(table.RunVolume(2, 2), 1.0);
}

TEST(MbrVolumeTableTest, RowMatchesDirectRunVolumes) {
  Rng rng(17);
  std::vector<Rect2D> rects;
  for (int i = 0; i < 30; ++i) {
    const double x = rng.UniformDouble(0, 1);
    const double y = rng.UniformDouble(0, 1);
    rects.emplace_back(x, y, x + rng.UniformDouble(0, 0.1),
                       y + rng.UniformDouble(0, 0.1));
  }
  const MbrVolumeTable table(rects);
  std::vector<double> row;
  for (size_t i : {0u, 7u, 29u}) {
    table.RunVolumesEndingAt(i, &row);
    ASSERT_EQ(row.size(), i + 1);
    for (size_t j = 0; j <= i; ++j) {
      EXPECT_NEAR(row[j], table.RunVolume(j, i), 1e-12);
    }
  }
}

}  // namespace
}  // namespace stindex
