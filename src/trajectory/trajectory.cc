#include "trajectory/trajectory.h"

#include <algorithm>

namespace stindex {

Rect2D MovementTuple::RectAt(Time t) const {
  STINDEX_DCHECK(interval.Contains(t));
  const double s = static_cast<double>(t - interval.start);
  const double cx = center_x.Evaluate(s);
  const double cy = center_y.Evaluate(s);
  // Negative evaluated extents are treated as degenerate (point) extents.
  const double ex = std::max(0.0, extent_x.Evaluate(s));
  const double ey = std::max(0.0, extent_y.Evaluate(s));
  return Rect2D(cx - ex / 2.0, cy - ey / 2.0, cx + ex / 2.0, cy + ey / 2.0);
}

Trajectory::Trajectory(ObjectId id, std::vector<MovementTuple> tuples)
    : id_(id), tuples_(std::move(tuples)) {
  // A dataset holds its trajectories for its whole life: drop any slack
  // that building the vector left (none when the caller reserved).
  tuples_.shrink_to_fit();
}

Status Trajectory::Validate() const {
  if (tuples_.empty()) {
    return Status::InvalidArgument("trajectory has no movement tuples");
  }
  for (size_t i = 0; i < tuples_.size(); ++i) {
    if (!tuples_[i].interval.IsValid()) {
      return Status::InvalidArgument("movement tuple has empty interval");
    }
    if (i > 0 && tuples_[i].interval.start != tuples_[i - 1].interval.end) {
      return Status::InvalidArgument(
          "movement tuples are not contiguous in time");
    }
  }
  return Status::OK();
}

TimeInterval Trajectory::Lifetime() const {
  STINDEX_CHECK(!tuples_.empty());
  return TimeInterval(tuples_.front().interval.start,
                      tuples_.back().interval.end);
}

Rect2D Trajectory::RectAt(Time t) const {
  STINDEX_CHECK(!tuples_.empty());
  STINDEX_CHECK_MSG(Lifetime().Contains(t), "instant outside lifetime");
  // Binary search for the tuple whose interval contains t.
  auto it = std::upper_bound(
      tuples_.begin(), tuples_.end(), t,
      [](Time value, const MovementTuple& tuple) {
        return value < tuple.interval.start;
      });
  STINDEX_DCHECK(it != tuples_.begin());
  --it;
  return it->RectAt(t);
}

std::vector<Rect2D> Trajectory::Sample() const {
  STINDEX_CHECK(!tuples_.empty());
  std::vector<Rect2D> rects;
  rects.reserve(static_cast<size_t>(NumInstants()));
  for (const MovementTuple& tuple : tuples_) {
    for (Time t = tuple.interval.start; t < tuple.interval.end; ++t) {
      rects.push_back(tuple.RectAt(t));
    }
  }
  return rects;
}

Rect2D Trajectory::MbrOver(const TimeInterval& range) const {
  Rect2D mbr = Rect2D::Empty();
  for (const MovementTuple& tuple : tuples_) {
    if (!tuple.interval.Intersects(range)) continue;
    const TimeInterval common = tuple.interval.Intersection(range);
    for (Time t = common.start; t < common.end; ++t) {
      mbr.ExpandToInclude(tuple.RectAt(t));
    }
  }
  return mbr;
}

STBox Trajectory::FullBox() const {
  const TimeInterval life = Lifetime();
  return STBox(MbrOver(life), life);
}

std::vector<Time> Trajectory::ChangePoints() const {
  std::vector<Time> points;
  for (size_t i = 1; i < tuples_.size(); ++i) {
    points.push_back(tuples_[i].interval.start);
  }
  return points;
}

}  // namespace stindex
