#ifndef STINDEX_TRAJECTORY_TRAJECTORY_H_
#define STINDEX_TRAJECTORY_TRAJECTORY_H_

#include <cstdint>
#include <type_traits>
#include <vector>

#include "geometry/box.h"
#include "geometry/interval.h"
#include "geometry/rect.h"
#include "trajectory/polynomial.h"
#include "util/status.h"

namespace stindex {

// Identifier of a spatiotemporal object within a dataset.
using ObjectId = uint32_t;

// One movement tuple ([t_a, t_b), F_x(t), F_y(t)) of the paper, extended
// with extent polynomials so objects may also grow/shrink (Figure 6).
// Polynomials are evaluated at *local* time s = t - interval.start, which
// keeps generated coefficients small and evaluation well conditioned.
// Its polynomials are inline, so a tuple owns no heap memory and a
// trajectory's tuples are one allocation.
struct MovementTuple {
  TimeInterval interval;
  Polynomial center_x;
  Polynomial center_y;
  // Full extents (width/height) of the object; constants for rigid
  // objects, zero for moving points.
  Polynomial extent_x;
  Polynomial extent_y;

  // Spatial MBR of the object at instant t (must lie in `interval`).
  Rect2D RectAt(Time t) const;
};

static_assert(sizeof(MovementTuple) == 112);
static_assert(std::is_trivially_copyable_v<MovementTuple>);

// A spatiotemporal object: a contiguous sequence of movement tuples
// covering the object's lifetime [t_start, t_end). This is the generator-
// facing representation; the splitting algorithms consume the per-instant
// rectangle sequence produced by Sample().
class Trajectory {
 public:
  Trajectory() = default;
  Trajectory(ObjectId id, std::vector<MovementTuple> tuples);

  // Verifies tuples are non-empty, valid and contiguous in time.
  Status Validate() const;

  ObjectId id() const { return id_; }
  const std::vector<MovementTuple>& tuples() const { return tuples_; }

  // Lifetime [t_start, t_end); the object is alive at t_start..t_end-1.
  TimeInterval Lifetime() const;

  // Number of discrete instants the object is alive.
  int64_t NumInstants() const { return Lifetime().Duration(); }

  // Spatial MBR at instant t. t must be within the lifetime.
  Rect2D RectAt(Time t) const;

  // One spatial rectangle per alive instant, in time order. This is the
  // "sequence of n spatial objects" the splitting algorithms operate on.
  std::vector<Rect2D> Sample() const;

  // Spatial MBR over all alive instants in [range.start, range.end).
  Rect2D MbrOver(const TimeInterval& range) const;

  // The single spatiotemporal bounding box of the whole trajectory — the
  // naive (no splits) representation.
  STBox FullBox() const;

  // Times where the movement changes characteristics (interior tuple
  // boundaries). Splitting at exactly these points is the "piecewise"
  // baseline of Section V.
  std::vector<Time> ChangePoints() const;

 private:
  ObjectId id_ = 0;
  std::vector<MovementTuple> tuples_;
};

}  // namespace stindex

#endif  // STINDEX_TRAJECTORY_TRAJECTORY_H_
