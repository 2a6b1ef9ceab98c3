#ifndef STINDEX_GEOMETRY_BOX_H_
#define STINDEX_GEOMETRY_BOX_H_

#include <string>

#include "geometry/interval.h"
#include "geometry/rect.h"

namespace stindex {

// A 3-dimensional axis-aligned box (x, y, t as a continuous axis). This is
// the native key of the 3-D R*-tree; the time axis is scaled to the unit
// range before insertion, as in the paper's experimental setup.
struct Box3D {
  double lo[3] = {0.0, 0.0, 0.0};
  double hi[3] = {0.0, 0.0, 0.0};

  Box3D() = default;
  Box3D(double xlo, double ylo, double tlo, double xhi, double yhi,
        double thi) {
    lo[0] = xlo;
    lo[1] = ylo;
    lo[2] = tlo;
    hi[0] = xhi;
    hi[1] = yhi;
    hi[2] = thi;
  }

  // Identity element for Union / ExpandToInclude.
  static Box3D Empty();

  bool IsValid() const {
    return lo[0] <= hi[0] && lo[1] <= hi[1] && lo[2] <= hi[2];
  }
  bool IsEmpty() const {
    return lo[0] > hi[0] || lo[1] > hi[1] || lo[2] > hi[2];
  }

  double Extent(int dim) const { return hi[dim] - lo[dim]; }
  double Volume() const;
  // Sum of extents; the 3-D "margin" used by the R* split heuristic.
  double Margin() const;

  bool Intersects(const Box3D& b) const;
  double OverlapVolume(const Box3D& b) const;

  Box3D Union(const Box3D& b) const;
  void ExpandToInclude(const Box3D& b);
  double Enlargement(const Box3D& b) const;

  std::string ToString() const;

  friend bool operator==(const Box3D&, const Box3D&) = default;
};

// A spatiotemporal box: a spatial rectangle held over a discrete lifetime
// interval. This is the unit the splitting algorithms optimize — the
// "volume" they minimize is spatial area x discrete duration.
struct STBox {
  Rect2D rect;
  TimeInterval interval;

  STBox() = default;
  STBox(const Rect2D& r, const TimeInterval& i) : rect(r), interval(i) {}

  bool IsValid() const { return rect.IsValid() && interval.IsValid(); }

  // Spatial area times number of instants covered.
  double Volume() const {
    return rect.Area() * static_cast<double>(interval.Duration());
  }

  bool Intersects(const STBox& other) const {
    return rect.Intersects(other.rect) && interval.Intersects(other.interval);
  }

  // Covers both boxes in space and time.
  STBox Union(const STBox& other) const {
    return STBox(rect.Union(other.rect), interval.Union(other.interval));
  }

  // Continuous 3-D view with the time axis mapped by t -> (t - t0) * scale.
  // Passing the dataset's time origin / extent normalizes time to [0, 1],
  // matching how the paper feeds the 3-D R*-tree.
  Box3D ToBox3D(Time t0, double scale) const {
    return Box3D(rect.xlo, rect.ylo,
                 static_cast<double>(interval.start - t0) * scale, rect.xhi,
                 rect.yhi, static_cast<double>(interval.end - t0) * scale);
  }

  friend bool operator==(const STBox&, const STBox&) = default;
};

}  // namespace stindex

#endif  // STINDEX_GEOMETRY_BOX_H_
