#ifndef STINDEX_GEOMETRY_RECT_H_
#define STINDEX_GEOMETRY_RECT_H_

#include <algorithm>
#include <limits>
#include <string>

#include "geometry/point.h"

namespace stindex {

// An axis-aligned rectangle on the plane (closed on all sides). This is
// the spatial MBR of an object at a time instant, and the spatial part of
// every index entry.
//
// The predicates and set operations are inline: the split kernels and
// the tree builds call them in their innermost loops.
struct Rect2D {
  double xlo = 0.0;
  double ylo = 0.0;
  double xhi = 0.0;
  double yhi = 0.0;

  Rect2D() = default;
  Rect2D(double x_lo, double y_lo, double x_hi, double y_hi)
      : xlo(x_lo), ylo(y_lo), xhi(x_hi), yhi(y_hi) {}

  // A rectangle that acts as the identity for ExpandToInclude / Union:
  // empty, with inverted bounds.
  static Rect2D Empty() {
    constexpr double kInf = std::numeric_limits<double>::infinity();
    return Rect2D(kInf, kInf, -kInf, -kInf);
  }

  // True when the bounds are ordered (degenerate zero-extent rectangles,
  // i.e. points and segments, are valid).
  bool IsValid() const { return xlo <= xhi && ylo <= yhi; }

  bool IsEmpty() const { return xlo > xhi || ylo > yhi; }

  double Width() const { return xhi - xlo; }
  double Height() const { return yhi - ylo; }
  double Area() const { return IsEmpty() ? 0.0 : Width() * Height(); }
  // Half-perimeter; the "margin" of R*-tree split optimization.
  double Margin() const { return IsEmpty() ? 0.0 : Width() + Height(); }

  Point2D Center() const {
    return Point2D((xlo + xhi) / 2.0, (ylo + yhi) / 2.0);
  }

  bool Contains(const Point2D& p) const {
    return p.x >= xlo && p.x <= xhi && p.y >= ylo && p.y <= yhi;
  }
  bool Contains(const Rect2D& r) const {
    return r.xlo >= xlo && r.xhi <= xhi && r.ylo >= ylo && r.yhi <= yhi;
  }
  bool Intersects(const Rect2D& r) const {
    return xlo <= r.xhi && r.xlo <= xhi && ylo <= r.yhi && r.ylo <= yhi;
  }

  // Area of the intersection (0 when disjoint).
  double OverlapArea(const Rect2D& r) const {
    const double w = std::min(xhi, r.xhi) - std::max(xlo, r.xlo);
    if (w <= 0.0) return 0.0;
    const double h = std::min(yhi, r.yhi) - std::max(ylo, r.ylo);
    if (h <= 0.0) return 0.0;
    return w * h;
  }

  // Smallest rectangle covering both this and `r`.
  Rect2D Union(const Rect2D& r) const {
    return Rect2D(std::min(xlo, r.xlo), std::min(ylo, r.ylo),
                  std::max(xhi, r.xhi), std::max(yhi, r.yhi));
  }

  // Common area of this and `r`; empty (inverted) when disjoint.
  Rect2D Intersection(const Rect2D& r) const {
    return Rect2D(std::max(xlo, r.xlo), std::max(ylo, r.ylo),
                  std::min(xhi, r.xhi), std::min(yhi, r.yhi));
  }

  // Grows this rectangle in place to cover `r` (or `p`). On equal bounds
  // this rectangle's own value is kept, so folding a sequence left to
  // right keeps the leftmost of equal extremes (this matters only for
  // the sign of a zero).
  void ExpandToInclude(const Rect2D& r) {
    xlo = std::min(xlo, r.xlo);
    ylo = std::min(ylo, r.ylo);
    xhi = std::max(xhi, r.xhi);
    yhi = std::max(yhi, r.yhi);
  }
  void ExpandToInclude(const Point2D& p) {
    xlo = std::min(xlo, p.x);
    ylo = std::min(ylo, p.y);
    xhi = std::max(xhi, p.x);
    yhi = std::max(yhi, p.y);
  }

  // Area increase of Union(r) relative to this rectangle.
  double Enlargement(const Rect2D& r) const { return Union(r).Area() - Area(); }

  std::string ToString() const;

  friend bool operator==(const Rect2D&, const Rect2D&) = default;
};

}  // namespace stindex

#endif  // STINDEX_GEOMETRY_RECT_H_
