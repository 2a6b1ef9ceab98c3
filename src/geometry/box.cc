#include "geometry/box.h"

#include <algorithm>
#include <cstdio>
#include <limits>

namespace stindex {

Box3D Box3D::Empty() {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  return Box3D(kInf, kInf, kInf, -kInf, -kInf, -kInf);
}

double Box3D::Volume() const {
  if (IsEmpty()) return 0.0;
  return Extent(0) * Extent(1) * Extent(2);
}

double Box3D::Margin() const {
  if (IsEmpty()) return 0.0;
  return Extent(0) + Extent(1) + Extent(2);
}

bool Box3D::Intersects(const Box3D& b) const {
  for (int d = 0; d < 3; ++d) {
    if (lo[d] > b.hi[d] || b.lo[d] > hi[d]) return false;
  }
  return true;
}

double Box3D::OverlapVolume(const Box3D& b) const {
  double volume = 1.0;
  for (int d = 0; d < 3; ++d) {
    const double extent = std::min(hi[d], b.hi[d]) - std::max(lo[d], b.lo[d]);
    if (extent <= 0.0) return 0.0;
    volume *= extent;
  }
  return volume;
}

Box3D Box3D::Union(const Box3D& b) const {
  Box3D out = *this;
  out.ExpandToInclude(b);
  return out;
}

void Box3D::ExpandToInclude(const Box3D& b) {
  for (int d = 0; d < 3; ++d) {
    lo[d] = std::min(lo[d], b.lo[d]);
    hi[d] = std::max(hi[d], b.hi[d]);
  }
}

double Box3D::Enlargement(const Box3D& b) const {
  return Union(b).Volume() - Volume();
}

std::string Box3D::ToString() const {
  char buf[192];
  std::snprintf(buf, sizeof(buf), "[%g,%g]x[%g,%g]x[%g,%g]", lo[0], hi[0],
                lo[1], hi[1], lo[2], hi[2]);
  return buf;
}

}  // namespace stindex
