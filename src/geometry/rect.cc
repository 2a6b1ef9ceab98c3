#include "geometry/rect.h"

#include <cstdio>

namespace stindex {

std::string Rect2D::ToString() const {
  char buf[128];
  std::snprintf(buf, sizeof(buf), "[%g,%g]x[%g,%g]", xlo, xhi, ylo, yhi);
  return buf;
}

}  // namespace stindex
