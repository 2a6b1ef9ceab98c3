#include "trajectory/polynomial.h"

#include <cstdio>

namespace stindex {

Polynomial::Polynomial(const Coefficients& coefficients) : c_(coefficients) {
  // Trimming stores +0.0, whatever the sign of the zero it drops.
  for (size_t i = kMaxDegree; i > 0 && c_[i] == 0.0; --i) c_[i] = 0.0;
}

Polynomial Polynomial::Constant(double c) { return Polynomial({c}); }

Polynomial Polynomial::Linear(double c0, double c1) {
  return Polynomial({c0, c1});
}

Polynomial Polynomial::Derivative() const {
  return Polynomial({c_[1], c_[2] * 2.0});
}

std::string Polynomial::ToString() const {
  std::string out;
  char buf[64];
  const std::span<const double> c = coefficients();
  for (size_t i = 0; i < c.size(); ++i) {
    std::snprintf(buf, sizeof(buf), i == 0 ? "%g" : " + %g*t^%zu", c[i], i);
    out += buf;
  }
  return out;
}

}  // namespace stindex
