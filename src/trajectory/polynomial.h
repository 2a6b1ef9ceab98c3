#ifndef STINDEX_TRAJECTORY_POLYNOMIAL_H_
#define STINDEX_TRAJECTORY_POLYNOMIAL_H_

#include <array>
#include <span>
#include <string>
#include <type_traits>

namespace stindex {

// A univariate polynomial c0 + c1*t + c2*t^2 used to describe object
// movement and extent change along one axis (paper Section II-A). The
// paper bounds the degree so that a few tuples approximate most common
// movements; here the bound is kMaxDegree = 2, so the coefficients live
// inline and a polynomial is a 24-byte value that owns no heap memory.
// Polynomials enter through the generators (GenerateRandomDataset
// CHECKs its degree setting), FitTrajectory and ReadTrajectoriesCsv
// (which return a Status for a degree above the bound).
class Polynomial {
 public:
  static constexpr int kMaxDegree = 2;
  // `c[i]` multiplies t^i.
  using Coefficients = std::array<double, kMaxDegree + 1>;

  // The zero polynomial.
  Polynomial() = default;
  // Coefficients left out are zero, as in Polynomial({c0, c1}); trailing
  // zeros are trimmed.
  explicit Polynomial(const Coefficients& coefficients);

  // The zero polynomial and a constant.
  static Polynomial Constant(double c);
  // c0 + c1 * t.
  static Polynomial Linear(double c0, double c1);

  // Degree of the trimmed polynomial; the zero polynomial has degree 0.
  int Degree() const { return c_[2] != 0.0 ? 2 : c_[1] != 0.0 ? 1 : 0; }

  // Horner evaluation at time t. Trimmed coefficients are +0.0, so this
  // rounds exactly as a loop over only the Degree() + 1 terms would.
  double Evaluate(double t) const { return (c_[2] * t + c_[1]) * t + c_[0]; }

  // The Degree() + 1 coefficients, constant term first.
  std::span<const double> coefficients() const {
    return std::span<const double>(c_.data(),
                                   static_cast<size_t>(Degree()) + 1);
  }

  Polynomial Derivative() const;

  std::string ToString() const;

  friend bool operator==(const Polynomial&, const Polynomial&) = default;

 private:
  Coefficients c_{};
};

static_assert(sizeof(Polynomial) == 24);
static_assert(std::is_trivially_copyable_v<Polynomial>);

}  // namespace stindex

#endif  // STINDEX_TRAJECTORY_POLYNOMIAL_H_
