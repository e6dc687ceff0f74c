#include "mm/cost_model.h"

#include <algorithm>
#include <cmath>

namespace fmmsw {

double OmegaSquareExponent(double a, double b, double c, double omega) {
  return a + b + c - (3.0 - omega) * std::min(a, std::min(b, c));
}

double PredictedMmOps(int64_t m, int64_t k, int64_t n, double omega) {
  const double dm = static_cast<double>(std::max<int64_t>(m, 1));
  const double dk = static_cast<double>(std::max<int64_t>(k, 1));
  const double dn = static_cast<double>(std::max<int64_t>(n, 1));
  const double d = std::min(dm, std::min(dk, dn));
  // (m/d)(k/d)(n/d) block multiplies of cost d^omega each.
  return (dm / d) * (dk / d) * (dn / d) * std::pow(d, omega);
}

}  // namespace fmmsw
