#include "qc/boys.h"

#include <cassert>
#include <cmath>
#include <numbers>

namespace pastri::qc {
namespace {

/// F_m(T) by the convergent series
///   F_m(T) = exp(-T) * sum_{k>=0} (2T)^k / [(2m+1)(2m+3)...(2m+2k+1)]
/// valid for all T but efficient only for moderate T.
double boys_series(double T, int m) {
  const double expT = std::exp(-T);
  double denom = 2.0 * m + 1.0;
  double term = 1.0 / denom;
  double sum = term;
  const double twoT = 2.0 * T;
  // Terms shrink once 2T < denom; with T <= 42 this converges in < 130
  // iterations to below double epsilon relative accuracy.
  for (int k = 1; k < 400; ++k) {
    denom += 2.0;
    term *= twoT / denom;
    sum += term;
    if (term < sum * 1e-17) break;
  }
  return expT * sum;
}

/// T < 1e-14: F_m(0) = 1 / (2m + 1).
void boys_tiny(int m, std::span<double> out) {
  for (int i = 0; i <= m; ++i) out[i] = 1.0 / (2.0 * i + 1.0);
}

/// Large-T regime: F_0(T) = (1/2) sqrt(pi/T) erf(sqrt(T)); for T > 42
/// erf(sqrt(T)) == 1 to double precision.  Upward recursion
///   F_{m+1} = ((2m+1) F_m - exp(-T)) / (2T)
/// is numerically stable when T is large relative to m.
void boys_large(double T, int m, std::span<double> out) {
  const double expT = std::exp(-T);
  out[0] = 0.5 * std::sqrt(std::numbers::pi / T);
  const double inv2T = 0.5 / T;
  for (int i = 0; i < m; ++i) {
    out[i + 1] = ((2.0 * i + 1.0) * out[i] - expT) * inv2T;
  }
}

}  // namespace

void boys(double T, int m, std::span<double> out) {
  assert(m >= 0 && m <= kMaxBoysOrder);
  assert(out.size() >= static_cast<std::size_t>(m) + 1);
  assert(T >= 0.0);

  if (T < 1e-14) {
    boys_tiny(m, out);
    return;
  }
  if (T > 42.0) {
    boys_large(T, m, out);
    return;
  }

  // Moderate T: series at the top order, then stable downward recursion
  //   F_{m-1}(T) = (2T F_m(T) + exp(-T)) / (2m - 1).
  const double expT = std::exp(-T);
  out[m] = boys_series(T, m);
  for (int i = m; i > 0; --i) {
    out[i - 1] = (2.0 * T * out[i] + expT) / (2.0 * i - 1.0);
  }
}

double boys(double T, int m) {
  double buf[kMaxBoysOrder + 1];
  boys(T, m, std::span<double>(buf, m + 1));
  return buf[m];
}

}  // namespace pastri::qc
