// Tests for the Boys function, the numerical foundation of the ERI engine.
#include <gtest/gtest.h>

#include <cmath>
#include <numbers>
#include <span>

#include "qc/boys.h"

namespace pastri::qc {
namespace {

/// Reference via adaptive Simpson integration of t^{2m} exp(-T t^2).
double boys_reference(double T, int m) {
  const int N = 20000;
  double sum = 0.0;
  for (int i = 0; i < N; ++i) {
    const double a = static_cast<double>(i) / N;
    const double b = static_cast<double>(i + 1) / N;
    const double fa = std::pow(a, 2 * m) * std::exp(-T * a * a);
    const double fb = std::pow(b, 2 * m) * std::exp(-T * b * b);
    const double mid = 0.5 * (a + b);
    const double fm = std::pow(mid, 2 * m) * std::exp(-T * mid * mid);
    sum += (b - a) / 6.0 * (fa + 4.0 * fm + fb);
  }
  return sum;
}

TEST(Boys, ZeroArgumentClosedForm) {
  for (int m = 0; m <= kMaxBoysOrder; ++m) {
    EXPECT_DOUBLE_EQ(boys(0.0, m), 1.0 / (2.0 * m + 1.0)) << "m=" << m;
  }
}

TEST(Boys, F0IsScaledErf) {
  for (double T : {0.1, 0.5, 1.0, 4.0, 10.0, 30.0, 50.0, 200.0}) {
    const double expect =
        0.5 * std::sqrt(std::numbers::pi / T) * std::erf(std::sqrt(T));
    EXPECT_NEAR(boys(T, 0), expect, 1e-14 * std::max(1.0, expect))
        << "T=" << T;
  }
}

TEST(Boys, MatchesQuadratureAcrossOrders) {
  for (double T : {0.01, 0.7, 3.0, 12.0, 41.0, 60.0}) {
    for (int m : {0, 1, 2, 5, 9, 12}) {
      const double ref = boys_reference(T, m);
      EXPECT_NEAR(boys(T, m), ref, 1e-12 * std::max(1e-6, ref))
          << "T=" << T << " m=" << m;
    }
  }
}

TEST(Boys, DownwardRecursionIdentity) {
  // F_{m-1}(T) = (2T F_m(T) + exp(-T)) / (2m-1) must hold exactly-ish.
  for (double T : {0.2, 1.0, 5.0, 20.0, 41.9, 42.1, 100.0}) {
    double buf[kMaxBoysOrder + 1];
    boys(T, 12, std::span<double>(buf, 13));
    for (int m = 12; m > 0; --m) {
      const double lhs = buf[m - 1];
      const double rhs = (2.0 * T * buf[m] + std::exp(-T)) / (2.0 * m - 1.0);
      EXPECT_NEAR(lhs, rhs, 1e-13 * std::max(1e-10, std::abs(lhs)))
          << "T=" << T << " m=" << m;
    }
  }
}

TEST(Boys, DecreasesInOrder) {
  // t^{2m} <= t^{2(m-1)} on [0,1] => F_m(T) < F_{m-1}(T).
  for (double T : {0.0, 0.5, 3.0, 25.0, 80.0}) {
    double prev = boys(T, 0);
    for (int m = 1; m <= 16; ++m) {
      const double cur = boys(T, m);
      EXPECT_LT(cur, prev + 1e-300) << "T=" << T << " m=" << m;
      EXPECT_GT(cur, 0.0);
      prev = cur;
    }
  }
}

TEST(Boys, DecreasesInArgument) {
  for (int m : {0, 3, 8}) {
    double prev = boys(0.0, m);
    for (double T : {0.1, 1.0, 5.0, 20.0, 45.0, 100.0}) {
      const double cur = boys(T, m);
      EXPECT_LT(cur, prev) << "m=" << m << " T=" << T;
      prev = cur;
    }
  }
}

TEST(Boys, LargeArgumentAsymptotics) {
  // F_m(T) -> (2m-1)!! / (2T)^m * (1/2) sqrt(pi/T) for large T.
  for (int m : {0, 1, 2, 4}) {
    const double T = 300.0;
    double dfac = 1.0;
    for (int k = 2 * m - 1; k > 1; k -= 2) dfac *= k;
    const double expect = dfac / std::pow(2.0 * T, m) * 0.5 *
                          std::sqrt(std::numbers::pi / T);
    EXPECT_NEAR(boys(T, m), expect, 1e-10 * expect) << "m=" << m;
  }
}

TEST(Boys, ContinuousAcrossRegimeSwitch) {
  // The implementation switches algorithms at T = 42; values must agree
  // across the seam.  Keep the T gap tiny so the genuine slope of F_m
  // (|dF_0/dT| ~ 2e-3 at T = 42) does not mask a branch discrepancy.
  for (int m : {0, 2, 6, 12}) {
    const double below = boys(41.999999999, m);
    const double above = boys(42.000000001, m);
    EXPECT_NEAR(below, above, 1e-9 * below) << "m=" << m;
  }
}

TEST(Boys, SpanOverloadMatchesScalar) {
  double buf[kMaxBoysOrder + 1];
  boys(7.3, 10, std::span<double>(buf, 11));
  for (int m = 0; m <= 10; ++m) {
    EXPECT_DOUBLE_EQ(buf[m], boys(7.3, m)) << "m=" << m;
  }
}

}  // namespace
}  // namespace pastri::qc
