// boys.h - The Boys function F_m(T), the radial kernel of every Gaussian
// electron-repulsion integral:
//
//   F_m(T) = \int_0^1 t^{2m} exp(-T t^2) dt
//
// McMurchie-Davidson Hermite Coulomb integrals R^n_{tuv} bottom out in
// F_n(alpha * |P-Q|^2), so accuracy here bounds accuracy of every ERI the
// engine produces.  Three regimes: a closed form at T ~ 0, the
// asymptotic form with upward recursion for T > 42, and in between a
// convergent power series at the highest required order (up to ~130
// iterations) plus stable downward recursion.
#pragma once

#include <cstddef>
#include <span>

namespace pastri::qc {

/// Maximum Boys order supported (enough for (ff|ff): L_total = 12, plus
/// margin for derivative-style use).
inline constexpr int kMaxBoysOrder = 28;

/// Fill out[0..m] with F_0(T)..F_m(T).
/// Requires 0 <= m <= kMaxBoysOrder, T >= 0, out.size() >= m+1.
void boys(double T, int m, std::span<double> out);

/// Convenience scalar version.
double boys(double T, int m);

}  // namespace pastri::qc
