#include "qc/quartet_plan.h"

#include <algorithm>
#include <cstddef>

namespace pastri::qc {

ShellLayout::ShellLayout(const BasisSet& basis)
    : offset_(basis.shells.size() + 1, 0) {
  l_.reserve(basis.shells.size());
  center_.reserve(basis.shells.size());
  for (std::size_t s = 0; s < basis.shells.size(); ++s) {
    const Shell& sh = basis.shells[s];
    l_.push_back(sh.l);
    center_.push_back(sh.center);
    offset_[s + 1] =
        offset_[s] + static_cast<std::size_t>(sh.num_components());
  }
}

QuartetPlan::QuartetPlan(const BasisSet& basis) : layout_(basis) {
  const std::size_t ns = layout_.num_shells();
  int lmax = 0;
  for (const Shell& sh : basis.shells) lmax = std::max(lmax, sh.l);
  num_l_sums_ = static_cast<std::size_t>(2 * lmax + 1);

  // A pair meets, as its other side, every momentum sum some pair of the
  // basis has; the quartet's R stride is the sum of both plus one.
  std::vector<bool> occurs(num_l_sums_, false);
  for (std::size_t a = 0; a < ns; ++a) {
    for (std::size_t b = 0; b < ns; ++b) {
      occurs[static_cast<std::size_t>(layout_.momentum(a) +
                                      layout_.momentum(b))] = true;
    }
  }

  // Build each pair once, keep a copy linearized per stride, and take
  // its Schwarz bound from the copy at the diagonal stride 2 * l_sum.
  // Every (a, b) writes only its own slots, so rows of the table are
  // built in parallel, one workspace per thread.
  pairs_.resize(ns * ns * num_l_sums_);
  schwarz_.resize(ns * ns);
#pragma omp parallel
  {
    EriWorkspace ws;
#pragma omp for schedule(dynamic)
    for (std::ptrdiff_t ai = 0; ai < static_cast<std::ptrdiff_t>(ns); ++ai) {
      const auto a = static_cast<std::size_t>(ai);
      for (std::size_t b = 0; b < ns; ++b) {
        const ShellPairData built(basis.shells[a], basis.shells[b]);
        for (std::size_t s = 0; s < num_l_sums_; ++s) {
          if (!occurs[s]) continue;
          ShellPairData& p = pairs_[(a * ns + b) * num_l_sums_ + s];
          p = built;
          p.set_r_stride(built.l_sum() + static_cast<int>(s));
        }
        schwarz_[a * ns + b] = schwarz_bound(pair(a, b, built.l_sum()), ws);
      }
    }
  }
}

void QuartetPlan::compute(std::size_t a, std::size_t b, std::size_t c,
                          std::size_t d, EriWorkspace& ws,
                          std::span<double> out) const {
  const int bra_l = layout_.momentum(a) + layout_.momentum(b);
  const int ket_l = layout_.momentum(c) + layout_.momentum(d);
  compute_eri_block(pair(a, b, ket_l), pair(c, d, bra_l), ws, out);
}

}  // namespace pastri::qc
