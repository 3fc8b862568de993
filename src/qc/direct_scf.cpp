#include "qc/direct_scf.h"

#include <cmath>
#include <stdexcept>

#include "qc/compressed_eri_store.h"

namespace pastri::qc {

DirectFockBuilder::DirectFockBuilder(const BasisSet& basis,
                                     double screen_threshold)
    : plan_(basis), threshold_(screen_threshold) {}

DirectFockBuilder::DirectFockBuilder(const BasisSet& basis,
                                     const CompressedEriStore& store,
                                     double screen_threshold)
    : DirectFockBuilder(basis, screen_threshold) {
  if (!store.layout().same_shells(plan_.layout())) {
    throw std::invalid_argument(
        "DirectFockBuilder: store does not match basis");
  }
  store_ = &store;
}

Matrix DirectFockBuilder::build_g(const Matrix& density) const {
  const ShellLayout& layout = plan_.layout();
  const std::size_t n = layout.num_functions();
  Matrix g(n);
  last_screened_ = 0;

  // Density-weighted screening: |G contribution| <= Q_ab Q_cd max|D|.
  double dmax = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      dmax = std::max(dmax, std::abs(density(i, j)));
    }
  }

  EriWorkspace ws;
  std::vector<double> block;
  layout.for_each_canonical_quartet([&](std::size_t sa, std::size_t sb,
                                        std::size_t sc, std::size_t sd,
                                        int deg) {
    if (plan_.schwarz(sa, sb) * plan_.schwarz(sc, sd) * dmax < threshold_) {
      ++last_screened_;
      return;
    }
    std::shared_ptr<const std::vector<double>> cached;
    const double* blk;
    if (store_ != nullptr) {
      cached = store_->shell_block(sa, sb, sc, sd);
      blk = cached->data();
    } else {
      block.resize(layout.block_size(sa, sb, sc, sd));
      plan_.compute(sa, sb, sc, sd, ws, block);
      blk = block.data();
    }
    // Each element stands for its images in the `deg` ordered quartets:
    // for a symmetric D, one Coulomb/exchange scatter weighted by deg/2,
    // then symmetrizing G, sums J(D) - K(D)/2 over all of them.
    const double w = 0.5 * deg;
    layout.for_each_element(
        sa, sb, sc, sd, blk,
        [&](std::size_t mu, std::size_t nu, std::size_t la, std::size_t si,
            double v) {
          const double x = w * v, xk = 0.25 * x;
          g(mu, nu) += x * density(la, si);
          g(la, si) += x * density(mu, nu);
          g(mu, la) -= xk * density(nu, si);
          g(nu, si) -= xk * density(mu, la);
          g(mu, si) -= xk * density(nu, la);
          g(nu, la) -= xk * density(mu, si);
        });
  });
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < i; ++j) {
      g(i, j) = g(j, i) = 0.5 * (g(i, j) + g(j, i));
    }
  }
  return g;
}

ScfResult run_rhf_direct(const Molecule& mol, const BasisSet& basis,
                         double screen_threshold) {
  const DirectFockBuilder builder(basis, screen_threshold);
  return run_rhf(mol, basis,
                 [&](const Matrix& d) { return builder.build_g(d); });
}

ScfResult run_rhf_from_store(const Molecule& mol, const BasisSet& basis,
                             const CompressedEriStore& store,
                             double screen_threshold) {
  const DirectFockBuilder builder(basis, store, screen_threshold);
  return run_rhf(mol, basis,
                 [&](const Matrix& d) { return builder.build_g(d); });
}

}  // namespace pastri::qc
