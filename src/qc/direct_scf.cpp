#include "qc/direct_scf.h"

#include <cmath>
#include <stdexcept>

#include "qc/compressed_eri_store.h"
#include "qc/one_electron.h"
#include "qc/sto3g.h"

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
  layout.for_each_quartet([&](std::size_t sa, std::size_t sb, std::size_t sc,
                              std::size_t sd) {
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
    // Coulomb: (mu nu | la si) D_{si la}; exchange: -1/2 (mu nu | la si)
    // D_{nu la} into G_{mu si}.
    layout.for_each_element(
        sa, sb, sc, sd, blk,
        [&](std::size_t mu, std::size_t nu, std::size_t la, std::size_t si,
            double v) {
          g(mu, nu) += v * density(si, la);
          g(mu, si) -= 0.5 * v * density(nu, la);
        });
  });
  return g;
}

namespace {

/// The SCF fixed-point loop shared by the recompute and decompress
/// arms: identical logic, only the G(D) source differs.
ScfResult run_rhf_with_builder(const Molecule& mol, const BasisSet& basis,
                               const ScfOptions& opt,
                               const DirectFockBuilder& builder) {
  const std::size_t n = basis.num_basis_functions();
  const int nelec = electron_count(mol);
  if (nelec % 2 != 0) {
    throw std::invalid_argument("RHF requires a closed shell");
  }
  const std::size_t nocc = static_cast<std::size_t>(nelec / 2);

  const Matrix S = overlap_matrix(basis);
  const Matrix H = core_hamiltonian(basis, mol);
  const Matrix X = symmetric_orthogonalizer(S);

  ScfResult res;
  res.nuclear_repulsion = nuclear_repulsion(mol);

  auto build_density = [&](const Matrix& F) {
    const Matrix Fp = X.transpose() * F * X;
    const EigenResult eig = jacobi_eigensolver(Fp);
    const Matrix C = X * eig.eigenvectors;
    res.mo_coefficients = C;
    res.orbital_energies = eig.eigenvalues;
    Matrix Dn(n);
    for (std::size_t mu = 0; mu < n; ++mu) {
      for (std::size_t nu = 0; nu < n; ++nu) {
        double sum = 0.0;
        for (std::size_t i = 0; i < nocc; ++i) {
          sum += C(mu, i) * C(nu, i);
        }
        Dn(mu, nu) = 2.0 * sum;
      }
    }
    return Dn;
  };

  Matrix D = build_density(H);
  double e_prev = 0.0;
  for (int iter = 1; iter <= opt.max_iterations; ++iter) {
    const Matrix F = H + builder.build_g(D);
    double e_elec = 0.0;
    for (std::size_t mu = 0; mu < n; ++mu) {
      for (std::size_t nu = 0; nu < n; ++nu) {
        e_elec += 0.5 * D(nu, mu) * (H(mu, nu) + F(mu, nu));
      }
    }
    Matrix D_new = build_density(F);
    const double dD = D_new.max_abs_diff(D);
    const double dE = std::abs(e_elec - e_prev);
    e_prev = e_elec;
    if (iter > 1 && opt.density_mixing > 0.0) {
      for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j < n; ++j) {
          D_new(i, j) = opt.density_mixing * D(i, j) +
                        (1.0 - opt.density_mixing) * D_new(i, j);
        }
      }
    }
    D = D_new;
    res.iterations = iter;
    res.electronic_energy = e_elec;
    res.total_energy = e_elec + res.nuclear_repulsion;
    if (iter > 1 && dE < opt.energy_tolerance &&
        dD < opt.density_tolerance) {
      res.converged = true;
      break;
    }
  }
  res.density = D;
  return res;
}

}  // namespace

ScfResult run_rhf_direct(const Molecule& mol, const BasisSet& basis,
                         const ScfOptions& opt, double screen_threshold) {
  const DirectFockBuilder builder(basis, screen_threshold);
  return run_rhf_with_builder(mol, basis, opt, builder);
}

ScfResult run_rhf_from_store(const Molecule& mol, const BasisSet& basis,
                             const CompressedEriStore& store,
                             const ScfOptions& opt,
                             double screen_threshold) {
  const DirectFockBuilder builder(basis, store, screen_threshold);
  return run_rhf_with_builder(mol, basis, opt, builder);
}

}  // namespace pastri::qc
