#include "qc/scf.h"

#include <cmath>
#include <stdexcept>

#include <deque>

#include "qc/one_electron.h"
#include "qc/quartet_plan.h"
#include "qc/sto3g.h"

namespace pastri::qc {
namespace {

constexpr int kMaxIterations = 200;
constexpr double kEnergyTolerance = 1e-10;   ///< Hartree
constexpr double kDensityTolerance = 1e-8;   ///< max |dD|
constexpr std::size_t kDiisVectors = 6;      ///< DIIS history depth

/// Converged when, past the first iteration, both the energy and the
/// density have stopped moving.
bool converged(int iter, double dE, double dD) {
  return iter > 1 && dE < kEnergyTolerance && dD < kDensityTolerance;
}

/// Pulay DIIS state: history of Fock matrices and their orbital-gradient
/// error vectors e = X^T (F D S - S D F) X.  `extrapolate` solves the
/// constrained least-squares system and returns the mixed Fock matrix.
class Diis {
 public:
  explicit Diis(std::size_t max_vectors) : max_(max_vectors) {}

  void push(const Matrix& fock, const Matrix& error) {
    focks_.push_back(fock);
    errors_.push_back(error);
    if (focks_.size() > max_) {
      focks_.pop_front();
      errors_.pop_front();
    }
  }

  bool ready() const { return focks_.size() >= 2; }

  Matrix extrapolate() const {
    const std::size_t m = focks_.size();
    const std::size_t dim = errors_.front().size();
    // B_ij = <e_i, e_j>; bordered with the -1 Lagrange row/column.
    Matrix b(m + 1);
    for (std::size_t i = 0; i < m; ++i) {
      for (std::size_t j = 0; j < m; ++j) {
        double dot = 0.0;
        for (std::size_t r = 0; r < dim; ++r) {
          for (std::size_t c = 0; c < dim; ++c) {
            dot += errors_[i](r, c) * errors_[j](r, c);
          }
        }
        b(i, j) = dot;
      }
      b(i, m) = b(m, i) = -1.0;
    }
    b(m, m) = 0.0;
    std::vector<double> rhs(m + 1, 0.0);
    rhs[m] = -1.0;
    const std::vector<double> coef = solve_linear(b, rhs);
    Matrix f(dim);
    for (std::size_t i = 0; i < m; ++i) {
      for (std::size_t r = 0; r < dim; ++r) {
        for (std::size_t c = 0; c < dim; ++c) {
          f(r, c) += coef[i] * focks_[i](r, c);
        }
      }
    }
    return f;
  }

 private:
  std::size_t max_;
  std::deque<Matrix> focks_;
  std::deque<Matrix> errors_;
};

}  // namespace

EriTensor compute_eri_tensor(const BasisSet& basis) {
  const QuartetPlan plan(basis);
  const ShellLayout& layout = plan.layout();
  const std::size_t n = layout.num_functions();
  EriTensor eri(n * n * n * n, 0.0);

  for (const std::array<int, 4>& cls : layout.quartet_classes()) {
    plan.compute_class(cls, 0, [&](std::span<const Quartet> quartets,
                                   std::span<const double> blocks) {
      const double* blk = blocks.data();
      for (const Quartet& q : quartets) {
        layout.for_each_element(
            q.a, q.b, q.c, q.d, blk,
            [&](std::size_t mu, std::size_t nu, std::size_t la,
                std::size_t si,
                double v) { eri[((mu * n + nu) * n + la) * n + si] = v; });
        blk += layout.block_size(q.a, q.b, q.c, q.d);
      }
    });
  }
  return eri;
}

ScfResult run_rhf(const Molecule& mol, const BasisSet& basis,
                  const EriTensor& eri) {
  const std::size_t n = basis.num_basis_functions();
  if (eri.size() != n * n * n * n) {
    throw std::invalid_argument("RHF: ERI tensor size mismatch");
  }
  auto eri_at = [&](std::size_t mu, std::size_t nu, std::size_t la,
                    std::size_t si) {
    return eri[((mu * n + nu) * n + la) * n + si];
  };
  const auto g_of_d = [&](const Matrix& D) {
    Matrix G(n);
    for (std::size_t mu = 0; mu < n; ++mu) {
      for (std::size_t nu = 0; nu < n; ++nu) {
        double g = 0.0;
        for (std::size_t la = 0; la < n; ++la) {
          for (std::size_t si = 0; si < n; ++si) {
            g += D(la, si) * (eri_at(mu, nu, si, la) -
                              0.5 * eri_at(mu, la, si, nu));
          }
        }
        G(mu, nu) = g;
      }
    }
    return G;
  };
  return run_rhf(mol, basis, g_of_d);
}

ScfResult run_rhf(const Molecule& mol, const BasisSet& basis,
                  const std::function<Matrix(const Matrix&)>& g_of_d) {
  const std::size_t n = basis.num_basis_functions();
  const int nelec = electron_count(mol);
  if (nelec % 2 != 0) {
    throw std::invalid_argument("RHF requires a closed shell (even "
                                "electron count)");
  }
  const std::size_t nocc = static_cast<std::size_t>(nelec / 2);
  if (nocc > n) {
    throw std::invalid_argument("RHF: more occupied orbitals than basis "
                                "functions");
  }

  const Matrix S = overlap_matrix(basis);
  const Matrix H = core_hamiltonian(basis, mol);
  const Matrix X = symmetric_orthogonalizer(S);

  ScfResult res;
  res.nuclear_repulsion = nuclear_repulsion(mol);

  // Density from the core-Hamiltonian guess.
  Matrix D(n);
  const auto build_density = [&](const Matrix& F) {
    const Matrix Fp = X.transpose() * F * X;
    const EigenResult eig = jacobi_eigensolver(Fp);
    const Matrix C = X * eig.eigenvectors;
    res.mo_coefficients = C;
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
    res.orbital_energies = eig.eigenvalues;
    return Dn;
  };
  D = build_density(H);

  Diis diis(kDiisVectors);
  double e_prev = 0.0;
  for (int iter = 1; iter <= kMaxIterations; ++iter) {
    // Fock build: F = H + G(D).
    Matrix F = H + g_of_d(D);

    // DIIS error vector in the orthonormal basis.
    const Matrix fds = F * D * S;
    const Matrix err = X.transpose() * (fds - fds.transpose()) * X;
    diis.push(F, err);
    if (diis.ready()) {
      try {
        F = diis.extrapolate();
      } catch (const std::runtime_error&) {
        // Singular DIIS system (converged history): keep plain F.
      }
    }

    // Electronic energy: E = 1/2 sum D (H + F).
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
    D = D_new;

    res.iterations = iter;
    res.electronic_energy = e_elec;
    res.total_energy = e_elec + res.nuclear_repulsion;
    if (converged(iter, dE, dD)) {
      res.converged = true;
      break;
    }
  }
  res.density = D;
  return res;
}

UhfResult run_uhf(const Molecule& mol, const BasisSet& basis,
                  const EriTensor& eri, std::size_t n_alpha,
                  std::size_t n_beta) {
  const std::size_t n = basis.num_basis_functions();
  if (eri.size() != n * n * n * n) {
    throw std::invalid_argument("UHF: ERI tensor size mismatch");
  }
  if (n_alpha > n || n_beta > n) {
    throw std::invalid_argument("UHF: occupation exceeds basis size");
  }
  if (n_alpha + n_beta !=
      static_cast<std::size_t>(electron_count(mol))) {
    throw std::invalid_argument("UHF: occupations do not sum to the "
                                "electron count");
  }

  const Matrix S = overlap_matrix(basis);
  const Matrix H = core_hamiltonian(basis, mol);
  const Matrix X = symmetric_orthogonalizer(S);

  UhfResult res;
  res.nuclear_repulsion = nuclear_repulsion(mol);

  auto eri_at = [&](std::size_t mu, std::size_t nu, std::size_t la,
                    std::size_t si) {
    return eri[((mu * n + nu) * n + la) * n + si];
  };

  Matrix Ca, Cb;  // MO coefficients per spin
  auto build_spin_density = [&](const Matrix& F, std::size_t nocc,
                                std::vector<double>& eps, Matrix& C) {
    const Matrix Fp = X.transpose() * F * X;
    const EigenResult eig = jacobi_eigensolver(Fp);
    C = X * eig.eigenvectors;
    eps = eig.eigenvalues;
    Matrix Dn(n);
    for (std::size_t mu = 0; mu < n; ++mu) {
      for (std::size_t nu = 0; nu < n; ++nu) {
        double sum = 0.0;
        for (std::size_t i = 0; i < nocc; ++i) {
          sum += C(mu, i) * C(nu, i);
        }
        Dn(mu, nu) = sum;
      }
    }
    return Dn;
  };

  // Core guess for both spins; break alpha/beta symmetry slightly when
  // the occupations already differ (they do for open shells).
  Matrix Da = build_spin_density(H, n_alpha, res.alpha_orbital_energies,
                                 Ca);
  Matrix Db = build_spin_density(H, n_beta, res.beta_orbital_energies,
                                 Cb);

  Diis diis_a(kDiisVectors), diis_b(kDiisVectors);
  double e_prev = 0.0;
  for (int iter = 1; iter <= kMaxIterations; ++iter) {
    const Matrix Dt = Da + Db;
    Matrix Fa = H, Fb = H;
    for (std::size_t mu = 0; mu < n; ++mu) {
      for (std::size_t nu = 0; nu < n; ++nu) {
        double j = 0.0, ka = 0.0, kb = 0.0;
        for (std::size_t la = 0; la < n; ++la) {
          for (std::size_t si = 0; si < n; ++si) {
            j += Dt(la, si) * eri_at(mu, nu, si, la);
            ka += Da(la, si) * eri_at(mu, la, si, nu);
            kb += Db(la, si) * eri_at(mu, la, si, nu);
          }
        }
        Fa(mu, nu) += j - ka;
        Fb(mu, nu) += j - kb;
      }
    }

    const Matrix fas = Fa * Da * S;
    diis_a.push(Fa, X.transpose() * (fas - fas.transpose()) * X);
    const Matrix fbs = Fb * Db * S;
    diis_b.push(Fb, X.transpose() * (fbs - fbs.transpose()) * X);
    if (diis_a.ready() && diis_b.ready()) {
      try {
        Fa = diis_a.extrapolate();
        Fb = diis_b.extrapolate();
      } catch (const std::runtime_error&) {
        // converged history -> keep plain Fock matrices
      }
    }

    // E = 1/2 sum [ Dt H + Da Fa + Db Fb ]
    double e_elec = 0.0;
    for (std::size_t mu = 0; mu < n; ++mu) {
      for (std::size_t nu = 0; nu < n; ++nu) {
        e_elec += 0.5 * (Dt(nu, mu) * H(mu, nu) +
                         Da(nu, mu) * Fa(mu, nu) +
                         Db(nu, mu) * Fb(mu, nu));
      }
    }

    Matrix Da_new = build_spin_density(Fa, n_alpha,
                                       res.alpha_orbital_energies, Ca);
    Matrix Db_new = build_spin_density(Fb, n_beta,
                                       res.beta_orbital_energies, Cb);
    const double dD = std::max(Da_new.max_abs_diff(Da),
                               Db_new.max_abs_diff(Db));
    const double dE = std::abs(e_elec - e_prev);
    e_prev = e_elec;
    Da = Da_new;
    Db = Db_new;

    res.iterations = iter;
    res.electronic_energy = e_elec;
    res.total_energy = e_elec + res.nuclear_repulsion;
    if (converged(iter, dE, dD)) {
      res.converged = true;
      break;
    }
  }

  // <S^2> = Sz(Sz+1) + Nb - sum_ij |<a_i|S|b_j>|^2 over occupied pairs.
  const double sz = 0.5 * (static_cast<double>(n_alpha) -
                           static_cast<double>(n_beta));
  double overlap_sq = 0.0;
  for (std::size_t i = 0; i < n_alpha; ++i) {
    for (std::size_t j = 0; j < n_beta; ++j) {
      double sij = 0.0;
      for (std::size_t mu = 0; mu < n; ++mu) {
        for (std::size_t nu = 0; nu < n; ++nu) {
          sij += Ca(mu, i) * S(mu, nu) * Cb(nu, j);
        }
      }
      overlap_sq += sij * sij;
    }
  }
  res.s_squared = sz * (sz + 1.0) +
                  static_cast<double>(n_beta) - overlap_sq;
  res.alpha_density = Da;
  res.beta_density = Db;
  return res;
}

}  // namespace pastri::qc
