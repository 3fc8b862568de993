// scf.h - Restricted Hartree-Fock, the quantum chemistry method whose
// ERI traffic PaSTRI compresses (Section I: "restricted Hartree-Fock,
// unrestricted Hartree-Fock, and density functional theory").
//
// The solver takes the ERI tensor through a provider interface, so a
// calculation can run from exact integrals, from a PaSTRI-decompressed
// copy (the paper's "compress once, decompress every iteration"
// infrastructure of Fig. 11), or from any other source.
#pragma once

#include <functional>
#include <vector>

#include "qc/basis.h"
#include "qc/linalg.h"
#include "qc/molecule.h"

namespace pastri::qc {

/// Dense ERI tensor (mu nu | la si), row-major over four indices of
/// dimension n = number of basis functions.  Fine for the small systems
/// the SCF substrate targets.
using EriTensor = std::vector<double>;

/// Compute the full ERI tensor for a basis (8-fold symmetry not
/// exploited; n is tiny here).  The blocks are computed class by class
/// in parallel batches (QuartetPlan::compute_class, default thread
/// count, core/parallel.h); the tensor is bit-identical for any thread count.
EriTensor compute_eri_tensor(const BasisSet& basis);

struct ScfResult {
  bool converged = false;
  int iterations = 0;
  double electronic_energy = 0.0;   ///< Hartree
  double nuclear_repulsion = 0.0;   ///< Hartree
  double total_energy = 0.0;        ///< electronic + nuclear
  std::vector<double> orbital_energies;
  Matrix density;                   ///< converged density matrix
  Matrix mo_coefficients;           ///< AO->MO coefficients (columns)
};

/// Every SCF entry point runs Pulay DIIS (history depth 6) for at most
/// 200 iterations and converges when, after the first iteration, the
/// energy moves by less than 1e-10 Hartree and the density by less than
/// 1e-8 (max |dD|).

/// Run restricted Hartree-Fock for a closed-shell molecule.
/// Throws std::invalid_argument for an odd electron count.
ScfResult run_rhf(const Molecule& mol, const BasisSet& basis,
                  const EriTensor& eri);

/// The RHF loop every RHF entry point runs (dense, direct, from store):
/// F = H + G(D), G(D) = J(D) - K(D)/2 from `g_of_d` (always passed a
/// symmetric D).  Also throws when occupied orbitals outnumber basis
/// functions.
ScfResult run_rhf(const Molecule& mol, const BasisSet& basis,
                  const std::function<Matrix(const Matrix&)>& g_of_d);

struct UhfResult {
  bool converged = false;
  int iterations = 0;
  double electronic_energy = 0.0;
  double nuclear_repulsion = 0.0;
  double total_energy = 0.0;
  std::vector<double> alpha_orbital_energies;
  std::vector<double> beta_orbital_energies;
  Matrix alpha_density;
  Matrix beta_density;
  /// <S^2> expectation diagnostic, 0 for a pure singlet.
  double s_squared = 0.0;
};

/// Unrestricted Hartree-Fock with explicit alpha/beta occupations
/// (open shells, the paper's "unrestricted Hartree-Fock" use case).
/// For n_alpha == n_beta on a closed-shell system the energy coincides
/// with RHF.
UhfResult run_uhf(const Molecule& mol, const BasisSet& basis,
                  const EriTensor& eri, std::size_t n_alpha,
                  std::size_t n_beta);

}  // namespace pastri::qc
