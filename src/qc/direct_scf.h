// direct_scf.h - Integral-direct Fock construction.
//
// The "Original" arm of the paper's Fig. 11: instead of storing ERIs
// (raw or compressed), recompute every shell-quartet block on the fly
// each time the Fock matrix is built, skipping quartets that fail the
// Cauchy-Schwarz screen -- the standard direct-SCF mode of GAMESS.
// Comparing this against `CompressedEriStore` + `run_rhf` is the
// recompute-vs-decompress trade the paper quantifies.
//
// The builder also runs in decompress-direct mode: backed by a
// CompressedEriStore it fetches surviving quartets from the seekable
// compressed streams (LRU-cached single-block decodes) instead of
// recomputing them -- the paper's "decompress whenever it is needed
// again" arm, without ever materializing the dense tensor.
// Either way a build visits only the canonical shell quartets (a >= b,
// c >= d, ab >= cd), each scattered once weighted by its degeneracy.
#pragma once

#include "qc/quartet_plan.h"
#include "qc/scf.h"

namespace pastri::qc {

class CompressedEriStore;

/// The basis's quartet plan (shell pairs and Schwarz bounds), reused
/// across Fock builds.
class DirectFockBuilder {
 public:
  explicit DirectFockBuilder(const BasisSet& basis,
                             double screen_threshold = 1e-12);

  /// Decompress-direct mode: surviving quartets are read from `store`
  /// (which must outlive the builder) instead of being recomputed.
  /// Throws std::invalid_argument unless the store was built for shells
  /// of the same momenta at the same centers, in the same order.
  DirectFockBuilder(const BasisSet& basis, const CompressedEriStore& store,
                    double screen_threshold = 1e-12);

  /// G(D) = J(D) - K(D)/2: the two-electron part of the Fock matrix
  /// for density D, built by recomputing (or decompressing) every
  /// surviving canonical quartet once.  D must be symmetric (SCF
  /// densities are): the symmetry-weighted scatter relies on it.
  Matrix build_g(const Matrix& density) const;

  /// Canonical shell quartets skipped by screening in the last build,
  /// out of total_quartets() = P (P + 1) / 2 for P = ns (ns + 1) / 2.
  std::size_t last_screened() const { return last_screened_; }
  std::size_t total_quartets() const {
    const std::size_t ns = plan_.layout().num_shells();
    return ns * (ns + 1) / 2 * (ns * (ns + 1) / 2 + 1) / 2;
  }

 private:
  QuartetPlan plan_;
  const CompressedEriStore* store_ = nullptr;
  double threshold_;
  mutable std::size_t last_screened_ = 0;
};

/// Restricted Hartree-Fock with direct (recomputed) integrals.
/// Produces the same fixed point as run_rhf on the dense tensor.
ScfResult run_rhf_direct(const Molecule& mol, const BasisSet& basis,
                         double screen_threshold = 1e-12);

/// Restricted Hartree-Fock consuming compressed integrals
/// quartet-by-quartet from `store` (same SCF logic as run_rhf_direct;
/// the energy agrees to within what the store's error bound allows).
ScfResult run_rhf_from_store(const Molecule& mol, const BasisSet& basis,
                             const CompressedEriStore& store,
                             double screen_threshold = 1e-12);

}  // namespace pastri::qc
