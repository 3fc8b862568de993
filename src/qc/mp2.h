// mp2.h - Second-order Moller-Plesset perturbation theory on top of a
// converged RHF reference.
//
// The paper's introduction motivates ERI compression precisely for this
// workflow: "post-Hartree-Fock methods need to assemble molecular
// integrals from ERIs.  Compressing and storing the latter can lead to
// considerable speedup".  MP2 re-reads the full ERI tensor once to build
// MO-basis integrals, so a compressed ERI store is consumed verbatim.
#pragma once

#include "qc/compressed_eri_store.h"
#include "qc/scf.h"

namespace pastri::qc {

struct Mp2Result {
  double correlation_energy = 0.0;  ///< E_MP2 (negative)
  double total_energy = 0.0;        ///< E_RHF + E_MP2
};

/// Closed-shell MP2:
///   E = sum_{ij in occ} sum_{ab in virt}
///       (ia|jb) [ 2 (ia|jb) - (ib|ja) ] / (e_i + e_j - e_a - e_b)
/// using the (n^5) quarter-transformation of the AO ERI tensor.
/// `scf` must be a converged result for the same basis/ERIs.
Mp2Result run_mp2(const Molecule& mol, const BasisSet& basis,
                  const EriTensor& eri, const ScfResult& scf);

/// AO -> MO transformation of the full ERI tensor (exposed for tests):
/// out[(p q| r s)] over MO indices, same n^4 layout as the input.
EriTensor transform_eri_to_mo(const EriTensor& eri_ao, const Matrix& c);

/// MP2 entirely off the compressed stream: the first quarter
/// transformation reads each canonical AO shell-quartet block from the
/// store once (each within the error bound) and scatter-accumulates
/// every index image of its symmetry-unique elements into the
/// half-transformed tensor, so the dense AO ERI tensor is never
/// materialized.  Quarters two to four and the energy sum are the same
/// code `run_mp2` runs; with an exact store the two agree to within the
/// compression error bound's propagation through the transform.
/// Together with run_rhf_from_store this closes the paper's workflow:
/// generate -> compress -> (SCF + MP2) with every ERI read decoded on
/// demand.
Mp2Result run_mp2_from_store(const Molecule& mol, const BasisSet& basis,
                             const CompressedEriStore& store,
                             const ScfResult& scf);

}  // namespace pastri::qc
