// Tests for integral-direct Fock construction (the Fig. 11 "Original"
// arm: recompute ERIs on the fly with Schwarz screening).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "core/pastri.h"
#include "qc/compressed_eri_store.h"
#include "qc/direct_scf.h"
#include "qc/mp2.h"
#include "qc/sto3g.h"
#include "test_util.h"

namespace pastri::qc {
namespace {

using testutil::h2o_molecule;
using testutil::methanol_molecule;

Molecule h2_molecule() {
  Molecule m;
  m.name = "H2";
  m.atoms = {{"H", 1, {0, 0, 0}}, {"H", 1, {1.4, 0, 0}}};
  return m;
}

TEST(DirectScf, GMatrixMatchesDenseTensor) {
  // Methanol has p shells on two centers, so the canonical scatter's
  // diagonal shell pairs of width 3 are exercised on both.
  for (const Molecule& mol : {h2o_molecule(), methanol_molecule()}) {
    const BasisSet basis = make_sto3g_basis(mol);
    const std::size_t n = basis.num_basis_functions();
    const EriTensor eri = compute_eri_tensor(basis);
    const ScfResult ref = run_rhf(mol, basis, eri);
    ASSERT_TRUE(ref.converged) << mol.name;

    // G(D) from the direct builder vs from the dense tensor at the
    // converged density.
    const DirectFockBuilder builder(basis, 0.0);  // no screening
    const Matrix g_direct = builder.build_g(ref.density);
    Matrix g_dense(n);
    for (std::size_t mu = 0; mu < n; ++mu) {
      for (std::size_t nu = 0; nu < n; ++nu) {
        double g = 0.0;
        for (std::size_t la = 0; la < n; ++la) {
          for (std::size_t si = 0; si < n; ++si) {
            g += ref.density(la, si) *
                 (eri[((mu * n + nu) * n + si) * n + la] -
                  0.5 * eri[((mu * n + la) * n + si) * n + nu]);
          }
        }
        g_dense(mu, nu) = g;
      }
    }
    EXPECT_LT(g_direct.max_abs_diff(g_dense), 1e-11) << mol.name;
  }
}

TEST(DirectScf, FockBuildAndMp2ReadEachCanonicalQuartetOnce) {
  // H2O/STO-3G: 5 shells, 15 shell pairs a >= b, 120 canonical quartets
  // standing for 625 ordered ones.
  const Molecule mol = h2o_molecule();
  const BasisSet basis = make_sto3g_basis(mol);
  const ShellLayout layout(basis);
  std::size_t canonical = 0, ordered = 0;
  layout.for_each_canonical_quartet(
      [&](std::size_t, std::size_t, std::size_t, std::size_t, int deg) {
        ++canonical;
        ordered += static_cast<std::size_t>(deg);
      });
  EXPECT_EQ(canonical, 120u);
  EXPECT_EQ(ordered, layout.num_quartets());

  Params p;
  CompressedEriStore store(basis, p);
  store.set_cache({0, 1});  // every read decodes
  const DirectFockBuilder builder(basis, store, 0.0);
  EXPECT_EQ(builder.total_quartets(), 120u);
  const ScfResult scf = run_rhf(mol, basis, compute_eri_tensor(basis));
  ASSERT_TRUE(scf.converged);

  CacheStats before = store.cache_stats();
  builder.build_g(scf.density);
  CacheStats after = store.cache_stats();
  EXPECT_EQ(builder.last_screened(), 0u);
  EXPECT_EQ(after.misses - before.misses, 120u);
  EXPECT_EQ(after.hits, before.hits);

  before = after;
  run_mp2_from_store(mol, basis, store, scf);
  after = store.cache_stats();
  EXPECT_EQ(after.misses - before.misses, 120u);
  EXPECT_EQ(after.hits, before.hits);
}

TEST(DirectScf, EveryRhfEntryPointHonoursDiis) {
  // All three RHF entry points run one DIIS loop, so the direct and
  // store-backed solves take the dense solve's iteration count.
  const Molecule mol = h2o_molecule();
  const BasisSet basis = make_sto3g_basis(mol);
  Params p;
  const CompressedEriStore store(basis, p);
  const ScfResult dense = run_rhf(mol, basis, compute_eri_tensor(basis));
  ASSERT_TRUE(dense.converged);
  const ScfResult direct = run_rhf_direct(mol, basis);
  const ScfResult stored = run_rhf_from_store(mol, basis, store);
  ASSERT_TRUE(direct.converged);
  ASSERT_TRUE(stored.converged);
  EXPECT_EQ(direct.iterations, dense.iterations);
  EXPECT_EQ(stored.iterations, dense.iterations);
}

TEST(DirectScf, EnergyMatchesTensorScf) {
  for (const Molecule& mol : {h2_molecule(), h2o_molecule()}) {
    const BasisSet basis = make_sto3g_basis(mol);
    const ScfResult tensor =
        run_rhf(mol, basis, compute_eri_tensor(basis));
    const ScfResult direct = run_rhf_direct(mol, basis);
    ASSERT_TRUE(direct.converged) << mol.name;
    EXPECT_NEAR(direct.total_energy, tensor.total_energy, 1e-7)
        << mol.name;
  }
}

TEST(DirectScf, EnergyFromCompressedStoreMatches) {
  // The decompress-direct arm: the SCF consumes compressed integrals
  // quartet-by-quartet (LRU-cached single-block decodes) and must land
  // on the same fixed point as recompute-direct, with zero recomputed
  // quartets and real cache traffic.
  for (const Molecule& mol : {h2_molecule(), h2o_molecule()}) {
    const BasisSet basis = make_sto3g_basis(mol);
    Params p;
    p.error_bound = 1e-12;
    const CompressedEriStore store(basis, p);
    const ScfResult direct = run_rhf_direct(mol, basis);
    const ScfResult stored = run_rhf_from_store(mol, basis, store);
    ASSERT_TRUE(stored.converged) << mol.name;
    EXPECT_NEAR(stored.total_energy, direct.total_energy, 1e-7)
        << mol.name;
    const CacheStats stats = store.cache_stats();
    EXPECT_GT(stats.hits + stats.misses, 0u) << mol.name;
  }
}

TEST(DirectScf, StoreBuilderRejectsMismatchedBasis) {
  const BasisSet h2o = make_sto3g_basis(h2o_molecule());
  const BasisSet h2 = make_sto3g_basis(h2_molecule());
  Params p;
  const CompressedEriStore store(h2, p);
  EXPECT_THROW(DirectFockBuilder(h2o, store), std::invalid_argument);

  // Same molecule with the atoms listed H, H, O: the shell and function
  // counts agree with the O, H, H store, but the shell momenta and
  // centers do not, so its blocks must not be read for this basis.
  const CompressedEriStore ohh(h2o, p);
  Molecule hho = h2o_molecule();
  std::rotate(hho.atoms.begin(), hho.atoms.begin() + 1, hho.atoms.end());
  const BasisSet reordered = make_sto3g_basis(hho);
  ASSERT_EQ(reordered.shells.size(), h2o.shells.size());
  ASSERT_EQ(reordered.num_basis_functions(), h2o.num_basis_functions());
  EXPECT_THROW(DirectFockBuilder(reordered, ohh), std::invalid_argument);
  const ScfResult scf = run_rhf_direct(hho, reordered);
  ASSERT_TRUE(scf.converged);
  EXPECT_THROW(run_mp2_from_store(hho, reordered, ohh, scf),
               std::invalid_argument);
}

TEST(DirectScf, ScreeningSkipsQuartetsWithoutChangingEnergy) {
  const Molecule mol = h2o_molecule();
  const BasisSet basis = make_sto3g_basis(mol);
  const ScfResult loose = run_rhf_direct(mol, basis, 1e-9);
  const ScfResult exact = run_rhf_direct(mol, basis, 0.0);
  ASSERT_TRUE(loose.converged);
  EXPECT_NEAR(loose.total_energy, exact.total_energy, 1e-6);

  // A stretched system screens a real fraction of quartets.
  Molecule far = mol;
  far.atoms.push_back({"H", 1, {25.0, 0, 0}});
  far.atoms.push_back({"H", 1, {26.4, 0, 0}});
  const BasisSet basis_far = make_sto3g_basis(far);
  const DirectFockBuilder builder(basis_far, 1e-9);
  Matrix d(basis_far.num_basis_functions());
  for (std::size_t i = 0; i < d.size(); ++i) d(i, i) = 1.0;
  builder.build_g(d);
  EXPECT_GT(builder.last_screened(), builder.total_quartets() / 10);
}

}  // namespace
}  // namespace pastri::qc
