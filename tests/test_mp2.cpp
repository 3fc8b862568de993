// Tests for MP2 and the AO->MO integral transformation.
#include <gtest/gtest.h>

#include <cmath>

#include "core/pastri.h"
#include "qc/mp2.h"
#include "qc/sto3g.h"
#include "test_util.h"

namespace pastri::qc {
namespace {

Molecule h2_molecule() {
  Molecule m;
  m.name = "H2";
  m.atoms = {{"H", 1, {0, 0, 0}}, {"H", 1, {1.4, 0, 0}}};
  return m;
}

using testutil::h2o_molecule;

TEST(Mp2Transform, MoTensorHasMoSymmetries) {
  const Molecule mol = h2o_molecule();
  const BasisSet basis = make_sto3g_basis(mol);
  const EriTensor ao = compute_eri_tensor(basis);
  const ScfResult scf = run_rhf(mol, basis, ao);
  const EriTensor mo = transform_eri_to_mo(ao, scf.mo_coefficients);
  const std::size_t n = basis.num_basis_functions();
  auto at = [n, &mo](std::size_t p, std::size_t q, std::size_t r,
                     std::size_t s) {
    return mo[((p * n + q) * n + r) * n + s];
  };
  for (std::size_t p = 0; p < n; p += 2) {
    for (std::size_t q = 0; q < n; q += 3) {
      for (std::size_t r = 0; r < n; r += 2) {
        for (std::size_t s = 0; s < n; s += 3) {
          EXPECT_NEAR(at(p, q, r, s), at(q, p, r, s), 1e-10);
          EXPECT_NEAR(at(p, q, r, s), at(r, s, p, q), 1e-10);
        }
      }
    }
  }
}

TEST(Mp2Transform, IdentityCoefficientsAreNoop) {
  const Molecule mol = h2_molecule();
  const BasisSet basis = make_sto3g_basis(mol);
  const EriTensor ao = compute_eri_tensor(basis);
  const EriTensor same =
      transform_eri_to_mo(ao, Matrix::identity(2));
  for (std::size_t i = 0; i < ao.size(); ++i) {
    EXPECT_NEAR(same[i], ao[i], 1e-13);
  }
}

TEST(Mp2, H2MinimalBasisClosedForm) {
  // Two electrons in two orbitals: the only double excitation gives
  // E_MP2 = -(gu|gu)^2 / (2 (e_u - e_g)).
  const Molecule mol = h2_molecule();
  const BasisSet basis = make_sto3g_basis(mol);
  const EriTensor ao = compute_eri_tensor(basis);
  const ScfResult scf = run_rhf(mol, basis, ao);
  const Mp2Result mp2 = run_mp2(mol, basis, ao, scf);

  const EriTensor mo = transform_eri_to_mo(ao, scf.mo_coefficients);
  const double gu_gu = mo[((0 * 2 + 1) * 2 + 0) * 2 + 1];  // (01|01)
  const double expect =
      -gu_gu * gu_gu /
      (2.0 * (scf.orbital_energies[1] - scf.orbital_energies[0]));
  EXPECT_NEAR(mp2.correlation_energy, expect, 1e-10);
  // Literature ballpark for H2/STO-3G at R = 1.4: ~ -0.013 Hartree.
  EXPECT_LT(mp2.correlation_energy, -0.005);
  EXPECT_GT(mp2.correlation_energy, -0.03);
}

TEST(Mp2, H2AgainstFullCi) {
  // In a 2-electron / 2-orbital space the exact (FCI) ground state comes
  // from the 2x2 matrix in the { |g g|, |u u| } determinant basis:
  //   [ 0      K   ]         with K = (gu|gu), and
  //   [ K   2(e_u - e_g) + (uu|uu) + (gg|gg) - 4(gg|uu) + 2(gu|gu) ]
  // MP2 must recover a large fraction of, but never exceed, the FCI
  // correlation energy.
  const Molecule mol = h2_molecule();
  const BasisSet basis = make_sto3g_basis(mol);
  const EriTensor ao = compute_eri_tensor(basis);
  const ScfResult scf = run_rhf(mol, basis, ao);
  const Mp2Result mp2 = run_mp2(mol, basis, ao, scf);

  const EriTensor mo = transform_eri_to_mo(ao, scf.mo_coefficients);
  auto at = [&mo](std::size_t p, std::size_t q, std::size_t r,
                  std::size_t s) {
    return mo[((p * 2 + q) * 2 + r) * 2 + s];
  };
  const double K = at(0, 1, 0, 1);
  const double d =
      2.0 * (scf.orbital_energies[1] - scf.orbital_energies[0]) +
      at(0, 0, 0, 0) + at(1, 1, 1, 1) - 4.0 * at(0, 0, 1, 1) +
      2.0 * at(0, 1, 0, 1);
  // Ground eigenvalue of [[0, K], [K, d]] relative to the HF reference:
  const double fci_corr = 0.5 * (d - std::sqrt(d * d + 4.0 * K * K));
  EXPECT_LT(fci_corr, 0.0);
  EXPECT_LT(mp2.correlation_energy, 0.0);
  EXPECT_GE(mp2.correlation_energy, fci_corr * 1.001);  // |MP2| <= |FCI|
  EXPECT_LE(mp2.correlation_energy, fci_corr * 0.5);    // recovers >50%
}

TEST(Mp2, WaterCorrelationNegativeAndSane) {
  const Molecule mol = h2o_molecule();
  const BasisSet basis = make_sto3g_basis(mol);
  const EriTensor ao = compute_eri_tensor(basis);
  const ScfResult scf = run_rhf(mol, basis, ao);
  const Mp2Result mp2 = run_mp2(mol, basis, ao, scf);
  // H2O/STO-3G MP2 correlation is a few tens of millihartree.
  EXPECT_LT(mp2.correlation_energy, -0.01);
  EXPECT_GT(mp2.correlation_energy, -0.15);
  EXPECT_NEAR(mp2.total_energy,
              scf.total_energy + mp2.correlation_energy, 1e-14);
}

TEST(Mp2, RequiresConvergedScf) {
  const Molecule mol = h2_molecule();
  const BasisSet basis = make_sto3g_basis(mol);
  const EriTensor ao = compute_eri_tensor(basis);
  ScfResult unconverged;
  unconverged.converged = false;
  EXPECT_THROW(run_mp2(mol, basis, ao, unconverged),
               std::invalid_argument);
}

TEST(Mp2, CompressedEriChangesEnergyWithinBound) {
  // The paper's post-HF motivation end-to-end: MP2 from a
  // PaSTRI-compressed ERI store matches the exact-ERI result to within
  // a perturbation consistent with EB.
  const Molecule mol = h2o_molecule();
  const BasisSet basis = make_sto3g_basis(mol);
  const EriTensor ao = compute_eri_tensor(basis);
  const ScfResult scf = run_rhf(mol, basis, ao);
  const Mp2Result exact = run_mp2(mol, basis, ao, scf);

  const std::size_t n = basis.num_basis_functions();
  pastri::Params p;
  p.error_bound = 1e-10;
  const auto stream =
      pastri::compress(ao, pastri::BlockSpec{n, n * n * n}, p);
  const EriTensor restored = pastri::decompress(stream);
  const ScfResult scf2 = run_rhf(mol, basis, restored);
  const Mp2Result lossy = run_mp2(mol, basis, restored, scf2);
  EXPECT_NEAR(lossy.total_energy, exact.total_energy, 1e-6);
}

}  // namespace
}  // namespace pastri::qc
