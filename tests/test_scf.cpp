// Tests for the one-electron integrals, STO-3G basis, and the RHF
// solver -- anchored to published STO-3G Hartree-Fock energies, which
// transitively validates the Boys function, the Hermite recurrences, and
// the ERI engine to ~1e-5 Hartree.
#include <gtest/gtest.h>

#include <cmath>

#include "qc/one_electron.h"
#include "qc/scf.h"
#include "qc/sto3g.h"
#include "test_util.h"

namespace pastri::qc {
namespace {

Molecule h2_molecule(double r_bohr = 1.4) {
  Molecule m;
  m.name = "H2";
  m.atoms = {{"H", 1, {0, 0, 0}}, {"H", 1, {r_bohr, 0, 0}}};
  return m;
}

Molecule he_molecule() {
  Molecule m;
  m.name = "He";
  m.atoms = {{"He", 2, {0, 0, 0}}};
  return m;
}

using testutil::h2o_molecule;

TEST(Sto3g, ShellCounts) {
  // H: one s shell.  O: 1s + 2s + 2p.
  EXPECT_EQ(make_sto3g_basis(h2_molecule()).num_shells(), 2u);
  const BasisSet h2o = make_sto3g_basis(h2o_molecule());
  EXPECT_EQ(h2o.num_shells(), 5u);
  EXPECT_EQ(h2o.num_basis_functions(), 7u);  // 1s 2s 2px 2py 2pz + 2 H
}

TEST(Sto3g, UnsupportedElementThrows) {
  Molecule m;
  m.name = "LiH";
  m.atoms = {{"H", 1, {0, 0, 0}}};
  m.atoms.push_back({"H", 1, {1, 0, 0}});
  m.atoms[0].Z = 3;  // pretend lithium
  m.atoms[0].symbol = "Li";
  EXPECT_THROW(make_sto3g_basis(m), std::invalid_argument);
}

TEST(Sto3g, ElectronCount) {
  EXPECT_EQ(electron_count(h2_molecule()), 2);
  EXPECT_EQ(electron_count(h2o_molecule()), 10);
}

TEST(OneElectron, OverlapDiagonalIsOne) {
  for (const Molecule& mol : {h2_molecule(), h2o_molecule()}) {
    const BasisSet basis = make_sto3g_basis(mol);
    const Matrix s = overlap_matrix(basis);
    for (std::size_t i = 0; i < s.size(); ++i) {
      EXPECT_NEAR(s(i, i), 1.0, 1e-10) << mol.name << " i=" << i;
    }
  }
}

TEST(OneElectron, OverlapSymmetricContracting) {
  const BasisSet basis = make_sto3g_basis(h2o_molecule());
  const Matrix s = overlap_matrix(basis);
  EXPECT_LT(s.max_abs_diff(s.transpose()), 1e-12);
  // Off-diagonals bounded by Cauchy-Schwarz.
  for (std::size_t i = 0; i < s.size(); ++i) {
    for (std::size_t j = 0; j < s.size(); ++j) {
      EXPECT_LE(std::abs(s(i, j)), 1.0 + 1e-10);
    }
  }
}

TEST(OneElectron, SzaboH2ReferenceMatrices) {
  // Szabo & Ostlund give the STO-3G H2 (R=1.4) matrix elements:
  // S12 = 0.6593, T11 = 0.7600, T12 = 0.2365, V11 = -1.8804.
  const BasisSet basis = make_sto3g_basis(h2_molecule());
  const Matrix s = overlap_matrix(basis);
  const Matrix t = kinetic_matrix(basis);
  const Matrix v = nuclear_attraction_matrix(basis, h2_molecule());
  EXPECT_NEAR(s(0, 1), 0.6593, 2e-4);
  EXPECT_NEAR(t(0, 0), 0.7600, 2e-4);
  EXPECT_NEAR(t(0, 1), 0.2365, 2e-4);
  EXPECT_NEAR(v(0, 0), -1.8804, 2e-4);
}

TEST(OneElectron, KineticPositiveDiagonal) {
  const BasisSet basis = make_sto3g_basis(h2o_molecule());
  const Matrix t = kinetic_matrix(basis);
  for (std::size_t i = 0; i < t.size(); ++i) {
    EXPECT_GT(t(i, i), 0.0);
  }
  EXPECT_LT(t.max_abs_diff(t.transpose()), 1e-12);
}

TEST(OneElectron, NuclearAttractionNegativeDiagonal) {
  const Molecule mol = h2o_molecule();
  const BasisSet basis = make_sto3g_basis(mol);
  const Matrix v = nuclear_attraction_matrix(basis, mol);
  for (std::size_t i = 0; i < v.size(); ++i) {
    EXPECT_LT(v(i, i), 0.0);
  }
}

TEST(OneElectron, NuclearRepulsionH2) {
  // Z1 Z2 / R = 1 / 1.4.
  EXPECT_NEAR(nuclear_repulsion(h2_molecule()), 1.0 / 1.4, 1e-14);
}

TEST(Rhf, H2MatchesSzabo) {
  // E(RHF/STO-3G, R = 1.4 a0) = -1.1167 Hartree.
  const Molecule mol = h2_molecule();
  const BasisSet basis = make_sto3g_basis(mol);
  const ScfResult res = run_rhf(mol, basis, compute_eri_tensor(basis));
  EXPECT_TRUE(res.converged);
  EXPECT_NEAR(res.total_energy, -1.1167, 2e-4);
}

TEST(Rhf, HeMatchesReference) {
  // E(RHF/STO-3G) = -2.807784 Hartree.
  const Molecule mol = he_molecule();
  const BasisSet basis = make_sto3g_basis(mol);
  const ScfResult res = run_rhf(mol, basis, compute_eri_tensor(basis));
  EXPECT_TRUE(res.converged);
  EXPECT_NEAR(res.total_energy, -2.807784, 1e-5);
}

TEST(Rhf, WaterMatchesReference) {
  // E(RHF/STO-3G) ~ -74.963 Hartree at the experimental geometry.
  const Molecule mol = h2o_molecule();
  const BasisSet basis = make_sto3g_basis(mol);
  const ScfResult res = run_rhf(mol, basis, compute_eri_tensor(basis));
  EXPECT_TRUE(res.converged);
  EXPECT_NEAR(res.total_energy, -74.963, 5e-3);
}

TEST(Rhf, VirialTheoremApproximate) {
  // For a converged HF wavefunction near equilibrium, -V/T ~ 2.
  const Molecule mol = h2_molecule();
  const BasisSet basis = make_sto3g_basis(mol);
  const ScfResult res = run_rhf(mol, basis, compute_eri_tensor(basis));
  const Matrix t = kinetic_matrix(basis);
  double kinetic = 0.0;
  for (std::size_t i = 0; i < t.size(); ++i) {
    for (std::size_t j = 0; j < t.size(); ++j) {
      kinetic += res.density(i, j) * t(j, i);
    }
  }
  const double potential = res.total_energy - kinetic;
  EXPECT_NEAR(-potential / kinetic, 2.0, 0.1);
}

TEST(Rhf, OrbitalEnergiesH2) {
  // Szabo & Ostlund: eps_1 = -0.578, eps_2 = 0.670 for H2/STO-3G.
  const Molecule mol = h2_molecule();
  const BasisSet basis = make_sto3g_basis(mol);
  const ScfResult res = run_rhf(mol, basis, compute_eri_tensor(basis));
  ASSERT_EQ(res.orbital_energies.size(), 2u);
  EXPECT_NEAR(res.orbital_energies[0], -0.578, 5e-3);
  EXPECT_NEAR(res.orbital_energies[1], 0.670, 5e-3);
}

TEST(Rhf, SolveLinearKnownSystem) {
  Matrix a(2);
  a(0, 0) = 2;
  a(0, 1) = 1;
  a(1, 0) = 1;
  a(1, 1) = 3;
  const auto x = solve_linear(a, {5, 10});
  EXPECT_NEAR(x[0], 1.0, 1e-12);
  EXPECT_NEAR(x[1], 3.0, 1e-12);
}

TEST(Rhf, SolveLinearSingularThrows) {
  Matrix a(2);  // zero matrix
  EXPECT_THROW(solve_linear(a, {1, 1}), std::runtime_error);
}

TEST(Rhf, OddElectronCountThrows) {
  Molecule m;
  m.name = "H";
  m.atoms = {{"H", 1, {0, 0, 0}}};
  const BasisSet basis = make_sto3g_basis(m);
  EXPECT_THROW(run_rhf(m, basis, compute_eri_tensor(basis)),
               std::invalid_argument);
}

TEST(Rhf, WrongEriSizeThrows) {
  const Molecule mol = h2_molecule();
  const BasisSet basis = make_sto3g_basis(mol);
  EriTensor wrong(3, 0.0);
  EXPECT_THROW(run_rhf(mol, basis, wrong), std::invalid_argument);
}

TEST(Rhf, EnergyInvariantUnderRigidTranslation) {
  Molecule mol = h2o_molecule();
  const BasisSet basis = make_sto3g_basis(mol);
  const double e0 =
      run_rhf(mol, basis, compute_eri_tensor(basis)).total_energy;
  for (auto& atom : mol.atoms) {
    atom.position[0] += 3.0;
    atom.position[2] -= 1.5;
  }
  const BasisSet basis2 = make_sto3g_basis(mol);
  const double e1 =
      run_rhf(mol, basis2, compute_eri_tensor(basis2)).total_energy;
  EXPECT_NEAR(e0, e1, 1e-8);
}

TEST(Rhf, EriTensorPermutationSymmetry) {
  const BasisSet basis = make_sto3g_basis(h2o_molecule());
  const EriTensor eri = compute_eri_tensor(basis);
  const std::size_t n = basis.num_basis_functions();
  auto at = [&](std::size_t a, std::size_t b, std::size_t c,
                std::size_t d) {
    return eri[((a * n + b) * n + c) * n + d];
  };
  for (std::size_t a = 0; a < n; a += 2) {
    for (std::size_t b = 0; b < n; b += 3) {
      for (std::size_t c = 0; c < n; c += 2) {
        for (std::size_t d = 0; d < n; d += 3) {
          EXPECT_NEAR(at(a, b, c, d), at(b, a, c, d), 1e-12);
          EXPECT_NEAR(at(a, b, c, d), at(c, d, a, b), 1e-12);
          EXPECT_NEAR(at(a, b, c, d), at(a, b, d, c), 1e-12);
        }
      }
    }
  }
}

}  // namespace
}  // namespace pastri::qc
