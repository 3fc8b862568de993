// Tests for molecular geometries and the synthetic basis builder.
#include <gtest/gtest.h>

#include <cmath>
#include <map>

#include "qc/basis.h"
#include "qc/molecule.h"

namespace pastri::qc {
namespace {

std::map<std::string, int> formula(const Molecule& m) {
  std::map<std::string, int> f;
  for (const auto& a : m.atoms) ++f[a.symbol];
  return f;
}

TEST(Molecule, BenzeneFormulaAndGeometry) {
  const Molecule m = make_benzene();
  const auto f = formula(m);
  EXPECT_EQ(f.at("C"), 6);
  EXPECT_EQ(f.at("H"), 6);
  // C-C bond length 1.397 A in Bohr.
  const double rcc =
      std::sqrt(dist2(m.atoms[0].position, m.atoms[1].position));
  EXPECT_NEAR(rcc, 1.397 * kAngstromToBohr, 1e-9);
  // Planar: all z = 0.
  for (const auto& a : m.atoms) EXPECT_DOUBLE_EQ(a.position[2], 0.0);
}

TEST(Molecule, GlutamineFormula) {
  const auto f = formula(make_glutamine());
  EXPECT_EQ(f.at("C"), 5);
  EXPECT_EQ(f.at("H"), 10);
  EXPECT_EQ(f.at("N"), 2);
  EXPECT_EQ(f.at("O"), 3);
}

TEST(Molecule, TriAlanineFormula) {
  const auto f = formula(make_trialanine());
  EXPECT_EQ(f.at("C"), 9);
  EXPECT_EQ(f.at("H"), 17);
  EXPECT_EQ(f.at("N"), 3);
  EXPECT_EQ(f.at("O"), 4);
}

TEST(Molecule, SizesOrderedBenzeneSmallest) {
  // The paper's molecules span a size range; tri-alanine is the largest.
  EXPECT_LT(make_benzene().diameter(), make_trialanine().diameter());
  EXPECT_LT(make_glutamine().diameter(), make_trialanine().diameter());
}

TEST(Molecule, BondLengthsSane) {
  // No two atoms should sit closer than ~0.8 A or be part of a bond
  // longer than the molecular diameter.
  for (Molecule (*make)() :
       {&make_benzene, &make_glutamine, &make_trialanine}) {
    const Molecule m = make();
    for (std::size_t i = 0; i < m.atoms.size(); ++i) {
      for (std::size_t j = i + 1; j < m.atoms.size(); ++j) {
        const double d =
            std::sqrt(dist2(m.atoms[i].position, m.atoms[j].position));
        EXPECT_GT(d, 0.8 * kAngstromToBohr)
            << m.name << " atoms " << i << "," << j;
      }
    }
  }
}

TEST(Molecule, LookupByName) {
  EXPECT_EQ(make_molecule("benzene").atoms.size(), 12u);
  EXPECT_EQ(make_molecule("glutamine").atoms.size(), 20u);
  EXPECT_EQ(make_molecule("alanine").atoms.size(), 33u);
  EXPECT_EQ(make_molecule("trialanine").atoms.size(), 33u);
  EXPECT_THROW(make_molecule("water"), std::invalid_argument);
}

TEST(Basis, ShellCountsFollowOptions) {
  const Molecule m = make_benzene();  // 6 C + 6 H
  BasisOptions o;
  o.l = 2;
  const BasisSet b = make_basis(m, o);
  // Heavy atoms get 2 shells, hydrogens 1.
  EXPECT_EQ(b.num_shells(), 6u * 2 + 6u * 1);
  EXPECT_EQ(b.num_basis_functions(), b.num_shells() * 6);
  o.l = 3;
  EXPECT_EQ(make_basis(m, o).num_basis_functions(), b.num_shells() * 10);
}

TEST(Basis, ContractionDepth) {
  BasisOptions o;
  o.l = 3;
  o.contraction = 3;
  const BasisSet b = make_basis(make_glutamine(), o);
  for (const auto& sh : b.shells) {
    EXPECT_EQ(sh.l, 3);
    EXPECT_EQ(sh.primitives.size(), 3u);
    // Even-tempered: strictly increasing exponents.
    EXPECT_LT(sh.primitives[0].exponent, sh.primitives[1].exponent);
    EXPECT_LT(sh.primitives[1].exponent, sh.primitives[2].exponent);
  }
}

TEST(Basis, ExponentsVaryByElementAndShellIndex) {
  BasisOptions o;
  o.l = 2;
  const BasisSet b = make_basis(make_glutamine(), o);
  // Successive shells on the same atom must be more diffuse.
  for (std::size_t i = 0; i + 1 < b.shells.size(); ++i) {
    if (b.shells[i].atom_index == b.shells[i + 1].atom_index) {
      EXPECT_GT(b.shells[i].primitives[0].exponent,
                b.shells[i + 1].primitives[0].exponent);
    }
  }
}

TEST(Basis, RejectsBadOptions) {
  BasisOptions o;
  o.l = 9;
  EXPECT_THROW(make_basis(make_benzene(), o), std::invalid_argument);
  o.l = 2;
  o.contraction = 0;
  EXPECT_THROW(make_basis(make_benzene(), o), std::invalid_argument);
}

TEST(Shell, NormalizationSelfOverlapIsOne) {
  // After normalize(), the contracted (L,0,0) self-overlap must be 1.
  for (int l : {0, 1, 2, 3}) {
    Shell sh;
    sh.l = l;
    sh.primitives = {{0.8, 0.7}, {2.0, 0.4}};
    sh.normalize();
    double s = 0.0;
    for (const auto& pi : sh.primitives) {
      for (const auto& pj : sh.primitives) {
        const double gamma = pi.exponent + pj.exponent;
        const double ov = double_factorial_odd(l) *
                          std::pow(M_PI / gamma, 1.5) /
                          std::pow(2.0 * gamma, l);
        s += pi.coefficient * pj.coefficient * ov;
      }
    }
    EXPECT_NEAR(s, 1.0, 1e-12) << "l=" << l;
  }
}

TEST(Shell, ComponentNormRatio) {
  // d_xx vs d_xy: ratio sqrt(3!! / (1!! 1!!)) = sqrt(3) for xy.
  const CartComponent xy{1, 1, 0};
  EXPECT_NEAR(component_norm_ratio(2, xy), std::sqrt(3.0), 1e-14);
  const CartComponent xx{2, 0, 0};
  EXPECT_NEAR(component_norm_ratio(2, xx), 1.0, 1e-14);
  const CartComponent xyz{1, 1, 1};
  EXPECT_NEAR(component_norm_ratio(3, xyz), std::sqrt(15.0), 1e-14);
}

}  // namespace
}  // namespace pastri::qc
