#include "qc/basis.h"

#include <stdexcept>

namespace pastri::qc {
namespace {

/// Element-dependent tight exponent for polarization-like shells,
/// modelled on triple-zeta polarization sets (cc-pVTZ d on C: 1.097 and
/// 0.318; d on H: 1.057; f on C: 0.761).  Successive shells on the same
/// atom step towards diffuse by ~3.4x, the cc-pVTZ spread.
double base_exponent(int Z, int l) {
  double base;
  switch (Z) {
    case 1: base = 1.057; break;  // H
    case 6: base = 1.097; break;  // C
    case 7: base = 1.654; break;  // N
    case 8: base = 2.314; break;  // O
    default: throw std::invalid_argument("unsupported element Z");
  }
  // Higher angular momentum shells are slightly tighter in real sets.
  return base * (1.0 + 0.15 * (l - 2));
}

constexpr double kExponentSpread = 3.4;  // tight/diffuse ratio per step

/// Shells per heavy atom: the tight->diffuse exponent spread of
/// triple-zeta polarization sets.  Hydrogens carry one shell.
constexpr int kHeavyAtomShells = 2;

}  // namespace

BasisSet make_basis(const Molecule& mol, const BasisOptions& opt) {
  if (opt.l < 0 || opt.l > kMaxAngularMomentum) {
    throw std::invalid_argument("basis angular momentum out of range");
  }
  if (opt.contraction < 1) {
    throw std::invalid_argument("contraction depth must be >= 1");
  }
  BasisSet basis;
  for (std::size_t ai = 0; ai < mol.atoms.size(); ++ai) {
    const Atom& atom = mol.atoms[ai];
    const double a_tight = base_exponent(atom.Z, opt.l);
    const int nsh = (atom.Z == 1) ? 1 : kHeavyAtomShells;
    for (int si = 0; si < nsh; ++si) {
      Shell sh;
      sh.l = opt.l;
      sh.center = atom.position;
      sh.atom_index = static_cast<int>(ai);
      const double a0 = a_tight / std::pow(kExponentSpread, si);
      // Even-tempered contraction: exponents a0 * 2.5^k with decreasing
      // weights, the usual shape of polarization contractions.
      for (int k = 0; k < opt.contraction; ++k) {
        Primitive p;
        p.exponent = a0 * std::pow(2.5, k);
        p.coefficient = std::pow(0.6, k);
        sh.primitives.push_back(p);
      }
      sh.normalize();
      basis.shells.push_back(std::move(sh));
    }
  }
  return basis;
}

}  // namespace pastri::qc
