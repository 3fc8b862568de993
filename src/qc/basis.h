// basis.h - Synthetic basis-set builder for BF configurations.
//
// The paper's datasets are named by BF configuration -- (dd|dd), (ff|ff),
// and d/f hybrids -- i.e. by which shell types form the ERI blocks.  We
// build a basis by placing shells of the requested angular momentum on
// every atom (two on heavy atoms, one on hydrogen), with
// element-dependent exponents so the shapes vary across shells as they
// do in real basis sets.
#pragma once

#include <vector>

#include "qc/molecule.h"

namespace pastri::qc {

struct BasisOptions {
  int l = 2;            ///< shell angular momentum (2=d, 3=f)
  int contraction = 1;  ///< primitives per shell
};

/// A basis: a flat list of shells over a molecule.
struct BasisSet {
  std::vector<Shell> shells;

  std::size_t num_shells() const { return shells.size(); }
  std::size_t num_basis_functions() const {
    std::size_t n = 0;
    for (const auto& s : shells) n += s.num_components();
    return n;
  }
};

/// Place shells of momentum `opt.l` on every atom: two (tight, then
/// diffuse) on each heavy atom, one on each hydrogen.
/// Exponents depend on the element (C/N/O differ) and, for contracted
/// shells, form a small even-tempered series; shells are normalized.
BasisSet make_basis(const Molecule& mol, const BasisOptions& opt);

}  // namespace pastri::qc
