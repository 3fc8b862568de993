// molecule.h - Molecular geometries for the paper's benchmark systems.
//
// The paper evaluates on tri-alanine, benzene, and glutamine (Fig. 8).
// We embed idealized 3-D geometries for all three.  Chemical accuracy of
// the coordinates is irrelevant for compression behaviour -- what matters
// is a realistic *distribution of inter-shell distances*, which drives the
// distance-factor structure (Eq. 2-3) PaSTRI exploits -- so idealized
// bond lengths/angles are a faithful substitute for crystal structures.
#pragma once

#include <string>
#include <vector>

#include "qc/gaussian.h"

namespace pastri::qc {

/// Conversion factor: Angstrom -> Bohr (atomic units).
inline constexpr double kAngstromToBohr = 1.8897259886;

struct Atom {
  std::string symbol;  ///< element symbol, e.g. "C"
  int Z = 0;           ///< atomic number
  Vec3 position{0, 0, 0};  ///< Bohr
};

struct Molecule {
  std::string name;
  std::vector<Atom> atoms;

  /// Largest inter-atomic distance (Bohr); a cheap sanity metric.
  double diameter() const;
};

/// C6H6, planar hexagon (r_CC = 1.397 A, r_CH = 1.084 A).
Molecule make_benzene();

/// C5H10N2O3 amino acid, idealized 3-D geometry.
Molecule make_glutamine();

/// Ala-Ala-Ala tripeptide (C9H17N3O4), idealized extended chain.
Molecule make_trialanine();

/// Lookup by the names used in the paper: "benzene", "glutamine",
/// "alanine" (tri-alanine).  Throws std::invalid_argument otherwise.
Molecule make_molecule(const std::string& name);

}  // namespace pastri::qc
