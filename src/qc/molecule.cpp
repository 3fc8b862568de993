#include "qc/molecule.h"

#include <cmath>
#include <numbers>
#include <stdexcept>

namespace pastri::qc {
namespace {

int element_Z(const std::string& sym) {
  if (sym == "H") return 1;
  if (sym == "C") return 6;
  if (sym == "N") return 7;
  if (sym == "O") return 8;
  throw std::invalid_argument("unknown element: " + sym);
}

void add_atom(Molecule& m, const std::string& sym, double x_ang,
              double y_ang, double z_ang) {
  m.atoms.push_back(Atom{sym, element_Z(sym),
                         Vec3{x_ang * kAngstromToBohr,
                              y_ang * kAngstromToBohr,
                              z_ang * kAngstromToBohr}});
}

}  // namespace

double Molecule::diameter() const {
  double d2 = 0.0;
  for (std::size_t i = 0; i < atoms.size(); ++i) {
    for (std::size_t j = i + 1; j < atoms.size(); ++j) {
      d2 = std::max(d2, dist2(atoms[i].position, atoms[j].position));
    }
  }
  return std::sqrt(d2);
}

Molecule make_benzene() {
  Molecule m;
  m.name = "benzene";
  const double rC = 1.397, rH = 1.397 + 1.084;
  for (int k = 0; k < 6; ++k) {
    const double th = k * std::numbers::pi / 3.0;
    add_atom(m, "C", rC * std::cos(th), rC * std::sin(th), 0.0);
  }
  for (int k = 0; k < 6; ++k) {
    const double th = k * std::numbers::pi / 3.0;
    add_atom(m, "H", rH * std::cos(th), rH * std::sin(th), 0.0);
  }
  return m;
}

Molecule make_glutamine() {
  Molecule m;
  m.name = "glutamine";
  // Idealized geometry: backbone H2N-CH(COOH)- with the -CH2-CH2-C(=O)NH2
  // side chain.  Bond lengths ~1.0 (X-H), ~1.5 (C-C), ~1.35 (C-N/C-O).
  add_atom(m, "N", -1.95, 0.49, -0.80);   // alpha amine
  add_atom(m, "C", -1.00, 0.00, 0.20);    // CA
  add_atom(m, "C", -1.50, -1.30, 0.80);   // carboxyl C
  add_atom(m, "O", -2.60, -1.75, 0.55);   // C=O
  add_atom(m, "O", -0.65, -1.95, 1.62);   // C-OH
  add_atom(m, "C", 0.40, -0.15, -0.35);   // CB
  add_atom(m, "C", 1.50, 0.35, 0.55);     // CG
  add_atom(m, "C", 2.85, 0.25, -0.10);    // CD (amide carbon)
  add_atom(m, "O", 3.05, -0.35, -1.15);   // OE1
  add_atom(m, "N", 3.85, 0.85, 0.50);     // NE2
  add_atom(m, "H", -1.55, 1.33, -1.20);
  add_atom(m, "H", -2.85, 0.73, -0.40);
  add_atom(m, "H", -0.90, 0.70, 1.04);
  add_atom(m, "H", 0.30, 0.45, -1.26);
  add_atom(m, "H", 0.65, -1.18, -0.60);
  add_atom(m, "H", 1.30, 1.39, 0.82);
  add_atom(m, "H", 1.55, -0.22, 1.48);
  add_atom(m, "H", 4.75, 0.80, 0.08);
  add_atom(m, "H", 3.65, 1.35, 1.35);
  add_atom(m, "H", -1.00, -2.78, 2.00);
  return m;
}

Molecule make_trialanine() {
  Molecule m;
  m.name = "alanine";  // paper labels this dataset "alanine" (tri-Alanine)
  // Extended Ala-Ala-Ala chain along +x, alternating pleat in y.
  for (int i = 0; i < 3; ++i) {
    const double x0 = 3.6 * i;
    const double s = (i % 2 == 0) ? 1.0 : -1.0;
    add_atom(m, "N", x0 + 0.00, 0.30 * s, 0.00);
    add_atom(m, "C", x0 + 1.00, -0.45 * s, 0.10);   // CA
    add_atom(m, "C", x0 + 1.20, -1.20 * s, 1.35);   // CB (methyl)
    add_atom(m, "C", x0 + 2.20, 0.35 * s, -0.30);   // carbonyl C
    add_atom(m, "O", x0 + 2.30, 1.50 * s, -0.70);   // carbonyl O
    // CA hydrogen
    add_atom(m, "H", x0 + 0.95, -1.15 * s, -0.72);
    // CB (methyl) hydrogens
    add_atom(m, "H", x0 + 0.40, -1.90 * s, 1.52);
    add_atom(m, "H", x0 + 2.15, -1.73 * s, 1.33);
    add_atom(m, "H", x0 + 1.20, -0.50 * s, 2.19);
    if (i == 0) {
      // N-terminal amine hydrogens
      add_atom(m, "H", x0 - 0.65, 1.05 * s, 0.25);
      add_atom(m, "H", x0 - 0.40, -0.35 * s, -0.65);
    } else {
      // backbone amide hydrogen
      add_atom(m, "H", x0 - 0.15, 1.05 * s, 0.55);
    }
  }
  // C-terminal carboxyl OH
  add_atom(m, "O", 2.0 * 3.6 + 3.00, -0.60, -1.05);
  add_atom(m, "H", 2.0 * 3.6 + 3.75, -0.10, -1.40);
  return m;
}

Molecule make_molecule(const std::string& name) {
  if (name == "benzene") return make_benzene();
  if (name == "glutamine") return make_glutamine();
  if (name == "alanine" || name == "trialanine" || name == "tri-alanine") {
    return make_trialanine();
  }
  throw std::invalid_argument("unknown molecule: " + name);
}

}  // namespace pastri::qc
