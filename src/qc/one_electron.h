// one_electron.h - One-electron integrals over contracted Cartesian
// Gaussian shells: overlap, kinetic energy, and nuclear attraction.
//
// Together with the ERI engine these are everything a Hartree-Fock
// calculation needs -- the workflow (GAMESS RHF) whose ERI traffic the
// paper compresses.  All three use the same McMurchie-Davidson Hermite
// machinery as md_eri.cpp:
//
//   S_ab = E^x_0 E^y_0 E^z_0 (pi/p)^{3/2}
//   T_ab = via the 1-D relation T_ij = -2b^2 S_{i,j+2} + b(2j+1) S_{ij}
//            - j(j-1)/2 S_{i,j-2}
//   V_ab = -sum_C Z_C (2 pi / p) sum_tuv E_tuv R_tuv(p, P - C)
#pragma once

#include "qc/basis.h"
#include "qc/linalg.h"
#include "qc/molecule.h"

namespace pastri::qc {

/// Overlap matrix S (n x n, n = number of basis functions).
Matrix overlap_matrix(const BasisSet& basis);

/// Kinetic-energy matrix T.
Matrix kinetic_matrix(const BasisSet& basis);

/// Nuclear-attraction matrix V (sum over all nuclei of the molecule).
Matrix nuclear_attraction_matrix(const BasisSet& basis,
                                 const Molecule& mol);

/// Core Hamiltonian H = T + V.
Matrix core_hamiltonian(const BasisSet& basis, const Molecule& mol);

/// Classical nuclear-nuclear repulsion energy.
double nuclear_repulsion(const Molecule& mol);

}  // namespace pastri::qc
