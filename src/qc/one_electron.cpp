#include "qc/one_electron.h"

#include <cmath>
#include <numbers>

#include "qc/md_eri.h"
#include "qc/quartet_plan.h"

namespace pastri::qc {
namespace {

/// Generic assembler: for each shell pair and primitive pair, hand the
/// Hermite tables to a kernel that fills the (component x component)
/// sub-matrix contribution.
template <typename Kernel>
Matrix assemble_one_electron(const BasisSet& basis, int extra_j,
                             Kernel&& kernel) {
  const ShellLayout layout(basis);
  Matrix out(layout.num_functions());

  for (std::size_t sa = 0; sa < basis.shells.size(); ++sa) {
    for (std::size_t sb = 0; sb < basis.shells.size(); ++sb) {
      const Shell& A = basis.shells[sa];
      const Shell& B = basis.shells[sb];
      for (const auto& pa : A.primitives) {
        for (const auto& pb : B.primitives) {
          const double a = pa.exponent, b = pb.exponent;
          const double p = a + b;
          Vec3 P;
          for (int d = 0; d < 3; ++d) {
            P[d] = (a * A.center[d] + b * B.center[d]) / p;
          }
          const HermiteE Ex(A.l, B.l + extra_j, a, b, A.center[0],
                            B.center[0]);
          const HermiteE Ey(A.l, B.l + extra_j, a, b, A.center[1],
                            B.center[1]);
          const HermiteE Ez(A.l, B.l + extra_j, a, b, A.center[2],
                            B.center[2]);
          const double cc = pa.coefficient * pb.coefficient;
          kernel(A, B, layout.offset(sa), layout.offset(sb), a, b, p, P, Ex,
                 Ey, Ez, cc, out);
        }
      }
    }
  }
  return out;
}

}  // namespace

Matrix overlap_matrix(const BasisSet& basis) {
  return assemble_one_electron(
      basis, 0,
      [](const Shell& A, const Shell& B, std::size_t oa, std::size_t ob,
         double, double, double p, const Vec3&, const HermiteE& Ex,
         const HermiteE& Ey, const HermiteE& Ez, double cc, Matrix& out) {
        const auto ca = cartesian_components(A.l);
        const auto cb = cartesian_components(B.l);
        const double pref = cc * std::pow(std::numbers::pi / p, 1.5);
        for (std::size_t i = 0; i < ca.size(); ++i) {
          for (std::size_t j = 0; j < cb.size(); ++j) {
            const double norm = component_norm_ratio(A.l, ca[i]) *
                                component_norm_ratio(B.l, cb[j]);
            out(oa + i, ob + j) += pref * norm *
                                   Ex(ca[i].lx, cb[j].lx, 0) *
                                   Ey(ca[i].ly, cb[j].ly, 0) *
                                   Ez(ca[i].lz, cb[j].lz, 0);
          }
        }
      });
}

Matrix kinetic_matrix(const BasisSet& basis) {
  return assemble_one_electron(
      basis, 2,
      [](const Shell& A, const Shell& B, std::size_t oa, std::size_t ob,
         double, double b, double p, const Vec3&, const HermiteE& Ex,
         const HermiteE& Ey, const HermiteE& Ez, double cc, Matrix& out) {
        const auto ca = cartesian_components(A.l);
        const auto cb = cartesian_components(B.l);
        const double pref = cc * std::pow(std::numbers::pi / p, 1.5);
        // 1-D kinetic in terms of 1-D overlaps:
        //   T_ij = -2 b^2 s_{i,j+2} + b (2j+1) s_{ij} - j(j-1)/2 s_{i,j-2}
        const auto t1d = [&](const HermiteE& E, int i, int j) {
          double t = -2.0 * b * b * E(i, j + 2, 0) +
                     b * (2.0 * j + 1.0) * E(i, j, 0);
          if (j >= 2) t -= 0.5 * j * (j - 1) * E(i, j - 2, 0);
          return t;
        };
        for (std::size_t i = 0; i < ca.size(); ++i) {
          for (std::size_t j = 0; j < cb.size(); ++j) {
            const double norm = component_norm_ratio(A.l, ca[i]) *
                                component_norm_ratio(B.l, cb[j]);
            const double sx = Ex(ca[i].lx, cb[j].lx, 0);
            const double sy = Ey(ca[i].ly, cb[j].ly, 0);
            const double sz = Ez(ca[i].lz, cb[j].lz, 0);
            const double tx = t1d(Ex, ca[i].lx, cb[j].lx);
            const double ty = t1d(Ey, ca[i].ly, cb[j].ly);
            const double tz = t1d(Ez, ca[i].lz, cb[j].lz);
            out(oa + i, ob + j) +=
                pref * norm * (tx * sy * sz + sx * ty * sz + sx * sy * tz);
          }
        }
      });
}

Matrix nuclear_attraction_matrix(const BasisSet& basis,
                                 const Molecule& mol) {
  return assemble_one_electron(
      basis, 0,
      [&mol](const Shell& A, const Shell& B, std::size_t oa,
             std::size_t ob, double, double, double p, const Vec3& P,
             const HermiteE& Ex, const HermiteE& Ey, const HermiteE& Ez,
             double cc, Matrix& out) {
        const auto ca = cartesian_components(A.l);
        const auto cb = cartesian_components(B.l);
        const int L = A.l + B.l;
        HermiteR R(L);
        const double pref = cc * 2.0 * std::numbers::pi / p;
        for (const Atom& atom : mol.atoms) {
          const Vec3 PC{P[0] - atom.position[0], P[1] - atom.position[1],
                        P[2] - atom.position[2]};
          R.compute(p, PC, L);
          for (std::size_t i = 0; i < ca.size(); ++i) {
            for (std::size_t j = 0; j < cb.size(); ++j) {
              const double norm = component_norm_ratio(A.l, ca[i]) *
                                  component_norm_ratio(B.l, cb[j]);
              double sum = 0.0;
              for (int t = 0; t <= ca[i].lx + cb[j].lx; ++t) {
                const double ext = Ex(ca[i].lx, cb[j].lx, t);
                if (ext == 0.0) continue;
                for (int u = 0; u <= ca[i].ly + cb[j].ly; ++u) {
                  const double eyu = Ey(ca[i].ly, cb[j].ly, u);
                  if (eyu == 0.0) continue;
                  for (int v = 0; v <= ca[i].lz + cb[j].lz; ++v) {
                    const double ezv = Ez(ca[i].lz, cb[j].lz, v);
                    if (ezv == 0.0) continue;
                    sum += ext * eyu * ezv * R(t, u, v);
                  }
                }
              }
              out(oa + i, ob + j) -= atom.Z * pref * norm * sum;
            }
          }
        }
      });
}

Matrix core_hamiltonian(const BasisSet& basis, const Molecule& mol) {
  return kinetic_matrix(basis) + nuclear_attraction_matrix(basis, mol);
}

double nuclear_repulsion(const Molecule& mol) {
  double e = 0.0;
  for (std::size_t i = 0; i < mol.atoms.size(); ++i) {
    for (std::size_t j = i + 1; j < mol.atoms.size(); ++j) {
      const double r = std::sqrt(
          dist2(mol.atoms[i].position, mol.atoms[j].position));
      e += mol.atoms[i].Z * mol.atoms[j].Z / r;
    }
  }
  return e;
}

}  // namespace pastri::qc
