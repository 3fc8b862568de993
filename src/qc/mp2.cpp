#include "qc/mp2.h"

#include <stdexcept>

#include "qc/quartet_plan.h"
#include "qc/sto3g.h"

namespace pastri::qc {
namespace {

/// Quarter transformations two to four, shared by the dense and the
/// streaming-from-store paths.  `t1` is the first-quarter-transformed
/// tensor t1[(p nu | la si)]; returns the full MO tensor.
EriTensor transform_last_three(EriTensor t1, const Matrix& c) {
  const std::size_t n = c.size();
  auto idx = [n](std::size_t a, std::size_t b, std::size_t d,
                 std::size_t e) {
    return ((a * n + b) * n + d) * n + e;
  };
  EriTensor t2(t1.size(), 0.0);
  for (std::size_t p = 0; p < n; ++p) {
    for (std::size_t q = 0; q < n; ++q) {
      for (std::size_t nu = 0; nu < n; ++nu) {
        const double cnu = c(nu, q);
        if (cnu == 0.0) continue;
        for (std::size_t la = 0; la < n; ++la) {
          for (std::size_t si = 0; si < n; ++si) {
            t2[idx(p, q, la, si)] += cnu * t1[idx(p, nu, la, si)];
          }
        }
      }
    }
  }
  t1.assign(t2.size(), 0.0);
  for (std::size_t p = 0; p < n; ++p) {
    for (std::size_t q = 0; q < n; ++q) {
      for (std::size_t r = 0; r < n; ++r) {
        for (std::size_t la = 0; la < n; ++la) {
          const double cla = c(la, r);
          if (cla == 0.0) continue;
          for (std::size_t si = 0; si < n; ++si) {
            t1[idx(p, q, r, si)] += cla * t2[idx(p, q, la, si)];
          }
        }
      }
    }
  }
  t2.assign(t1.size(), 0.0);
  for (std::size_t p = 0; p < n; ++p) {
    for (std::size_t q = 0; q < n; ++q) {
      for (std::size_t r = 0; r < n; ++r) {
        for (std::size_t s = 0; s < n; ++s) {
          for (std::size_t si = 0; si < n; ++si) {
            t2[idx(p, q, r, s)] += c(si, s) * t1[idx(p, q, r, si)];
          }
        }
      }
    }
  }
  return t2;
}

/// The closed-shell pair-energy sum over the MO tensor.
double mp2_energy_sum(const EriTensor& mo,
                      const std::vector<double>& e, std::size_t nocc,
                      std::size_t n) {
  auto at = [n, &mo](std::size_t p, std::size_t q, std::size_t r,
                     std::size_t s) {
    return mo[((p * n + q) * n + r) * n + s];
  };
  double corr = 0.0;
  for (std::size_t i = 0; i < nocc; ++i) {
    for (std::size_t j = 0; j < nocc; ++j) {
      for (std::size_t a = nocc; a < n; ++a) {
        for (std::size_t b = nocc; b < n; ++b) {
          const double iajb = at(i, a, j, b);
          const double ibja = at(i, b, j, a);
          corr += iajb * (2.0 * iajb - ibja) /
                  (e[i] + e[j] - e[a] - e[b]);
        }
      }
    }
  }
  return corr;
}

void check_scf_reference(const BasisSet& basis, const ScfResult& scf) {
  if (!scf.converged) {
    throw std::invalid_argument("MP2 requires a converged SCF reference");
  }
  const std::size_t n = basis.num_basis_functions();
  if (scf.mo_coefficients.size() != n ||
      scf.orbital_energies.size() != n) {
    throw std::invalid_argument("MP2: SCF result does not match basis");
  }
}

}  // namespace

EriTensor transform_eri_to_mo(const EriTensor& eri_ao, const Matrix& c) {
  const std::size_t n = c.size();
  if (eri_ao.size() != n * n * n * n) {
    throw std::invalid_argument("MP2: ERI tensor size mismatch");
  }
  auto idx = [n](std::size_t a, std::size_t b, std::size_t d,
                 std::size_t e) {
    return ((a * n + b) * n + d) * n + e;
  };
  // First quarter transformation; the remaining three are shared with
  // the streaming path.
  EriTensor t1(eri_ao.size(), 0.0);
  for (std::size_t p = 0; p < n; ++p) {
    for (std::size_t mu = 0; mu < n; ++mu) {
      const double cmu = c(mu, p);
      if (cmu == 0.0) continue;
      for (std::size_t nu = 0; nu < n; ++nu) {
        for (std::size_t la = 0; la < n; ++la) {
          for (std::size_t si = 0; si < n; ++si) {
            t1[idx(p, nu, la, si)] += cmu * eri_ao[idx(mu, nu, la, si)];
          }
        }
      }
    }
  }
  return transform_last_three(std::move(t1), c);
}

Mp2Result run_mp2(const Molecule& mol, const BasisSet& basis,
                  const EriTensor& eri, const ScfResult& scf) {
  check_scf_reference(basis, scf);
  const std::size_t n = basis.num_basis_functions();
  const std::size_t nocc =
      static_cast<std::size_t>(electron_count(mol) / 2);

  const EriTensor mo = transform_eri_to_mo(eri, scf.mo_coefficients);
  Mp2Result res;
  res.correlation_energy =
      mp2_energy_sum(mo, scf.orbital_energies, nocc, n);
  res.total_energy = scf.total_energy + res.correlation_energy;
  return res;
}

Mp2Result run_mp2_from_store(const Molecule& mol, const BasisSet& basis,
                             const CompressedEriStore& store,
                             const ScfResult& scf) {
  check_scf_reference(basis, scf);
  const std::size_t n = basis.num_basis_functions();
  const std::size_t nocc =
      static_cast<std::size_t>(electron_count(mol) / 2);
  const ShellLayout layout(basis);
  if (!store.layout().same_shells(layout)) {
    throw std::invalid_argument("MP2: store does not match basis");
  }
  const Matrix& c = scf.mo_coefficients;

  // First quarter transformation, streamed: each canonical AO
  // shell-quartet block is decoded from the store once and every index
  // image of its symmetry-unique elements is scatter-accumulated over
  // all MOs p -- the dense AO tensor never exists.  Same O(n^5) work as
  // the dense first quarter, O(n^4 + block) memory.
  EriTensor t1(n * n * n * n, 0.0);
  const auto scatter = [&](std::size_t mu, std::size_t nu, std::size_t la,
                           std::size_t si, double val) {
    for (std::size_t p = 0; p < n; ++p) {
      t1[((p * n + nu) * n + la) * n + si] += c(mu, p) * val;
    }
  };
  layout.for_each_canonical_quartet([&](std::size_t sp, std::size_t sq,
                                        std::size_t su, std::size_t sv,
                                        int /*deg*/) {
    const bool same_bra = sp == sq, same_ket = su == sv;
    const bool same_pairs = sp == su && sq == sv;
    const auto block = store.shell_block(sp, sq, su, sv);
    layout.for_each_element(
        sp, sq, su, sv, block->data(),
        [&](std::size_t mu, std::size_t nu, std::size_t la, std::size_t si,
            double val) {
          // Where shell pairs coincide the block holds the element's
          // images too: keep one representative, then scatter each of
          // its distinct images (bra swapped, ket swapped, bra <-> ket).
          if ((same_bra && mu < nu) || (same_ket && la < si) ||
              (same_pairs && (mu < la || (mu == la && nu < si))) ||
              val == 0.0) {
            return;
          }
          const std::size_t bra[2][2] = {{mu, nu}, {nu, mu}};
          const std::size_t ket[2][2] = {{la, si}, {si, la}};
          for (int b = 0; b < (mu == nu ? 1 : 2); ++b) {
            for (int k = 0; k < (la == si ? 1 : 2); ++k) {
              scatter(bra[b][0], bra[b][1], ket[k][0], ket[k][1], val);
              if (mu != la || nu != si) {
                scatter(ket[k][0], ket[k][1], bra[b][0], bra[b][1], val);
              }
            }
          }
        });
  });

  const EriTensor mo = transform_last_three(std::move(t1), c);
  Mp2Result res;
  res.correlation_energy =
      mp2_energy_sum(mo, scf.orbital_energies, nocc, n);
  res.total_energy = scf.total_energy + res.correlation_energy;
  return res;
}

}  // namespace pastri::qc
