#include "qc/md_eri.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <numbers>

namespace pastri::qc {

// ---------------------------------------------------------------------------
// HermiteE
// ---------------------------------------------------------------------------

HermiteE::HermiteE(int imax, int jmax, double a, double b, double Ax,
                   double Bx)
    : jmax_(jmax), tmax_(imax + jmax),
      table_(static_cast<std::size_t>(imax + 1) * (jmax + 1) * (tmax_ + 1),
             0.0) {
  const double p = a + b;
  const double mu = a * b / p;
  const double X = Ax - Bx;
  const double XPA = -b / p * X;  // P - A where P = (aA + bB)/p
  const double XPB = a / p * X;   // P - B
  const double inv2p = 0.5 / p;

  auto E = [&](int i, int j, int t) -> double& {
    return table_[index_(i, j, t)];
  };

  E(0, 0, 0) = std::exp(-mu * X * X);

  // Build up in i with j = 0:
  //   E_t^{i+1,0} = (1/2p) E_{t-1}^{i,0} + XPA E_t^{i,0} + (t+1) E_{t+1}^{i,0}
  for (int i = 0; i < imax; ++i) {
    for (int t = 0; t <= i + 1; ++t) {
      double v = XPA * E(i, 0, t);
      if (t > 0) v += inv2p * E(i, 0, t - 1);
      if (t + 1 <= i) v += (t + 1) * E(i, 0, t + 1);
      E(i + 1, 0, t) = v;
    }
  }
  // Build up in j for every i:
  //   E_t^{i,j+1} = (1/2p) E_{t-1}^{i,j} + XPB E_t^{i,j} + (t+1) E_{t+1}^{i,j}
  for (int i = 0; i <= imax; ++i) {
    for (int j = 0; j < jmax; ++j) {
      for (int t = 0; t <= i + j + 1; ++t) {
        double v = XPB * E(i, j, t);
        if (t > 0) v += inv2p * E(i, j, t - 1);
        if (t + 1 <= i + j) v += (t + 1) * E(i, j, t + 1);
        E(i, j + 1, t) = v;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// HermiteR
// ---------------------------------------------------------------------------

void HermiteR::ensure(int lmax_total) {
  assert(lmax_total >= 0 && lmax_total <= kMaxBoysOrder);
  if (lmax_ == lmax_total) return;
  lmax_ = lmax_total;
  stride_ = static_cast<std::size_t>(lmax_total) + 1;
  // compute() overwrites every cell it later reads or exports (the base
  // case and raising recurrence write each (n,t,u,v) before use), so
  // resizing never needs to re-zero on reuse -- results are identical to
  // a freshly zeroed workspace.
  r0_.assign(stride_ * stride_ * stride_, 0.0);
  work_.assign((static_cast<std::size_t>(lmax_) + 1) * stride_ * stride_ *
                   stride_,
               0.0);
}

void HermiteR::compute(double alpha, const Vec3& PQ, int L) {
  assert(L <= lmax_);
  const double T =
      alpha * (PQ[0] * PQ[0] + PQ[1] * PQ[1] + PQ[2] * PQ[2]);

  double F[kMaxBoysOrder + 1];
  boys(T, L, std::span<double>(F, L + 1));

  const std::size_t nstride = stride_ * stride_ * stride_;
  auto R = [&](int n, int t, int u, int v) -> double& {
    return work_[n * nstride + index_(t, u, v)];
  };

  // Base case: R^n_{000} = (-2 alpha)^n F_n(T).
  double m2a = 1.0;
  for (int n = 0; n <= L; ++n) {
    R(n, 0, 0, 0) = m2a * F[n];
    m2a *= -2.0 * alpha;
  }

  // Raise (t,u,v) one index at a time; each raise consumes one auxiliary
  // order n, so fill n from high to low per (t+u+v) layer:
  //   R^n_{t+1,u,v} = t R^{n+1}_{t-1,u,v} + X R^{n+1}_{t,u,v}
  for (int sum = 1; sum <= L; ++sum) {
    for (int t = 0; t <= sum; ++t) {
      for (int u = 0; t + u <= sum; ++u) {
        const int v = sum - t - u;
        for (int n = 0; n <= L - sum; ++n) {
          double val;
          if (t > 0) {
            val = PQ[0] * R(n + 1, t - 1, u, v);
            if (t > 1) val += (t - 1) * R(n + 1, t - 2, u, v);
          } else if (u > 0) {
            val = PQ[1] * R(n + 1, t, u - 1, v);
            if (u > 1) val += (u - 1) * R(n + 1, t, u - 2, v);
          } else {
            val = PQ[2] * R(n + 1, t, u, v - 1);
            if (v > 1) val += (v - 1) * R(n + 1, t, u, v - 2);
          }
          R(n, t, u, v) = val;
        }
      }
    }
  }

  // Export the n = 0 slice.
  for (int t = 0; t <= L; ++t) {
    for (int u = 0; t + u <= L; ++u) {
      for (int v = 0; t + u + v <= L; ++v) {
        r0_[index_(t, u, v)] = R(0, t, u, v);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// ShellPairData
// ---------------------------------------------------------------------------

ShellPairData::ShellPairData(const Shell& A, const Shell& B)
    : la_(A.l), lb_(B.l) {
  const auto compsA = cartesian_components(A.l);
  const auto compsB = cartesian_components(B.l);
  ncomp_ = compsA.size() * compsB.size();
  prims_.reserve(A.primitives.size() * B.primitives.size());
  off_.reserve(A.primitives.size() * B.primitives.size() * ncomp_ + 1);
  off_.push_back(0);
  hoff_.reserve(A.primitives.size() * B.primitives.size() + 1);
  hoff_.push_back(0);
  // slot[(t*n + u)*n + v]: the (t,u,v)'s index into the current
  // primitive pair's distinct list, or -1 while it has not appeared.
  const std::size_t n = static_cast<std::size_t>(A.l + B.l) + 1;
  std::vector<int> slot(n * n * n, -1);

  // Identical construction order and arithmetic to the historical
  // per-quartet build: (pa, pb) in shell order, components ia-major,
  // terms in (t, u, v) order with zero-coefficient skip.
  for (const auto& pa : A.primitives) {
    for (const auto& pb : B.primitives) {
      Prim pp;
      const double a = pa.exponent, b = pb.exponent;
      pp.p = a + b;
      for (int d = 0; d < 3; ++d) {
        pp.P[d] = (a * A.center[d] + b * B.center[d]) / pp.p;
      }
      pp.cc = pa.coefficient * pb.coefficient;
      prims_.push_back(pp);

      const HermiteE Ex(A.l, B.l, a, b, A.center[0], B.center[0]);
      const HermiteE Ey(A.l, B.l, a, b, A.center[1], B.center[1]);
      const HermiteE Ez(A.l, B.l, a, b, A.center[2], B.center[2]);

      for (std::size_t ia = 0; ia < compsA.size(); ++ia) {
        for (std::size_t ib = 0; ib < compsB.size(); ++ib) {
          const auto& ca = compsA[ia];
          const auto& cb = compsB[ib];
          const double norm = component_norm_ratio(A.l, ca) *
                              component_norm_ratio(B.l, cb);
          for (int t = 0; t <= ca.lx + cb.lx; ++t) {
            const double ext = Ex(ca.lx, cb.lx, t);
            if (ext == 0.0) continue;
            for (int u = 0; u <= ca.ly + cb.ly; ++u) {
              const double eyu = Ey(ca.ly, cb.ly, u);
              if (eyu == 0.0) continue;
              for (int v = 0; v <= ca.lz + cb.lz; ++v) {
                const double ezv = Ez(ca.lz, cb.lz, v);
                if (ezv == 0.0) continue;
                const double c = norm * ext * eyu * ezv;
                int& h = slot[(t * n + u) * n + v];
                if (h < 0) {
                  h = static_cast<int>(ht_.size() - hoff_.back());
                  ht_.push_back(static_cast<std::uint8_t>(t));
                  hu_.push_back(static_cast<std::uint8_t>(u));
                  hv_.push_back(static_cast<std::uint8_t>(v));
                }
                hidx_.push_back(static_cast<std::uint16_t>(h));
                coef_.push_back(c);
                // Negating c is an exact sign flip, so pre-folding the
                // ket-side (-1)^{t+u+v} preserves bit-identical sums.
                coef_signed_.push_back(((t + u + v) & 1) ? -c : c);
              }
            }
          }
          off_.push_back(static_cast<std::uint32_t>(coef_.size()));
        }
      }
      for (std::size_t h = hoff_.back(); h < ht_.size(); ++h) {
        slot[(ht_[h] * n + hu_[h]) * n + hv_[h]] = -1;
      }
      max_distinct_ = std::max(max_distinct_, ht_.size() - hoff_.back());
      hoff_.push_back(static_cast<std::uint32_t>(ht_.size()));
    }
  }
  hroff_.resize(ht_.size());
}

void ShellPairData::set_r_stride(int l_total) {
  assert(l_total >= la_ + lb_);
  const int stride = l_total + 1;
  if (stride_ == stride) return;
  stride_ = stride;
  const std::size_t s = static_cast<std::size_t>(stride);
  for (std::size_t h = 0; h < hroff_.size(); ++h) {
    hroff_[h] =
        static_cast<std::uint32_t>((ht_[h] * s + hu_[h]) * s + hv_[h]);
  }
}

// ---------------------------------------------------------------------------
// Block assembly
// ---------------------------------------------------------------------------

namespace {

// Hoisted (ab|cd) prefactor constant 2 pi^{5/2} appears as
// 2.0 * kPi52 below; std::pow(pi, 2.5) is what the engine has always
// used, kept verbatim so the constant's bits are unchanged.
const double kPi52 = std::pow(std::numbers::pi, 2.5);

}  // namespace

void compute_eri_block(const ShellPairData& bra, const ShellPairData& ket,
                       EriWorkspace& ws, std::span<double> out) {
  const std::size_t nab = bra.ncomp();
  const std::size_t ncd = ket.ncomp();
  assert(out.size() == nab * ncd);
  const int L = bra.l_sum() + ket.l_sum();
  assert(bra.r_stride() == L + 1);
  assert(ket.r_stride() == L + 1);

  std::fill(out.begin(), out.end(), 0.0);
  ws.R.ensure(L);

  // X[icd * nu + u]: step 1's ket sums for the current bra primitive.
  const std::size_t xsize = bra.max_distinct() * ncd;
  if (ws.x.size() < xsize) ws.x.resize(xsize);
  double* X = ws.x.data();

  const std::uint16_t* bidx = bra.hermite_index();
  const double* bcoef = bra.coefs();
  const std::uint16_t* kidx = ket.hermite_index();
  const double* kcoef = ket.coefs_signed();
  const double* R0 = ws.R.data();

  for (std::size_t kb = 0; kb < bra.num_prims(); ++kb) {
    const ShellPairData::Prim& pab = bra.prim(kb);
    for (std::size_t kk = 0; kk < ket.num_prims(); ++kk) {
      const ShellPairData::Prim& pcd = ket.prim(kk);
      const double p = pab.p, q = pcd.p;
      const double alpha = p * q / (p + q);
      const Vec3 PQ{pab.P[0] - pcd.P[0], pab.P[1] - pcd.P[1],
                    pab.P[2] - pcd.P[2]};
      ws.R.compute(alpha, PQ, L);
      ++ws.boys_evals;
      const double pref =
          2.0 * kPi52 / (p * q * std::sqrt(p + q)) * pab.cc * pcd.cc;

      const std::size_t nu = bra.num_distinct(kb);
      const std::uint32_t* doff = bra.distinct_r_offsets(kb);
      const std::uint32_t* kdoff = ket.distinct_r_offsets(kk);
      // Step 1: the ket contracted against R once per distinct bra
      // Hermite index u, X[icd][u] = sum_k kcoef[k] * R(u + k), summed
      // from 0.0 in ascending k.  R indices add component-wise, so the
      // linearized offsets add too: R(bt+kt, bu+ku, bv+kv) =
      // R0[doff + kdoff].
      for (std::size_t icd = 0; icd < ncd; ++icd) {
        const std::uint32_t k0 = ket.term_begin(kk, icd);
        const std::uint32_t k1 = ket.term_end(kk, icd);
        double* Xc = X + icd * nu;
        for (std::size_t u = 0; u < nu; ++u) {
          const double* Ru = R0 + doff[u];
          double inner = 0.0;
          for (std::uint32_t k = k0; k < k1; ++k) {
            inner += kcoef[k] * Ru[kdoff[kidx[k]]];
          }
          Xc[u] = inner;
        }
      }
      // Step 2: per output, sum_b bcoef[b] * X[icd][u(b)], summed from
      // 0.0 in ascending b; then out += pref * sum.
      std::size_t idx = 0;
      for (std::size_t iab = 0; iab < nab; ++iab) {
        const std::uint32_t b0 = bra.term_begin(kb, iab);
        const std::uint32_t b1 = bra.term_end(kb, iab);
        for (std::size_t icd = 0; icd < ncd; ++icd, ++idx) {
          const double* Xc = X + icd * nu;
          double sum = 0.0;
          for (std::uint32_t b = b0; b < b1; ++b) sum += bcoef[b] * Xc[bidx[b]];
          out[idx] += pref * sum;
        }
      }
    }
  }
}

double schwarz_bound(const ShellPairData& pair, EriWorkspace& ws) {
  // Only the diagonal (ab|ab) of the pair super-matrix is needed; assemble
  // just those nA*nB elements instead of the full (nA*nB)^2 block --
  // screening cost would otherwise dominate high-L dataset generation.
  const std::size_t n = pair.ncomp();
  const int L = 2 * pair.l_sum();
  assert(pair.r_stride() == L + 1);
  ws.R.ensure(L);
  ws.diag.assign(n, 0.0);

  const std::uint16_t* hidx = pair.hermite_index();
  const double* coef = pair.coefs();
  const double* coef_signed = pair.coefs_signed();
  const double* R0 = ws.R.data();

  for (std::size_t kb = 0; kb < pair.num_prims(); ++kb) {
    const ShellPairData::Prim& pab = pair.prim(kb);
    for (std::size_t kk = 0; kk < pair.num_prims(); ++kk) {
      const ShellPairData::Prim& pcd = pair.prim(kk);
      const double p = pab.p, q = pcd.p;
      const double alpha = p * q / (p + q);
      const Vec3 PQ{pab.P[0] - pcd.P[0], pab.P[1] - pcd.P[1],
                    pab.P[2] - pcd.P[2]};
      ws.R.compute(alpha, PQ, L);
      ++ws.boys_evals;
      const double pref =
          2.0 * kPi52 / (p * q * std::sqrt(p + q)) * pab.cc * pcd.cc;
      const std::uint32_t* boff = pair.distinct_r_offsets(kb);
      const std::uint32_t* koff = pair.distinct_r_offsets(kk);
      for (std::size_t i = 0; i < n; ++i) {
        const std::uint32_t b0 = pair.term_begin(kb, i);
        const std::uint32_t b1 = pair.term_end(kb, i);
        const std::uint32_t k0 = pair.term_begin(kk, i);
        const std::uint32_t k1 = pair.term_end(kk, i);
        double sum = 0.0;
        for (std::uint32_t b = b0; b < b1; ++b) {
          const double* Rb = R0 + boff[hidx[b]];
          double inner = 0.0;
          for (std::uint32_t k = k0; k < k1; ++k) {
            inner += coef_signed[k] * Rb[koff[hidx[k]]];
          }
          sum += coef[b] * inner;
        }
        ws.diag[i] += pref * sum;
      }
    }
  }
  double mx = 0.0;
  for (double v : ws.diag) mx = std::max(mx, std::abs(v));
  return std::sqrt(mx);
}

}  // namespace pastri::qc
