// md_eri.h - Two-electron repulsion integrals over contracted Cartesian
// Gaussian shells via the McMurchie-Davidson scheme.
//
// For primitives with exponents a,b,c,d on centers A,B,C,D:
//
//   (ab|cd) = 2 pi^{5/2} / (p q sqrt(p+q))
//             * sum_{tuv} E^{ab}_{tuv} sum_{TUV} (-1)^{T+U+V} E^{cd}_{TUV}
//               R_{t+T, u+U, v+V}(alpha, P-Q)
//
// where p = a+b, q = c+d, alpha = pq/(p+q), E are 1-D Hermite expansion
// coefficients of Cartesian Gaussian products and R are Hermite Coulomb
// integrals bottoming out in the Boys function.  This is the textbook
// formulation (Helgaker-Jorgensen-Olsen ch. 9) and is exactly the class of
// engine GAMESS's rotated-axis/rys codes implement.
//
// The hot entry points take precomputed ShellPairData + a reusable
// EriWorkspace: everything that depends only on one shell pair (Gaussian
// product geometry, the HermiteE tables collapsed into flat term arenas)
// is built once and reused across the O(n_pairs) quartets that share it,
// and the per-quartet scratch (HermiteR and the ket-contracted
// intermediate X) lives on the workspace so the steady-state quartet
// loop performs no heap allocation.  BasisSet consumers reach these
// kernels through QuartetPlan (qc/quartet_plan.h), which owns one pair
// cache per basis.
//
// compute_eri_block contracts in the textbook two-step order.  The inner
// sum over ket terms depends only on the ket component pair and the bra
// term's Hermite index (t,u,v), and a bra primitive pair has far fewer
// distinct indices than terms ((ff|ff): 84 against 1,920).  So step 1
// fills X[cd][u] = sum_k E^cd_k R[t_u + T_k, ...] once per distinct bra
// index u, and step 2 forms sum_b E^ab_b X[cd][u(b)] per output.  Each
// sum runs in the order the one-step loop used, so the bits match it.
// This is the one path for every class; a pair with nothing to reuse
// (ss) goes through it too.  schwarz_bound keeps the one-step loop: its
// diagonal pairs bra component i only with ket component i, and one
// component pair's terms never repeat an index.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "qc/boys.h"
#include "qc/gaussian.h"

namespace pastri::qc {

/// 1-D Hermite expansion coefficients E_t^{ij} for a primitive pair in one
/// Cartesian direction.  Table layout: E(i,j,t) for 0<=i<=imax,
/// 0<=j<=jmax, 0<=t<=i+j.
class HermiteE {
 public:
  /// Build the table for exponents (a, b) at 1-D centers (Ax, Bx).
  HermiteE(int imax, int jmax, double a, double b, double Ax, double Bx);

  double operator()(int i, int j, int t) const {
    if (t < 0 || t > i + j) return 0.0;
    return table_[index_(i, j, t)];
  }

 private:
  std::size_t index_(int i, int j, int t) const {
    return (static_cast<std::size_t>(i) * (jmax_ + 1) + j) * (tmax_ + 1) + t;
  }

  int jmax_, tmax_;
  std::vector<double> table_;
};

/// Hermite Coulomb integral tensor R^0_{tuv}(alpha, PQ) for all
/// t+u+v <= L.  Internally evaluates the auxiliary orders R^n via the
/// standard downward-in-n recurrences and the Boys function.
class HermiteR {
 public:
  /// Unsized; call ensure() before compute().
  HermiteR() = default;

  /// Workspace sized for `lmax_total`; reusable across quartets.
  explicit HermiteR(int lmax_total) { ensure(lmax_total); }

  /// Resize the workspace for `lmax_total` if it is not already exactly
  /// that size (no-op otherwise, so calling it per quartet is free).
  void ensure(int lmax_total);

  /// Fill for the given alpha and PQ = P - Q vector.
  /// `l_total` must be <= the lmax_total last given to ensure().
  void compute(double alpha, const Vec3& PQ, int l_total);

  double operator()(int t, int u, int v) const {
    return r0_[index_(t, u, v)];
  }

  int lmax() const { return lmax_; }
  std::size_t stride() const { return stride_; }
  /// The n = 0 slice, laid out (t * stride + u) * stride + v.
  const double* data() const { return r0_.data(); }

 private:
  std::size_t index_(int t, int u, int v) const {
    return (static_cast<std::size_t>(t) * stride_ + u) * stride_ + v;
  }

  int lmax_ = -1;
  std::size_t stride_ = 0;
  std::vector<double> r0_;    // n = 0 slice, exposed
  std::vector<double> work_;  // full (n,t,u,v) scratch
};

/// Everything about one contracted shell pair (A, B) that the quartet
/// kernel needs, precomputed: the Gaussian product geometry per primitive
/// pair, and the Hermite term expansion E^x_t E^y_u E^z_v of every
/// (component_a, component_b) product flattened into one contiguous SoA
/// arena (no per-term vectors).  Building one of these costs three
/// HermiteE tables per primitive pair; reusing it across the O(n_pairs)
/// quartets that share the pair is the dominant ERI-engine win.
///
/// Each primitive pair also lists its distinct Hermite indices (t,u,v),
/// in order of first appearance, and each term records its index into
/// that list (hermite_index); compute_eri_block contracts the ket once
/// per distinct bra index through them.
///
/// The distinct (t,u,v) are pre-linearized against a target HermiteR
/// stride via set_r_stride(), so a term's R offset is
/// distinct_r_offsets(k)[hermite_index()[i]] and the kernel reads R as a
/// pure gather: R0[bra_off + ket_off] (offsets add because the R layout
/// is linear in each of t, u, v).  The ket-side sign (-1)^{t+u+v} is
/// folded into coef_signed at build time -- `-c * r` and `(-c) * r` are
/// the same FP operation, so folding preserves bit-identical results.
class ShellPairData {
 public:
  struct Prim {
    double p = 0;     ///< a + b
    Vec3 P{0, 0, 0};  ///< product center
    double cc = 0;    ///< product of contraction coefficients
  };

  ShellPairData() = default;
  ShellPairData(const Shell& A, const Shell& B);

  /// Re-linearize the distinct (t,u,v) indices for a HermiteR of
  /// total momentum `l_total` (stride l_total + 1).  Must be called (or
  /// re-called) whenever the pair is used against a different quartet
  /// total momentum; no-op when the stride already matches.
  void set_r_stride(int l_total);

  int l_sum() const { return la_ + lb_; }
  std::size_t ncomp() const { return ncomp_; }
  std::size_t num_prims() const { return prims_.size(); }
  const Prim& prim(std::size_t k) const { return prims_[k]; }

  /// Term range [begin, end) of (primitive pair k, component pair c).
  std::uint32_t term_begin(std::size_t k, std::size_t c) const {
    return off_[k * ncomp_ + c];
  }
  std::uint32_t term_end(std::size_t k, std::size_t c) const {
    return off_[k * ncomp_ + c + 1];
  }

  const double* coefs() const { return coef_.data(); }
  const double* coefs_signed() const { return coef_signed_.data(); }
  int r_stride() const { return stride_; }

  /// Distinct Hermite indices of primitive pair k: their count and their
  /// linearized R offsets (set_r_stride).
  std::size_t num_distinct(std::size_t k) const {
    return hoff_[k + 1] - hoff_[k];
  }
  const std::uint32_t* distinct_r_offsets(std::size_t k) const {
    return hroff_.data() + hoff_[k];
  }
  /// The largest num_distinct over the primitive pairs.
  std::size_t max_distinct() const { return max_distinct_; }
  /// Per term: its index into its primitive pair's distinct list.
  const std::uint16_t* hermite_index() const { return hidx_.data(); }

 private:
  int la_ = 0, lb_ = 0;
  std::size_t ncomp_ = 0;  ///< component pairs, nA * nB
  std::vector<Prim> prims_;
  // One term arena for the whole pair.  off_ has
  // num_prims * ncomp + 1 entries; terms of (prim k, comp c) occupy
  // [off_[k*ncomp+c], off_[k*ncomp+c+1]).
  std::vector<std::uint32_t> off_;
  std::vector<double> coef_;                  ///< bra-side coefficient
  std::vector<double> coef_signed_;           ///< (-1)^{t+u+v} * coef (ket)
  std::vector<std::uint16_t> hidx_;           ///< distinct index per term
  // Distinct (t,u,v) of prim k occupy [hoff_[k], hoff_[k+1]).
  std::vector<std::uint32_t> hoff_;
  std::vector<std::uint8_t> ht_, hu_, hv_;    ///< distinct Hermite indices
  std::vector<std::uint32_t> hroff_;          ///< linearized distinct
  std::size_t max_distinct_ = 0;
  int stride_ = 0;                            ///< stride hroff_ is built for
};

/// Reusable per-worker scratch for the quartet kernels: the HermiteR
/// tensor, the ket-contracted intermediate, the Schwarz diagonal buffer,
/// and the Boys call counter.  One workspace per thread; after warm-up
/// the kernels do not allocate.
struct EriWorkspace {
  HermiteR R;
  /// compute_eri_block's X[cd][u] (ket.ncomp() * bra.max_distinct()
  /// cells; (ff|ff) needs 8,400).  It only grows, and every cell read is
  /// written first for the same primitive quartet.
  std::vector<double> x;
  std::vector<double> diag;  ///< schwarz_bound scratch
  std::uint64_t boys_evals = 0;  ///< Boys calls made through this workspace
};

/// Full contracted ERI shell block (AB|CD) in GAMESS layout:
/// out[((ia*nB + ib)*nC + ic)*nD + id], where nX = (lX+1)(lX+2)/2 and the
/// component order is `cartesian_components(lX)`.
///
/// `out.size()` must equal nA*nB*nC*nD.  Values are in Hartree (atomic
/// units) for normalized basis functions.
///
/// Both pairs must have had set_r_stride(bra.l_sum() + ket.l_sum())
/// applied.  Allocation-free once `ws` is warm.
void compute_eri_block(const ShellPairData& bra, const ShellPairData& ket,
                       EriWorkspace& ws, std::span<double> out);

/// Cauchy-Schwarz screening bound: sqrt(max_component (ab|ab)).
/// The true bound |(ab|cd)| <= Q_ab * Q_cd lets callers skip whole blocks.
/// `pair` must have had set_r_stride(2 * pair.l_sum()) applied.
double schwarz_bound(const ShellPairData& pair, EriWorkspace& ws);

}  // namespace pastri::qc
