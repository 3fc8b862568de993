// Tests for the McMurchie-Davidson ERI engine: analytic limits,
// permutational symmetry, invariances, and the Schwarz bound.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <numbers>
#include <random>
#include <span>
#include <vector>

#include "qc/md_eri.h"
#include "test_util.h"

namespace pastri::qc {
namespace {

Shell make_shell(int l, Vec3 center, double exponent) {
  Shell s;
  s.l = l;
  s.center = center;
  s.primitives = {{exponent, 1.0}};
  s.normalize();
  return s;
}

TEST(HermiteE, SShellIsGaussianPrefactor) {
  // E_0^{00} = exp(-mu X^2).
  const double a = 0.9, b = 1.7, Ax = 0.3, Bx = -1.1;
  const HermiteE E(0, 0, a, b, Ax, Bx);
  const double mu = a * b / (a + b);
  const double X = Ax - Bx;
  EXPECT_NEAR(E(0, 0, 0), std::exp(-mu * X * X), 1e-15);
}

TEST(HermiteE, OutOfRangeIsZero) {
  const HermiteE E(2, 2, 1.0, 1.0, 0.0, 1.0);
  EXPECT_EQ(E(1, 1, 3), 0.0);  // t > i+j
  EXPECT_EQ(E(1, 1, -1), 0.0);
}

TEST(HermiteE, OverlapSumRule) {
  // The 1-D overlap of x_A^i x_B^j Gaussians equals E_0^{ij} sqrt(pi/p):
  // verify against numerical quadrature for a few (i, j).
  const double a = 0.8, b = 1.3, Ax = 0.25, Bx = -0.4;
  const double p = a + b;
  const HermiteE E(2, 2, a, b, Ax, Bx);
  for (int i = 0; i <= 2; ++i) {
    for (int j = 0; j <= 2; ++j) {
      double quad = 0.0;
      const int N = 40000;
      const double lo = -12.0, hi = 12.0;
      for (int k = 0; k < N; ++k) {
        const double x = lo + (hi - lo) * (k + 0.5) / N;
        quad += std::pow(x - Ax, i) * std::pow(x - Bx, j) *
                std::exp(-a * (x - Ax) * (x - Ax)) *
                std::exp(-b * (x - Bx) * (x - Bx));
      }
      quad *= (hi - lo) / N;
      const double analytic = E(i, j, 0) * std::sqrt(std::numbers::pi / p);
      EXPECT_NEAR(quad, analytic, 1e-8 * std::max(1.0, std::abs(analytic)))
          << "i=" << i << " j=" << j;
    }
  }
}

TEST(HermiteR, BaseCaseIsBoys) {
  HermiteR R(0);
  R.compute(0.7, {0.0, 0.0, 0.0}, 0);
  EXPECT_NEAR(R(0, 0, 0), 1.0, 1e-15);  // F_0(0) = 1
}

TEST(MdEri, SameCenterSsssAnalytic) {
  // Four normalized s Gaussians with exponent 1 at the origin:
  // (ss|ss) = 2/sqrt(pi).
  const Shell s = make_shell(0, {0, 0, 0}, 1.0);
  const auto v = testutil::eri_quartet(s, s, s, s);
  ASSERT_EQ(v.size(), 1u);
  EXPECT_NEAR(v[0], 2.0 / std::sqrt(std::numbers::pi), 1e-12);
}

TEST(MdEri, GeneralSameCenterSsss) {
  // (ss|ss) with exponents a,b,c,d at one center:
  //   2 pi^{5/2} / (pq sqrt(p+q)) * N_a N_b N_c N_d
  const double a = 0.5, b = 1.2, c = 2.1, d = 0.8;
  const Shell A = make_shell(0, {1, 2, 3}, a);
  const Shell B = make_shell(0, {1, 2, 3}, b);
  const Shell C = make_shell(0, {1, 2, 3}, c);
  const Shell D = make_shell(0, {1, 2, 3}, d);
  const double p = a + b, q = c + d;
  const double expect = 2.0 * std::pow(std::numbers::pi, 2.5) /
                        (p * q * std::sqrt(p + q)) *
                        primitive_norm(a, 0, 0, 0) *
                        primitive_norm(b, 0, 0, 0) *
                        primitive_norm(c, 0, 0, 0) *
                        primitive_norm(d, 0, 0, 0);
  EXPECT_NEAR(testutil::eri_quartet(A, B, C, D)[0], expect, 1e-12 * expect);
}

TEST(MdEri, CoulombLongRangeLimit) {
  // Distant unit charge distributions repel as 1/R.
  const Shell s1 = make_shell(0, {0, 0, 0}, 1.3);
  const Shell s2 = make_shell(0, {25.0, 0, 0}, 0.9);
  const auto v = testutil::eri_quartet(s1, s1, s2, s2);
  EXPECT_NEAR(v[0], 1.0 / 25.0, 1e-10);
}

TEST(MdEri, BraKetSwapSymmetry) {
  const Shell p1 = make_shell(1, {0.3, -0.2, 0.5}, 0.8);
  const Shell d1 = make_shell(2, {1.2, 0.4, -0.3}, 1.1);
  const Shell p2 = make_shell(1, {-0.7, 0.9, 0.1}, 0.9);
  const Shell s1 = make_shell(0, {0.5, 0.5, -0.5}, 1.4);
  const auto braket = testutil::eri_quartet(p1, d1, p2, s1);  // [3][6][3][1]
  const auto ketbra = testutil::eri_quartet(p2, s1, p1, d1);  // [3][1][3][6]
  for (int a = 0; a < 3; ++a) {
    for (int b = 0; b < 6; ++b) {
      for (int c = 0; c < 3; ++c) {
        EXPECT_NEAR(braket[(a * 6 + b) * 3 + c],
                    ketbra[c * 3 * 6 + a * 6 + b], 1e-13);
      }
    }
  }
}

TEST(MdEri, WithinPairSwapSymmetry) {
  const Shell p1 = make_shell(1, {0.1, 0.0, 0.2}, 0.7);
  const Shell d1 = make_shell(2, {0.9, -0.4, 0.0}, 1.2);
  const Shell s1 = make_shell(0, {-0.5, 0.6, 0.3}, 1.0);
  const auto ab = testutil::eri_quartet(p1, d1, s1, s1);  // [3][6][1][1]
  const auto ba = testutil::eri_quartet(d1, p1, s1, s1);  // [6][3][1][1]
  for (int a = 0; a < 3; ++a) {
    for (int b = 0; b < 6; ++b) {
      EXPECT_NEAR(ab[a * 6 + b], ba[b * 3 + a], 1e-13);
    }
  }
}

TEST(MdEri, TranslationInvariance) {
  const Vec3 shift{2.5, -1.0, 0.75};
  Shell A = make_shell(1, {0.0, 0.1, 0.2}, 0.9);
  Shell B = make_shell(2, {1.0, -0.3, 0.0}, 1.3);
  Shell C = make_shell(1, {-0.8, 0.5, 0.6}, 0.8);
  Shell D = make_shell(0, {0.4, 0.4, -0.9}, 1.1);
  const auto before = testutil::eri_quartet(A, B, C, D);
  for (Shell* s : {&A, &B, &C, &D}) {
    for (int k = 0; k < 3; ++k) s->center[k] += shift[k];
  }
  const auto after = testutil::eri_quartet(A, B, C, D);
  for (std::size_t i = 0; i < before.size(); ++i) {
    EXPECT_NEAR(before[i], after[i],
                1e-12 * std::max(1.0, std::abs(before[i])));
  }
}

TEST(MdEri, AxisPermutationInvariance) {
  // Swapping x <-> y axes of all centers permutes p components (x,y,z) ->
  // (y,x,z) but leaves values intact.
  const auto swap_xy = [](Vec3 v) { return Vec3{v[1], v[0], v[2]}; };
  const Vec3 cA{0.2, -0.5, 0.3}, cB{1.0, 0.8, -0.2};
  const Shell A = make_shell(1, cA, 0.9);
  const Shell B = make_shell(0, cB, 1.2);
  const Shell A2 = make_shell(1, swap_xy(cA), 0.9);
  const Shell B2 = make_shell(0, swap_xy(cB), 1.2);
  const auto orig = testutil::eri_quartet(A, B, A, B);   // [3][1][3][1]
  const auto swpd = testutil::eri_quartet(A2, B2, A2, B2);
  const int perm[3] = {1, 0, 2};
  for (int i = 0; i < 3; ++i) {
    for (int k = 0; k < 3; ++k) {
      EXPECT_NEAR(orig[i * 3 + k], swpd[perm[i] * 3 + perm[k]], 1e-13);
    }
  }
}

TEST(MdEri, DiagonalPositive) {
  // (ab|ab) diagonal elements are squared norms in the Coulomb metric.
  const Shell A = make_shell(2, {0.0, 0.0, 0.0}, 1.0);
  const Shell B = make_shell(1, {1.1, 0.2, -0.4}, 0.8);
  const auto block = testutil::eri_quartet(A, B, A, B);
  const int n = 6 * 3;
  for (int i = 0; i < n; ++i) {
    EXPECT_GT(block[i * n + i], 0.0) << "i=" << i;
  }
}

TEST(MdEri, SchwarzBoundHolds) {
  std::mt19937_64 gen(42);
  std::uniform_real_distribution<double> pos(-2.0, 2.0);
  std::uniform_real_distribution<double> expo(0.5, 2.0);
  std::uniform_int_distribution<int> mom(0, 2);
  for (int trial = 0; trial < 10; ++trial) {
    const Shell A = make_shell(mom(gen), {pos(gen), pos(gen), pos(gen)},
                               expo(gen));
    const Shell B = make_shell(mom(gen), {pos(gen), pos(gen), pos(gen)},
                               expo(gen));
    const Shell C = make_shell(mom(gen), {pos(gen), pos(gen), pos(gen)},
                               expo(gen));
    const Shell D = make_shell(mom(gen), {pos(gen), pos(gen), pos(gen)},
                               expo(gen));
    const QuartetPlan plan = testutil::plan_of({A, B, C, D});
    const double bound = plan.schwarz(0, 1) * plan.schwarz(2, 3);
    const auto block = testutil::eri_quartet(A, B, C, D);
    for (double v : block) {
      EXPECT_LE(std::abs(v), bound * (1.0 + 1e-10))
          << "trial " << trial;
    }
  }
}

TEST(MdEri, ContractionIsLinear) {
  // A 2-primitive shell equals the coefficient-weighted sum of its
  // 1-primitive parts (before normalization).
  Shell contracted;
  contracted.l = 0;
  contracted.center = {0.2, 0.1, -0.3};
  contracted.primitives = {{0.7, 0.6}, {1.9, 0.8}};
  // Note: no normalize() -- we test raw linearity.
  Shell part1 = contracted, part2 = contracted;
  part1.primitives = {{0.7, 0.6}};
  part2.primitives = {{1.9, 0.8}};
  const Shell probe = make_shell(0, {1.0, 1.0, 1.0}, 1.0);
  const auto full = testutil::eri_quartet(contracted, probe, probe, probe);
  const auto p1 = testutil::eri_quartet(part1, probe, probe, probe);
  const auto p2 = testutil::eri_quartet(part2, probe, probe, probe);
  EXPECT_NEAR(full[0], p1[0] + p2[0], 1e-13 * std::abs(full[0]));
}

TEST(MdEri, GShellBlockFiniteAndSymmetric) {
  // The engine supports up to g shells (L_total = 16 for (gg|gg)).
  const Shell g1 = make_shell(4, {0.0, 0.0, 0.0}, 1.0);
  const Shell g2 = make_shell(4, {1.2, -0.4, 0.6}, 0.9);
  const auto block = testutil::eri_quartet(g1, g2, g1, g2);
  ASSERT_EQ(block.size(), 15u * 15 * 15 * 15);
  for (double v : block) {
    ASSERT_TRUE(std::isfinite(v));
  }
  // Bra <-> ket swap symmetry spot checks.
  const int n = 15 * 15;
  for (int i = 0; i < n; i += 37) {
    for (int k = 0; k < n; k += 41) {
      EXPECT_NEAR(block[i * n + k], block[k * n + i],
                  1e-12 * std::max(1.0, std::abs(block[i * n + k])));
    }
  }
}

TEST(MdEri, FShellBlockFinite) {
  // Smoke: the highest supported configuration must produce finite
  // values of plausible magnitude.
  const Shell f1 = make_shell(3, {0.0, 0.0, 0.0}, 0.8);
  const Shell f2 = make_shell(3, {1.5, 0.3, -0.4}, 0.9);
  const auto block = testutil::eri_quartet(f1, f2, f1, f2);
  ASSERT_EQ(block.size(), 10u * 10 * 10 * 10);
  for (double v : block) {
    EXPECT_TRUE(std::isfinite(v));
    EXPECT_LT(std::abs(v), 1e3);
  }
}

/// Per term of `pair`: its linearized R offset, the per-term table the
/// one-step contraction read.
std::vector<std::uint32_t> term_r_offsets(const ShellPairData& pair) {
  std::vector<std::uint32_t> roff;
  for (std::size_t k = 0; k < pair.num_prims(); ++k) {
    const std::uint32_t* d = pair.distinct_r_offsets(k);
    roff.resize(pair.term_end(k, pair.ncomp() - 1));
    for (std::uint32_t i = pair.term_begin(k, 0); i < roff.size(); ++i) {
      roff[i] = d[pair.hermite_index()[i]];
    }
  }
  return roff;
}

/// The one-step contraction compute_eri_block performed before the
/// two-step order, verbatim: per output, per bra term, the ket term sum
/// against R.  The two-step kernel must match it bit for bit.  Kept out
/// of line: inlined into the test body, its loop ran about 2x slower.
[[gnu::noinline]] void one_step_eri_block(const ShellPairData& bra,
                                          const ShellPairData& ket,
                                          HermiteR& R, std::span<double> out) {
  const double kPi52 = std::pow(std::numbers::pi, 2.5);
  const std::size_t nab = bra.ncomp();
  const std::size_t ncd = ket.ncomp();
  const int L = bra.l_sum() + ket.l_sum();

  std::fill(out.begin(), out.end(), 0.0);
  R.ensure(L);

  const std::vector<std::uint32_t> bra_roff = term_r_offsets(bra);
  const std::vector<std::uint32_t> ket_roff = term_r_offsets(ket);
  const std::uint32_t* broff = bra_roff.data();
  const double* bcoef = bra.coefs();
  const std::uint32_t* kroff = ket_roff.data();
  const double* kcoef = ket.coefs_signed();
  const double* R0 = R.data();

  for (std::size_t kb = 0; kb < bra.num_prims(); ++kb) {
    const ShellPairData::Prim& pab = bra.prim(kb);
    for (std::size_t kk = 0; kk < ket.num_prims(); ++kk) {
      const ShellPairData::Prim& pcd = ket.prim(kk);
      const double p = pab.p, q = pcd.p;
      const double alpha = p * q / (p + q);
      const Vec3 PQ{pab.P[0] - pcd.P[0], pab.P[1] - pcd.P[1],
                    pab.P[2] - pcd.P[2]};
      R.compute(alpha, PQ, L);
      const double pref =
          2.0 * kPi52 / (p * q * std::sqrt(p + q)) * pab.cc * pcd.cc;

      std::size_t idx = 0;
      for (std::size_t iab = 0; iab < nab; ++iab) {
        const std::uint32_t b0 = bra.term_begin(kb, iab);
        const std::uint32_t b1 = bra.term_end(kb, iab);
        for (std::size_t icd = 0; icd < ncd; ++icd, ++idx) {
          const std::uint32_t k0 = ket.term_begin(kk, icd);
          const std::uint32_t k1 = ket.term_end(kk, icd);
          double sum = 0.0;
          for (std::uint32_t b = b0; b < b1; ++b) {
            const double* Rb = R0 + broff[b];
            double inner = 0.0;
            for (std::uint32_t k = k0; k < k1; ++k) {
              inner += kcoef[k] * Rb[kroff[k]];
            }
            sum += bcoef[b] * inner;
          }
          out[idx] += pref * sum;
        }
      }
    }
  }
}

Shell make_contracted(int l, Vec3 center, int contraction) {
  // 300 and 350 are core-like exponents: paired with each other across
  // the A-B and C-D distances below, E_00 = exp(-mu X^2) underflows to 0
  // in one direction (mu >= 150, X = 2.4), so those four primitive pairs
  // have no terms and the distinct Hermite lists differ between the
  // primitive pairs of one shell pair.  It also keeps the reference
  // loop's cost at contraction 3 down to 25 of 81 primitive quartets.
  static const Primitive kPrims[] = {{0.4, 0.5}, {300.0, 0.4}, {350.0, 0.3}};
  Shell s;
  s.l = l;
  s.center = center;
  s.primitives.assign(kPrims, kPrims + contraction);
  s.normalize();
  return s;
}

TEST(MdEri, TwoStepContractionMatchesOneStepBitwise) {
  const Vec3 kA{0.0, 0.1, -0.2}, kB{2.4, -0.6, 0.3};
  const Vec3 kC{-1.1, 1.9, 0.4}, kD{0.6, 2.5, -2.0};
  // One workspace for every class, never cleaned: the lexicographic
  // class order moves L up and down, so stale X and S cells from larger
  // and smaller classes are both left behind for the next call.
  EriWorkspace ws;
  HermiteR ref_R;
  std::vector<double> got, want;
  {
    const ShellPairData pair(make_contracted(1, kA, 3),
                             make_contracted(1, kB, 3));
    ASSERT_EQ(pair.num_prims(), 9u);
    EXPECT_EQ(pair.num_distinct(8), 0u);  // (350, 350) underflows
    EXPECT_EQ(pair.num_distinct(2), 10u);  // (0.4, 350) does not
    EXPECT_EQ(pair.num_distinct(0), 10u);  // every t+u+v <= 2
  }
  std::size_t checked = 0;
  for (int contraction : {1, 3}) {
    for (bool same_centre : {false, true}) {
      for (int la = 0; la <= 3; ++la) {
        for (int lb = 0; lb <= 3; ++lb) {
          for (int lc = 0; lc <= 3; ++lc) {
            for (int ld = 0; ld <= 3; ++ld) {
              const int L = la + lb + lc + ld;
              ShellPairData bra(make_contracted(la, kA, contraction),
                                make_contracted(lb, same_centre ? kA : kB,
                                                contraction));
              ShellPairData ket(make_contracted(lc, kC, contraction),
                                make_contracted(ld, kD, contraction));
              bra.set_r_stride(L);
              ket.set_r_stride(L);
              const std::size_t n = bra.ncomp() * ket.ncomp();
              got.assign(n, 1.0);
              want.assign(n, 2.0);
              compute_eri_block(bra, ket, ws, got);
              one_step_eri_block(bra, ket, ref_R, want);
              ASSERT_EQ(std::memcmp(got.data(), want.data(),
                                    n * sizeof(double)),
                        0)
                  << "(" << la << lb << "|" << lc << ld << ") contraction "
                  << contraction << (same_centre ? " A==B" : "");
              ++checked;
            }
          }
        }
      }
    }
  }
  EXPECT_EQ(checked, 2u * 2u * 256u);
}

}  // namespace
}  // namespace pastri::qc
