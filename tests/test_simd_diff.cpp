// Differential tests pinning the SIMD bit-identity contract: every
// encode kernel in every vector backend (AVX2, AVX-512 -- whichever
// this host supports) must match the scalar backend exactly -- same
// doubles, same int64s, same stats, and (end to end) the same
// compressed bytes and the same decoded values -- across sub-block
// sizes, unaligned spans, all five scaling metrics, and the
// floating-point edge cases the vector paths special-case (exact .5
// fractions, saturating magnitudes, NaN/Inf, denormals, negative zero).
// The bulk decode functions, one scalar path on every host, are diffed
// against their ground truth: BitReader itself for the unpacks, plain
// reference loops for the scatter and the reconstruction.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <random>
#include <vector>

#include "bitio/bit_reader.h"
#include "bitio/bit_writer.h"
#include "core/ecq_tree.h"
#include "core/pastri.h"
#include "core/simd/simd.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"

namespace pastri {
namespace {

using simd::Backend;

const simd::EncodeKernels& encode_table(Backend b) {
  switch (b) {
    case Backend::Avx2: return simd::kAvx2Kernels;
    case Backend::Avx512: return simd::kAvx512Kernels;
    default: return simd::kScalarKernels;
  }
}

/// The vector tiers this host can actually run (tables of unsupported
/// tiers may contain instructions the CPU lacks -- never call those).
std::vector<Backend> vector_backends() {
  std::vector<Backend> v;
  for (Backend b : {Backend::Avx2, Backend::Avx512}) {
    if (simd::backend_supported(b)) v.push_back(b);
  }
  return v;
}

/// Restore the CPUID/env-selected backend when a test body returns.
struct BackendGuard {
  ~BackendGuard() { simd::refresh_backend_from_env(); }
};

/// Values exercising every special case in the vector round/convert
/// paths: exact halves (round-half-away vs round-half-even), the magic
/// bias validity limit, llround saturation, non-finite, denormal, -0.0.
std::vector<double> edge_values() {
  return {
      0.0,
      -0.0,
      0.5,
      -0.5,
      1.5,
      -1.5,
      2.5,
      -2.5,
      0.49999999999999994,   // nearest double below 0.5: must round to 0
      -0.49999999999999994,
      4503599627370496.0,    // 2^52: integer-valued, at rounding limit
      2251799813685248.0,    // 2^51: magic-bias fast-path boundary
      2251799813685249.0,
      -2251799813685248.5,
      9.2e18,                // llround saturation probe threshold
      -9.2e18,
      1e300,
      -1e300,
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::quiet_NaN(),
      std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min(),
      std::numeric_limits<double>::min(),
      1e-300,
  };
}

/// Deterministic mixed payload: smooth pattern-scaled values plus a
/// sprinkling of edge values, sized with `pad` leading doubles so the
/// span handed to the kernels starts at any lane offset.
std::vector<double> make_payload(std::size_t n, std::size_t pad,
                                 std::uint32_t seed, bool with_edges) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> uni(-1.0, 1.0);
  const auto edges = edge_values();
  std::vector<double> buf(pad + n);
  for (std::size_t i = 0; i < n; ++i) {
    double v = std::exp(-0.02 * static_cast<double>(i)) * uni(rng);
    if (with_edges && rng() % 7 == 0) {
      v = edges[rng() % edges.size()];
    }
    buf[pad + i] = v;
  }
  return buf;
}

TEST(SimdDiff, WidestSupportedBackendIsActiveByDefault) {
  BackendGuard guard;
  simd::refresh_backend_from_env();
  if (std::getenv("PASTRI_SIMD") != nullptr) {
    GTEST_SKIP() << "PASTRI_SIMD override active in the environment";
  }
  // Priority: avx512 > avx2 > scalar (simd.cpp).
  Backend expect = Backend::Scalar;
  if (simd::backend_supported(Backend::Avx2)) expect = Backend::Avx2;
  if (simd::backend_supported(Backend::Avx512)) expect = Backend::Avx512;
  EXPECT_EQ(simd::active_backend(), expect);
}

TEST(SimdDiff, EnvOverrideSelectsEveryNamedTier) {
  BackendGuard guard;
  ::setenv("PASTRI_SIMD", "scalar", 1);
  simd::refresh_backend_from_env();
  EXPECT_EQ(simd::active_backend(), Backend::Scalar);
  for (Backend b : {Backend::Avx2, Backend::Avx512}) {
    ::setenv("PASTRI_SIMD", simd::backend_name(b), 1);
    simd::refresh_backend_from_env();
    if (simd::backend_supported(b)) {
      EXPECT_EQ(simd::active_backend(), b) << simd::backend_name(b);
    } else {
      // Unsupported requests fall back to the safe tier, never crash.
      EXPECT_EQ(simd::active_backend(), Backend::Scalar)
          << simd::backend_name(b);
    }
  }
  // "neon" names no tier (aarch64 runs the scalar path): it selects
  // scalar, as any unknown name does.
  for (const char* name : {"neon", "bogus-tier"}) {
    ::setenv("PASTRI_SIMD", name, 1);
    simd::refresh_backend_from_env();
    EXPECT_EQ(simd::active_backend(), Backend::Scalar) << name;
  }
  ::unsetenv("PASTRI_SIMD");
}

double gauge_value(std::string_view name) {
  for (const auto& g : obs::registry().snapshot().gauges) {
    if (g.name == name) return g.value;
  }
  ADD_FAILURE() << "gauge not registered: " << name;
  return -1.0;
}

/// Encode follows the forced tier; decode has one scalar path, so its
/// gauge reads 0 whatever encode tier is active.
TEST(SimdDiff, DecodeGaugeReadsScalarOnEveryEncodeTier) {
  BackendGuard guard;
  for (Backend b : simd::kAllBackends) {
    if (!simd::backend_supported(b)) continue;
    simd::force_backend(b);
    EXPECT_EQ(gauge_value(obs::kCoreSimdBackend), static_cast<double>(b))
        << simd::backend_name(b);
    EXPECT_EQ(gauge_value(obs::kCoreSimdDecodeBackend), 0.0)
        << simd::backend_name(b);
  }
}

TEST(SimdDiff, ScanKernelsMatchAcrossSizesAndOffsets) {
  const auto tiers = vector_backends();
  if (tiers.empty()) GTEST_SKIP() << "no vector backend on this host";
  const simd::EncodeKernels& s = simd::kScalarKernels;
  for (Backend tier : tiers) {
    const simd::EncodeKernels& v = encode_table(tier);
    for (std::size_t n = 1; n <= 100; ++n) {
      for (std::size_t pad = 0; pad < 4; ++pad) {
        const auto buf =
            make_payload(n, pad, static_cast<std::uint32_t>(n * 4 + pad),
                         /*with_edges=*/true);
        const double* x = buf.data() + pad;
        const double m_s = s.abs_max(x, n);
        const double m_v = v.abs_max(x, n);
        // Bitwise comparison: +0.0 vs -0.0 and NaN handling must agree.
        EXPECT_EQ(std::memcmp(&m_s, &m_v, sizeof m_s), 0)
            << simd::backend_name(tier) << " abs_max n=" << n
            << " pad=" << pad;
        EXPECT_EQ(s.find_first_abs_eq(x, n, m_s),
                  v.find_first_abs_eq(x, n, m_s))
            << simd::backend_name(tier) << " find_first_abs_eq n=" << n
            << " pad=" << pad;
        for (double bound : {0.0, 1e-12, 0.25, 1e299}) {
          EXPECT_EQ(s.any_abs_above(x, n, bound),
                    v.any_abs_above(x, n, bound))
              << simd::backend_name(tier) << " any_abs_above n=" << n
              << " pad=" << pad << " b=" << bound;
        }
      }
    }
  }
}

TEST(SimdDiff, QuantizeSignedMatchesAcrossSizesOffsetsAndWidths) {
  const auto tiers = vector_backends();
  if (tiers.empty()) GTEST_SKIP() << "no vector backend on this host";
  const simd::EncodeKernels& s = simd::kScalarKernels;
  for (Backend tier : tiers) {
    const simd::EncodeKernels& v = encode_table(tier);
    for (std::size_t n = 1; n <= 100; n += (n < 12 ? 1 : 7)) {
      for (std::size_t pad = 0; pad < 4; ++pad) {
        const auto buf = make_payload(
            n, pad, static_cast<std::uint32_t>(1000 + n + pad),
            /*with_edges=*/true);
        const double* x = buf.data() + pad;
        for (unsigned nbits : {2u, 11u, 31u, 52u, 54u}) {
          for (double binsize : {2e-10, 1.0, 0.5, 1e-300}) {
            std::vector<std::int64_t> qs(n), qv(n);
            std::vector<double> rs(n), rv(n);
            s.quantize_signed(x, n, binsize, nbits, binsize, qs.data(),
                              rs.data());
            v.quantize_signed(x, n, binsize, nbits, binsize, qv.data(),
                              rv.data());
            EXPECT_EQ(qs, qv)
                << simd::backend_name(tier) << " n=" << n << " pad=" << pad
                << " nbits=" << nbits << " bin=" << binsize;
            EXPECT_EQ(
                std::memcmp(rs.data(), rv.data(), n * sizeof(double)), 0)
                << simd::backend_name(tier) << " recon n=" << n
                << " nbits=" << nbits;
          }
        }
      }
    }
  }
}

TEST(SimdDiff, QuantizeSignedEdgeValuesExactly) {
  const auto tiers = vector_backends();
  if (tiers.empty()) GTEST_SKIP() << "no vector backend on this host";
  // Every edge value at every lane position of an 8-wide vector (covers
  // all lanes of every tier's width).
  const auto edges = edge_values();
  for (Backend tier : tiers) {
    for (std::size_t lane = 0; lane < 8; ++lane) {
      for (double e : edges) {
        std::vector<double> x(8, 0.25);
        x[lane] = e;
        std::vector<std::int64_t> qs(8), qv(8);
        std::vector<double> rs(8), rv(8);
        simd::kScalarKernels.quantize_signed(x.data(), 8, 1.0, 54, 1.0,
                                             qs.data(), rs.data());
        encode_table(tier).quantize_signed(x.data(), 8, 1.0, 54, 1.0,
                                           qv.data(), rv.data());
        EXPECT_EQ(qs, qv) << simd::backend_name(tier) << " edge=" << e
                          << " lane=" << lane;
      }
    }
  }
}

TEST(SimdDiff, EcqResidualMatchesAndCountsAreExact) {
  const auto tiers = vector_backends();
  if (tiers.empty()) GTEST_SKIP() << "no vector backend on this host";
  std::mt19937 rng(99);
  for (Backend tier : tiers) {
    for (std::size_t sbs = 1; sbs <= 100; sbs += (sbs < 10 ? 1 : 9)) {
      for (std::size_t nsb : {1, 3, 16}) {
        const std::size_t n = nsb * sbs;
        auto buf =
            make_payload(n, 0, static_cast<std::uint32_t>(sbs * 131),
                         /*with_edges=*/true);
        std::vector<double> p_hat(sbs), s_hat(nsb);
        std::uniform_real_distribution<double> uni(-1.0, 1.0);
        for (auto& p : p_hat) p = uni(rng);
        for (auto& sc : s_hat) sc = uni(rng);
        const double binsize = 2e-4;
        std::vector<std::int64_t> es(n), ev(n);
        simd::EcqStats sts, stv;
        simd::kScalarKernels.ecq_residual(buf.data(), nsb, sbs,
                                          p_hat.data(), s_hat.data(),
                                          binsize, es.data(), &sts);
        encode_table(tier).ecq_residual(buf.data(), nsb, sbs,
                                        p_hat.data(), s_hat.data(),
                                        binsize, ev.data(), &stv);
        ASSERT_EQ(es, ev) << simd::backend_name(tier) << " sbs=" << sbs
                          << " nsb=" << nsb;
        EXPECT_EQ(sts.max_magnitude, stv.max_magnitude);
        EXPECT_EQ(sts.num_outliers, stv.num_outliers);
        EXPECT_EQ(sts.num_plus1, stv.num_plus1);
        EXPECT_EQ(sts.num_minus1, stv.num_minus1);
        // The stats must also agree with a direct count of the output.
        std::size_t outliers = 0, plus1 = 0, minus1 = 0;
        std::uint64_t max_mag = 0;
        for (std::int64_t e : es) {
          if (e == 0) continue;
          ++outliers;
          if (e == 1) ++plus1;
          if (e == -1) ++minus1;
          const std::uint64_t mag =
              e > 0 ? static_cast<std::uint64_t>(e)
                    : static_cast<std::uint64_t>(-(e + 1)) + 1;
          if (mag > max_mag) max_mag = mag;
        }
        EXPECT_EQ(sts.num_outliers, outliers);
        EXPECT_EQ(sts.num_plus1, plus1);
        EXPECT_EQ(sts.num_minus1, minus1);
        EXPECT_EQ(sts.max_magnitude, max_mag);
      }
    }
  }
}

TEST(SimdDiff, CountedDenseBitsEqualWalkedDenseBits) {
  std::mt19937 rng(7);
  std::uniform_int_distribution<int> small(-40, 40);
  for (int trial = 0; trial < 50; ++trial) {
    const std::size_t n = 1 + rng() % 300;
    std::vector<std::int64_t> ecq(n);
    std::size_t outliers = 0, plus1 = 0, minus1 = 0;
    unsigned ecb_max = 1;
    for (auto& e : ecq) {
      e = rng() % 3 == 0 ? small(rng) : (rng() % 2 == 0 ? 0 : 1);
      if (e == 0) continue;
      ++outliers;
      if (e == 1) ++plus1;
      if (e == -1) ++minus1;
      ecb_max = std::max(ecb_max, ecq_bin(e));
    }
    for (EcqTree t : {EcqTree::Tree1, EcqTree::Tree2, EcqTree::Tree3,
                      EcqTree::Tree5}) {
      ASSERT_TRUE(ecq_dense_bits_countable(t));
      EXPECT_EQ(ecq_encoded_bits_counted(t, n, outliers, plus1, minus1,
                                         ecb_max),
                ecq_encoded_bits(t, ecq, ecb_max))
          << ecq_tree_name(t) << " trial=" << trial;
    }
    EXPECT_FALSE(ecq_dense_bits_countable(EcqTree::Tree4));
  }
}

TEST(SimdDiff, EncodeRunBitIdenticalToPerSymbolEncode) {
  std::mt19937 rng(13);
  std::uniform_int_distribution<std::int64_t> wide(-5000, 5000);
  for (EcqTree t : {EcqTree::Tree1, EcqTree::Tree2, EcqTree::Tree3,
                    EcqTree::Tree4, EcqTree::Tree5}) {
    for (unsigned ecb_max : {2u, 6u, 14u, 40u, 64u}) {
      std::vector<std::int64_t> ecq(977);
      for (auto& e : ecq) {
        const int c = static_cast<int>(rng() % 10);
        e = c < 6 ? 0 : (c < 8 ? (rng() % 2 ? 1 : -1) : wide(rng));
        if (ecq_bin(e) > ecb_max) e = 0;
      }
      bitio::BitWriter ref, run;
      for (std::int64_t v : ecq) ecq_encode_fast(ref, t, v, ecb_max);
      ecq_encode_run(run, t, ecq, ecb_max);
      EXPECT_EQ(ref.bit_count(), run.bit_count())
          << ecq_tree_name(t) << " ecb=" << ecb_max;
      const auto ref_bytes = ref.finish_view();
      const auto run_bytes = run.finish_view();
      ASSERT_EQ(ref_bytes.size(), run_bytes.size());
      EXPECT_TRUE(std::memcmp(ref_bytes.data(), run_bytes.data(),
                              ref_bytes.size()) == 0)
          << ecq_tree_name(t) << " ecb=" << ecb_max;
    }
  }
}

// ---- Decode kernel diffs ------------------------------------------------

/// unpack_signed vs BitReader::read_signed_run (the serial ground
/// truth), over sizes 1..100, all eight start-bit offsets, and widths
/// spanning the window and tail paths.
TEST(SimdDiff, UnpackSignedMatchesBitReaderAcrossWidthsAndOffsets) {
  std::mt19937_64 rng(4242);
  for (unsigned nbits : {1u, 2u, 7u, 11u, 31u, 52u, 54u, 57u}) {
    for (std::size_t n = 1; n <= 100; n += (n < 12 ? 1 : 7)) {
      for (unsigned offset = 0; offset < 8; ++offset) {
        // Author a payload with BitWriter: `offset` junk bits, then a
        // signed run of extreme and random values.
        std::vector<std::int64_t> truth(n);
        const std::int64_t hi =
            nbits >= 64 ? std::numeric_limits<std::int64_t>::max()
                        : (std::int64_t{1} << (nbits - 1)) - 1;
        const std::int64_t lo = -hi - 1;
        for (std::size_t i = 0; i < n; ++i) {
          switch (rng() % 4) {
            case 0: truth[i] = hi; break;
            case 1: truth[i] = lo; break;
            case 2: truth[i] = 0; break;
            default:
              truth[i] = static_cast<std::int64_t>(rng()) % (hi + 1);
          }
        }
        bitio::BitWriter w;
        if (offset != 0) w.write_bits(0x55, offset);
        w.write_signed_run(truth, nbits);
        const auto bytes = w.finish_view();

        bitio::BitReader r(bytes);
        r.skip_bits(offset);
        std::vector<std::int64_t> via_reader(n);
        r.read_signed_run(nbits, via_reader);
        ASSERT_EQ(via_reader, truth)
            << "BitReader ground truth nbits=" << nbits;

        std::vector<std::int64_t> got(n, -777);
        simd::unpack_signed(bytes.data(), bytes.size(), offset, nbits,
                            got.data(), n);
        ASSERT_EQ(got, truth) << "nbits=" << nbits << " n=" << n
                              << " offset=" << offset;
      }
    }
  }
}

/// unpack_pairs vs a per-record BitReader walk, including the wide
/// (idx_bits + val_bits > 57) records that force the two-load path.
TEST(SimdDiff, UnpackPairsMatchesBitReaderAcrossWidths) {
  std::mt19937_64 rng(777);
  for (unsigned idx_bits : {1u, 5u, 12u, 17u}) {
    for (unsigned val_bits : {2u, 11u, 40u, 57u, 63u}) {
      for (std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{3},
                            std::size_t{17}, std::size_t{64}}) {
        for (unsigned offset : {0u, 3u, 7u}) {
          std::vector<std::uint64_t> idx_truth(n);
          std::vector<std::int64_t> val_truth(n);
          bitio::BitWriter w;
          if (offset != 0) w.write_bits(0x2A, offset);
          for (std::size_t k = 0; k < n; ++k) {
            idx_truth[k] = rng() & ((std::uint64_t{1} << idx_bits) - 1);
            const std::int64_t hi =
                (std::int64_t{1} << (val_bits - 1)) - 1;
            const std::int64_t v = static_cast<std::int64_t>(rng());
            val_truth[k] = k % 5 == 0 ? hi : (k % 5 == 1 ? -hi - 1
                                                         : v % (hi + 1));
            w.write_bits(idx_truth[k], idx_bits);
            w.write_signed(val_truth[k], val_bits);
          }
          const auto bytes = w.finish_view();
          std::vector<std::uint64_t> idx_got(n, 999999);
          std::vector<std::int64_t> val_got(n, -777);
          simd::unpack_pairs(bytes.data(), bytes.size(), offset, idx_bits,
                             val_bits, idx_got.data(), val_got.data(), n);
          ASSERT_EQ(idx_got, idx_truth)
              << "ib=" << idx_bits << " vb=" << val_bits << " n=" << n
              << " off=" << offset;
          ASSERT_EQ(val_got, val_truth)
              << "ib=" << idx_bits << " vb=" << val_bits << " n=" << n
              << " off=" << offset;
        }
      }
    }
  }
}

/// scatter_ecq vs the zero-fill + assign reference loop (duplicate
/// indices: the last record wins), and its rejection of any index >= n.
TEST(SimdDiff, ScatterEcqMatchesScalarAndRejectsOutOfRange) {
  std::mt19937_64 rng(2024);
  for (std::size_t n : {std::size_t{1}, std::size_t{5}, std::size_t{36},
                        std::size_t{100}}) {
    for (std::size_t nol = 0; nol <= n; nol += (nol < 4 ? 1 : 7)) {
      std::vector<std::uint64_t> idx(nol);
      std::vector<std::int64_t> val(nol);
      for (std::size_t k = 0; k < nol; ++k) {
        idx[k] = rng() % n;  // duplicates allowed: last record wins
        val[k] = static_cast<std::int64_t>(rng() % 2001) - 1000;
      }
      std::vector<std::int64_t> want(n, 0);
      for (std::size_t k = 0; k < nol; ++k) want[idx[k]] = val[k];
      std::vector<std::int64_t> got(n, 42);
      ASSERT_TRUE(simd::scatter_ecq(got.data(), n, idx.data(), val.data(),
                                    nol));
      EXPECT_EQ(got, want) << " n=" << n << " nol=" << nol;
      // One out-of-range index anywhere must fail without storing.
      if (nol > 0) {
        auto bad = idx;
        bad[rng() % nol] = n;
        std::vector<std::int64_t> untouched(n, 42);
        EXPECT_FALSE(simd::scatter_ecq(untouched.data(), n, bad.data(),
                                       val.data(), nol));
        EXPECT_EQ(untouched, std::vector<std::int64_t>(n, 42));
      }
    }
  }
}

/// The dequantize expression of paper Eq. 2-3, one value at a time:
/// the reference reconstruct must match bit for bit.
double reference_value(std::int64_t pq, std::int64_t sq, std::int64_t ecq,
                       double pattern_bin, double scale_bin,
                       double ec_bin) {
  const double s_hat = static_cast<double>(sq) * scale_bin;
  const double p_hat = static_cast<double>(pq) * pattern_bin;
  return s_hat * p_hat + static_cast<double>(ecq) * ec_bin;
}

/// reconstruct vs the reference expression, bitwise, across geometries,
/// code widths up to 54 bits, ECQ widths up to 63 bits, denormal bin
/// sizes, saturated codes, negative scales (the -0.0 + 0.0 case) and
/// empty (all-zero) ECQ.
TEST(SimdDiff, ReconstructBitExactAcrossBackends) {
  std::mt19937_64 rng(555);
  for (std::size_t sbs = 1; sbs <= 100; sbs += (sbs < 10 ? 1 : 11)) {
    for (std::size_t nsb : {1, 3, 16}) {
      for (unsigned bits : {2u, 31u, 52u, 54u}) {
        for (unsigned ecb_max : {1u, 5u, 52u, 63u}) {
          const std::int64_t pmax = (std::int64_t{1} << (bits - 1)) - 1;
          std::vector<std::int64_t> pq(sbs), sq(nsb),
              ecq(nsb * sbs, 0);
          for (auto& p : pq) {
            p = static_cast<std::int64_t>(rng()) % (pmax + 1);
          }
          for (auto& s : sq) {
            s = static_cast<std::int64_t>(rng()) % (pmax + 1);
          }
          if (ecb_max >= 2) {
            const std::int64_t emax =
                (std::int64_t{1} << (ecb_max - 1)) - 1;
            for (auto& e : ecq) {
              const auto c = rng() % 4;
              e = c == 0 ? 0
                         : (c == 1 ? emax
                                   : (c == 2 ? -emax - 1
                                             : static_cast<std::int64_t>(
                                                   rng() % 7) -
                                                   3));
            }
          }
          for (double pattern_bin : {2e-10, 1e-300}) {
            const double scale_bin =
                std::ldexp(1.0, 1 - static_cast<int>(bits));
            std::vector<double> want(nsb * sbs);
            for (std::size_t j = 0; j < nsb; ++j) {
              for (std::size_t i = 0; i < sbs; ++i) {
                want[j * sbs + i] =
                    reference_value(pq[i], sq[j], ecq[j * sbs + i],
                                    pattern_bin, scale_bin, pattern_bin);
              }
            }
            std::vector<double> scratch(sbs), got(nsb * sbs, 7.0);
            simd::reconstruct(pq.data(), sq.data(), ecq.data(), nsb, sbs,
                              pattern_bin, scale_bin, pattern_bin,
                              scratch.data(), got.data());
            ASSERT_EQ(std::memcmp(want.data(), got.data(),
                                  want.size() * sizeof(double)),
                      0)
                << "sbs=" << sbs << " nsb=" << nsb << " bits=" << bits
                << " ecb=" << ecb_max << " pbin=" << pattern_bin;
          }
        }
      }
    }
  }
}

/// Signed zero discipline: a zero pattern code times a negative scale
/// is -0.0; adding the (always-present) zero ECQ term must normalize it
/// to +0.0.
TEST(SimdDiff, ReconstructNegativeZeroIdentical) {
  const std::size_t sbs = 9, nsb = 3;
  std::vector<std::int64_t> pq(sbs, 0), sq(nsb, -1),
      ecq(nsb * sbs, 0);
  std::vector<double> scratch(sbs), got(nsb * sbs);
  simd::reconstruct(pq.data(), sq.data(), ecq.data(), nsb, sbs, 2e-10, 0.5,
                    2e-10, scratch.data(), got.data());
  for (double v : got) {
    EXPECT_FALSE(std::signbit(v)) << "reconstruct must produce +0.0";
  }
}

// ---- Full-stream identity ----------------------------------------------

/// End-to-end: identical compressed streams from every backend for all
/// five metrics, both bound modes, several geometries (including
/// sub-block sizes that are not multiples of any vector width).
TEST(SimdDiff, FullStreamsBitIdenticalAcrossBackends) {
  const auto tiers = vector_backends();
  if (tiers.empty()) GTEST_SKIP() << "no vector backend on this host";
  BackendGuard guard;
  const BlockSpec specs[] = {{1, 1}, {3, 5}, {16, 24}, {10, 100}, {7, 33}};
  for (const BlockSpec& spec : specs) {
    for (ScalingMetric metric : {ScalingMetric::FR, ScalingMetric::ER,
                                 ScalingMetric::AR, ScalingMetric::AAR,
                                 ScalingMetric::IS}) {
      for (BoundMode mode : {BoundMode::Absolute, BoundMode::BlockRelative}) {
        Params p;
        p.metric = metric;
        p.bound_mode = mode;
        p.error_bound = mode == BoundMode::Absolute ? 1e-10 : 1e-8;
        const std::size_t blocks = 24;
        auto data = make_payload(blocks * spec.block_size(), 0,
                                 static_cast<std::uint32_t>(
                                     spec.block_size() * 17 +
                                     static_cast<unsigned>(metric)),
                                 /*with_edges=*/false);
        // A few all-zero and all-edge blocks in the mix.
        std::fill_n(data.begin(), spec.block_size(), 0.0);
        simd::force_backend(Backend::Scalar);
        const auto scalar_stream = compress(data, spec, p);
        for (Backend tier : tiers) {
          simd::force_backend(tier);
          const auto vec_stream = compress(data, spec, p);
          ASSERT_EQ(scalar_stream, vec_stream)
              << simd::backend_name(tier) << " "
              << scaling_metric_name(metric)
              << " mode=" << static_cast<int>(mode)
              << " nsb=" << spec.num_sub_blocks
              << " sbs=" << spec.sub_block_size;
        }
        // And the stream still round-trips within bound.
        const auto back = decompress(scalar_stream);
        ASSERT_EQ(back.size(), data.size());
      }
    }
  }
}

/// End-to-end decode: every backend decodes the same stream to
/// bitwise-identical doubles, across all five metrics and both bound
/// modes.
TEST(SimdDiff, FullStreamDecodeValueIdenticalAcrossBackends) {
  const auto tiers = vector_backends();
  if (tiers.empty()) GTEST_SKIP() << "no vector backend on this host";
  BackendGuard guard;
  const BlockSpec spec{6, 30};
  for (ScalingMetric metric : {ScalingMetric::FR, ScalingMetric::ER,
                               ScalingMetric::AR, ScalingMetric::AAR,
                               ScalingMetric::IS}) {
    for (BoundMode mode : {BoundMode::Absolute, BoundMode::BlockRelative}) {
      Params p;
      p.metric = metric;
      p.bound_mode = mode;
      p.error_bound = mode == BoundMode::Absolute ? 1e-10 : 1e-8;
      const std::size_t blocks = 40;
      auto data = make_payload(blocks * spec.block_size(), 0,
                               static_cast<std::uint32_t>(
                                   90 + static_cast<unsigned>(metric)),
                               /*with_edges=*/false);
      // One zero block.
      std::fill_n(data.begin() + spec.block_size(), spec.block_size(), 0.0);
      const auto stream = compress(data, spec, p);
      simd::force_backend(Backend::Scalar);
      const auto want = decompress(stream);
      ASSERT_EQ(want.size(), data.size());
      for (Backend tier : tiers) {
        simd::force_backend(tier);
        const auto got = decompress(stream);
        ASSERT_EQ(got.size(), want.size());
        ASSERT_EQ(std::memcmp(want.data(), got.data(),
                              want.size() * sizeof(double)),
                  0)
            << simd::backend_name(tier) << " "
            << scaling_metric_name(metric)
            << " mode=" << static_cast<int>(mode);
      }
    }
  }
}

/// Sparse-ECQ and empty/all-escape dense payloads decode identically on
/// every backend: blocks engineered to hit (a) the sparse scatter path
/// with few outliers, (b) dense runs where every symbol is an escape,
/// and (c) ECQ-free blocks (ecb_max < 2).
TEST(SimdDiff, SparseAndEscapeHeavyBlocksDecodeIdentically) {
  const auto tiers = vector_backends();
  if (tiers.empty()) GTEST_SKIP() << "no vector backend on this host";
  BackendGuard guard;
  const BlockSpec spec{4, 36};
  Params p;
  p.error_bound = 1e-10;
  std::mt19937_64 rng(64);
  std::vector<double> data;
  // Block 0: pure pattern-scaled (no outliers -> ecb_max < 2).
  // Block 1: one huge outlier (sparse path).
  // Block 2: broadband noise (dense, mostly escapes).
  // Block 3: zero block.
  std::vector<double> pattern(spec.sub_block_size);
  for (auto& v : pattern) {
    v = 1e-6 * (1.0 + static_cast<double>(rng() % 1000) / 1000.0);
  }
  for (std::size_t b = 0; b < 4; ++b) {
    for (std::size_t j = 0; j < spec.num_sub_blocks; ++j) {
      const double s = 0.5 + 0.1 * static_cast<double>(j);
      for (std::size_t i = 0; i < spec.sub_block_size; ++i) {
        double v = s * pattern[i];
        if (b == 1 && j == 1 && i == 7) v += 1e-3;
        if (b == 2) {
          v += 1e-7 * (static_cast<double>(rng() % 2000) - 1000.0);
        }
        if (b == 3) v = 0.0;
        data.push_back(v);
      }
    }
  }
  const auto stream = compress(data, spec, p);
  simd::force_backend(Backend::Scalar);
  const auto want = decompress(stream);
  for (Backend tier : tiers) {
    simd::force_backend(tier);
    const auto got = decompress(stream);
    ASSERT_EQ(got.size(), want.size());
    ASSERT_EQ(std::memcmp(want.data(), got.data(),
                          want.size() * sizeof(double)),
              0)
        << simd::backend_name(tier);
  }
}

/// Corrupt-stream behaviour is backend-independent: truncations and
/// bit flips that throw on the scalar tier throw on every tier (and
/// decode results, when they do not throw, stay value-identical).
TEST(SimdDiff, CorruptStreamExceptionsMatchAcrossBackends) {
  const auto tiers = vector_backends();
  if (tiers.empty()) GTEST_SKIP() << "no vector backend on this host";
  BackendGuard guard;
  const BlockSpec spec{4, 25};
  Params p;
  p.error_bound = 1e-10;
  auto data = make_payload(8 * spec.block_size(), 0, 1234,
                           /*with_edges=*/false);
  const auto stream = compress(data, spec, p);
  // Truncations at every eighth byte + a spread of single bit flips.
  for (std::size_t cut = 8; cut < stream.size(); cut += 8) {
    std::vector<std::uint8_t> trunc(stream.begin(),
                                    stream.begin() + cut);
    simd::force_backend(Backend::Scalar);
    bool scalar_threw = false;
    std::vector<double> scalar_out;
    try {
      scalar_out = decompress(trunc);
    } catch (const std::exception&) {
      scalar_threw = true;
    }
    for (Backend tier : tiers) {
      simd::force_backend(tier);
      bool tier_threw = false;
      std::vector<double> tier_out;
      try {
        tier_out = decompress(trunc);
      } catch (const std::exception&) {
        tier_threw = true;
      }
      EXPECT_EQ(scalar_threw, tier_threw)
          << simd::backend_name(tier) << " cut=" << cut;
      if (!scalar_threw && !tier_threw) {
        EXPECT_EQ(scalar_out, tier_out)
            << simd::backend_name(tier) << " cut=" << cut;
      }
    }
  }
}

/// Sub-block sizes 1..100 under ER (the shipped configuration), scalar
/// vs every vector tier, one block spec per size -- the fused path's
/// geometry sweep, now also checking decoded values bitwise.
TEST(SimdDiff, ErStreamsBitIdenticalForAllSubBlockSizes) {
  const auto tiers = vector_backends();
  if (tiers.empty()) GTEST_SKIP() << "no vector backend on this host";
  BackendGuard guard;
  Params p;
  p.error_bound = 1e-10;
  for (std::size_t sbs = 1; sbs <= 100; ++sbs) {
    const BlockSpec spec{5, sbs};
    auto data = make_payload(8 * spec.block_size(), 0,
                             static_cast<std::uint32_t>(sbs),
                             /*with_edges=*/true);
    // NaN/Inf would (identically) poison both streams but break the
    // round-trip check; strip non-finite values, keep the rest.
    for (auto& v : data) {
      if (!std::isfinite(v)) v = 1e-9;
    }
    simd::force_backend(Backend::Scalar);
    const auto scalar_stream = compress(data, spec, p);
    const auto scalar_values = decompress(scalar_stream);
    for (Backend tier : tiers) {
      simd::force_backend(tier);
      const auto vec_stream = compress(data, spec, p);
      ASSERT_EQ(scalar_stream, vec_stream)
          << simd::backend_name(tier) << " sbs=" << sbs;
      const auto vec_values = decompress(scalar_stream);
      ASSERT_EQ(std::memcmp(scalar_values.data(), vec_values.data(),
                            scalar_values.size() * sizeof(double)),
                0)
          << simd::backend_name(tier) << " sbs=" << sbs;
    }
  }
}

}  // namespace
}  // namespace pastri
