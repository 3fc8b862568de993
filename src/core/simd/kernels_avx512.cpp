// kernels_avx512.cpp - AVX-512 backend of the encode kernel table.
//
// Compiled with -mavx512f -mavx512dq -ffp-contract=off in this TU only
// (see core/CMakeLists.txt); dispatch never selects it unless CPUID
// reports AVX-512 F+DQ *and* XGETBV confirms the OS saves ZMM state
// (simd.cpp).  Same bit-identity discipline as the AVX2 backend --
// lanewise unfused IEEE ops in scalar order, division stays division,
// compare+blend max with scalar NaN semantics, round-half-away = rne
// plus an exact +-.5 correction -- but the DQ int64<->double conversion
// instructions replace the AVX2 magic-bias trick:
//
//   * vcvtqq2pd is the IEEE int64 -> double conversion for the full
//     64-bit range (round-to-nearest beyond 2^53), exactly
//     static_cast<double>, so quantize_signed's reconstructed values
//     need no width gate at all;
//   * vcvttpd2qq truncates exactly for any integral |v| < 2^63, so the
//     double -> int64 fast path extends to the scalar saturation
//     threshold (9.2e18) instead of 2^51 -- only saturating or
//     non-finite lanes fall back to the shared scalar
//     round_half_away_i64.
//
// PASTRI_HAVE_AVX512 is defined (by the build) only when the compiler
// accepted the flags; otherwise this TU degrades to a scalar alias so
// the symbol exists and dispatch simply reports the tier unavailable.
#include "core/simd/simd.h"

#if defined(PASTRI_HAVE_AVX512) && defined(__x86_64__)

#include <immintrin.h>

#include <bit>

namespace pastri::simd {
namespace {

// |r| below this always round-converts exactly; at or above it the
// scalar path saturates to +-2^62 (kernels_scalar.cpp).
constexpr double kSaturateLimit = 9.2e18;

inline __m512d abs_pd(__m512d x) {
  return _mm512_abs_pd(x);
}

/// Lanewise round-half-away-from-zero (same derivation as the AVX2
/// backend: rne, then +-1 where the fraction was exactly +-.5).
inline __m512d round_half_away_pd(__m512d x) {
  const __m512d r = _mm512_roundscale_pd(
      x, _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
  const __m512d diff = _mm512_sub_pd(x, r);
  const __m512d sign_mask = _mm512_set1_pd(-0.0);
  const __m512d sign = _mm512_and_pd(x, sign_mask);
  const __m512d half = _mm512_or_pd(_mm512_set1_pd(0.5), sign);
  const __m512d one = _mm512_or_pd(_mm512_set1_pd(1.0), sign);
  const __mmask8 is_half = _mm512_cmp_pd_mask(diff, half, _CMP_EQ_OQ);
  return _mm512_mask_add_pd(r, is_half, r, one);
}

/// Convert a rounded vector to int64.  `quot` is the unrounded quotient
/// for the fallback; lanes with |rounded| < 9.2e18 (which excludes
/// NaN/Inf and everything the scalar path would saturate) truncate
/// exactly via vcvttpd2qq, the rest go through the shared scalar path.
inline __m512i to_i64(__m512d rounded, __m512d quot) {
  const __mmask8 fast = _mm512_cmp_pd_mask(
      abs_pd(rounded), _mm512_set1_pd(kSaturateLimit), _CMP_LT_OQ);
  __m512i iv = _mm512_cvttpd_epi64(rounded);
  if (fast != 0xFF) [[unlikely]] {
    alignas(64) double q[8];
    alignas(64) std::int64_t v[8];
    _mm512_store_pd(q, quot);
    _mm512_store_si512(v, iv);
    for (int lane = 0; lane < 8; ++lane) {
      if (!(fast & (1 << lane))) v[lane] = round_half_away_i64(q[lane]);
    }
    iv = _mm512_load_si512(v);
  }
  return iv;
}

double abs_max_avx512(const double* x, std::size_t n) {
  __m512d m = _mm512_setzero_pd();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m512d a = abs_pd(_mm512_loadu_pd(x + i));
    // compare+blend, not vmaxpd: NaN never overwrites the accumulator,
    // matching the scalar `if (a > m) m = a`.
    const __mmask8 gt = _mm512_cmp_pd_mask(a, m, _CMP_GT_OQ);
    m = _mm512_mask_blend_pd(gt, m, a);
  }
  alignas(64) double lanes[8];
  _mm512_store_pd(lanes, m);
  double best = 0.0;
  for (double lane : lanes) {
    if (lane > best) best = lane;
  }
  for (; i < n; ++i) {
    const double a = x[i] < 0.0 ? -x[i] : x[i];
    if (a > best) best = a;
  }
  return best;
}

std::size_t find_first_abs_eq_avx512(const double* x, std::size_t n,
                                     double m) {
  const __m512d target = _mm512_set1_pd(m);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m512d a = abs_pd(_mm512_loadu_pd(x + i));
    const __mmask8 hit = _mm512_cmp_pd_mask(a, target, _CMP_EQ_OQ);
    if (hit != 0) {
      return i + static_cast<std::size_t>(std::countr_zero(
                     static_cast<unsigned>(hit)));
    }
  }
  for (; i < n; ++i) {
    const double a = x[i] < 0.0 ? -x[i] : x[i];
    if (a == m) return i;
  }
  return n;
}

bool any_abs_above_avx512(const double* x, std::size_t n, double bound) {
  const __m512d b = _mm512_set1_pd(bound);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m512d a = abs_pd(_mm512_loadu_pd(x + i));
    if (_mm512_cmp_pd_mask(a, b, _CMP_GT_OQ) != 0) return true;
  }
  for (; i < n; ++i) {
    const double a = x[i] < 0.0 ? -x[i] : x[i];
    if (a > bound) return true;
  }
  return false;
}

void quantize_signed_avx512(const double* x, std::size_t n, double binsize,
                            unsigned nbits, double recon_binsize,
                            std::int64_t* q, double* recon) {
  const __m512d bin = _mm512_set1_pd(binsize);
  const __m512d rb = _mm512_set1_pd(recon_binsize);
  const std::int64_t hi_s = (std::int64_t{1} << (nbits - 1)) - 1;
  const std::int64_t lo_s = -(std::int64_t{1} << (nbits - 1));
  const __m512i hi = _mm512_set1_epi64(hi_s);
  const __m512i lo = _mm512_set1_epi64(lo_s);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m512d quot = _mm512_div_pd(_mm512_loadu_pd(x + i), bin);
    __m512i iv = to_i64(round_half_away_pd(quot), quot);
    iv = _mm512_min_epi64(iv, hi);
    iv = _mm512_max_epi64(iv, lo);
    _mm512_storeu_si512(q + i, iv);
    // vcvtqq2pd == static_cast<double> for every clamped value; no
    // width gate needed (unlike the AVX2 magic-bias recon).
    _mm512_storeu_pd(recon + i,
                     _mm512_mul_pd(_mm512_cvtepi64_pd(iv), rb));
  }
  for (; i < n; ++i) {
    std::int64_t v = round_half_away_i64(x[i] / binsize);
    v = v < lo_s ? lo_s : (v > hi_s ? hi_s : v);
    q[i] = v;
    recon[i] = static_cast<double>(v) * recon_binsize;
  }
}

void ecq_residual_avx512(const double* block, std::size_t nsb,
                         std::size_t sbs, const double* p_hat,
                         const double* s_hat, double binsize,
                         std::int64_t* ecq, EcqStats* stats) {
  const __m512d bin = _mm512_set1_pd(binsize);
  const __m512i zero = _mm512_setzero_si512();
  const __m512i plus1 = _mm512_set1_epi64(1);
  const __m512i minus1 = _mm512_set1_epi64(-1);
  __m512i max_mag = _mm512_setzero_si512();
  std::size_t zeros = 0;
  EcqStats st;

  for (std::size_t j = 0; j < nsb; ++j) {
    const double s = s_hat[j];
    const __m512d sv = _mm512_set1_pd(s);
    const double* row = block + j * sbs;
    std::int64_t* out = ecq + j * sbs;
    std::size_t i = 0;
    for (; i + 8 <= sbs; i += 8) {
      // mul then sub then div: the scalar op sequence, never an FMA.
      const __m512d approx = _mm512_mul_pd(sv, _mm512_loadu_pd(p_hat + i));
      const __m512d diff = _mm512_sub_pd(_mm512_loadu_pd(row + i), approx);
      const __m512d quot = _mm512_div_pd(diff, bin);
      const __m512i e = to_i64(round_half_away_pd(quot), quot);
      _mm512_storeu_si512(out + i, e);
      // Mask popcounts replace the AVX2 per-lane counter vectors.
      zeros += static_cast<unsigned>(std::popcount(
          static_cast<unsigned>(_mm512_cmpeq_epi64_mask(e, zero))));
      st.num_plus1 += static_cast<unsigned>(std::popcount(
          static_cast<unsigned>(_mm512_cmpeq_epi64_mask(e, plus1))));
      st.num_minus1 += static_cast<unsigned>(std::popcount(
          static_cast<unsigned>(_mm512_cmpeq_epi64_mask(e, minus1))));
      // |INT64_MIN| reads as 2^63 unsigned, exactly the scalar mag.
      max_mag = _mm512_max_epu64(max_mag, _mm512_abs_epi64(e));
    }
    for (; i < sbs; ++i) {
      const double approx = s * p_hat[i];
      const std::int64_t e =
          round_half_away_i64((row[i] - approx) / binsize);
      out[i] = e;
      if (e == 0) {
        ++zeros;
      } else {
        const std::uint64_t mag =
            e > 0 ? static_cast<std::uint64_t>(e)
                  : static_cast<std::uint64_t>(-(e + 1)) + 1;
        if (mag > st.max_magnitude) st.max_magnitude = mag;
        st.num_plus1 += e == 1;
        st.num_minus1 += e == -1;
      }
    }
  }

  st.num_outliers = nsb * sbs - zeros;
  const std::uint64_t vec_mag = _mm512_reduce_max_epu64(max_mag);
  if (vec_mag > st.max_magnitude) st.max_magnitude = vec_mag;
  *stats = st;
}

}  // namespace

const EncodeKernels kAvx512Kernels = {
    abs_max_avx512,      find_first_abs_eq_avx512, any_abs_above_avx512,
    quantize_signed_avx512, ecq_residual_avx512,
};

bool avx512_compiled_in() { return true; }

}  // namespace pastri::simd

#else  // !PASTRI_HAVE_AVX512

namespace pastri::simd {

// No AVX-512 at compile time: alias the scalar table so the symbol
// links; dispatch reports the backend as unsupported and never selects
// it on merit, but a forced selection still behaves correctly.
const EncodeKernels kAvx512Kernels = kScalarKernels;

bool avx512_compiled_in() { return false; }

}  // namespace pastri::simd

#endif
