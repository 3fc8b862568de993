// kernels_scalar.cpp - Portable encode backend and the bulk decode.
//
// The encode loops are the pre-SIMD hot-path code, verbatim in
// semantics: every vector backend is verified bit-identical against
// them (SimdDiff suite), and they are what PASTRI_SIMD=scalar selects
// on any CPU.  The bulk decode functions below are the one decode path
// on every host.
#include <cmath>
#include <cstring>

#include "core/simd/simd.h"

namespace pastri::simd {

std::int64_t round_half_away_i64(double x) {
  // nearbyint for the saturation probe, llround (round-half-away) for
  // the value -- exactly the quantizer's original round_to_i64, so
  // saturated/pathological lanes are identical on every backend.
  const double r = std::nearbyint(x);
  if (r >= 9.2e18) return std::int64_t{1} << 62;
  if (r <= -9.2e18) return -(std::int64_t{1} << 62);
  return static_cast<std::int64_t>(std::llround(x));
}

namespace {

std::int64_t clamp_signed(std::int64_t v, unsigned bits) {
  const std::int64_t hi = (std::int64_t{1} << (bits - 1)) - 1;
  const std::int64_t lo = -(std::int64_t{1} << (bits - 1));
  return v < lo ? lo : (v > hi ? hi : v);
}

double abs_max_scalar(const double* x, std::size_t n) {
  double m = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double a = std::abs(x[i]);
    if (a > m) m = a;
  }
  return m;
}

std::size_t find_first_abs_eq_scalar(const double* x, std::size_t n,
                                     double m) {
  for (std::size_t i = 0; i < n; ++i) {
    if (std::abs(x[i]) == m) return i;
  }
  return n;
}

bool any_abs_above_scalar(const double* x, std::size_t n, double bound) {
  for (std::size_t i = 0; i < n; ++i) {
    if (std::abs(x[i]) > bound) return true;
  }
  return false;
}

void quantize_signed_scalar(const double* x, std::size_t n, double binsize,
                            unsigned nbits, double recon_binsize,
                            std::int64_t* q, double* recon) {
  for (std::size_t i = 0; i < n; ++i) {
    std::int64_t v = round_half_away_i64(x[i] / binsize);
    v = clamp_signed(v, nbits);
    q[i] = v;
    recon[i] = static_cast<double>(v) * recon_binsize;
  }
}

void ecq_residual_scalar(const double* block, std::size_t nsb,
                         std::size_t sbs, const double* p_hat,
                         const double* s_hat, double binsize,
                         std::int64_t* ecq, EcqStats* stats) {
  EcqStats st;
  for (std::size_t j = 0; j < nsb; ++j) {
    const double s = s_hat[j];
    const double* row = block + j * sbs;
    std::int64_t* out = ecq + j * sbs;
    for (std::size_t i = 0; i < sbs; ++i) {
      const double approx = s * p_hat[i];
      const std::int64_t e = round_half_away_i64((row[i] - approx) / binsize);
      out[i] = e;
      if (e != 0) {
        ++st.num_outliers;
        const std::uint64_t mag =
            e > 0 ? static_cast<std::uint64_t>(e)
                  : static_cast<std::uint64_t>(-(e + 1)) + 1;
        if (mag > st.max_magnitude) st.max_magnitude = mag;
        st.num_plus1 += e == 1;
        st.num_minus1 += e == -1;
      }
    }
  }
  *stats = st;
}

}  // namespace

const EncodeKernels kScalarKernels = {
    abs_max_scalar,      find_first_abs_eq_scalar, any_abs_above_scalar,
    quantize_signed_scalar, ecq_residual_scalar,
};

// ---- Bulk decode -------------------------------------------------------

namespace {

constexpr std::uint64_t mask_u64(unsigned nbits) {
  return nbits >= 64 ? ~std::uint64_t{0}
                     : (std::uint64_t{1} << nbits) - 1;
}

std::int64_t sign_extend_u64(std::uint64_t raw, unsigned nbits) {
  if (nbits < 64 && nbits > 0 &&
      (raw & (std::uint64_t{1} << (nbits - 1)))) {
    raw |= ~((std::uint64_t{1} << nbits) - 1);
  }
  return static_cast<std::int64_t>(raw);
}

/// Load `nbits` (<= 57) at absolute bit `pos`, tail-safe exactly like
/// BitReader::peek_bits: bytes past the end of the span read as zero
/// (the caller's require_bits proved the *value* bits are in range;
/// only over-read padding may fall off the end).
std::uint64_t peek_at(const std::uint8_t* base, std::size_t nbytes,
                      std::size_t pos, unsigned nbits) {
  const std::size_t byte = pos >> 3;
  const unsigned bit = static_cast<unsigned>(pos & 7);
  std::uint64_t word = 0;
  if (byte + 8 <= nbytes) {
    std::memcpy(&word, base + byte, 8);  // little-endian hosts
  } else if (byte < nbytes) {
    std::memcpy(&word, base + byte, nbytes - byte);
  }
  word >>= bit;
  return word & mask_u64(nbits);
}

/// peek_at for widths up to 64 (sparse-ECQ values can be 63 bits wide):
/// two part-loads stitched like BitReader::take_bits.
std::uint64_t peek_wide_at(const std::uint8_t* base, std::size_t nbytes,
                           std::size_t pos, unsigned nbits) {
  if (nbits <= 57) return peek_at(base, nbytes, pos, nbits);
  const std::uint64_t lo = peek_at(base, nbytes, pos, 32);
  const std::uint64_t hi = peek_at(base, nbytes, pos + 32, nbits - 32);
  return lo | (hi << 32);
}

}  // namespace

/// The windowed loop of BitReader::read_signed_run re-rooted at
/// (base, nbytes, bitpos) -- value-identical to it.
void unpack_signed(const std::uint8_t* base, std::size_t nbytes,
                   std::size_t bitpos, unsigned nbits, std::int64_t* out,
                   std::size_t n) {
  std::uint64_t window = 0;
  unsigned valid = 0;
  std::size_t pos = bitpos;
  std::size_t i = 0;
  for (; i < n; ++i) {
    if (valid < nbits) {
      const std::size_t byte = pos >> 3;
      if (byte + 8 > nbytes) break;  // tail: peek path below
      std::uint64_t word;
      std::memcpy(&word, base + byte, 8);  // little-endian hosts
      const unsigned bit = static_cast<unsigned>(pos & 7);
      window = word >> bit;
      valid = 64 - bit;  // >= 57 >= nbits
    }
    out[i] = sign_extend_u64(window & mask_u64(nbits), nbits);
    window >>= nbits;
    valid -= nbits;
    pos += nbits;
  }
  for (; i < n; ++i) {
    out[i] = sign_extend_u64(peek_at(base, nbytes, pos, nbits), nbits);
    pos += nbits;
  }
}

/// One peek per record when both fields fit a single window.
void unpack_pairs(const std::uint8_t* base, std::size_t nbytes,
                  std::size_t bitpos, unsigned idx_bits, unsigned val_bits,
                  std::uint64_t* idx, std::int64_t* val, std::size_t n) {
  const unsigned rec = idx_bits + val_bits;
  std::size_t pos = bitpos;
  if (rec <= 57) {
    for (std::size_t k = 0; k < n; ++k) {
      const std::uint64_t word = peek_at(base, nbytes, pos, rec);
      idx[k] = word & mask_u64(idx_bits);
      val[k] = sign_extend_u64(word >> idx_bits, val_bits);
      pos += rec;
    }
  } else {
    for (std::size_t k = 0; k < n; ++k) {
      idx[k] = peek_at(base, nbytes, pos, idx_bits);
      pos += idx_bits;
      val[k] = sign_extend_u64(peek_wide_at(base, nbytes, pos, val_bits),
                               val_bits);
      pos += val_bits;
    }
  }
}

bool scatter_ecq(std::int64_t* ecq, std::size_t n, const std::uint64_t* idx,
                 const std::int64_t* val, std::size_t nol) {
  for (std::size_t k = 0; k < nol; ++k) {
    if (idx[k] >= n) return false;
  }
  std::memset(ecq, 0, n * sizeof(std::int64_t));
  for (std::size_t k = 0; k < nol; ++k) {
    ecq[idx[k]] = val[k];
  }
  return true;
}

/// The canonical dequantize loop.  p_hat is hoisted out of the row loop
/// (the per-(j,i) multiply of the original loop is deterministic, so
/// computing double(pq[i]) * pattern_binsize once per i yields the
/// identical double every row).
void reconstruct(const std::int64_t* pq, const std::int64_t* sq,
                 const std::int64_t* ecq, std::size_t nsb, std::size_t sbs,
                 double pattern_binsize, double scale_binsize,
                 double ec_binsize, double* p_hat, double* out) {
  for (std::size_t i = 0; i < sbs; ++i) {
    p_hat[i] = static_cast<double>(pq[i]) * pattern_binsize;
  }
  for (std::size_t j = 0; j < nsb; ++j) {
    const double s_hat = static_cast<double>(sq[j]) * scale_binsize;
    const std::int64_t* erow = ecq + j * sbs;
    double* orow = out + j * sbs;
    // mul, mul, add -- three separate roundings, no FMA (this TU is
    // built with -ffp-contract=off; see core/CMakeLists.txt).
    for (std::size_t i = 0; i < sbs; ++i) {
      orow[i] = s_hat * p_hat[i] + static_cast<double>(erow[i]) * ec_binsize;
    }
  }
}

}  // namespace pastri::simd
