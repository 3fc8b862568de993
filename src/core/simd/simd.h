// simd.h - Codec kernels: vectorized encode with runtime CPU dispatch,
// and the one scalar bulk-decode path.
//
// The encode hot path is a small table of kernel functions
// (EncodeKernels: extremum/metric scans, fused quantize+residual+ECQ,
// and the ECQ class counts that feed plan_block's dense-size
// computation), implemented by three backends:
//
//   * scalar -- portable loops, bit-for-bit the pre-SIMD behaviour.
//   * avx2   -- 4-lane double kernels, compiled with -mavx2 in its own
//               TU and only ever selected when CPUID reports AVX2.
//   * avx512 -- 8-lane double kernels (-mavx512f -mavx512dq), selected
//               only when CPUID reports AVX-512 F+DQ *and* XGETBV
//               confirms the OS saves ZMM state.
//
// Every vector kernel is restricted to lanewise IEEE operations in the
// same order the scalar code performs them (no FMA contraction, no
// reassociated sums, round-half-away-from-zero reproduced exactly), so
// all backends produce identical bytes; the SimdDiff suite pins this
// and the golden format digest is backend-independent.
//
// Dispatch happens once, at first use: the widest supported backend
// wins, overridable with PASTRI_SIMD=scalar|avx2|avx512 for testing and
// triage (an unsupported or unknown request falls back to scalar).
//
// Decode has one path on every host.  Its bulk stage -- the fixed-width
// PQ/SQ unpack, the sparse-ECQ record unpack and scatter, and the
// pattern x scale multiply-add -- runs after the serial entropy decode,
// which dominates decode time, so vector versions of it did not show
// end to end (DESIGN.md section 9).
#pragma once

#include <cstddef>
#include <cstdint>

namespace pastri::simd {

enum class Backend : std::uint8_t {
  Scalar = 0,
  Avx2 = 1,
  Avx512 = 2,
};

inline constexpr Backend kAllBackends[] = {Backend::Scalar, Backend::Avx2,
                                           Backend::Avx512};

const char* backend_name(Backend b);

/// Per-block ECQ statistics accumulated by the fused residual kernel.
/// `max_magnitude` is over nonzero codes only (0 when the block has no
/// outliers); the class counts are exactly the dense-ECQ width
/// histogram plan_block needs for trees 1/2/3/5, whose code lengths
/// depend only on the symbol class {0, +1, -1, escape}.
struct EcqStats {
  std::uint64_t max_magnitude = 0;
  std::size_t num_outliers = 0;  ///< nonzero codes
  std::size_t num_plus1 = 0;
  std::size_t num_minus1 = 0;
};

/// The encode kernel table.  All pointers are non-null in a selected
/// table.
struct EncodeKernels {
  /// max over |x[i]| starting from 0.0, NaNs ignored (the scalar
  /// `if (a > m) m = a` semantics).
  double (*abs_max)(const double* x, std::size_t n);

  /// First index i with |x[i]| == m; n if no element matches.
  std::size_t (*find_first_abs_eq)(const double* x, std::size_t n,
                                   double m);

  /// True iff some |x[i]| > bound (the absolute-mode zero-block probe;
  /// early-exits like the scalar loop).
  bool (*any_abs_above)(const double* x, std::size_t n, double bound);

  /// q[i] = clamp(round_half_away(x[i] / binsize), nbits two's
  /// complement); recon[i] = double(q[i]) * recon_binsize.  Division --
  /// not multiplication by a reciprocal -- and llround's
  /// round-half-away-from-zero are preserved exactly.
  void (*quantize_signed)(const double* x, std::size_t n, double binsize,
                          unsigned nbits, double recon_binsize,
                          std::int64_t* q, double* recon);

  /// Fused residual + ECQ pass: for every sub-block j and local index i,
  ///   ecq[j*sbs+i] = round_half_away((block[j*sbs+i]
  ///                                   - s_hat[j] * p_hat[i]) / binsize)
  /// (saturating like the scalar round_to_i64), while accumulating the
  /// EcqStats class counts in the same pass.
  void (*ecq_residual)(const double* block, std::size_t nsb,
                       std::size_t sbs, const double* p_hat,
                       const double* s_hat, double binsize,
                       std::int64_t* ecq, EcqStats* stats);
};

// ---- Bulk decode -------------------------------------------------------
//
// The bulk stage of the two-stage decode: decompress_block's serial
// entropy decode fills arrays, these turn them back into doubles.
// Contract shared by the functions that touch the compressed byte
// stream: the caller has already bounds-checked the whole run
// (`BitReader::require_bits`), so [bitpos, bitpos + total bits) lies
// inside [0, 8*nbytes) -- they never read at or past `base + nbytes`,
// using partial loads for the last < 8 bytes exactly like BitReader.

/// Unpack `n` two's-complement values of `nbits` (1..57) bits each,
/// packed LSB-first starting at absolute bit `bitpos` -- the bulk form
/// of BitReader::read_signed_run, value-identical to it.
void unpack_signed(const std::uint8_t* base, std::size_t nbytes,
                   std::size_t bitpos, unsigned nbits, std::int64_t* out,
                   std::size_t n);

/// Unpack `n` sparse-ECQ records of (idx_bits unsigned index, val_bits
/// two's-complement value) packed back to back from `bitpos`.  Indices
/// land in `idx`, values in `val`.
void unpack_pairs(const std::uint8_t* base, std::size_t nbytes,
                  std::size_t bitpos, unsigned idx_bits, unsigned val_bits,
                  std::uint64_t* idx, std::int64_t* val, std::size_t n);

/// Sparse-ECQ scatter: zero-fill ecq[0..n) then ecq[idx[k]] = val[k].
/// Returns false (without storing anything) when any index is >= n --
/// the caller turns that into the corrupt-stream exception.
bool scatter_ecq(std::int64_t* ecq, std::size_t n, const std::uint64_t* idx,
                 const std::int64_t* val, std::size_t nol);

/// The reconstruction multiply-add (paper Eq. 2-3):
///   p_hat[i]       = double(pq[i]) * pattern_binsize   (i < sbs)
///   out[j*sbs + i] = (double(sq[j]) * scale_binsize) * p_hat[i]
///                    + double(ecq[j*sbs+i]) * ec_binsize
/// Every multiply and the final add are separate IEEE roundings (no
/// FMA).  `p_hat` is caller scratch of size sbs.
void reconstruct(const std::int64_t* pq, const std::int64_t* sq,
                 const std::int64_t* ecq, std::size_t nsb, std::size_t sbs,
                 double pattern_binsize, double scale_binsize,
                 double ec_binsize, double* p_hat, double* out);

// ---- Encode dispatch ---------------------------------------------------

/// The active encode kernel table (selected on first call; see file
/// comment).
const EncodeKernels& encode_kernels();

/// Backend that the encode kernel table currently dispatches to.
Backend active_backend();

/// True iff this CPU (and OS) can run backend `b`.
bool backend_supported(Backend b);

/// Testing/triage hook: force a backend for the whole process.  An
/// unsupported backend silently falls back to scalar (same policy as
/// the PASTRI_SIMD environment override).  Not for use while other
/// threads are encoding.
void force_backend(Backend b);

/// Re-run the PASTRI_SIMD + CPUID selection (used by tests that change
/// the environment variable after startup).
void refresh_backend_from_env();

/// Saturating llround: round-half-away-from-zero with the same
/// saturation the scalar quantizer always applied.  The shared
/// definition all backends (and the vector out-of-range lane fallbacks)
/// call, so pathological lanes cannot diverge between backends.
std::int64_t round_half_away_i64(double x);

// Backend tables (defined in kernels_<backend>.cpp).  Every table
// exists on every build; dispatch just never selects a backend the CPU
// (or the compiler) lacks -- the unbuilt TUs alias the scalar table.
extern const EncodeKernels kScalarKernels;
extern const EncodeKernels kAvx2Kernels;
extern const EncodeKernels kAvx512Kernels;

/// Whether this binary was built with the given backend compiled in.
bool avx2_compiled_in();
bool avx512_compiled_in();

}  // namespace pastri::simd
