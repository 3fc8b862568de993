#include "core/quantize.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>

#include "core/simd/simd.h"

namespace pastri {
namespace {

/// Two's-complement width for a magnitude: smallest b with |v| <= 2^(b-1)-1
/// ... except we allow the asymmetric minimum -2^(b-1).
unsigned signed_bits_for(std::uint64_t magnitude) {
  unsigned b = 1;
  while (magnitude > (std::uint64_t{1} << (b - 1)) - 1 && b < 63) ++b;
  return b;
}

}  // namespace

QuantSpec make_quant_spec(double pattern_extremum, double error_bound) {
  QuantSpec q;
  q.pattern_binsize = 2.0 * error_bound;
  q.ec_binsize = 2.0 * error_bound;
  // Eq. (8): P_b = ceil(log2(PQ_range)) with PQ_range = 2*|P_ext| / binsize;
  // equivalently the two's-complement width of round(|P_ext| / (2 EB)).
  const double pq_ext_d = std::abs(pattern_extremum) / q.pattern_binsize;
  const std::uint64_t pq_ext =
      pq_ext_d >= 9.2e18 ? (std::uint64_t{1} << 62)
                         : static_cast<std::uint64_t>(std::llround(pq_ext_d));
  q.pattern_bits = std::clamp(signed_bits_for(pq_ext), 2u, 54u);
  // The practical approach (end of Section IV-B): S_b = P_b.
  q.scale_bits = q.pattern_bits;
  q.scale_binsize = std::ldexp(1.0, 1 - static_cast<int>(q.scale_bits));
  return q;
}

unsigned ecq_bin(std::int64_t v) {
  if (v == 0) return 1;
  const std::uint64_t mag =
      v > 0 ? static_cast<std::uint64_t>(v)
            : static_cast<std::uint64_t>(-(v + 1)) + 1;  // |INT64_MIN| safe
  // bin i covers |v| in [2^(i-2), 2^(i-1)-1]  =>  i = bit_width(|v|) + 1.
  return static_cast<unsigned>(std::bit_width(mag)) + 1;
}

int block_type(unsigned ecb_max) {
  if (ecb_max <= 1) return 0;
  if (ecb_max == 2) return 1;
  if (ecb_max <= 6) return 2;
  return 3;
}

QuantizedBlock quantize_block(std::span<const double> block,
                              const BlockSpec& spec,
                              const PatternSelection& sel,
                              double error_bound) {
  QuantizedBlock qb;
  std::vector<double> p_hat, s_hat;
  quantize_block(block, spec, sel, error_bound, qb, p_hat, s_hat);
  return qb;
}

void quantize_block(std::span<const double> block, const BlockSpec& spec,
                    const PatternSelection& sel, double error_bound,
                    QuantizedBlock& qb, std::vector<double>& p_hat,
                    std::vector<double>& s_hat) {
  const std::size_t sbs = spec.sub_block_size;
  const auto pattern = block.subspan(sel.pattern_sub_block * sbs, sbs);
  const double p_ext =
      simd::encode_kernels().abs_max(pattern.data(), sbs);
  quantize_block_with_extremum(block, spec, sel, error_bound, p_ext, qb,
                               p_hat, s_hat);
}

void quantize_block_with_extremum(std::span<const double> block,
                                  const BlockSpec& spec,
                                  const PatternSelection& sel,
                                  double error_bound,
                                  double pattern_extremum,
                                  QuantizedBlock& qb,
                                  std::vector<double>& p_hat,
                                  std::vector<double>& s_hat) {
  assert(block.size() == spec.block_size());
  const std::size_t nsb = spec.num_sub_blocks;
  const std::size_t sbs = spec.sub_block_size;
  const auto pattern = block.subspan(sel.pattern_sub_block * sbs, sbs);
  const simd::EncodeKernels& kern = simd::encode_kernels();

  qb.spec = make_quant_spec(pattern_extremum, error_bound);

  // Pattern: PQ = round(P / (2 EB)); clamping cannot fire because
  // pattern_bits was sized from the extremum, but keep it for safety.
  qb.pq.resize(sbs);
  p_hat.resize(sbs);
  kern.quantize_signed(pattern.data(), sbs, qb.spec.pattern_binsize,
                       qb.spec.pattern_bits, qb.spec.pattern_binsize,
                       qb.pq.data(), p_hat.data());

  // Scales: SQ = round(S / S_binsize), clamped into S_b bits (S = +1 maps
  // to the largest code, costing at most one extra ECQ bin -- Eq. (23)).
  qb.sq.resize(nsb);
  s_hat.resize(nsb);
  kern.quantize_signed(sel.scales.data(), nsb, qb.spec.scale_binsize,
                       qb.spec.scale_bits, qb.spec.scale_binsize,
                       qb.sq.data(), s_hat.data());

  // Error-correction codes against the *reconstructed* scaled pattern,
  // with the outlier count, max bin, and the +-1 class counts (the
  // dense-size histogram) accumulated in the same fused pass.
  qb.ecq.resize(block.size());
  simd::EcqStats st;
  kern.ecq_residual(block.data(), nsb, sbs, p_hat.data(), s_hat.data(),
                    qb.spec.ec_binsize, qb.ecq.data(), &st);
  qb.num_outliers = st.num_outliers;
  qb.num_plus1 = st.num_plus1;
  qb.num_minus1 = st.num_minus1;
  qb.ecb_max =
      st.num_outliers == 0
          ? 1
          : static_cast<unsigned>(std::bit_width(st.max_magnitude)) + 1;
}

void dequantize_block(const QuantizedBlock& qb, const BlockSpec& spec,
                      std::span<double> out) {
  assert(out.size() == spec.block_size());
  const std::size_t nsb = spec.num_sub_blocks;
  const std::size_t sbs = spec.sub_block_size;
  assert(qb.pq.size() == sbs && qb.sq.size() == nsb);
  // One canonical reconstruction, shared with decompress_block.
  // Thread-local scratch keeps repeated calls allocation-free.
  static thread_local std::vector<double> p_hat;
  p_hat.resize(sbs);
  simd::reconstruct(qb.pq.data(), qb.sq.data(), qb.ecq.data(), nsb, sbs,
                    qb.spec.pattern_binsize, qb.spec.scale_binsize,
                    qb.spec.ec_binsize, p_hat.data(), out.data());
}

}  // namespace pastri
