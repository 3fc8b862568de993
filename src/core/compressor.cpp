// compressor.cpp - PaSTRI stream format, the block codec, the one-shot
// drivers, and random access via BlockReader.
//
// Container layout (bit-exact), version 3:
//   global header: magic u32, version u8, error_bound f64, mode u8,
//                  metric u8, tree u8, num_sub_blocks u32,
//                  sub_block_size u32, num_blocks u64
//   per block (byte-aligned): varint payload_bytes, then the payload
//   offset table: varint payload_bytes per block (the deltas of the
//                 payload offsets -- see block_index.h)
//   footer: u64 table offset, u64 num_blocks, u32 "PIDX"
// Version 2 (still readable) ends after the payloads.  Any other
// version byte is rejected.
//
//   per-block payload:
//     1 bit  zero-block flag (all |x| <= EB -> nothing else follows)
//     12 bits biased exponent of the per-block bound (BlockRelative only)
//     6 bits P_b
//     SB_size * P_b bits   PQ (two's complement)
//     num_SB  * P_b bits   SQ (S_b = P_b, Section IV-B)
//     6 bits EC_b,max
//     if EC_b,max >= 2:
//       1 bit sparse flag
//       dense:  tree-coded ECQ for every point
//       sparse: varint NOL, then NOL * (index + signed EC_b,max bits)
//
// Blocks are independent byte-aligned units -- the property that makes
// PaSTRI "highly parallelizable ... each block compressed and
// decompressed completely independent from each other" (Section IV-C).
#include <cassert>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "bitio/varint.h"
#include "core/format_detail.h"
#include "core/parallel.h"
#include "core/pastri.h"
#include "core/simd/simd.h"
#include "core/stream.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"

namespace pastri {
namespace {

/// Per-stage codec telemetry (obs/metric_names.h).  Handles are fetched
/// once; each hot-path update is one relaxed atomic add on the calling
/// thread's shard.
struct CoreMetrics {
  obs::Counter blocks_encoded =
      obs::registry().counter(obs::kCoreBlocksEncoded);
  obs::Counter blocks_decoded =
      obs::registry().counter(obs::kCoreBlocksDecoded);
  obs::Histogram pattern_select_ns =
      obs::registry().histogram(obs::kCorePatternSelectNs);
  obs::Histogram quantize_ns =
      obs::registry().histogram(obs::kCoreQuantizeNs);
  obs::Histogram ecq_encode_ns =
      obs::registry().histogram(obs::kCoreEcqEncodeNs);
  obs::Histogram ecq_decode_ns =
      obs::registry().histogram(obs::kCoreEcqDecodeNs);
  obs::Counter ecq_dense_symbols =
      obs::registry().counter(obs::kCoreEcqDenseSymbols);
  obs::Counter encode_bytes =
      obs::registry().counter(obs::kCoreEncodeBytes);
};

const CoreMetrics& core_metrics() {
  static const CoreMetrics m;
  return m;
}

constexpr int kEbExpBias = 1100;  // per-block bound exponent field bias

/// Per-block bound in BlockRelative mode: rel * max|block| snapped DOWN
/// to a power of two, so the 12-bit exponent field reproduces it exactly.
double relative_block_bound(double rel, double extremum) {
  const double raw = rel * extremum;
  if (!(raw > 0.0)) return 0.0;
  return std::ldexp(1.0, static_cast<int>(std::floor(std::log2(raw))));
}

struct BlockEncoding {
  bool zero_block = false;
  bool sparse = false;
  std::size_t payload_bits = 0;  // excluding flags/bit-width fields
};

/// Per-block bound and zero-block decision in one pass.  BlockRelative
/// needs the extremum anyway, and a block is zero exactly when the
/// extremum is within the bound, so the former two loops (extremum scan
/// + zero scan) fuse into one.  Absolute mode keeps the early-exit zero
/// probe instead: it needs no extremum and usually stops at the first
/// element.
///
/// This is the non-ER path only: with the paper's ER metric the fused
/// plan in compress_block reuses the per-sub-block maxima from
/// compute_metric_values, whose maximum IS the extremum, so no separate
/// bound scan runs at all.
struct BoundPlan {
  double eb = 0.0;
  bool zero_block = false;
};

BoundPlan plan_bound(std::span<const double> block, const Params& params) {
  const simd::EncodeKernels& kern = simd::encode_kernels();
  if (params.bound_mode == BoundMode::BlockRelative) {
    const double extremum = kern.abs_max(block.data(), block.size());
    const double eb = relative_block_bound(params.error_bound, extremum);
    // eb scales with the extremum, so only exact-zero blocks qualify.
    return {eb, extremum <= eb};
  }
  const double eb = params.error_bound;
  // Screened quartets, far-field blocks below the bound: reconstructing
  // zeros already satisfies the error bound.
  return {eb, !kern.any_abs_above(block.data(), block.size(), eb)};
}

CodecWorkspace& tls_workspace() {
  thread_local CodecWorkspace ws;
  return ws;
}

/// Decide the block representation and return exact payload bit cost.
BlockEncoding plan_block(const QuantizedBlock& qb, const BlockSpec& spec,
                         const Params& params, bool zero_block) {
  BlockEncoding enc;
  enc.zero_block = zero_block;
  if (zero_block) {
    enc.payload_bits = 1;
    return enc;
  }
  std::size_t bits = 1 + 6;  // zero flag + P_b
  bits += spec.sub_block_size * qb.spec.pattern_bits;
  bits += spec.num_sub_blocks * qb.spec.scale_bits;
  bits += 6;  // EC_b,max
  if (qb.ecb_max >= 2) {
    bits += 1;  // sparse flag
    // Trees 1/2/3/5 price symbols by class only, so the dense size is
    // O(1) from the counts the fused residual kernel accumulated; Tree 4
    // prices by magnitude bin and keeps the walk.
    const std::size_t dense_bits =
        ecq_dense_bits_countable(params.tree)
            ? ecq_encoded_bits_counted(params.tree, qb.ecq.size(),
                                       qb.num_outliers, qb.num_plus1,
                                       qb.num_minus1, qb.ecb_max)
            : ecq_encoded_bits(params.tree, qb.ecq, qb.ecb_max);
    const unsigned idx_bits = bitio::bits_for_count(spec.block_size());
    // NOL is a varint (8 bits per 7 payload bits), then one
    // (index, value) record per outlier -- Eq. (20)'s NOL term.
    std::size_t nol_varint_bits = 8;
    for (std::size_t n = qb.num_outliers; n >= 0x80; n >>= 7) {
      nol_varint_bits += 8;
    }
    const std::size_t sparse_bits =
        nol_varint_bits + qb.num_outliers * (idx_bits + qb.ecb_max);
    enc.sparse = params.allow_sparse && sparse_bits < dense_bits;
    bits += enc.sparse ? sparse_bits : dense_bits;
  }
  enc.payload_bits = bits;
  return enc;
}

}  // namespace

// ---- Block-level encode -------------------------------------------------

void CodecWorkspace::reserve_encode(const BlockSpec& spec) {
  // The sizes compress_block resizes these to: its later resizes then
  // reuse this storage.
  selection.scales.resize(spec.num_sub_blocks);
  metric_scratch.resize(spec.num_sub_blocks);
  quantized.pq.resize(spec.sub_block_size);
  quantized.sq.resize(spec.num_sub_blocks);
  quantized.ecq.resize(spec.block_size());
  p_hat.resize(spec.sub_block_size);
  s_hat.resize(spec.num_sub_blocks);
  writer.reserve(spec.block_size() * sizeof(double));
  arena.reserve(spec.block_size() * sizeof(double));
}

void compress_block(std::span<const double> block, const BlockSpec& spec,
                    const Params& params, bitio::BitWriter& w, Stats* stats) {
  compress_block(block, spec, params, w, stats, tls_workspace());
}

void compress_block(std::span<const double> block, const BlockSpec& spec,
                    const Params& params, bitio::BitWriter& w, Stats* stats,
                    CodecWorkspace& ws) {
  assert(block.size() == spec.block_size());
  const CoreMetrics& metrics = core_metrics();
  metrics.blocks_encoded.inc();
  const std::size_t start_bits = w.bit_count();

  // Fused single-pass plan (the ER fast path): stage 1 of pattern
  // selection computes the per-sub-block absolute maxima, whose maximum
  // is exactly the block extremum the bound plan needs -- one scan
  // serves the bound, the zero decision, and the pattern choice, and
  // stage 2 never rescans the block.  The selected metric value doubles
  // as the pattern extremum for quantization, killing that rescan too.
  // Non-ER metrics keep the two-pass plan (their metric values are not
  // extrema).
  const bool er_fused = params.metric == ScalingMetric::ER;
  PatternSelection& sel = ws.selection;
  double eb = params.error_bound;
  bool zero = false;
  double pattern_extremum = 0.0;
  if (er_fused) {
    obs::ScopedTimer timer(metrics.pattern_select_ns);
    compute_metric_values(block, spec, params.metric, ws.metric_scratch);
    double extremum = 0.0;
    for (double m : ws.metric_scratch) {
      if (m > extremum) extremum = m;
    }
    if (params.bound_mode == BoundMode::BlockRelative) {
      eb = relative_block_bound(params.error_bound, extremum);
    }
    zero = extremum <= eb;
    pattern_extremum = extremum;
    if (!zero) {
      finish_selection(block, spec, params.metric, ws.metric_scratch, sel);
    }
  } else {
    const BoundPlan bound = plan_bound(block, params);
    eb = bound.eb;
    zero = bound.zero_block;
    if (!zero) {
      obs::ScopedTimer timer(metrics.pattern_select_ns);
      select_pattern(block, spec, params.metric, sel, ws.metric_scratch);
    }
  }
  if (zero) {
    w.write_bit(true);
    metrics.encode_bytes.add((w.bit_count() - start_bits + 7) / 8);
    if (stats) {
      ++stats->blocks_by_type[0];
      stats->header_bits += 1;
    }
    return;
  }

  QuantizedBlock& qb = ws.quantized;
  {
    obs::ScopedTimer timer(metrics.quantize_ns);
    if (er_fused) {
      quantize_block_with_extremum(block, spec, sel, eb, pattern_extremum,
                                   qb, ws.p_hat, ws.s_hat);
    } else {
      quantize_block(block, spec, sel, eb, qb, ws.p_hat, ws.s_hat);
    }
  }

  w.write_bit(false);
  if (params.bound_mode == BoundMode::BlockRelative) {
    int e;
    std::frexp(eb, &e);  // eb = 2^(e-1) exactly (power of two)
    w.write_bits(static_cast<std::uint64_t>(e - 1 + kEbExpBias), 12);
  }

  const BlockEncoding enc = plan_block(qb, spec, params, false);

  w.write_bits(qb.spec.pattern_bits, 6);
  w.write_signed_run(qb.pq, qb.spec.pattern_bits);
  w.write_signed_run(qb.sq, qb.spec.scale_bits);
  w.write_bits(qb.ecb_max, 6);

  std::size_t ecq_bits = 0;
  if (qb.ecb_max >= 2) {
    obs::ScopedTimer timer(metrics.ecq_encode_ns);
    w.write_bit(enc.sparse);
    const std::size_t before = w.bit_count();
    if (enc.sparse) {
      const unsigned idx_bits = bitio::bits_for_count(spec.block_size());
      bitio::write_varint(w, qb.num_outliers);
      for (std::size_t i = 0; i < qb.ecq.size(); ++i) {
        if (qb.ecq[i] != 0) {
          w.write_bits(i, idx_bits);
          w.write_signed(qb.ecq[i], qb.ecb_max);
        }
      }
    } else {
      ecq_encode_run(w, params.tree, qb.ecq, qb.ecb_max);
    }
    ecq_bits = w.bit_count() - before;
  }
  // Payload size at block granularity (bits are byte-padded by the
  // container's per-block alignment, so round up).
  metrics.encode_bytes.add((w.bit_count() - start_bits + 7) / 8);

  if (stats) {
    ++stats->blocks_by_type[block_type(qb.ecb_max)];
    stats->pattern_bits += spec.sub_block_size * qb.spec.pattern_bits;
    stats->scale_bits += spec.num_sub_blocks * qb.spec.scale_bits;
    stats->ecq_bits += ecq_bits;
    stats->header_bits +=
        1 + 6 + 6 + (qb.ecb_max >= 2 ? 1 : 0) +
        (params.bound_mode == BoundMode::BlockRelative ? 12 : 0);
    stats->sparse_blocks += enc.sparse ? 1 : 0;
    stats->num_outliers += qb.num_outliers;
  }
}

// ---- Block-level decode -------------------------------------------------

namespace {

// Two-stage decode (see DESIGN.md §9): the serial entropy stage walks
// the payload header and the variable-length ECQ symbols, while every
// fixed-width array -- PQ, SQ, sparse-ECQ records -- is bounds-checked
// once (`require_bits`) and then unpacked in bulk by the active
// simd::DecodeKernels, which also run the sparse scatter and the final
// reconstruction multiply-add.  All backends are bit-exact, and every
// corrupt-stream exception of the serial decoder is preserved: truncation
// throws std::out_of_range from the hoisted bounds check, domain
// corruption ("corrupt P_b", "corrupt outlier index", ...) throws from
// the same validations as before, just after the bulk read instead of
// inside a per-value loop.
void decompress_block_impl(const BlockSpec& spec, const Params& params,
                           bitio::BitReader& r, std::span<double> out,
                           CodecWorkspace& ws) {
  assert(out.size() == spec.block_size());
  const CoreMetrics& metrics = core_metrics();
  metrics.blocks_decoded.inc();
  if (r.read_bit()) {  // zero block
    std::fill(out.begin(), out.end(), 0.0);
    return;
  }
  const simd::DecodeKernels& dk = simd::decode_kernels();
  // Bulk fixed-width run: one hoisted bounds check, then the kernel
  // windows/gathers straight off the payload bytes.
  const auto bulk_signed_run = [&r, &dk](unsigned nbits,
                                         std::span<std::int64_t> dst) {
    const std::size_t run_bits =
        static_cast<std::size_t>(nbits) * dst.size();
    r.require_bits(run_bits);
    dk.unpack_signed(r.data().data(), r.data().size(), r.bit_position(),
                     nbits, dst.data(), dst.size());
    r.seek_unchecked(r.bit_position() + run_bits);
  };
  double eb = params.error_bound;
  if (params.bound_mode == BoundMode::BlockRelative) {
    const int e = static_cast<int>(r.read_bits(12)) - kEbExpBias;
    eb = std::ldexp(1.0, e);
  }
  QuantizedBlock& qb = ws.quantized;
  qb.spec = make_quant_spec(0.0, eb);
  qb.spec.pattern_bits = static_cast<unsigned>(r.read_bits(6));
  if (qb.spec.pattern_bits == 0 || qb.spec.pattern_bits > 54) {
    throw std::runtime_error("PaSTRI: corrupt P_b field");
  }
  qb.spec.scale_bits = qb.spec.pattern_bits;
  qb.spec.scale_binsize =
      std::ldexp(1.0, 1 - static_cast<int>(qb.spec.scale_bits));

  // Fixed-width PQ run: one hoisted bounds check, then the bulk unpack
  // kernel.
  qb.pq.resize(spec.sub_block_size);
  bulk_signed_run(qb.spec.pattern_bits, qb.pq);
  qb.sq.resize(spec.num_sub_blocks);
  bulk_signed_run(qb.spec.scale_bits, qb.sq);

  qb.ecb_max = static_cast<unsigned>(r.read_bits(6));
  if (qb.ecb_max >= 2) {
    obs::ScopedTimer timer(metrics.ecq_decode_ns);
    const bool sparse = r.read_bit();
    if (sparse) {
      const std::uint64_t nol = bitio::read_varint(r);
      if (nol > spec.block_size()) {
        throw std::runtime_error("PaSTRI: corrupt outlier count");
      }
      // Bulk (index, value) record unpack into workspace arrays, then
      // a validating zero-fill + scatter; an out-of-range index makes
      // the scatter kernel bail before storing anything.
      const unsigned idx_bits = bitio::bits_for_count(spec.block_size());
      ws.sparse_idx.resize(nol);
      ws.sparse_val.resize(nol);
      const std::size_t rec_bits =
          static_cast<std::size_t>(idx_bits + qb.ecb_max) * nol;
      r.require_bits(rec_bits);
      dk.unpack_pairs(r.data().data(), r.data().size(), r.bit_position(),
                      idx_bits, qb.ecb_max, ws.sparse_idx.data(),
                      ws.sparse_val.data(), nol);
      r.seek_unchecked(r.bit_position() + rec_bits);
      qb.ecq.resize(spec.block_size());
      if (!dk.scatter_ecq(qb.ecq.data(), spec.block_size(),
                          ws.sparse_idx.data(), ws.sparse_val.data(),
                          nol)) {
        throw std::runtime_error("PaSTRI: corrupt outlier index");
      }
    } else {
      // Dense ECQ: table-driven decode with speculative reads; the
      // single check_overrun below replaces a bounds check per symbol.
      // A truncated payload decodes zero bits into tentative garbage
      // and then throws here, before any value escapes.
      const EcqDecodeLut& lut = ecq_decode_lut(params.tree, qb.ecb_max);
      qb.ecq.resize(spec.block_size());
      ecq_decode_run(r, lut, params.tree, qb.ecb_max, qb.ecq);
      r.check_overrun();
      // One counter bump for the whole block -- per-symbol updates (or
      // worse, per-symbol clock reads) would dominate the LUT decode.
      metrics.ecq_dense_symbols.add(spec.block_size());
    }
  } else {
    qb.ecq.assign(spec.block_size(), 0);
  }
  // Bulk reconstruct: pattern x scale multiply-add with the ECQ
  // correction, through the active backend (bit-exact on every tier).
  ws.p_hat.resize(spec.sub_block_size);
  dk.reconstruct(qb.pq.data(), qb.sq.data(), qb.ecq.data(),
                 spec.num_sub_blocks, spec.sub_block_size,
                 qb.spec.pattern_binsize, qb.spec.scale_binsize,
                 qb.spec.ec_binsize, qb.spec.pattern_bits, qb.ecb_max,
                 ws.p_hat.data(), out.data());
}

}  // namespace

void decompress_block(bitio::BitReader& r, const BlockSpec& spec,
                      const Params& params, std::span<double> out) {
  decompress_block(r, spec, params, out, tls_workspace());
}

void decompress_block(bitio::BitReader& r, const BlockSpec& spec,
                      const Params& params, std::span<double> out,
                      CodecWorkspace& ws) {
  decompress_block_impl(spec, params, r, out, ws);
}

BlockAnalysis analyze_block(std::span<const double> block,
                            const BlockSpec& spec, const Params& params) {
  BlockAnalysis a;
  const BoundPlan bound = plan_bound(block, params);
  const double eb = bound.eb;
  a.zero_block = bound.zero_block;
  if (a.zero_block && eb == 0.0) {
    // exact-zero block under a relative bound
    a.selection.scales.assign(spec.num_sub_blocks, 0.0);
    a.quantized.pq.assign(spec.sub_block_size, 0);
    a.quantized.sq.assign(spec.num_sub_blocks, 0);
    a.quantized.ecq.assign(spec.block_size(), 0);
    a.payload_bits = 1;
    return a;
  }
  a.selection = select_pattern(block, spec, params.metric);
  a.quantized = quantize_block(block, spec, a.selection, eb);
  const BlockEncoding enc =
      plan_block(a.quantized, spec, params, a.zero_block);
  a.sparse_chosen = enc.sparse;
  a.payload_bits = enc.payload_bits;
  return a;
}

std::vector<std::uint8_t> compress(std::span<const double> data,
                                   const BlockSpec& spec,
                                   const Params& params, Stats* stats) {
  spec.validate();
  params.validate();
  const std::size_t bs = spec.block_size();
  if (data.size() % bs != 0) {
    throw std::invalid_argument(
        "PaSTRI: data size is not a whole number of blocks");
  }
  // Thin wrapper over the streaming writer (block-level parallelism,
  // Section IV-C, lives in its batch pipeline): declaring the block
  // count up-front writes the header final immediately, and feeding the
  // blocks in order yields exactly the bytes this function always
  // produced -- the two paths cannot drift.
  VectorSink sink;
  StreamWriter writer(sink, spec, params,
                      {.expected_blocks = data.size() / bs});
  writer.put_values(data);
  writer.finish();
  if (stats) *stats = writer.stats();
  return sink.take();
}

StreamInfo peek_info(std::span<const std::uint8_t> stream) {
  bitio::BitReader r(stream);
  return detail::read_global_header(r);
}

std::vector<double> decompress(std::span<const std::uint8_t> stream,
                               const StreamInfo& info, int num_threads) {
  const BlockReader reader(stream, info, num_threads);
  return reader.read_range(0, reader.num_blocks());
}

std::vector<double> decompress(std::span<const std::uint8_t> stream,
                               int num_threads) {
  return decompress(stream, peek_info(stream), num_threads);
}

// ---- BlockReader -------------------------------------------------------

BlockReader::BlockReader(std::span<const std::uint8_t> stream,
                         int num_threads)
    : BlockReader(stream, peek_info(stream), num_threads) {}

BlockReader::BlockReader(std::span<const std::uint8_t> stream,
                         const StreamInfo& info, int num_threads)
    : stream_(stream), info_(info) {
  params_ = info_.to_params();
  params_.num_threads = num_threads;
  // Every header field is a whole number of bytes, so the payloads start
  // at the fixed header size regardless of which ctor parsed it.
  const std::size_t payload_base = detail::kGlobalHeaderBytes;
  if (info_.version == kStreamVersionIndexed) {
    const detail::IndexFooter footer = detail::read_index_footer(stream_);
    if (footer.num_blocks != info_.num_blocks) {
      throw std::runtime_error(
          "PaSTRI: index footer block count disagrees with header");
    }
    const std::size_t table_end =
        stream_.size() - detail::kIndexFooterBytes;
    index_ = BlockIndex::parse(
        stream_.subspan(footer.index_offset,
                        table_end - footer.index_offset),
        payload_base, footer.index_offset, info_.num_blocks);
  } else {
    // Unindexed v2 stream: rebuild the index with the sequential scan
    // the old decompressor used (one varint walk, no payload decode).
    index_ = BlockIndex::scan(stream_, payload_base, info_.num_blocks);
  }
}

void BlockReader::read_block(std::size_t block,
                             std::span<double> out) const {
  if (out.size() != info_.spec.block_size()) {
    throw std::invalid_argument("BlockReader: output size mismatch");
  }
  const BlockExtent& e = index_.extent(block);
  bitio::BitReader r(stream_.subspan(e.offset, e.length));
  decompress_block(r, info_.spec, params_, out);
}

std::vector<double> BlockReader::read_block(std::size_t block) const {
  std::vector<double> out(info_.spec.block_size());
  read_block(block, out);
  return out;
}

std::size_t BlockReader::range_values(std::size_t first,
                                       std::size_t count) const {
  if (first + count < first || first + count > index_.num_blocks()) {
    throw std::out_of_range("BlockReader: block range out of bounds");
  }
  const std::size_t bs = info_.spec.block_size();
  if (bs != 0 && count > std::numeric_limits<std::size_t>::max() / bs) {
    throw std::runtime_error("PaSTRI: block range too large");
  }
  return count * bs;
}

std::vector<double> BlockReader::read_range(std::size_t first,
                                            std::size_t count) const {
  std::vector<double> out(range_values(first, count));
  read_range(first, count, out);
  return out;
}

void BlockReader::read_range(std::size_t first, std::size_t count,
                             std::span<double> out) const {
  if (out.size() != range_values(first, count)) {
    throw std::invalid_argument("BlockReader: output size mismatch");
  }
  const std::size_t bs = info_.spec.block_size();
  parallel_for(count, 16, params_.num_threads,
               [&](std::size_t begin, std::size_t end, int) {
                 for (std::size_t b = begin; b < end; ++b) {
                   read_block(first + b, out.subspan(b * bs, bs));
                 }
               });
}

}  // namespace pastri
