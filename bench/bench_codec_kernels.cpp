// bench_codec_kernels - Before/after rows for the word-at-a-time bit
// I/O, the table-driven ECQ decode, the allocation-free block codec
// hot path, and the pass-fused SIMD encode pipeline.  Each row pits the
// current kernel against a faithful local reimplementation of the code
// it replaced (byte-loop bit reads, symbol-by-symbol tree walks,
// allocate-per-block decode, multi-pass scalar encode), on the same
// bytes, so the speedup column isolates the optimization itself.
//
// Results go to BENCH_codec_kernels.json at the repo root (GB/s for
// byte-oriented rows, symbols/s for the ECQ rows).  PASTRI_BENCH_QUICK=1
// shrinks the inputs for the ctest `Perf` smoke run, which writes its
// JSON into the build tree instead (see bench::artifact_path).
#include <cstring>
#include <fstream>
#include <random>

#include "bench_common.h"
#include "bitio/bit_reader.h"
#include "bitio/bit_writer.h"
#include "bitio/varint.h"
#include "core/pastri.h"
#include "core/simd/simd.h"

using namespace pastri;

namespace {

/// The pre-optimization BitReader::read_bits: one byte-granular loop
/// iteration per partial byte, no word loads.
struct ByteLoopReader {
  std::span<const std::uint8_t> data;
  std::size_t pos = 0;

  std::uint64_t read_bits(unsigned nbits) {
    if (pos + nbits > 8 * data.size()) {
      throw std::out_of_range("read past end");
    }
    std::uint64_t out = 0;
    unsigned got = 0;
    while (got < nbits) {
      const std::size_t byte = pos >> 3;
      const unsigned bit = static_cast<unsigned>(pos & 7);
      const unsigned take = std::min<unsigned>(nbits - got, 8 - bit);
      const std::uint64_t mask = (std::uint64_t{1} << take) - 1;
      const std::uint64_t chunk =
          (static_cast<std::uint64_t>(data[byte]) >> bit) & mask;
      out |= chunk << got;
      got += take;
      pos += take;
    }
    return out;
  }

  bool read_bit() { return read_bits(1) != 0; }

  std::int64_t read_signed(unsigned nbits) {
    std::uint64_t raw = read_bits(nbits);
    if (nbits < 64 && (raw & (std::uint64_t{1} << (nbits - 1)))) {
      raw |= ~((std::uint64_t{1} << nbits) - 1);
    }
    return static_cast<std::int64_t>(raw);
  }

  std::uint64_t read_varint() {
    std::uint64_t v = 0;
    unsigned shift = 0;
    for (;;) {
      const std::uint64_t byte = read_bits(8);
      v |= (byte & 0x7F) << shift;
      if ((byte & 0x80) == 0) break;
      shift += 7;
    }
    return v;
  }
};

/// The pre-optimization decoder: out-of-line (it lived in ecq_tree.cpp,
/// so every symbol paid a call), per-symbol switch dispatch, and Tree 5
/// recursing into the Tree 3 case -- faithfully reproduced, down to the
/// noinline, so the "before" column is the code that actually ran.
__attribute__((noinline)) std::int64_t reference_ecq_decode(
    ByteLoopReader& r, EcqTree t, unsigned ecb_max) {
  switch (t) {
    case EcqTree::Tree1:
      if (!r.read_bit()) return 0;
      return r.read_signed(ecb_max);
    case EcqTree::Tree2:
      if (!r.read_bit()) return 0;
      if (!r.read_bit()) return 1;
      if (!r.read_bit()) return -1;
      return r.read_signed(ecb_max);
    case EcqTree::Tree3:
      if (!r.read_bit()) return 0;
      if (!r.read_bit()) return r.read_signed(ecb_max);
      return r.read_bit() ? -1 : 1;
    case EcqTree::Tree5:
      if (ecb_max <= 2) {
        if (!r.read_bit()) return 0;
        return r.read_bit() ? -1 : 1;
      }
      return reference_ecq_decode(r, EcqTree::Tree3, ecb_max);
    default:
      throw std::invalid_argument("tree not benchmarked");
  }
}

/// The pre-optimization dequantize: plain scalar reconstruction loops
/// (dequantize_block itself now dispatches to the SIMD decode kernels,
/// so the "before" row must keep its own copy of the old code).
void reference_dequantize_block(const QuantizedBlock& qb,
                                const BlockSpec& spec,
                                std::span<double> out) {
  const std::size_t nsb = spec.num_sub_blocks;
  const std::size_t sbs = spec.sub_block_size;
  std::vector<double> p_hat(sbs);
  for (std::size_t i = 0; i < sbs; ++i) {
    p_hat[i] = static_cast<double>(qb.pq[i]) * qb.spec.pattern_binsize;
  }
  for (std::size_t j = 0; j < nsb; ++j) {
    const double s_hat =
        static_cast<double>(qb.sq[j]) * qb.spec.scale_binsize;
    for (std::size_t i = 0; i < sbs; ++i) {
      const std::size_t idx = j * sbs + i;
      out[idx] = s_hat * p_hat[i] +
                 static_cast<double>(qb.ecq[idx]) * qb.spec.ec_binsize;
    }
  }
}

/// The pre-optimization decompress_block: fresh QuantizedBlock per call,
/// per-element byte-loop checked reads, symbol-by-symbol reference
/// ecq_decode, scalar dequantize loops.  Absolute bound mode (the
/// paper's) only, which is all this bench runs.
void reference_decompress_block(ByteLoopReader& r, const BlockSpec& spec,
                                const Params& params,
                                std::span<double> out) {
  if (r.read_bit()) {
    std::fill(out.begin(), out.end(), 0.0);
    return;
  }
  QuantizedBlock qb;
  qb.spec = make_quant_spec(0.0, params.error_bound);
  qb.spec.pattern_bits = static_cast<unsigned>(r.read_bits(6));
  qb.spec.scale_bits = qb.spec.pattern_bits;
  qb.spec.scale_binsize =
      std::ldexp(1.0, 1 - static_cast<int>(qb.spec.scale_bits));
  qb.pq.resize(spec.sub_block_size);
  for (auto& v : qb.pq) v = r.read_signed(qb.spec.pattern_bits);
  qb.sq.resize(spec.num_sub_blocks);
  for (auto& v : qb.sq) v = r.read_signed(qb.spec.scale_bits);
  qb.ecb_max = static_cast<unsigned>(r.read_bits(6));
  qb.ecq.assign(spec.block_size(), 0);
  if (qb.ecb_max >= 2) {
    const bool sparse = r.read_bit();
    if (sparse) {
      const std::uint64_t nol = r.read_varint();
      const unsigned idx_bits = bitio::bits_for_count(spec.block_size());
      for (std::uint64_t k = 0; k < nol; ++k) {
        const std::uint64_t idx = r.read_bits(idx_bits);
        qb.ecq[idx] = r.read_signed(qb.ecb_max);
      }
    } else {
      for (auto& v : qb.ecq) {
        v = reference_ecq_decode(r, params.tree, qb.ecb_max);
      }
    }
  }
  reference_dequantize_block(qb, spec, out);
}

// ---- Pre-SIMD encode path (the code the fused kernels replaced) -------
//
// Faithful reimplementation of the multi-pass scalar compress_block:
// early-exit zero probe, single-function select_pattern with its
// per-call metric_val.assign clear, a separate pattern-extremum rescan
// inside quantize, scalar quantize/residual loops, a full
// ecq_code_length walk for the dense-vs-sparse decision, and per-symbol
// ecq_encode_fast dispatch.  Absolute bound mode (the paper's) only,
// which is all this bench runs.

std::int64_t reference_round_to_i64(double x) {
  const double r = std::nearbyint(x);
  if (r >= 9.2e18) return std::int64_t{1} << 62;
  if (r <= -9.2e18) return -(std::int64_t{1} << 62);
  return static_cast<std::int64_t>(std::llround(x));
}

std::int64_t reference_clamp_signed(std::int64_t v, unsigned bits) {
  const std::int64_t hi = (std::int64_t{1} << (bits - 1)) - 1;
  const std::int64_t lo = -(std::int64_t{1} << (bits - 1));
  return std::clamp(v, lo, hi);
}

void reference_select_pattern_er(std::span<const double> block,
                                 const BlockSpec& spec,
                                 PatternSelection& sel,
                                 std::vector<double>& metric_val) {
  const std::size_t nsb = spec.num_sub_blocks;
  const std::size_t sbs = spec.sub_block_size;
  sel.pattern_sub_block = 0;
  sel.scales.assign(nsb, 0.0);
  auto sub = [&](std::size_t j) { return block.subspan(j * sbs, sbs); };
  metric_val.assign(nsb, 0.0);
  std::size_t er_index = 0;
  double best = -1.0;
  for (std::size_t j = 0; j < nsb; ++j) {
    auto s = sub(j);
    for (std::size_t i = 0; i < sbs; ++i) {
      const double a = std::abs(s[i]);
      if (a > metric_val[j]) metric_val[j] = a;
      if (a > best) {
        best = a;
        er_index = i;
      }
    }
  }
  sel.pattern_sub_block = static_cast<std::size_t>(
      std::max_element(metric_val.begin(), metric_val.end()) -
      metric_val.begin());
  const auto pattern = sub(sel.pattern_sub_block);
  if (metric_val[sel.pattern_sub_block] == 0.0) return;
  for (std::size_t j = 0; j < nsb; ++j) {
    const double s = sub(j)[er_index] / pattern[er_index];
    sel.scales[j] =
        std::isfinite(s) ? std::clamp(s, -1.0, 1.0) : 0.0;
  }
}

void reference_quantize_block(std::span<const double> block,
                              const BlockSpec& spec,
                              const PatternSelection& sel,
                              double error_bound, QuantizedBlock& qb,
                              std::vector<double>& p_hat,
                              std::vector<double>& s_hat) {
  const std::size_t nsb = spec.num_sub_blocks;
  const std::size_t sbs = spec.sub_block_size;
  const auto pattern = block.subspan(sel.pattern_sub_block * sbs, sbs);
  double p_ext = 0.0;
  for (double v : pattern) p_ext = std::max(p_ext, std::abs(v));
  qb.spec = make_quant_spec(p_ext, error_bound);
  qb.ecb_max = 1;
  qb.num_outliers = 0;
  qb.pq.resize(sbs);
  p_hat.resize(sbs);
  for (std::size_t i = 0; i < sbs; ++i) {
    std::int64_t v =
        reference_round_to_i64(pattern[i] / qb.spec.pattern_binsize);
    v = reference_clamp_signed(v, qb.spec.pattern_bits);
    qb.pq[i] = v;
    p_hat[i] = static_cast<double>(v) * qb.spec.pattern_binsize;
  }
  qb.sq.resize(nsb);
  s_hat.resize(nsb);
  for (std::size_t j = 0; j < nsb; ++j) {
    std::int64_t v =
        reference_round_to_i64(sel.scales[j] / qb.spec.scale_binsize);
    v = reference_clamp_signed(v, qb.spec.scale_bits);
    qb.sq[j] = v;
    s_hat[j] = static_cast<double>(v) * qb.spec.scale_binsize;
  }
  qb.ecq.resize(block.size());
  for (std::size_t j = 0; j < nsb; ++j) {
    for (std::size_t i = 0; i < sbs; ++i) {
      const std::size_t idx = j * sbs + i;
      const double approx = s_hat[j] * p_hat[i];
      const std::int64_t e =
          reference_round_to_i64((block[idx] - approx) / qb.spec.ec_binsize);
      qb.ecq[idx] = e;
      if (e != 0) {
        ++qb.num_outliers;
        qb.ecb_max = std::max(qb.ecb_max, ecq_bin(e));
      }
    }
  }
}

void reference_compress_block(std::span<const double> block,
                              const BlockSpec& spec, const Params& params,
                              bitio::BitWriter& w, CodecWorkspace& ws) {
  bool zero_block = true;
  for (double v : block) {
    if (std::abs(v) > params.error_bound) {
      zero_block = false;
      break;
    }
  }
  if (zero_block) {
    w.write_bit(true);
    return;
  }
  w.write_bit(false);
  reference_select_pattern_er(block, spec, ws.selection, ws.metric_scratch);
  QuantizedBlock& qb = ws.quantized;
  reference_quantize_block(block, spec, ws.selection, params.error_bound,
                           qb, ws.p_hat, ws.s_hat);
  bool sparse = false;
  if (qb.ecb_max >= 2) {
    const std::size_t dense_bits =
        ecq_encoded_bits(params.tree, qb.ecq, qb.ecb_max);
    const unsigned idx_bits = bitio::bits_for_count(spec.block_size());
    std::size_t nol_varint_bits = 8;
    for (std::size_t n = qb.num_outliers; n >= 0x80; n >>= 7) {
      nol_varint_bits += 8;
    }
    const std::size_t sparse_bits =
        nol_varint_bits + qb.num_outliers * (idx_bits + qb.ecb_max);
    sparse = params.allow_sparse && sparse_bits < dense_bits;
  }
  w.write_bits(qb.spec.pattern_bits, 6);
  w.write_signed_run(qb.pq, qb.spec.pattern_bits);
  w.write_signed_run(qb.sq, qb.spec.scale_bits);
  w.write_bits(qb.ecb_max, 6);
  if (qb.ecb_max >= 2) {
    w.write_bit(sparse);
    if (sparse) {
      const unsigned idx_bits = bitio::bits_for_count(spec.block_size());
      bitio::write_varint(w, qb.num_outliers);
      for (std::size_t i = 0; i < qb.ecq.size(); ++i) {
        if (qb.ecq[i] != 0) {
          w.write_bits(i, idx_bits);
          w.write_signed(qb.ecq[i], qb.ecb_max);
        }
      }
    } else {
      for (std::int64_t v : qb.ecq) {
        ecq_encode_fast(w, params.tree, v, qb.ecb_max);
      }
    }
  }
}

struct Row {
  const char* name;
  double before_s = 0.0;
  double after_s = 0.0;
  double gbps_before = 0.0;
  double gbps_after = 0.0;
  double symbols_per_s_before = 0.0;
  double symbols_per_s_after = 0.0;
};

double speedup(const Row& r) { return r.before_s / r.after_s; }

}  // namespace

int main() {
  bench::print_header(
      "Codec kernels -- word-at-a-time bit I/O, LUT ECQ decode, "
      "allocation-free block decode, fused SIMD encode",
      "Section IV-C rates (per-block kernel cost)");
  const int reps = bench::quick_mode() ? 3 : 7;
  std::vector<Row> rows;

  // ---- Row 1: read_bits, byte loop vs word loads ----------------------
  {
    const std::size_t n = bench::quick_mode() ? 200'000 : 2'000'000;
    bitio::BitWriter w;
    std::mt19937_64 gen(7);
    std::vector<unsigned> widths(n);
    for (auto& width : widths) {
      width = 1 + static_cast<unsigned>(gen() % 57);
      w.write_bits(gen(), width);
    }
    const auto bytes = w.take();
    Row row{"read_bits mixed widths 1..57"};
    std::uint64_t sink = 0;
    row.before_s = bench::best_time_seconds(
        [&] {
          ByteLoopReader r{bytes};
          for (unsigned width : widths) sink ^= r.read_bits(width);
        },
        reps);
    row.after_s = bench::best_time_seconds(
        [&] {
          bitio::BitReader r(bytes);
          for (unsigned width : widths) sink ^= r.read_bits(width);
        },
        reps);
    if (sink == 42) std::printf(" ");  // keep the reads observable
    row.gbps_before = static_cast<double>(bytes.size()) / row.before_s / 1e9;
    row.gbps_after = static_cast<double>(bytes.size()) / row.after_s / 1e9;
    rows.push_back(row);
  }

  // ---- Row 2: dense ECQ decode, tree walk vs LUT ----------------------
  {
    const std::size_t n = bench::quick_mode() ? 400'000 : 4'000'000;
    const unsigned ecb_max = 5;  // typical type-2 (dd|dd) block
    std::mt19937_64 gen(11);
    std::vector<std::int64_t> symbols(n);
    for (auto& v : symbols) {
      const std::uint64_t roll = gen() % 100;
      v = roll < 70 ? 0 : (roll < 90 ? ((gen() & 1) ? 1 : -1)
                                     : static_cast<std::int64_t>(gen() % 15) - 7);
    }
    bitio::BitWriter w;
    for (std::int64_t v : symbols) {
      ecq_encode(w, EcqTree::Tree5, v, ecb_max);
    }
    const auto bytes = w.take();
    Row row{"dense ECQ decode (Tree5, ecb_max=5)"};
    std::int64_t sink = 0;
    row.before_s = bench::best_time_seconds(
        [&] {
          ByteLoopReader r{bytes};
          for (std::size_t i = 0; i < n; ++i) {
            sink ^= reference_ecq_decode(r, EcqTree::Tree5, ecb_max);
          }
        },
        reps);
    const EcqDecodeLut& lut = ecq_decode_lut(EcqTree::Tree5, ecb_max);
    std::vector<std::int64_t> decoded(n);
    row.after_s = bench::best_time_seconds(
        [&] {
          bitio::BitReader r(bytes);
          ecq_decode_run(r, lut, EcqTree::Tree5, ecb_max, decoded);
          r.check_overrun();
        },
        reps);
    if (sink == 42) std::printf(" ");
    if (decoded != symbols) {
      std::fprintf(stderr, "FATAL: run decoder diverged from input\n");
      return 1;
    }
    row.symbols_per_s_before = static_cast<double>(n) / row.before_s;
    row.symbols_per_s_after = static_cast<double>(n) / row.after_s;
    row.gbps_before = static_cast<double>(bytes.size()) / row.before_s / 1e9;
    row.gbps_after = static_cast<double>(bytes.size()) / row.after_s / 1e9;
    rows.push_back(row);
  }

  // ---- Row 3: full (dd|dd) block decode, old path vs workspace --------
  {
    const auto ds = bench::load_bench_dataset(
        {"benzene", "(dd|dd)", 1296, 250, 1296});
    const BlockSpec spec = bench::block_spec_of(ds);
    Params params;
    const auto stream = compress(ds.values, spec, params);
    const BlockReader reader(stream);
    const std::size_t nb = reader.num_blocks();
    const std::size_t bs = spec.block_size();
    std::vector<double> out(bs);

    Row row{"full block decompress (dd|dd)"};
    row.before_s = bench::best_time_seconds(
        [&] {
          for (std::size_t b = 0; b < nb; ++b) {
            const BlockExtent& e = reader.index().extent(b);
            ByteLoopReader r{
                std::span<const std::uint8_t>(stream).subspan(e.offset,
                                                              e.length)};
            reference_decompress_block(r, spec, params, out);
          }
        },
        reps);
    CodecWorkspace ws;
    row.after_s = bench::best_time_seconds(
        [&] {
          for (std::size_t b = 0; b < nb; ++b) {
            const BlockExtent& e = reader.index().extent(b);
            bitio::BitReader r(
                std::span<const std::uint8_t>(stream).subspan(e.offset,
                                                              e.length));
            decompress_block(r, spec, params, out, ws);
          }
        },
        reps);
    const double raw_bytes = static_cast<double>(nb * bs * sizeof(double));
    row.gbps_before = raw_bytes / row.before_s / 1e9;
    row.gbps_after = raw_bytes / row.after_s / 1e9;
    row.symbols_per_s_before = static_cast<double>(nb * bs) / row.before_s;
    row.symbols_per_s_after = static_cast<double>(nb * bs) / row.after_s;
    rows.push_back(row);
    std::printf("decode backend: %s\n",
                simd::backend_name(simd::active_backend()));
  }

  // ---- Row 4: full block compress, multi-pass scalar vs fused SIMD ----
  {
    const auto ds = bench::load_bench_dataset(
        {"benzene", "(dd|dd)", 1296, 250, 1296});
    const BlockSpec spec = bench::block_spec_of(ds);
    Params params;
    const std::size_t bs = spec.block_size();
    const std::size_t nb = ds.values.size() / bs;
    const auto block_at = [&](std::size_t b) {
      return std::span<const double>(ds.values).subspan(b * bs, bs);
    };

    Row row{"full block compress (dd|dd)"};
    CodecWorkspace ws;
    bitio::BitWriter w_before;
    row.before_s = bench::best_time_seconds(
        [&] {
          w_before.restart();
          for (std::size_t b = 0; b < nb; ++b) {
            reference_compress_block(block_at(b), spec, params, w_before,
                                     ws);
          }
        },
        reps);
    bitio::BitWriter w_after;
    row.after_s = bench::best_time_seconds(
        [&] {
          w_after.restart();
          for (std::size_t b = 0; b < nb; ++b) {
            compress_block(block_at(b), spec, params, w_after, nullptr,
                           ws);
          }
        },
        reps);
    // The fused SIMD path must emit the very bytes the old path did.
    const auto before_bytes = w_before.finish_view();
    const auto after_bytes = w_after.finish_view();
    if (before_bytes.size() != after_bytes.size() ||
        std::memcmp(before_bytes.data(), after_bytes.data(),
                    before_bytes.size()) != 0) {
      std::fprintf(stderr, "FATAL: fused encoder diverged from scalar\n");
      return 1;
    }
    const double raw_bytes = static_cast<double>(nb * bs * sizeof(double));
    row.gbps_before = raw_bytes / row.before_s / 1e9;
    row.gbps_after = raw_bytes / row.after_s / 1e9;
    row.symbols_per_s_before = static_cast<double>(nb * bs) / row.before_s;
    row.symbols_per_s_after = static_cast<double>(nb * bs) / row.after_s;
    rows.push_back(row);
    std::printf("encode backend: %s\n",
                simd::backend_name(simd::active_backend()));
  }

  std::printf("%-38s %10s %10s %9s\n", "kernel", "before", "after",
              "speedup");
  const std::string out = bench::artifact_path("BENCH_codec_kernels.json");
  std::ofstream json(out);
  json << "[\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    std::printf("%-38s %8.3f s %8.3f s %8.2fx\n", r.name, r.before_s,
                r.after_s, speedup(r));
    std::printf("%-38s %7.2f GB/s %5.2f GB/s\n", "", r.gbps_before,
                r.gbps_after);
    char buf[512];
    std::snprintf(
        buf, sizeof(buf),
        "  {\"kernel\":\"%s\",\"before_seconds\":%.6g,"
        "\"after_seconds\":%.6g,\"speedup\":%.4g,"
        "\"gbps_before\":%.4g,\"gbps_after\":%.4g,"
        "\"symbols_per_s_before\":%.6g,\"symbols_per_s_after\":%.6g}%s\n",
        r.name, r.before_s, r.after_s, speedup(r), r.gbps_before,
        r.gbps_after, r.symbols_per_s_before, r.symbols_per_s_after, ",");
    json << buf;
  }
  // Summary row: decode throughput and the decompress/compress ratio on
  // the same dataset (the PR target is ratio >= 1.0 single-thread).
  {
    const auto find = [&](const char* name) -> const Row& {
      for (const Row& r : rows) {
        if (std::strcmp(r.name, name) == 0) return r;
      }
      std::fprintf(stderr, "FATAL: missing row %s\n", name);
      std::exit(1);
    };
    const Row& dec = find("full block decompress (dd|dd)");
    const Row& enc = find("full block compress (dd|dd)");
    const double ratio = dec.gbps_after / enc.gbps_after;
    std::printf("%-38s %7.2f GB/s decode, %5.2f GB/s encode, %5.2fx\n",
                "decompress/compress (dd|dd)", dec.gbps_after,
                enc.gbps_after, ratio);
    char buf[512];
    std::snprintf(buf, sizeof(buf),
                  "  {\"kernel\":\"decompress/compress ratio (dd|dd)\","
                  "\"decode_gbps\":%.4g,\"compress_gbps\":%.4g,"
                  "\"decompress_over_compress\":%.4g,"
                  "\"backend\":\"%s\"}\n",
                  dec.gbps_after, enc.gbps_after, ratio,
                  simd::backend_name(simd::active_backend()));
    json << buf;
  }
  json << "]\n";
  bench::print_rule();
  std::printf("wrote %s\n", out.c_str());
  return 0;
}
