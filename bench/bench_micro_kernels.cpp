// bench_micro_kernels - google-benchmark microbenchmarks of the hot
// kernels: Boys evaluation, ERI block assembly, pattern selection,
// quantization, tree encoding, and bit I/O.  These underpin the rates in
// Fig. 9(c,d) and document where the time goes.
#include <benchmark/benchmark.h>

#include <random>

#include "bitio/bit_reader.h"
#include "bitio/bit_writer.h"
#include "core/pastri.h"
#include "qc/boys.h"
#include "qc/quartet_plan.h"

using namespace pastri;

namespace {

qc::Shell make_shell(int l, qc::Vec3 c, double e) {
  qc::Shell s;
  s.l = l;
  s.center = c;
  s.primitives = {{e, 1.0}};
  s.normalize();
  return s;
}

/// Four d shells along a line; quartet (0 1|2 3) is the demo block.
const qc::QuartetPlan& dddd_plan() {
  static const qc::QuartetPlan plan = [] {
    qc::BasisSet basis;
    basis.shells = {make_shell(2, {0, 0, 0}, 1.0),
                    make_shell(2, {1.5, 0.4, -0.3}, 0.8),
                    make_shell(2, {3.0, -0.5, 0.7}, 1.2),
                    make_shell(2, {4.2, 0.8, 0.1}, 0.9)};
    return qc::QuartetPlan(basis);
  }();
  return plan;
}

const std::vector<double>& demo_block() {
  static const std::vector<double> block = [] {
    std::vector<double> out(6 * 6 * 6 * 6);
    qc::EriWorkspace ws;
    dddd_plan().compute(0, 1, 2, 3, ws, out);
    return out;
  }();
  return block;
}

void BM_BoysFunction(benchmark::State& state) {
  const int m = static_cast<int>(state.range(0));
  double buf[qc::kMaxBoysOrder + 1];
  double T = 0.1;
  for (auto _ : state) {
    qc::boys(T, m, std::span<double>(buf, m + 1));
    benchmark::DoNotOptimize(buf[0]);
    T += 0.37;
    if (T > 80) T = 0.1;
  }
}
BENCHMARK(BM_BoysFunction)->Arg(4)->Arg(8)->Arg(12);

void BM_EriBlockDddd(benchmark::State& state) {
  const qc::QuartetPlan& plan = dddd_plan();
  qc::EriWorkspace ws;
  std::vector<double> out(6 * 6 * 6 * 6);
  for (auto _ : state) {
    plan.compute(0, 1, 2, 3, ws, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(state.iterations() * out.size() * 8);
}
BENCHMARK(BM_EriBlockDddd);

void BM_SelectPatternER(benchmark::State& state) {
  const auto& block = demo_block();
  const BlockSpec spec{36, 36};
  for (auto _ : state) {
    auto sel = select_pattern(block, spec, ScalingMetric::ER);
    benchmark::DoNotOptimize(sel.scales.data());
  }
  state.SetBytesProcessed(state.iterations() * block.size() * 8);
}
BENCHMARK(BM_SelectPatternER);

void BM_QuantizeBlock(benchmark::State& state) {
  const auto& block = demo_block();
  const BlockSpec spec{36, 36};
  const auto sel = select_pattern(block, spec, ScalingMetric::ER);
  for (auto _ : state) {
    auto qb = quantize_block(block, spec, sel, 1e-10);
    benchmark::DoNotOptimize(qb.ecq.data());
  }
  state.SetBytesProcessed(state.iterations() * block.size() * 8);
}
BENCHMARK(BM_QuantizeBlock);

void BM_CompressBlockEndToEnd(benchmark::State& state) {
  const auto& block = demo_block();
  const BlockSpec spec{36, 36};
  Params p;
  for (auto _ : state) {
    bitio::BitWriter w;
    compress_block(block, spec, p, w, nullptr);
    auto bytes = w.take();
    benchmark::DoNotOptimize(bytes.data());
  }
  state.SetBytesProcessed(state.iterations() * block.size() * 8);
}
BENCHMARK(BM_CompressBlockEndToEnd);

void BM_Tree5Encode(benchmark::State& state) {
  std::mt19937_64 gen(3);
  std::vector<std::int64_t> vals(4096);
  std::bernoulli_distribution zero(0.8);
  std::uniform_int_distribution<int> small(-63, 63);
  for (auto& v : vals) v = zero(gen) ? 0 : small(gen);
  for (auto _ : state) {
    bitio::BitWriter w;
    for (auto v : vals) ecq_encode(w, EcqTree::Tree5, v, 7);
    auto bytes = w.take();
    benchmark::DoNotOptimize(bytes.data());
  }
  state.SetItemsProcessed(state.iterations() * vals.size());
}
BENCHMARK(BM_Tree5Encode);

void BM_Tree5EncodeFast(benchmark::State& state) {
  // Same symbol stream as BM_Tree5Encode, through the single-write_bits
  // pack -- the pair documents what the pack is worth.
  std::mt19937_64 gen(3);
  std::vector<std::int64_t> vals(4096);
  std::bernoulli_distribution zero(0.8);
  std::uniform_int_distribution<int> small(-63, 63);
  for (auto& v : vals) v = zero(gen) ? 0 : small(gen);
  for (auto _ : state) {
    bitio::BitWriter w;
    for (auto v : vals) ecq_encode_fast(w, EcqTree::Tree5, v, 7);
    auto bytes = w.take();
    benchmark::DoNotOptimize(bytes.data());
  }
  state.SetItemsProcessed(state.iterations() * vals.size());
}
BENCHMARK(BM_Tree5EncodeFast);

const std::vector<std::uint8_t>& tree5_stream() {
  static const std::vector<std::uint8_t> bytes = [] {
    std::mt19937_64 gen(3);
    std::bernoulli_distribution zero(0.8);
    std::uniform_int_distribution<int> small(-63, 63);
    bitio::BitWriter w;
    for (int i = 0; i < 4096; ++i) {
      ecq_encode(w, EcqTree::Tree5, zero(gen) ? 0 : small(gen), 7);
    }
    return w.take();
  }();
  return bytes;
}

void BM_Tree5DecodeReference(benchmark::State& state) {
  const auto& bytes = tree5_stream();
  for (auto _ : state) {
    bitio::BitReader r(bytes);
    std::int64_t sink = 0;
    for (int i = 0; i < 4096; ++i) {
      sink ^= ecq_decode(r, EcqTree::Tree5, 7);
    }
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(state.iterations() * 4096);
}
BENCHMARK(BM_Tree5DecodeReference);

void BM_Tree5DecodeLut(benchmark::State& state) {
  const auto& bytes = tree5_stream();
  const EcqDecodeLut& lut = ecq_decode_lut(EcqTree::Tree5, 7);
  for (auto _ : state) {
    bitio::BitReader r(bytes);
    std::int64_t sink = 0;
    for (int i = 0; i < 4096; ++i) {
      sink ^= ecq_decode_fast(r, lut, EcqTree::Tree5, 7);
    }
    r.check_overrun();
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(state.iterations() * 4096);
}
BENCHMARK(BM_Tree5DecodeLut);

void BM_Tree5DecodeRun(benchmark::State& state) {
  // The windowed whole-block decoder decompress_block actually calls.
  const auto& bytes = tree5_stream();
  const EcqDecodeLut& lut = ecq_decode_lut(EcqTree::Tree5, 7);
  std::vector<std::int64_t> out(4096);
  for (auto _ : state) {
    bitio::BitReader r(bytes);
    ecq_decode_run(r, lut, EcqTree::Tree5, 7, out);
    r.check_overrun();
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * 4096);
}
BENCHMARK(BM_Tree5DecodeRun);

void BM_BitReaderThroughput(benchmark::State& state) {
  static const std::vector<std::uint8_t> bytes = [] {
    bitio::BitWriter w;
    for (int i = 0; i < 8192; ++i) {
      w.write_bits(static_cast<std::uint64_t>(i) * 2654435761u, 37);
    }
    return w.take();
  }();
  for (auto _ : state) {
    bitio::BitReader r(bytes);
    std::uint64_t sink = 0;
    for (int i = 0; i < 8192; ++i) sink ^= r.read_bits(37);
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(state.iterations() * 8192);
}
BENCHMARK(BM_BitReaderThroughput);

void BM_DecompressBlockWorkspace(benchmark::State& state) {
  const auto& block = demo_block();
  const BlockSpec spec{36, 36};
  Params p;
  bitio::BitWriter w;
  compress_block(block, spec, p, w, nullptr);
  const auto bytes = w.take();
  CodecWorkspace ws;
  std::vector<double> out(spec.block_size());
  for (auto _ : state) {
    bitio::BitReader r(bytes);
    decompress_block(r, spec, p, out, ws);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(state.iterations() * block.size() * 8);
}
BENCHMARK(BM_DecompressBlockWorkspace);

void BM_BitWriterThroughput(benchmark::State& state) {
  for (auto _ : state) {
    bitio::BitWriter w;
    for (int i = 0; i < 8192; ++i) {
      w.write_bits(static_cast<std::uint64_t>(i) * 2654435761u, 37);
    }
    auto bytes = w.take();
    benchmark::DoNotOptimize(bytes.data());
  }
  state.SetItemsProcessed(state.iterations() * 8192);
}
BENCHMARK(BM_BitWriterThroughput);

}  // namespace

BENCHMARK_MAIN();
