// End-to-end tests for the PaSTRI compressor: stream format, round-trip
// error bound under every metric/tree combination, block edge cases,
// statistics accounting, and corrupt-stream handling.
#include <gtest/gtest.h>

#include <cmath>

#include "core/pastri.h"
#include "core/stream.h"
#include "test_util.h"

namespace pastri {
namespace {

using testutil::max_abs_diff;

class CompressorMatrix
    : public ::testing::TestWithParam<std::tuple<ScalingMetric, EcqTree>> {
};

TEST_P(CompressorMatrix, RoundTripWithinBoundOnNoisyPatterns) {
  const auto [metric, tree] = GetParam();
  const BlockSpec spec{16, 24};
  Params p;
  p.metric = metric;
  p.tree = tree;
  p.error_bound = 1e-10;
  // 12 blocks with varying noise magnitude, including exact patterns.
  std::vector<double> data;
  for (std::uint64_t b = 0; b < 12; ++b) {
    const double noise = b == 0 ? 0.0 : std::pow(10.0, -12.0 + b);
    auto block = testutil::noisy_pattern_block(spec, noise, b);
    data.insert(data.end(), block.begin(), block.end());
  }
  const auto stream = compress(data, spec, p);
  const auto back = decompress(stream);
  ASSERT_EQ(back.size(), data.size());
  EXPECT_LE(max_abs_diff(data, back), p.error_bound * (1 + 1e-12));
}

INSTANTIATE_TEST_SUITE_P(
    MetricTreeGrid, CompressorMatrix,
    ::testing::Combine(
        ::testing::Values(ScalingMetric::FR, ScalingMetric::ER,
                          ScalingMetric::AR, ScalingMetric::AAR,
                          ScalingMetric::IS),
        ::testing::Values(EcqTree::Tree1, EcqTree::Tree2, EcqTree::Tree3,
                          EcqTree::Tree4, EcqTree::Tree5)),
    [](const auto& info) {
      return std::string(scaling_metric_name(std::get<0>(info.param))) +
             "_" + ecq_tree_name(std::get<1>(info.param));
    });

class CompressorEbSweep : public ::testing::TestWithParam<double> {};

TEST_P(CompressorEbSweep, RealEriDataWithinBound) {
  const double eb = GetParam();
  const auto& ds = testutil::small_eri_dataset();
  const BlockSpec spec{ds.shape.num_sub_blocks(),
                       ds.shape.sub_block_size()};
  Params p;
  p.error_bound = eb;
  const auto stream = compress(ds.values, spec, p);
  const auto back = decompress(stream);
  EXPECT_LE(max_abs_diff(ds.values, back), eb * (1 + 1e-12));
}

INSTANTIATE_TEST_SUITE_P(PaperEbRange, CompressorEbSweep,
                         ::testing::Values(1e-9, 1e-10, 1e-11, 1e-6, 1e-13));

TEST(Compressor, HybridShapeRoundTrip) {
  const auto& ds = testutil::hybrid_eri_dataset();
  const BlockSpec spec{ds.shape.num_sub_blocks(),
                       ds.shape.sub_block_size()};
  Params p;
  const auto stream = compress(ds.values, spec, p);
  const auto back = decompress(stream);
  EXPECT_LE(max_abs_diff(ds.values, back), p.error_bound * (1 + 1e-12));
}

TEST(Compressor, AllZeroDataCompressesToAlmostNothing) {
  const BlockSpec spec{36, 36};
  const std::vector<double> data(spec.block_size() * 50, 0.0);
  Params p;
  Stats st;
  const auto stream = compress(data, spec, p, &st);
  // 50 zero blocks: ~2 bytes each plus the global header.
  EXPECT_LT(stream.size(), 300u);
  EXPECT_EQ(st.blocks_by_type[0], 50u);
  const auto back = decompress(stream);
  for (double v : back) EXPECT_EQ(v, 0.0);
}

TEST(Compressor, ValuesBelowBoundBecomeZero) {
  const BlockSpec spec{4, 4};
  std::vector<double> data(16, 5e-11);  // all below EB = 1e-10
  Params p;
  const auto stream = compress(data, spec, p);
  const auto back = decompress(stream);
  for (double v : back) EXPECT_EQ(v, 0.0);
}

TEST(Compressor, SingleSubBlock) {
  const BlockSpec spec{1, 64};
  const auto data = testutil::random_doubles(64, -1.0, 1.0);
  Params p;
  const auto back = decompress(compress(data, spec, p));
  EXPECT_LE(max_abs_diff(data, back), p.error_bound * (1 + 1e-12));
}

TEST(Compressor, SubBlockSizeOne) {
  const BlockSpec spec{64, 1};
  const auto data = testutil::random_doubles(64, -1.0, 1.0);
  Params p;
  const auto back = decompress(compress(data, spec, p));
  EXPECT_LE(max_abs_diff(data, back), p.error_bound * (1 + 1e-12));
}

TEST(Compressor, OneByOneBlock) {
  const BlockSpec spec{1, 1};
  const std::vector<double> data{0.25, -0.5, 1e-20, 0.0};
  Params p;
  const auto back = decompress(compress(data, spec, p));
  EXPECT_LE(max_abs_diff(data, back), p.error_bound * (1 + 1e-12));
}

TEST(Compressor, EmptyInput) {
  const BlockSpec spec{6, 6};
  Params p;
  const auto stream = compress(std::span<const double>{}, spec, p);
  const auto back = decompress(stream);
  EXPECT_TRUE(back.empty());
}

TEST(Compressor, RejectsPartialBlock) {
  const BlockSpec spec{6, 6};
  const std::vector<double> data(35, 1.0);  // not a multiple of 36
  Params p;
  EXPECT_THROW(compress(data, spec, p), std::invalid_argument);
}

TEST(Compressor, RejectsBadParams) {
  const BlockSpec spec{6, 6};
  const std::vector<double> data(36, 1.0);
  Params p;
  p.error_bound = 0.0;
  EXPECT_THROW(compress(data, spec, p), std::invalid_argument);
  p.error_bound = -1e-10;
  EXPECT_THROW(compress(data, spec, p), std::invalid_argument);
}

TEST(Compressor, RejectsBadSpec) {
  const BlockSpec spec{0, 6};
  Params p;
  EXPECT_THROW(compress(std::span<const double>{}, spec, p),
               std::invalid_argument);
}

TEST(Compressor, PeekInfoMatchesParams) {
  const BlockSpec spec{9, 13};
  Params p;
  p.error_bound = 1e-9;
  p.metric = ScalingMetric::AAR;
  p.tree = EcqTree::Tree2;
  const auto data = testutil::random_doubles(spec.block_size() * 3, -1, 1);
  const auto stream = compress(data, spec, p);
  const StreamInfo info = peek_info(stream);
  EXPECT_EQ(info.error_bound, 1e-9);
  EXPECT_EQ(info.metric, ScalingMetric::AAR);
  EXPECT_EQ(info.tree, EcqTree::Tree2);
  EXPECT_EQ(info.spec, spec);
  EXPECT_EQ(info.num_blocks, 3u);
}

TEST(Compressor, CorruptMagicThrows) {
  const BlockSpec spec{4, 4};
  Params p;
  auto stream = compress(testutil::random_doubles(16, -1, 1), spec, p);
  stream[0] ^= 0xFF;
  EXPECT_THROW(decompress(stream), std::runtime_error);
}

TEST(Compressor, TruncatedStreamThrows) {
  const BlockSpec spec{8, 8};
  Params p;
  auto stream =
      compress(testutil::random_doubles(64 * 4, -1, 1), spec, p);
  stream.resize(stream.size() / 2);
  EXPECT_THROW(decompress(stream), std::exception);
}

TEST(Compressor, StatsAccounting) {
  const auto& ds = testutil::small_eri_dataset();
  const BlockSpec spec{ds.shape.num_sub_blocks(),
                       ds.shape.sub_block_size()};
  Params p;
  Stats st;
  const auto stream = compress(ds.values, spec, p, &st);
  EXPECT_EQ(st.input_bytes, ds.size_bytes());
  EXPECT_EQ(st.output_bytes, stream.size());
  EXPECT_EQ(st.num_blocks, ds.num_blocks);
  EXPECT_EQ(st.blocks_by_type[0] + st.blocks_by_type[1] +
                st.blocks_by_type[2] + st.blocks_by_type[3],
            ds.num_blocks);
  // Bit accounting must explain the output within per-block padding
  // (one byte per block plus the global header).
  const std::size_t accounted =
      st.header_bits + st.pattern_bits + st.scale_bits + st.ecq_bits;
  EXPECT_LE(accounted, 8 * st.output_bytes);
  EXPECT_GE(accounted + 8 * st.num_blocks + 64, 8 * st.output_bytes);
  EXPECT_GT(st.ratio(), 1.0);
}

TEST(Compressor, StatsIdenticalBetweenBatchAndStreaming) {
  // compress() is a wrapper over the streaming writer, and a hand-driven
  // StreamWriter must account identically -- every counter, not just the
  // totals.
  const auto& ds = testutil::small_eri_dataset();
  const BlockSpec spec{ds.shape.num_sub_blocks(),
                       ds.shape.sub_block_size()};
  Params p;
  Stats batch;
  compress(ds.values, spec, p, &batch);

  VectorSink sink;
  StreamWriter w(sink, spec, p);
  const std::size_t bs = spec.block_size();
  for (std::size_t b = 0; b < ds.num_blocks; ++b) {
    w.put_block(std::span<const double>(ds.values).subspan(b * bs, bs));
  }
  w.finish();
  const Stats& st = w.stats();
  EXPECT_EQ(st.num_blocks, batch.num_blocks);
  EXPECT_EQ(st.input_bytes, batch.input_bytes);
  EXPECT_EQ(st.output_bytes, batch.output_bytes);
  EXPECT_EQ(st.header_bits, batch.header_bits);
  EXPECT_EQ(st.pattern_bits, batch.pattern_bits);
  EXPECT_EQ(st.scale_bits, batch.scale_bits);
  EXPECT_EQ(st.ecq_bits, batch.ecq_bits);
  EXPECT_EQ(st.num_outliers, batch.num_outliers);
  EXPECT_EQ(st.sparse_blocks, batch.sparse_blocks);
  for (int t = 0; t < 4; ++t) {
    EXPECT_EQ(st.blocks_by_type[t], batch.blocks_by_type[t]) << t;
  }
}

TEST(Compressor, SparseRepresentationKicksInForIsolatedOutliers) {
  // A large block, nearly exact pattern, with a handful of big outliers:
  // the sparse ECQ representation must win and round-trip exactly.
  const BlockSpec spec{36, 36};
  auto data = testutil::exact_pattern_block(spec, 9);
  for (double& v : data) v *= 1e-6;
  data[100] += 3e-7;
  data[700] -= 5e-7;
  data[1200] += 1e-7;
  Params p;
  p.error_bound = 1e-10;
  const BlockAnalysis a = analyze_block(data, spec, p);
  EXPECT_TRUE(a.sparse_chosen);
  const auto back = decompress(compress(data, spec, p));
  EXPECT_LE(max_abs_diff(data, back), p.error_bound * (1 + 1e-12));
}

TEST(Compressor, SparseDisabledStillRoundTrips) {
  const BlockSpec spec{36, 36};
  auto data = testutil::exact_pattern_block(spec, 9);
  for (double& v : data) v *= 1e-6;
  data[100] += 3e-7;
  Params p;
  p.allow_sparse = false;
  const auto back = decompress(compress(data, spec, p));
  EXPECT_LE(max_abs_diff(data, back), p.error_bound * (1 + 1e-12));
}

TEST(Compressor, DeterministicOutput) {
  const auto& ds = testutil::small_eri_dataset();
  const BlockSpec spec{ds.shape.num_sub_blocks(),
                       ds.shape.sub_block_size()};
  Params p;
  const auto s1 = compress(ds.values, spec, p);
  const auto s2 = compress(ds.values, spec, p);
  EXPECT_EQ(s1, s2);
}

TEST(Compressor, ThreadCountDoesNotChangeStream) {
  const auto& ds = testutil::small_eri_dataset();
  const BlockSpec spec{ds.shape.num_sub_blocks(),
                       ds.shape.sub_block_size()};
  Params p1, p4;
  p1.num_threads = 1;
  p4.num_threads = 4;
  EXPECT_EQ(compress(ds.values, spec, p1), compress(ds.values, spec, p4));
}

TEST(Compressor, AnalyzeBlockTypeCensus) {
  const BlockSpec spec{6, 6};
  Params p;
  p.error_bound = 1e-10;
  // Type 0: all below bound.
  const std::vector<double> zeros(36, 1e-12);
  EXPECT_TRUE(analyze_block(zeros, spec, p).zero_block);
  // A noisy pattern produces nonzero ECQ and a consistent type.
  const auto noisy = testutil::noisy_pattern_block(spec, 1e-4, 4);
  const BlockAnalysis a = analyze_block(noisy, spec, p);
  EXPECT_FALSE(a.zero_block);
  EXPECT_GE(block_type(a.quantized.ecb_max), 2);
}

/// Sweep over the block geometries of every BF configuration the paper
/// touches -- (ss|ss) through (gg|gg) plus hybrids and degenerate shapes.
class CompressorShapeSweep
    : public ::testing::TestWithParam<std::pair<std::size_t, std::size_t>> {
};

TEST_P(CompressorShapeSweep, RoundTripWithinBound) {
  const auto [nsb, sbs] = GetParam();
  const BlockSpec spec{nsb, sbs};
  Params p;
  std::vector<double> data;
  for (std::uint64_t b = 0; b < 6; ++b) {
    auto block = testutil::noisy_pattern_block(spec, 1e-8, b + nsb);
    for (double& v : block) v *= 1e-6;
    data.insert(data.end(), block.begin(), block.end());
  }
  const auto back = decompress(compress(data, spec, p));
  EXPECT_LE(max_abs_diff(data, back), p.error_bound * (1 + 1e-12));
}

INSTANTIATE_TEST_SUITE_P(
    PaperShapes, CompressorShapeSweep,
    ::testing::Values(std::pair<std::size_t, std::size_t>{1, 1},   // ssss
                      std::pair<std::size_t, std::size_t>{9, 9},   // pppp
                      std::pair<std::size_t, std::size_t>{36, 36},   // dddd
                      std::pair<std::size_t, std::size_t>{100, 100}, // ffff
                      std::pair<std::size_t, std::size_t>{60, 100},  // fdff
                      std::pair<std::size_t, std::size_t>{225, 225}, // gggg
                      std::pair<std::size_t, std::size_t>{3, 500},
                      std::pair<std::size_t, std::size_t>{500, 3}),
    [](const auto& info) {
      return std::to_string(info.param.first) + "x" +
             std::to_string(info.param.second);
    });

TEST(CompressorRelative, PerBlockBoundHolds) {
  // BlockRelative mode: each block's error must stay below
  // rel * max|block|, even when block magnitudes span many decades.
  const BlockSpec spec{10, 12};
  Params p;
  p.bound_mode = BoundMode::BlockRelative;
  p.error_bound = 1e-6;
  std::vector<double> data;
  std::vector<double> block_max;
  for (std::uint64_t b = 0; b < 16; ++b) {
    auto block = testutil::noisy_pattern_block(spec, 1e-4, b);
    const double scale = std::pow(10.0, -static_cast<double>(b));
    double mx = 0;
    for (double& v : block) {
      v *= scale;
      mx = std::max(mx, std::abs(v));
    }
    block_max.push_back(mx);
    data.insert(data.end(), block.begin(), block.end());
  }
  const auto stream = compress(data, spec, p);
  const auto back = decompress(stream);
  for (std::size_t b = 0; b < 16; ++b) {
    double err = 0;
    for (std::size_t i = 0; i < spec.block_size(); ++i) {
      err = std::max(err, std::abs(back[b * spec.block_size() + i] -
                                   data[b * spec.block_size() + i]));
    }
    EXPECT_LE(err, p.error_bound * block_max[b] * (1 + 1e-12))
        << "block " << b;
  }
}

TEST(CompressorRelative, PreservesTinyBlocksAbsoluteWouldZero) {
  // A block of magnitude 1e-14 is zeroed under EB=1e-10 absolute but
  // kept to 6 digits under 1e-6 relative.
  const BlockSpec spec{6, 6};
  auto data = testutil::exact_pattern_block(spec, 3);
  for (double& v : data) v *= 1e-14;

  Params abs;
  abs.error_bound = 1e-10;
  const auto back_abs = decompress(compress(data, spec, abs));
  for (double v : back_abs) EXPECT_EQ(v, 0.0);

  Params rel;
  rel.bound_mode = BoundMode::BlockRelative;
  rel.error_bound = 1e-6;
  const auto back_rel = decompress(compress(data, spec, rel));
  double mx = 0;
  for (double v : data) mx = std::max(mx, std::abs(v));
  EXPECT_LE(max_abs_diff(data, back_rel), 1e-6 * mx * (1 + 1e-12));
  bool any_nonzero = false;
  for (double v : back_rel) any_nonzero |= (v != 0.0);
  EXPECT_TRUE(any_nonzero);
}

TEST(CompressorRelative, ExactZeroBlocksStillCheap) {
  const BlockSpec spec{6, 6};
  std::vector<double> data(36 * 10, 0.0);
  Params p;
  p.bound_mode = BoundMode::BlockRelative;
  p.error_bound = 1e-8;
  Stats st;
  const auto stream = compress(data, spec, p, &st);
  EXPECT_EQ(st.blocks_by_type[0], 10u);
  const auto back = decompress(stream);
  for (double v : back) EXPECT_EQ(v, 0.0);
}

TEST(CompressorRelative, HeaderRoundTrip) {
  const BlockSpec spec{4, 4};
  Params p;
  p.bound_mode = BoundMode::BlockRelative;
  p.error_bound = 1e-7;
  const auto stream =
      compress(testutil::random_doubles(32, -1, 1), spec, p);
  const StreamInfo info = peek_info(stream);
  EXPECT_EQ(info.bound_mode, BoundMode::BlockRelative);
  EXPECT_EQ(info.error_bound, 1e-7);
}

TEST(CompressorRelative, RejectsFactorAboveOne) {
  const BlockSpec spec{4, 4};
  Params p;
  p.bound_mode = BoundMode::BlockRelative;
  p.error_bound = 2.0;
  EXPECT_THROW(compress(std::vector<double>(16, 1.0), spec, p),
               std::invalid_argument);
}

TEST(CompressorRelative, EriDataRelativeRoundTrip) {
  const auto& ds = testutil::small_eri_dataset();
  const BlockSpec spec{ds.shape.num_sub_blocks(),
                       ds.shape.sub_block_size()};
  Params p;
  p.bound_mode = BoundMode::BlockRelative;
  p.error_bound = 1e-8;
  const auto back = decompress(compress(ds.values, spec, p));
  for (std::size_t b = 0; b < ds.num_blocks; ++b) {
    const auto orig = ds.block(b);
    double mx = 0, err = 0;
    for (std::size_t i = 0; i < orig.size(); ++i) {
      mx = std::max(mx, std::abs(orig[i]));
      err = std::max(err,
                     std::abs(orig[i] - back[b * orig.size() + i]));
    }
    EXPECT_LE(err, 1e-8 * mx * (1 + 1e-12)) << "block " << b;
  }
}

TEST(Compressor, ExtremeBoundsStillRoundTrip) {
  // Very tight bound on O(1) values forces ~50-bit ECQ codes; very loose
  // bound zeroes everything.  Both extremes must stay correct.
  const BlockSpec spec{8, 8};
  const auto data = testutil::random_doubles(64 * 4, -1.0, 1.0, 77);
  {
    Params tight;
    tight.error_bound = 1e-15;
    const auto back = decompress(compress(data, spec, tight));
    EXPECT_LE(max_abs_diff(data, back), 1e-15 * (1 + 1e-9));
  }
  {
    Params loose;
    loose.error_bound = 10.0;
    Stats st;
    const auto stream = compress(data, spec, loose, &st);
    EXPECT_EQ(st.blocks_by_type[0], 4u);  // everything below the bound
    for (double v : decompress(stream)) EXPECT_EQ(v, 0.0);
  }
}

TEST(Compressor, MixedMagnitudeBlocksIndependent) {
  // Blocks spanning 12 decades in one stream: each block's P_b adapts
  // independently, and the bound holds globally.
  const BlockSpec spec{6, 6};
  std::vector<double> data;
  for (int e = 0; e < 12; ++e) {
    auto block = testutil::noisy_pattern_block(spec, 1e-9,
                                               static_cast<uint64_t>(e));
    for (double& v : block) v *= std::pow(10.0, -e);
    data.insert(data.end(), block.begin(), block.end());
  }
  Params p;
  const auto back = decompress(compress(data, spec, p));
  EXPECT_LE(max_abs_diff(data, back), p.error_bound * (1 + 1e-12));
}

TEST(Compressor, NonFiniteInputRejectedGracefully) {
  // Infinities cannot be represented within a finite bound; the codec
  // must not emit a stream that silently violates it.  (Current policy:
  // saturating quantization clamps, so we only require no crash and a
  // finite reconstruction.)
  const BlockSpec spec{2, 2};
  std::vector<double> data{1.0, std::numeric_limits<double>::infinity(),
                           -1.0, 0.0};
  Params p;
  std::vector<double> back;
  EXPECT_NO_THROW(back = decompress(compress(data, spec, p)));
  ASSERT_EQ(back.size(), 4u);
  for (double v : back) EXPECT_TRUE(std::isfinite(v));
}

TEST(Compressor, PatternHeavyDataBeatsGenericEntropyBound) {
  // The headline property: on pattern-structured data PaSTRI's ratio
  // far exceeds what the 64-bit representation alone would allow.
  const BlockSpec spec{36, 36};
  std::vector<double> data;
  for (std::uint64_t b = 0; b < 64; ++b) {
    auto block = testutil::noisy_pattern_block(spec, 1e-11, b);
    for (double& v : block) v *= 1e-7;
    data.insert(data.end(), block.begin(), block.end());
  }
  Params p;
  p.error_bound = 1e-10;
  Stats st;
  compress(data, spec, p, &st);
  EXPECT_GT(st.ratio(), 25.0);
}

TEST(Compressor, ParamsValidateEdgeCases) {
  Params p;
  EXPECT_NO_THROW(p.validate());  // paper defaults are valid
  p.error_bound = 0.0;
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p.error_bound = -1e-10;
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p.error_bound = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(p.validate(), std::invalid_argument);

  // Relative mode: the factor must lie strictly inside (0, 1).
  p.bound_mode = BoundMode::BlockRelative;
  p.error_bound = 1.0;
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p.error_bound = 2.0;
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p.error_bound = 0.5;
  EXPECT_NO_THROW(p.validate());
  p.error_bound = std::nextafter(1.0, 0.0);
  EXPECT_NO_THROW(p.validate());
  // The same factor in Absolute mode stays legal (bounds above 1 only
  // make sense as absolute bounds).
  p.bound_mode = BoundMode::Absolute;
  p.error_bound = 2.0;
  EXPECT_NO_THROW(p.validate());
}

TEST(Compressor, StreamInfoToParamsRoundTrip) {
  const BlockSpec spec{5, 7};
  Params p;
  p.error_bound = 0.25;
  p.bound_mode = BoundMode::BlockRelative;
  p.metric = ScalingMetric::AR;
  p.tree = EcqTree::Tree3;
  const auto data = testutil::random_doubles(spec.block_size() * 2, -1, 1);
  const auto stream = compress(data, spec, p);
  const Params q = peek_info(stream).to_params();
  EXPECT_EQ(q.error_bound, p.error_bound);
  EXPECT_EQ(q.bound_mode, p.bound_mode);
  EXPECT_EQ(q.metric, p.metric);
  EXPECT_EQ(q.tree, p.tree);
  // Decode-side params pass validation and drive a correct decode.
  EXPECT_NO_THROW(q.validate());
  EXPECT_NO_THROW(decompress(stream));
}

TEST(Compressor, InfoFirstDecodeFamilyMatchesAliases) {
  // The StreamInfo-first entry points are the canonical path; the
  // info-less overloads are thin aliases.  Both must agree exactly.
  // Random access goes through BlockReader, either way constructed.
  const BlockSpec spec{6, 9};
  std::vector<double> data;
  for (std::uint64_t b = 0; b < 7; ++b) {
    const auto block = testutil::noisy_pattern_block(spec, 1e-6, b);
    data.insert(data.end(), block.begin(), block.end());
  }
  const auto stream = compress(data, spec, Params{});
  const StreamInfo info = peek_info(stream);

  EXPECT_EQ(decompress(stream, info), decompress(stream));
  EXPECT_EQ(BlockReader(stream, info).read_block(3),
            BlockReader(stream).read_block(3));
  EXPECT_EQ(BlockReader(stream, info).read_range(2, 4),
            BlockReader(stream).read_range(2, 4));

  // BlockReader's info-first ctor probes nothing it was already given.
  const BlockReader reader(stream, info);
  EXPECT_EQ(reader.info().num_blocks, info.num_blocks);
  EXPECT_EQ(reader.read_range(0, reader.num_blocks()), decompress(stream));
}

}  // namespace
}  // namespace pastri
