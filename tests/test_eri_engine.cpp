// Tests for shell-quartet enumeration, screening, sampling, and dataset
// serialization.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <span>
#include <vector>

#include "qc/eri_engine.h"
#include "test_util.h"

namespace pastri::qc {
namespace {

TEST(ParseConfig, AcceptedSpellings) {
  const std::array<int, 4> dddd{2, 2, 2, 2};
  EXPECT_EQ(parse_config("(dd|dd)"), dddd);
  EXPECT_EQ(parse_config("dddd"), dddd);
  EXPECT_EQ(parse_config("(fd|ff)"), (std::array<int, 4>{3, 2, 3, 3}));
  EXPECT_EQ(parse_config("sspp"), (std::array<int, 4>{0, 0, 1, 1}));
}

TEST(ParseConfig, Rejections) {
  EXPECT_THROW(parse_config("(dd|d)"), std::invalid_argument);
  EXPECT_THROW(parse_config("ddddd"), std::invalid_argument);
  EXPECT_THROW(parse_config("(dq|dd)"), std::invalid_argument);
}

TEST(BlockShape, SizesAndName) {
  BlockShape sh;
  sh.n = {10, 6, 10, 10};  // (fd|ff)
  EXPECT_EQ(sh.block_size(), 6000u);
  EXPECT_EQ(sh.num_sub_blocks(), 60u);
  EXPECT_EQ(sh.sub_block_size(), 100u);
  EXPECT_EQ(sh.config_name(), "(fd|ff)");
}

TEST(Dataset, DeterministicAcrossRuns) {
  DatasetOptions o;
  o.config = {1, 1, 1, 1};
  o.max_blocks = 50;
  o.seed = 5;
  const Molecule mol = make_benzene();
  const EriDataset a = generate_eri_dataset(mol, o);
  const EriDataset b = generate_eri_dataset(mol, o);
  ASSERT_EQ(a.values.size(), b.values.size());
  EXPECT_EQ(a.values, b.values);
}

TEST(Dataset, SeedChangesSample) {
  DatasetOptions o;
  o.config = {1, 1, 1, 1};
  o.max_blocks = 50;
  const Molecule mol = make_benzene();
  o.seed = 1;
  const EriDataset a = generate_eri_dataset(mol, o);
  o.seed = 2;
  const EriDataset b = generate_eri_dataset(mol, o);
  EXPECT_NE(a.values, b.values);
}

TEST(Dataset, MaxBlocksCap) {
  DatasetOptions o;
  o.config = {0, 0, 0, 0};
  o.max_blocks = 17;
  const EriDataset ds = generate_eri_dataset(make_glutamine(), o);
  EXPECT_EQ(ds.num_blocks, 17u);
  EXPECT_EQ(ds.values.size(), 17u * ds.shape.block_size());
}

TEST(Dataset, LabelAndShape) {
  DatasetOptions o;
  o.config = {2, 2, 2, 2};
  o.max_blocks = 3;
  const EriDataset ds = generate_eri_dataset(make_benzene(), o);
  EXPECT_EQ(ds.label, "benzene (dd|dd)");
  EXPECT_EQ(ds.shape.n, (std::array<std::uint16_t, 4>{6, 6, 6, 6}));
}

TEST(Dataset, ScreenedBlocksAreZero) {
  // With a harsh threshold everything screens out and all blocks are 0.
  DatasetOptions o;
  o.config = {1, 1, 1, 1};
  o.max_blocks = 30;
  o.screen_threshold = 1e30;
  const EriDataset ds = generate_eri_dataset(make_benzene(), o);
  EXPECT_EQ(ds.num_blocks, 30u);
  for (double v : ds.values) EXPECT_EQ(v, 0.0);
}

TEST(Dataset, ValuesHaveRealisticStructure) {
  const EriDataset& ds = testutil::small_eri_dataset();
  // Nonzero, finite, with a wide dynamic range.
  double max_abs = 0.0, min_nonzero = 1e300;
  for (double v : ds.values) {
    ASSERT_TRUE(std::isfinite(v));
    const double a = std::abs(v);
    max_abs = std::max(max_abs, a);
    if (a > 0) min_nonzero = std::min(min_nonzero, a);
  }
  EXPECT_GT(max_abs, 1e-6);
  EXPECT_LT(min_nonzero, 1e-12);  // spans many orders of magnitude
}

TEST(Dataset, HybridShape) {
  const EriDataset& ds = testutil::hybrid_eri_dataset();
  EXPECT_EQ(ds.shape.n, (std::array<std::uint16_t, 4>{3, 6, 6, 3}));
  EXPECT_EQ(ds.shape.config_name(), "(pd|dp)");
}

TEST(Dataset, SaveLoadRoundTrip) {
  const EriDataset& ds = testutil::small_eri_dataset();
  const std::string path =
      (std::filesystem::temp_directory_path() / "pastri_ds_test.bin")
          .string();
  save_dataset(ds, path);
  const EriDataset back = load_dataset(path);
  EXPECT_EQ(back.label, ds.label);
  EXPECT_EQ(back.shape, ds.shape);
  EXPECT_EQ(back.num_blocks, ds.num_blocks);
  EXPECT_EQ(back.values, ds.values);
  std::remove(path.c_str());
}

TEST(Dataset, LoadRejectsGarbage) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "pastri_ds_garbage.bin")
          .string();
  {
    std::ofstream f(path, std::ios::binary);
    f << "this is not a dataset";
  }
  EXPECT_THROW(load_dataset(path), std::runtime_error);
  std::remove(path.c_str());
  EXPECT_THROW(load_dataset("/nonexistent/path/ds.bin"),
               std::runtime_error);
}

TEST(Dataset, GenerationRateIsPositive) {
  DatasetOptions o;
  o.config = {1, 1, 1, 1};
  const GenerationRate rate = measure_generation_rate(make_benzene(), o, 20);
  EXPECT_GT(rate.mb_per_s, 0.0);
  EXPECT_GE(rate.plan_s, 0.0);
}

TEST(Dataset, StreamedBlocksMatchDenseGeneration) {
  // EriBlockGenerator::compute_range over consecutive ranges must
  // produce exactly the dense dataset's blocks, with identical metadata
  // -- it is the compute side of the compute -> compress pipeline, so
  // any deviation would change the compressed bytes.  No range size
  // divides the 120 blocks, so every run ends on a short range.
  DatasetOptions o;
  o.config = {2, 1, 1, 2};
  o.max_blocks = 120;
  o.seed = 5;
  const Molecule mol = make_benzene();
  const EriDataset dense = generate_eri_dataset(mol, o);
  ASSERT_EQ(dense.num_blocks, 120u);

  const EriBlockGenerator gen(mol, o);
  const EriStreamMeta& meta = gen.meta();
  EXPECT_EQ(meta.label, dense.label);
  EXPECT_EQ(meta.shape, dense.shape);
  EXPECT_EQ(meta.num_blocks, dense.num_blocks);
  const std::size_t bs = dense.shape.block_size();
  for (const std::size_t range : {std::size_t{7}, std::size_t{49},
                                  std::size_t{64}}) {
    std::vector<double> streamed(dense.values.size(), -1.0);
    for (std::size_t first = 0; first < meta.num_blocks; first += range) {
      const std::size_t n = std::min(range, meta.num_blocks - first);
      gen.compute_range(first, n,
                        std::span<double>(streamed).subspan(first * bs,
                                                            n * bs));
    }
    EXPECT_EQ(streamed, dense.values) << "range " << range;
  }
}

}  // namespace
}  // namespace pastri::qc
