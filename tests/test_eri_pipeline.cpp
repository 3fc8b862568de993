// Tests for the fused compute->compress->io dump (eri_pipeline) and the
// solvers that run off its output.
//
// The load-bearing property is byte identity: the chunk size and the
// OpenMP width may change wall time but never the container bytes, so
// the dump is interchangeable with -- and resumable against -- the
// dense-dataset path.
#include <gtest/gtest.h>
#include <omp.h>

#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/stream.h"
#include "io/compressed_file.h"
#include "io/file_per_process.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "qc/direct_scf.h"
#include "qc/eri_pipeline.h"
#include "qc/mp2.h"
#include "qc/sto3g.h"
#include "test_util.h"

namespace pastri {
namespace {

// ------------------------------------------------------------ io layout

TEST(ShardLayout, RemainderSpreadsOverLeadingShards) {
  const io::ShardLayout layout = io::make_shard_layout(10, 4);
  ASSERT_EQ(layout.num_shards, 4u);
  ASSERT_EQ(layout.blocks_per_shard.size(), 4u);
  EXPECT_EQ(layout.blocks_per_shard[0], 3u);
  EXPECT_EQ(layout.blocks_per_shard[1], 3u);
  EXPECT_EQ(layout.blocks_per_shard[2], 2u);
  EXPECT_EQ(layout.blocks_per_shard[3], 2u);
  EXPECT_EQ(io::shard_first_block(layout, 0), 0u);
  EXPECT_EQ(io::shard_first_block(layout, 1), 3u);
  EXPECT_EQ(io::shard_first_block(layout, 2), 6u);
  EXPECT_EQ(io::shard_first_block(layout, 3), 8u);
}

// --------------------------------------------------------- the pipeline

std::vector<std::uint8_t> slurp(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  EXPECT_TRUE(f.good()) << path;
  return std::vector<std::uint8_t>(std::istreambuf_iterator<char>(f),
                                   std::istreambuf_iterator<char>());
}

class EriPipelineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = testutil::per_test_dir("pastri_pipe");
    mol_ = qc::make_molecule("benzene");
    opt_.config = qc::parse_config("(dd|dd)");
    opt_.max_blocks = 24;
  }
  void TearDown() override {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  /// dump_eri_sharded into a single shard; `bytes` receives that shard's
  /// file, one whole container.
  qc::EriPipelineResult dump_one_shard(const Params& p,
                                      std::vector<std::uint8_t>& bytes,
                                      std::size_t batch_blocks = 0) {
    qc::EriDumpOptions dopt;
    dopt.num_shards = 1;
    dopt.batch_blocks = batch_blocks;
    const qc::EriDumpResult res =
        qc::dump_eri_sharded(mol_, opt_, p, dir_, "one", dopt);
    bytes = slurp(io::rank_file_path(dir_, "one", 0));
    return res.pipeline;
  }

  /// compress() of the dense dataset: what that one shard must hold.
  std::vector<std::uint8_t> dense_container(const Params& p) {
    const qc::EriDataset ds = qc::generate_eri_dataset(mol_, opt_);
    const BlockSpec spec{ds.shape.num_sub_blocks(),
                         ds.shape.sub_block_size()};
    return compress(ds.values, spec, p);
  }

  std::string dir_;
  qc::Molecule mol_;
  qc::DatasetOptions opt_;
};

TEST_F(EriPipelineTest, BytesInvariantAcrossEveryKnob) {
  Params p;
  const auto golden = dense_container(p);
  ASSERT_FALSE(golden.empty());

  const int max_threads = omp_get_max_threads();
  for (const int threads : {1, max_threads}) {
    omp_set_num_threads(threads);
    for (const std::size_t batch : {std::size_t{1}, std::size_t{5},
                                    std::size_t{0}}) {
      std::vector<std::uint8_t> bytes;
      dump_one_shard(p, bytes, batch);
      EXPECT_EQ(bytes, golden) << "threads=" << threads << " batch=" << batch;
    }
  }
  omp_set_num_threads(max_threads);
}

TEST_F(EriPipelineTest, AutoChunksFollowTheEncodeBatch) {
  // With an automatic chunk size, one computed chunk is one StreamWriter
  // encode batch, and both are sized from Params::num_threads -- not
  // from the OpenMP default, which this thread count deliberately
  // differs from (and keeps the batch above its 64-block floor).
  Params p;
  p.num_threads = 2 * omp_get_max_threads() + 4;
  const BlockSpec spec{81, 16};  // (dd|dd)
  const std::size_t batch = auto_batch_blocks(spec, p.num_threads);
  opt_.max_blocks = batch + batch / 2;
  std::vector<std::uint8_t> bytes;
  const qc::EriPipelineResult res = dump_one_shard(p, bytes);
  ASSERT_EQ(res.meta.num_blocks, opt_.max_blocks);
  EXPECT_EQ(res.meta.shape.block_size(), spec.block_size());
  EXPECT_EQ(res.chunks, (res.meta.num_blocks + batch - 1) / batch);
  EXPECT_EQ(bytes, dense_container(p));
}

TEST_F(EriPipelineTest, DumpMatchesDenseDatasetPathByteForByte) {
  // The tentpole invariant: dump_eri_sharded writes exactly the files
  // write_compressed_dataset(generate_eri_dataset(...)) would, without
  // ever holding the dense tensor.
  Params p;
  constexpr int kShards = 3;
  const qc::EriDataset ds = qc::generate_eri_dataset(mol_, opt_);
  io::write_compressed_dataset(ds, p, kShards, dir_, "dense");

  qc::EriDumpOptions dopt;
  dopt.num_shards = kShards;
  const qc::EriDumpResult res =
      qc::dump_eri_sharded(mol_, opt_, p, dir_, "piped", dopt);
  EXPECT_EQ(res.pipeline.meta.num_blocks, ds.num_blocks);
  EXPECT_EQ(res.shards_total, static_cast<std::size_t>(kShards));
  EXPECT_EQ(res.shards_reused, 0u);

  for (int s = 0; s < kShards; ++s) {
    const std::string suffix = "." + std::to_string(s);
    EXPECT_EQ(slurp(dir_ + "/piped" + suffix),
              slurp(dir_ + "/dense" + suffix))
        << "shard " << s;
  }
  EXPECT_EQ(slurp(dir_ + "/piped.manifest"), slurp(dir_ + "/dense.manifest"));
}

TEST_F(EriPipelineTest, PerRankShardWritersMatchPipelinedDump) {
  // File-per-process dump: each rank re-plans the dataset from
  // (mol, opt) alone, computes exactly its shard's block range from the
  // layout formula and streams it through its own ShardWriter -- no
  // coordination beyond the layout.  The shards must equal the
  // single-process pipelined dump's byte for byte.
  Params p;
  constexpr int kRanks = 4;
  qc::EriDumpOptions dopt;
  dopt.num_shards = kRanks;
  const qc::EriDumpResult res =
      qc::dump_eri_sharded(mol_, opt_, p, dir_, "piped", dopt);

  qc::EriStreamMeta meta;
  for (int r = 0; r < kRanks; ++r) {
    const qc::EriBlockGenerator gen(mol_, opt_);
    meta = gen.meta();
    const io::ShardLayout layout =
        io::make_shard_layout(meta.num_blocks, kRanks);
    const std::size_t first = io::shard_first_block(layout, r);
    const std::size_t count = layout.blocks_per_shard[r];
    std::vector<double> values(count * meta.shape.block_size());
    gen.compute_range(first, count, values);
    io::ShardWriter writer(dir_, "ranks", r,
                           BlockSpec{meta.shape.num_sub_blocks(),
                                     meta.shape.sub_block_size()},
                           p, count);
    writer.put_values(values);
    writer.finish();
  }
  io::write_dataset_manifest(dir_, "ranks", meta.label, meta.shape,
                             meta.num_blocks,
                             io::make_shard_layout(meta.num_blocks, kRanks));

  EXPECT_EQ(meta.num_blocks, res.pipeline.meta.num_blocks);
  for (int s = 0; s < kRanks; ++s) {
    const std::string suffix = "." + std::to_string(s);
    EXPECT_EQ(slurp(dir_ + "/ranks" + suffix),
              slurp(dir_ + "/piped" + suffix))
        << "shard " << s;
  }
  EXPECT_EQ(slurp(dir_ + "/ranks.manifest"),
            slurp(dir_ + "/piped.manifest"));
  const qc::EriDataset back = io::read_compressed_dataset(dir_, "ranks");
  const qc::EriDataset ds = qc::generate_eri_dataset(mol_, opt_);
  EXPECT_EQ(back.num_blocks, ds.num_blocks);
  EXPECT_LE(testutil::max_abs_diff(ds.values, back.values),
            p.error_bound * (1 + 1e-12));
}

TEST_F(EriPipelineTest, DumpRoundTripsWithinBound) {
  Params p;
  p.error_bound = 1e-9;
  qc::EriDumpOptions dopt;
  dopt.num_shards = 2;
  qc::dump_eri_sharded(mol_, opt_, p, dir_, "eri", dopt);
  const qc::EriDataset ds = qc::generate_eri_dataset(mol_, opt_);
  const qc::EriDataset back = io::read_compressed_dataset(dir_, "eri");
  EXPECT_EQ(back.label, ds.label);
  EXPECT_EQ(back.num_blocks, ds.num_blocks);
  EXPECT_LE(testutil::max_abs_diff(ds.values, back.values),
            p.error_bound * (1 + 1e-12));
}

TEST_F(EriPipelineTest, ResumeReusesCompleteShards) {
  Params p;
  qc::EriDumpOptions dopt;
  dopt.num_shards = 3;
  const qc::EriDumpResult fresh =
      qc::dump_eri_sharded(mol_, opt_, p, dir_, "eri", dopt);
  EXPECT_EQ(fresh.shards_reused, 0u);

  // Everything already on disk: a resumed dump regenerates nothing.
  dopt.resume = true;
  const qc::EriDumpResult all =
      qc::dump_eri_sharded(mol_, opt_, p, dir_, "eri", dopt);
  EXPECT_EQ(all.shards_reused, 3u);
  EXPECT_EQ(all.blocks_reused, fresh.pipeline.meta.num_blocks);
  EXPECT_EQ(all.bytes_total, fresh.bytes_total);
  EXPECT_EQ(all.pipeline.chunks, 0u);
}

TEST_F(EriPipelineTest, ResumeRecoversFromMidDumpTruncation) {
  Params p;
  qc::EriDumpOptions dopt;
  dopt.num_shards = 3;
  qc::dump_eri_sharded(mol_, opt_, p, dir_, "eri", dopt);
  std::vector<std::vector<std::uint8_t>> golden;
  for (int s = 0; s < 3; ++s)
    golden.push_back(slurp(dir_ + "/" + "eri." + std::to_string(s)));

  // Simulate a crash mid-way through shard 1: cut it in half.  Shard 0
  // stays complete, shards 1 and 2 must be regenerated.
  const io::ShardLayout layout =
      io::make_shard_layout(golden.size() ? 24 : 0, 3);
  std::filesystem::resize_file(dir_ + "/eri.1", golden[1].size() / 2);
  std::filesystem::remove(dir_ + "/eri.2");
  EXPECT_TRUE(
      io::shard_is_complete(dir_, "eri", 0, layout.blocks_per_shard[0]));
  EXPECT_FALSE(
      io::shard_is_complete(dir_, "eri", 1, layout.blocks_per_shard[1]));
  EXPECT_FALSE(
      io::shard_is_complete(dir_, "eri", 2, layout.blocks_per_shard[2]));

  dopt.resume = true;
  const qc::EriDumpResult res =
      qc::dump_eri_sharded(mol_, opt_, p, dir_, "eri", dopt);
  EXPECT_EQ(res.shards_reused, 1u);
  EXPECT_EQ(res.blocks_reused, layout.blocks_per_shard[0]);

  // The deterministic plan makes the recovered files byte-identical to
  // the uninterrupted dump.
  for (int s = 0; s < 3; ++s)
    EXPECT_EQ(slurp(dir_ + "/eri." + std::to_string(s)), golden[s])
        << "shard " << s;
  EXPECT_LE(testutil::max_abs_diff(
                qc::generate_eri_dataset(mol_, opt_).values,
                io::read_compressed_dataset(dir_, "eri").values),
            p.error_bound * (1 + 1e-12));
}

TEST_F(EriPipelineTest, ShardIsCompleteRejectsWrongCount) {
  Params p;
  qc::EriDumpOptions dopt;
  dopt.num_shards = 2;
  qc::dump_eri_sharded(mol_, opt_, p, dir_, "eri", dopt);
  const io::ShardLayout layout = io::make_shard_layout(24, 2);
  EXPECT_TRUE(
      io::shard_is_complete(dir_, "eri", 0, layout.blocks_per_shard[0]));
  EXPECT_FALSE(
      io::shard_is_complete(dir_, "eri", 0, layout.blocks_per_shard[0] + 1));
  EXPECT_FALSE(io::shard_is_complete(dir_, "missing", 0, 1));
}

TEST_F(EriPipelineTest, PipelineMetricsAdvance) {
  const auto counter_value = [](const obs::MetricsSnapshot& snap,
                                std::string_view name) -> std::uint64_t {
    for (const auto& c : snap.counters)
      if (c.name == name) return c.value;
    ADD_FAILURE() << "counter not registered: " << name;
    return 0;
  };
  const auto before = obs::registry().snapshot();
  Params p;
  std::vector<std::uint8_t> bytes;
  const qc::EriPipelineResult res = dump_one_shard(p, bytes);
  const auto after = obs::registry().snapshot();
  EXPECT_GT(counter_value(after, obs::kQcPipelineChunks),
            counter_value(before, obs::kQcPipelineChunks));
  EXPECT_GT(res.chunks, 0u);
  EXPECT_GT(res.wall_ns, 0u);
  EXPECT_GT(res.compute_ns, 0u);
  EXPECT_GT(res.encode_ns, 0u);
  EXPECT_GT(res.io_ns, 0u);
  EXPECT_LE(res.io_ns, res.encode_ns);  // the writes happen inside encode
  // The steps run one after the other: nothing waits, nothing overlaps.
  EXPECT_EQ(res.compute_stall_ns, 0u);
  EXPECT_EQ(res.encode_stall_ns, 0u);
  EXPECT_EQ(res.io_stall_ns, 0u);
  EXPECT_EQ(res.overlap_efficiency, 0.0);
  EXPECT_EQ(res.bytes_written, bytes.size());
  EXPECT_EQ(bytes, dense_container(p));
}

// ------------------------------------------------- solvers off the store

TEST(Mp2FromStore, MatchesDenseMp2) {
  qc::Molecule m;
  m.name = "H2O";
  m.atoms = {{"O", 8, {0, 0, 0}},
             {"H", 1, {0, 1.4305, 1.1093}},
             {"H", 1, {0, -1.4305, 1.1093}}};
  const qc::BasisSet basis = qc::make_sto3g_basis(m);
  const qc::EriTensor exact = qc::compute_eri_tensor(basis);
  const qc::ScfResult scf = qc::run_rhf(m, basis, exact);
  ASSERT_TRUE(scf.converged);
  const qc::Mp2Result dense = qc::run_mp2(m, basis, exact, scf);

  Params p;
  p.error_bound = 1e-10;
  const qc::CompressedEriStore store(basis, p);
  const qc::Mp2Result streamed = qc::run_mp2_from_store(m, basis, store, scf);
  EXPECT_LT(dense.correlation_energy, 0.0);
  EXPECT_NEAR(streamed.correlation_energy, dense.correlation_energy, 1e-8);
  EXPECT_NEAR(streamed.total_energy, dense.total_energy, 1e-8);

  // And the full workflow the pipeline closes: SCF + MP2 entirely off
  // the compressed stream.
  const qc::ScfResult scf2 = qc::run_rhf_from_store(m, basis, store);
  ASSERT_TRUE(scf2.converged);
  const qc::Mp2Result mp2 = qc::run_mp2_from_store(m, basis, store, scf2);
  EXPECT_NEAR(mp2.total_energy, dense.total_energy, 1e-6);
}

TEST(Mp2FromStore, RejectsMismatchedInputs) {
  qc::Molecule m;
  m.name = "H2";
  m.atoms = {{"H", 1, {0, 0, 0}}, {"H", 1, {0, 0, 1.4}}};
  const qc::BasisSet basis = qc::make_sto3g_basis(m);
  const qc::EriTensor exact = qc::compute_eri_tensor(basis);
  const qc::ScfResult scf = qc::run_rhf(m, basis, exact);
  Params p;
  const qc::CompressedEriStore store(basis, p);
  qc::ScfResult bad = scf;
  bad.converged = false;
  EXPECT_THROW(qc::run_mp2_from_store(m, basis, store, bad),
               std::invalid_argument);
}

}  // namespace
}  // namespace pastri
