// Tests for the reduced-precision-pack baseline (paper ref. [19]) and
// the sharded compressed-dataset container.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>

#include "compressors/rpp/rpp.h"
#include "core/pastri_capi.h"
#include "io/block_store.h"
#include "io/compressed_file.h"
#include "io/file_per_process.h"
#include "io/tool_container.h"
#include "test_util.h"

namespace pastri {
namespace {

using testutil::max_abs_diff;

TEST(Rpp, RoundTripWithinBound) {
  const auto data = testutil::random_doubles(10000, -1.0, 1.0, 3);
  for (double eb : {1e-6, 1e-10, 1e-13}) {
    const auto back =
        baselines::rpp_decompress(baselines::rpp_compress(data, eb));
    ASSERT_EQ(back.size(), data.size());
    EXPECT_LE(max_abs_diff(data, back), eb) << eb;
  }
}

TEST(Rpp, EriDataWithinBound) {
  const auto& ds = testutil::small_eri_dataset();
  const auto back = baselines::rpp_decompress(
      baselines::rpp_compress(ds.values, 1e-10));
  EXPECT_LE(max_abs_diff(ds.values, back), 1e-10);
}

TEST(Rpp, RatioInPaperBand) {
  // Section II: a customized real-number format reaches only ~1.5-2.5x
  // on data whose magnitudes sit well above the bound.  Uniform values
  // in [0.5, 1] at EB=1e-10 need sign+exp+~33 mantissa bits ~= 45 bits.
  const auto data = testutil::random_doubles(20000, 0.5, 1.0, 7);
  const auto stream = baselines::rpp_compress(data, 1e-10);
  const double ratio =
      static_cast<double>(data.size() * 8) / stream.size();
  EXPECT_GT(ratio, 1.2);
  EXPECT_LT(ratio, 2.6);
}

TEST(Rpp, TinyValuesCollapse) {
  const std::vector<double> data(5000, 1e-14);
  const auto stream = baselines::rpp_compress(data, 1e-10);
  EXPECT_LT(stream.size(), 700u + 32);  // ~1 bit per value
  for (double v : baselines::rpp_decompress(stream)) EXPECT_EQ(v, 0.0);
}

TEST(Rpp, Rejections) {
  EXPECT_THROW(baselines::rpp_compress({}, 0.0), std::invalid_argument);
  auto stream = baselines::rpp_compress(std::vector<double>(4, 1.0), 1e-9);
  stream[0] ^= 0x7;
  EXPECT_THROW(baselines::rpp_decompress(stream), std::runtime_error);
}

class CompressedFileTest : public ::testing::Test {
 protected:
  void SetUp() override { dir_ = testutil::per_test_dir("pastri_cfile"); }
  void TearDown() override {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }
  std::string dir_;
};

TEST_F(CompressedFileTest, RoundTripSingleShard) {
  const auto& ds = testutil::small_eri_dataset();
  Params p;
  const std::size_t bytes =
      io::write_compressed_dataset(ds, p, 1, dir_, "ds");
  EXPECT_LT(bytes, ds.size_bytes());
  const auto back = io::read_compressed_dataset(dir_, "ds");
  EXPECT_EQ(back.label, ds.label);
  EXPECT_EQ(back.shape, ds.shape);
  EXPECT_EQ(back.num_blocks, ds.num_blocks);
  EXPECT_LE(max_abs_diff(ds.values, back.values),
            p.error_bound * (1 + 1e-12));
}

TEST_F(CompressedFileTest, RoundTripManyShards) {
  const auto& ds = testutil::small_eri_dataset();
  Params p;
  io::write_compressed_dataset(ds, p, 7, dir_, "sharded");
  const auto info = io::read_manifest(dir_, "sharded");
  EXPECT_EQ(info.layout.num_shards, 7u);
  std::size_t total = 0;
  for (auto n : info.layout.blocks_per_shard) total += n;
  EXPECT_EQ(total, ds.num_blocks);
  const auto back = io::read_compressed_dataset(dir_, "sharded");
  EXPECT_LE(max_abs_diff(ds.values, back.values),
            p.error_bound * (1 + 1e-12));
}

TEST_F(CompressedFileTest, MoreShardsThanBlocks) {
  qc::EriDataset tiny;
  tiny.label = "tiny";
  tiny.shape.n = {1, 1, 2, 2};
  tiny.num_blocks = 3;
  tiny.values = {1e-3, 2e-3, 3e-3, 4e-3, 0, 0, 0, 0, -1e-5, 0, 1e-5, 2e-5};
  Params p;
  io::write_compressed_dataset(tiny, p, 8, dir_, "tiny");
  const auto back = io::read_compressed_dataset(dir_, "tiny");
  EXPECT_EQ(back.num_blocks, 3u);
  EXPECT_LE(max_abs_diff(tiny.values, back.values),
            p.error_bound * (1 + 1e-12));
}

/// Block counts of shards 0..num_shards-1 of dataset `base`, read from
/// the shard stream headers.
std::vector<std::size_t> header_block_counts(const std::string& dir,
                                             const std::string& base,
                                             std::size_t num_shards) {
  std::vector<std::size_t> counts;
  for (std::size_t s = 0; s < num_shards; ++s) {
    counts.push_back(
        peek_info(io::read_rank_file(dir, base, static_cast<int>(s)))
            .num_blocks);
  }
  return counts;
}

TEST_F(CompressedFileTest, ShardBlockCountsComeFromShardHeaders) {
  const auto& ds = testutil::small_eri_dataset();
  Params p;
  io::write_compressed_dataset(ds, p, 5, dir_, "counts");
  const auto counts = header_block_counts(dir_, "counts", 5);
  const auto info = io::read_manifest(dir_, "counts");
  ASSERT_EQ(counts.size(), 5u);
  EXPECT_EQ(counts, info.layout.blocks_per_shard);
  std::size_t total = 0;
  for (auto n : counts) total += n;
  EXPECT_EQ(total, ds.num_blocks);
}

TEST_F(CompressedFileTest, BlockStoreRangesMatchWholeRead) {
  // Random access into a sharded dataset goes through io::BlockStore
  // opened on its manifest.
  const auto& ds = testutil::small_eri_dataset();
  Params p;
  io::write_compressed_dataset(ds, p, 4, dir_, "part");
  const std::size_t bs = ds.shape.block_size();
  const auto full = io::read_compressed_dataset(dir_, "part");
  const io::BlockStore store(dir_ + "/part.manifest");
  ASSERT_EQ(store.num_blocks(), ds.num_blocks);
  // Ranges within one shard, across shard boundaries, and the whole set.
  const std::pair<std::size_t, std::size_t> ranges[] = {
      {0, 1},
      {3, 2},
      {ds.num_blocks / 4 - 1, 3},  // straddles shard 0 -> 1
      {0, ds.num_blocks}};
  for (const auto& [first, count] : ranges) {
    const auto part = store.range(first, count);
    ASSERT_EQ(part.size(), count * bs) << first << "+" << count;
    for (std::size_t i = 0; i < part.size(); ++i) {
      ASSERT_EQ(std::bit_cast<std::uint64_t>(part[i]),
                std::bit_cast<std::uint64_t>(full.values[first * bs + i]))
          << first;
    }
  }
  EXPECT_THROW(store.range(ds.num_blocks, 1), std::out_of_range);
  EXPECT_THROW(store.range(0, ds.num_blocks + 1), std::out_of_range);
}

TEST_F(CompressedFileTest, ReaderIgnoresCorruptManifestLayout) {
  // The manifest's per-shard layout line is advisory: readers derive
  // block counts from the shard stream headers.  Corrupt the layout
  // (keeping the total) and the dataset must still load correctly.
  const auto& ds = testutil::small_eri_dataset();
  Params p;
  io::write_compressed_dataset(ds, p, 3, dir_, "lied");
  const auto info = io::read_manifest(dir_, "lied");
  std::ostringstream mf;
  mf << "PaSTRIshards v1\n" << info.label << "\n";
  mf << info.shape.n[0] << " " << info.shape.n[1] << " " << info.shape.n[2]
     << " " << info.shape.n[3] << "\n";
  mf << info.num_blocks << " " << info.layout.num_shards << "\n";
  // Shuffle all blocks into the "first shard" on paper.
  mf << info.num_blocks << " 0 0 \n";
  std::ofstream out(dir_ + "/lied.manifest", std::ios::trunc);
  out << mf.str();
  out.close();
  const auto back = io::read_compressed_dataset(dir_, "lied");
  EXPECT_EQ(back.num_blocks, ds.num_blocks);
  EXPECT_LE(max_abs_diff(ds.values, back.values),
            p.error_bound * (1 + 1e-12));
  EXPECT_EQ(io::BlockStore(dir_ + "/lied.manifest").range(0, ds.num_blocks),
            back.values);
  EXPECT_NE(header_block_counts(dir_, "lied", 3),
            io::read_manifest(dir_, "lied").layout.blocks_per_shard);
}

/// Overwrite shard `shard` of dataset `base` with `blocks` zero blocks
/// of `spec`.
void rewrite_shard(const std::string& dir, const std::string& base,
                   int shard, const BlockSpec& spec, std::size_t blocks) {
  io::ShardWriter w(dir, base, shard, spec, Params{}, blocks);
  w.put_values(std::vector<double>(blocks * spec.block_size(), 0.0));
  w.finish();
}

TEST_F(CompressedFileTest, ShardBlockSizeDisagreeingWithManifestThrows) {
  // A shard whose blocks are larger than the manifest shape's would
  // decode past its slice of the dataset; the reader must refuse it
  // before decoding anything.
  const auto& ds = testutil::small_eri_dataset();
  io::write_compressed_dataset(ds, Params{}, 3, dir_, "wide");
  const auto counts = io::read_manifest(dir_, "wide").layout.blocks_per_shard;
  rewrite_shard(dir_, "wide", 1,
                {ds.shape.num_sub_blocks(), 2 * ds.shape.sub_block_size()},
                counts[1]);
  EXPECT_THROW(io::read_compressed_dataset(dir_, "wide"),
               std::runtime_error);
  EXPECT_THROW(io::BlockStore(dir_ + "/wide.manifest"), std::runtime_error);
}

TEST_F(CompressedFileTest, ManifestShapeDisagreeingWithEveryShardThrows) {
  // Only the manifest's shape line is rewritten, so the shards all agree
  // with each other; both readers must still refuse the dataset.
  const auto& ds = testutil::small_eri_dataset();
  io::write_compressed_dataset(ds, Params{}, 3, dir_, "reshaped");
  const std::string path = dir_ + "/reshaped.manifest";
  std::vector<std::string> lines;
  {
    std::ifstream in(path);
    for (std::string line; std::getline(in, line);) lines.push_back(line);
  }
  ASSERT_GE(lines.size(), 3u);
  lines[2] = "1 1 1 2";  // magic, label, shape, ...
  {
    std::ofstream out(path, std::ios::trunc);
    for (const std::string& line : lines) out << line << "\n";
  }
  ASSERT_EQ(io::read_manifest(dir_, "reshaped").shape.block_size(), 2u);
  EXPECT_THROW(io::read_compressed_dataset(dir_, "reshaped"),
               std::runtime_error);
  EXPECT_THROW(io::BlockStore{path}, std::runtime_error);
  pastri_store* store = nullptr;
  EXPECT_EQ(pastri_store_open(path.c_str(), nullptr, &store),
            PASTRI_ERR_CORRUPT_STREAM);
}

TEST_F(CompressedFileTest, ShardHeaderCountDisagreeingWithManifestThrows) {
  const auto& ds = testutil::small_eri_dataset();
  io::write_compressed_dataset(ds, Params{}, 3, dir_, "short");
  const auto counts =
      io::read_manifest(dir_, "short").layout.blocks_per_shard;
  rewrite_shard(dir_, "short", 2,
                {ds.shape.num_sub_blocks(), ds.shape.sub_block_size()},
                counts[2] - 1);
  EXPECT_THROW(io::read_compressed_dataset(dir_, "short"),
               std::runtime_error);
  EXPECT_THROW(io::BlockStore(dir_ + "/short.manifest"), std::runtime_error);
}

TEST_F(CompressedFileTest, HostileManifestShardCountIsRejectedFast) {
  // A manifest claiming more shards than it lists entries for is a
  // corrupt file: rejected after reading the entries it has, not after
  // sizing a layout from the claimed count.
  for (const char* shards : {"100000000", "1000000000000"}) {
    {
      std::ofstream mf(dir_ + "/huge.manifest", std::ios::trunc);
      mf << "PaSTRIshards v1\nhostile\n6 6 6 6\n3 " << shards
         << "\n1 1 1 \n";
    }
    const auto t0 = std::chrono::steady_clock::now();
    EXPECT_THROW(io::read_manifest(dir_, "huge"), std::runtime_error)
        << shards;
    const std::string path = dir_ + "/huge.manifest";
    pastri_store* store = nullptr;
    EXPECT_EQ(pastri_store_open(path.c_str(), nullptr, &store),
              PASTRI_ERR_CORRUPT_STREAM)
        << shards;
    EXPECT_LT(std::chrono::duration<double>(
                  std::chrono::steady_clock::now() - t0)
                  .count(),
              0.1)
        << shards;
  }
}

TEST_F(CompressedFileTest, ReadRangeIntoSpanMatchesVectorOverload) {
  const auto& ds = testutil::small_eri_dataset();
  const BlockSpec spec{ds.shape.num_sub_blocks(),
                       ds.shape.sub_block_size()};
  const auto stream = compress(ds.values, spec, Params{});
  const std::size_t bs = spec.block_size();
  const std::size_t n = ds.num_blocks;
  for (const int threads : {1, 0}) {
    const BlockReader reader(stream, threads);
    const std::pair<std::size_t, std::size_t> ranges[] = {
        {0, 0}, {0, 1}, {7, 40}, {n - 1, 1}, {0, n}};
    for (const auto& [first, count] : ranges) {
      const auto want = reader.read_range(first, count);
      // Poison the destination: every value must come from the decode.
      std::vector<double> got(count * bs, std::nan(""));
      reader.read_range(first, count, got);
      EXPECT_TRUE(std::equal(got.begin(), got.end(), want.begin(),
                             want.end(), [](double a, double b) {
                               return std::bit_cast<std::uint64_t>(a) ==
                                      std::bit_cast<std::uint64_t>(b);
                             }))
          << threads << " threads, " << first << "+" << count;
    }
    std::vector<double> out(2 * bs);
    EXPECT_THROW(reader.read_range(0, 1, out), std::invalid_argument);
    EXPECT_THROW(reader.read_range(0, 3, out), std::invalid_argument);
    EXPECT_THROW(reader.read_range(n - 1, 2, out), std::out_of_range);
    EXPECT_THROW(reader.read_range(n, 1, std::span<double>(out).first(bs)),
                 std::out_of_range);
  }
}

TEST_F(CompressedFileTest, ShardWriterBytesMatchBatchCompress) {
  // Streaming blocks into a shard must produce the exact bytes of a
  // one-shot compress of the same values, regardless of whether the
  // count is declared up-front or back-filled.
  const auto& ds = testutil::small_eri_dataset();
  const BlockSpec spec{ds.shape.num_sub_blocks(),
                       ds.shape.sub_block_size()};
  Params p;
  const auto reference = compress(ds.values, spec, p);
  for (const bool declare : {true, false}) {
    io::ShardWriter w(dir_, "one", 0, spec, p,
                      declare ? ds.num_blocks : kUnknownBlockCount);
    w.put_values(ds.values);
    EXPECT_EQ(w.blocks(), ds.num_blocks);
    EXPECT_EQ(w.finish(), reference.size());
    std::ifstream f(io::rank_file_path(dir_, "one", 0), std::ios::binary);
    std::vector<std::uint8_t> bytes(
        (std::istreambuf_iterator<char>(f)),
        std::istreambuf_iterator<char>());
    EXPECT_EQ(bytes, reference) << "declare=" << declare;
  }
}

TEST_F(CompressedFileTest, ShardedDatasetWriterMatchesBatchWriter) {
  // Blocks pushed one at a time through the streaming dataset writer
  // must produce files byte-identical to write_compressed_dataset.
  const auto& ds = testutil::small_eri_dataset();
  Params p;
  const int kShards = 5;
  io::write_compressed_dataset(ds, p, kShards, dir_, "batch");
  {
    io::ShardedDatasetWriter w(dir_, "stream", ds.label, ds.shape,
                               ds.num_blocks, p, kShards);
    for (std::size_t b = 0; b < ds.num_blocks; ++b) {
      w.put_block(ds.block(b));
    }
    EXPECT_EQ(w.blocks_written(), ds.num_blocks);
    w.finish();
  }
  for (int s = 0; s < kShards; ++s) {
    std::ifstream fa(io::rank_file_path(dir_, "batch", s),
                     std::ios::binary);
    std::ifstream fb(io::rank_file_path(dir_, "stream", s),
                     std::ios::binary);
    const std::vector<char> a((std::istreambuf_iterator<char>(fa)),
                              std::istreambuf_iterator<char>());
    const std::vector<char> b((std::istreambuf_iterator<char>(fb)),
                              std::istreambuf_iterator<char>());
    EXPECT_EQ(a, b) << "shard " << s;
  }
  const auto back = io::read_compressed_dataset(dir_, "stream");
  EXPECT_EQ(back.num_blocks, ds.num_blocks);
  EXPECT_LE(max_abs_diff(ds.values, back.values),
            p.error_bound * (1 + 1e-12));
}

TEST_F(CompressedFileTest, ShardedDatasetWriterEnforcesDeclaredCount) {
  const auto& ds = testutil::small_eri_dataset();
  Params p;
  {
    io::ShardedDatasetWriter w(dir_, "over", ds.label, ds.shape,
                               2, p, 1);
    w.put_block(ds.block(0));
    w.put_block(ds.block(1));
    EXPECT_THROW(w.put_block(ds.block(2)), std::runtime_error);
  }
  {
    io::ShardedDatasetWriter w(dir_, "under", ds.label, ds.shape,
                               3, p, 2);
    w.put_block(ds.block(0));
    EXPECT_THROW(w.finish(), std::runtime_error);
  }
}

// A pastri_tool ("TSCP") container opens through the store C API, and
// a malformed tool header is a corrupt stream, not a crash.
TEST_F(CompressedFileTest, ToolContainerOpensThroughStore) {
  const auto& ds = testutil::small_eri_dataset();
  const BlockSpec spec{ds.shape.num_sub_blocks(), ds.shape.sub_block_size()};
  Params p;
  const std::vector<std::uint8_t> stream = compress(ds.values, spec, p);
  const auto write_tool_file = [&](const std::string& name,
                                   std::size_t keep_bytes) {
    std::ostringstream os;
    io::write_tool_header(os, {ds.label, ds.shape});
    os.write(reinterpret_cast<const char*>(stream.data()),
             static_cast<std::streamsize>(stream.size()));
    const std::string bytes = os.str().substr(0, keep_bytes);
    const std::string path = dir_ + "/" + name;
    std::ofstream(path, std::ios::binary) << bytes;
    return path;
  };

  const std::string whole = write_tool_file("whole.pastri", std::string::npos);
  pastri_store* store = nullptr;
  ASSERT_EQ(pastri_store_open(whole.c_str(), nullptr, &store), PASTRI_OK);
  std::size_t num_blocks = 0, block_size = 0;
  ASSERT_EQ(pastri_store_num_blocks(store, &num_blocks), PASTRI_OK);
  ASSERT_EQ(pastri_store_block_size(store, &block_size), PASTRI_OK);
  EXPECT_EQ(num_blocks, ds.num_blocks);
  EXPECT_EQ(block_size, ds.shape.block_size());
  const BlockReader reader(stream);
  std::vector<double> out(block_size);
  for (std::size_t b : {std::size_t{0}, std::size_t{17}, num_blocks - 1}) {
    ASSERT_EQ(pastri_store_get_block(store, b, out.data(), out.size()),
              PASTRI_OK);
    EXPECT_EQ(out, reader.read_block(b)) << "block " << b;
    EXPECT_LE(max_abs_diff(out, ds.block(b)), p.error_bound);
  }
  pastri_store_close(store);

  // Cut inside the label (8 bytes of magic and length, then 3 of the
  // label).
  ASSERT_GT(ds.label.size(), 3u);
  const std::string cut = write_tool_file("cut.pastri", 8 + 3);
  EXPECT_EQ(pastri_store_open(cut.c_str(), nullptr, &store),
            PASTRI_ERR_CORRUPT_STREAM);

  // A label length over 1 MiB.
  const std::string huge = dir_ + "/huge.pastri";
  {
    std::ofstream f(huge, std::ios::binary);
    const std::uint32_t header[2] = {io::kToolMagic, (1u << 20) + 1};
    f.write(reinterpret_cast<const char*>(header), sizeof(header));
    f.write(reinterpret_cast<const char*>(stream.data()),
            static_cast<std::streamsize>(stream.size()));
  }
  EXPECT_EQ(pastri_store_open(huge.c_str(), nullptr, &store),
            PASTRI_ERR_CORRUPT_STREAM);
}

TEST_F(CompressedFileTest, MissingManifestThrows) {
  EXPECT_THROW(io::read_compressed_dataset(dir_, "nothing"),
               std::runtime_error);
}

TEST_F(CompressedFileTest, RejectsBadShardCount) {
  const auto& ds = testutil::small_eri_dataset();
  Params p;
  EXPECT_THROW(io::write_compressed_dataset(ds, p, 0, dir_, "x"),
               std::invalid_argument);
}

}  // namespace
}  // namespace pastri
