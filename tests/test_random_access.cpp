// Random-access (indexed container) tests: block-at and range decodes
// must agree exactly with the full decompressor on mixed zero / sparse /
// dense inputs, legacy unindexed streams must keep decoding bit-exactly
// through the scan fallback, and corrupt or truncated index footers must
// be rejected with an exception.
#include <gtest/gtest.h>

#include <cstring>

#include "core/pastri.h"
#include "test_util.h"

namespace pastri {
namespace {

/// Blocks of deliberately mixed character: all-zero, near-zero sparse
/// (a few values above the bound), and dense noisy patterns, so every
/// per-block representation (zero/sparse/dense) appears in one stream.
std::vector<double> mixed_blocks(const BlockSpec& spec,
                                 std::size_t num_blocks) {
  std::vector<double> data;
  for (std::size_t b = 0; b < num_blocks; ++b) {
    std::vector<double> block(spec.block_size(), 0.0);
    switch (b % 3) {
      case 0:
        break;  // zero block
      case 1:  // sparse: a handful of isolated significant values
        for (std::size_t i = 0; i < block.size(); i += 17) {
          block[i] = 1e-6 * static_cast<double>(i + b + 1);
        }
        break;
      default:
        block = testutil::noisy_pattern_block(spec, 1e-7, b);
        break;
    }
    data.insert(data.end(), block.begin(), block.end());
  }
  return data;
}

/// Rewrite an indexed (v3) stream as its legacy unindexed (v2) twin:
/// drop the offset table + footer and patch the version byte.  This is
/// byte-identical to what the v2 compressor used to emit.
std::vector<std::uint8_t> to_legacy(std::vector<std::uint8_t> stream) {
  EXPECT_GE(stream.size(), 20u);
  std::uint64_t index_offset = 0;
  std::memcpy(&index_offset, stream.data() + stream.size() - 20, 8);
  stream.resize(index_offset);
  stream[4] = 2;  // kStreamVersionUnindexed
  return stream;
}

TEST(RandomAccess, BlockAtMatchesFullDecompress) {
  const BlockSpec spec{8, 8};
  const std::size_t nb = 12;
  const auto data = mixed_blocks(spec, nb);
  Params p;
  const auto stream = compress(data, spec, p);
  const auto full = decompress(stream);
  const std::size_t bs = spec.block_size();
  for (std::size_t b = 0; b < nb; ++b) {
    const auto one = BlockReader(stream).read_block(b);
    ASSERT_EQ(one.size(), bs);
    for (std::size_t i = 0; i < bs; ++i) {
      EXPECT_EQ(one[i], full[b * bs + i]) << "block " << b << " elem " << i;
    }
  }
}

TEST(RandomAccess, RangeMatchesFullDecompress) {
  const BlockSpec spec{6, 10};
  const std::size_t nb = 15;
  const auto data = mixed_blocks(spec, nb);
  Params p;
  const auto stream = compress(data, spec, p);
  const auto full = decompress(stream);
  const std::size_t bs = spec.block_size();
  // Several ranges, including empty, single, interior, and the whole.
  const std::pair<std::size_t, std::size_t> ranges[] = {
      {0, 0}, {0, 1}, {4, 7}, {14, 1}, {0, nb}};
  for (const auto& [first, count] : ranges) {
    const auto part = BlockReader(stream).read_range(first, count);
    ASSERT_EQ(part.size(), count * bs);
    for (std::size_t i = 0; i < part.size(); ++i) {
      EXPECT_EQ(part[i], full[first * bs + i]);
    }
  }
}

TEST(RandomAccess, BlockReaderReusableAndOutOfOrder) {
  const BlockSpec spec{8, 8};
  const std::size_t nb = 9;
  const auto data = mixed_blocks(spec, nb);
  Params p;
  const auto stream = compress(data, spec, p);
  const auto full = decompress(stream);
  const BlockReader reader(stream);
  EXPECT_EQ(reader.num_blocks(), nb);
  EXPECT_EQ(reader.info().version, kStreamVersionIndexed);
  const std::size_t bs = spec.block_size();
  const std::size_t order[] = {8, 0, 4, 4, 7, 1};
  for (std::size_t b : order) {
    const auto one = reader.read_block(b);
    for (std::size_t i = 0; i < bs; ++i) {
      EXPECT_EQ(one[i], full[b * bs + i]);
    }
  }
}

TEST(RandomAccess, LegacyStreamDecodesBitExactly) {
  const BlockSpec spec{8, 8};
  const std::size_t nb = 10;
  const auto data = mixed_blocks(spec, nb);
  Params p;
  const auto v3 = compress(data, spec, p);
  const auto v2 = to_legacy(v3);
  ASSERT_LT(v2.size(), v3.size());
  EXPECT_EQ(peek_info(v2).version, kStreamVersionUnindexed);
  // Full decode and every random-access path agree bit-exactly across
  // the two container versions (same payload bytes, different framing).
  const auto full3 = decompress(v3);
  const auto full2 = decompress(v2);
  EXPECT_EQ(full2, full3);
  const BlockReader r2(v2);
  const BlockReader r3(v3);
  for (std::size_t b = 0; b < nb; ++b) {
    EXPECT_EQ(r2.read_block(b), r3.read_block(b));
  }
  EXPECT_EQ(r2.read_range(3, 5), r3.read_range(3, 5));
  // And the scan-built index equals the parsed one extent-for-extent.
  const BlockIndex& i2 = r2.index();
  const BlockIndex& i3 = r3.index();
  ASSERT_EQ(i2.num_blocks(), i3.num_blocks());
  for (std::size_t b = 0; b < nb; ++b) {
    EXPECT_EQ(i2.extent(b), i3.extent(b));
  }
}

TEST(RandomAccess, TruncatedFooterThrows) {
  const BlockSpec spec{8, 8};
  const auto data = mixed_blocks(spec, 6);
  Params p;
  auto stream = compress(data, spec, p);
  stream.resize(stream.size() - 1);  // clip into the footer
  EXPECT_THROW(BlockReader reader(stream), std::exception);
  EXPECT_THROW(BlockReader(stream).read_block(0), std::exception);
}

TEST(RandomAccess, CorruptFooterMagicThrows) {
  const BlockSpec spec{8, 8};
  const auto data = mixed_blocks(spec, 6);
  Params p;
  auto stream = compress(data, spec, p);
  stream.back() ^= 0xFF;  // last magic byte
  EXPECT_THROW(BlockReader reader(stream), std::exception);
}

TEST(RandomAccess, FooterBlockCountMismatchThrows) {
  const BlockSpec spec{8, 8};
  const auto data = mixed_blocks(spec, 6);
  Params p;
  auto stream = compress(data, spec, p);
  stream[stream.size() - 12] ^= 1;  // footer num_blocks low byte
  EXPECT_THROW(BlockReader reader(stream), std::exception);
}

TEST(RandomAccess, CorruptOffsetTableThrows) {
  const BlockSpec spec{8, 8};
  const auto data = mixed_blocks(spec, 6);
  Params p;
  auto stream = compress(data, spec, p);
  std::uint64_t index_offset = 0;
  std::memcpy(&index_offset, stream.data() + stream.size() - 20, 8);
  // Changing any length varint breaks the exact tiling of the payload
  // section, which parse() must detect.
  stream[index_offset] ^= 1;
  EXPECT_THROW(BlockReader reader(stream), std::exception);
}

TEST(RandomAccess, OutOfRangeRequestsThrow) {
  const BlockSpec spec{8, 8};
  const auto data = mixed_blocks(spec, 4);
  Params p;
  const auto stream = compress(data, spec, p);
  const BlockReader reader(stream);
  EXPECT_THROW(reader.read_block(4), std::out_of_range);
  EXPECT_THROW(reader.read_range(3, 2), std::out_of_range);
  EXPECT_THROW(reader.read_range(0, SIZE_MAX), std::out_of_range);
  std::vector<double> wrong(spec.block_size() + 1);
  EXPECT_THROW(reader.read_block(0, wrong), std::invalid_argument);
}

TEST(RandomAccess, EmptyStreamHasEmptyIndex) {
  const BlockSpec spec{8, 8};
  Params p;
  const auto stream = compress(std::vector<double>{}, spec, p);
  const BlockReader reader(stream);
  EXPECT_EQ(reader.num_blocks(), 0u);
  EXPECT_TRUE(reader.index().empty());
  EXPECT_TRUE(reader.read_range(0, 0).empty());
  EXPECT_THROW(reader.read_block(0), std::out_of_range);
}

TEST(RandomAccess, IndexOverheadIsSmall) {
  // The ISSUE budget: the offset table + footer must cost < 0.5 % on
  // realistically sized blocks (36x36 doubles, the paper's GAMESS
  // (dd|dd) shape).
  const BlockSpec spec{36, 36};
  const auto data = mixed_blocks(spec, 50);
  Params p;
  const auto v3 = compress(data, spec, p);
  const auto v2 = to_legacy(v3);
  const double overhead =
      static_cast<double>(v3.size() - v2.size()) /
      static_cast<double>(v2.size());
  EXPECT_LT(overhead, 0.005);
}

}  // namespace
}  // namespace pastri
