// Failure-injection tests: every decompressor must reject corrupt or
// truncated streams with an exception (never crash, hang, or read out of
// bounds).  Random bit flips and truncations are applied to valid
// streams of every codec.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <random>

#include "compressors/lossless/fpc.h"
#include "compressors/lossless/lzss.h"
#include "compressors/rpp/rpp.h"
#include "compressors/sz/sz.h"
#include "compressors/zfp/zfp.h"
#include "core/pastri.h"
#include "core/pastri_capi.h"
#include "core/stream.h"
#include "io/compressed_file.h"
#include "io/file_per_process.h"
#include "test_util.h"

namespace pastri {
namespace {

/// Run `decode` over mutated copies of `stream`; success or a thrown
/// std::exception are both acceptable, anything else aborts the test
/// process (caught by the harness as a crash).
template <typename Decode>
void fuzz_stream(const std::vector<std::uint8_t>& stream, Decode&& decode,
                 int trials, std::uint64_t seed) {
  std::mt19937_64 gen(seed);
  for (int t = 0; t < trials; ++t) {
    std::vector<std::uint8_t> mutated = stream;
    const int kind = static_cast<int>(gen() % 3);
    if (kind == 0 && !mutated.empty()) {
      // Flip 1-8 random bits.
      const int flips = 1 + static_cast<int>(gen() % 8);
      for (int f = 0; f < flips; ++f) {
        mutated[gen() % mutated.size()] ^=
            static_cast<std::uint8_t>(1u << (gen() % 8));
      }
    } else if (kind == 1 && mutated.size() > 4) {
      mutated.resize(4 + gen() % (mutated.size() - 4));  // truncate
    } else {
      // Append garbage.
      for (int k = 0; k < 16; ++k) {
        mutated.push_back(static_cast<std::uint8_t>(gen()));
      }
    }
    try {
      (void)decode(mutated);
    } catch (const std::exception&) {
      // rejected cleanly
    }
  }
}

/// ASan's throwing operator new aborts the process (instead of raising
/// std::bad_alloc) once an allocation exceeds the sanitizer allocator
/// limit, so the PaSTRI harnesses mimic libFuzzer's malloc_limit: a
/// mutant whose *declared* decoded size is absurd is skipped.  In plain
/// builds such streams throw std::bad_alloc, which fuzz_stream already
/// accepts as a clean rejection.
constexpr std::size_t kMaxDecodedDoubles = std::size_t{1} << 24;

bool pastri_decode_in_budget(std::span<const std::uint8_t> s) {
  try {
    const StreamInfo info = peek_info(s);
    const std::size_t bs = info.spec.block_size();
    return bs == 0 || info.num_blocks <= kMaxDecodedDoubles / bs;
  } catch (const std::exception&) {
    return true;  // corrupt header: decoding throws before allocating
  }
}

std::vector<double> fuzz_payload() {
  const BlockSpec spec{12, 12};
  std::vector<double> data;
  for (std::uint64_t b = 0; b < 8; ++b) {
    auto block = testutil::noisy_pattern_block(spec, 1e-6, b);
    data.insert(data.end(), block.begin(), block.end());
  }
  return data;
}

TEST(Fuzz, PastriDecompressorNeverCrashes) {
  const auto data = fuzz_payload();
  Params p;
  const auto stream = compress(data, BlockSpec{12, 12}, p);
  fuzz_stream(
      stream,
      [](const auto& s) {
        if (!pastri_decode_in_budget(s)) return std::vector<double>{};
        return decompress(s);
      },
      300, 1);
}

TEST(Fuzz, PastriRandomAccessNeverCrashes) {
  const auto data = fuzz_payload();
  Params p;
  const auto stream = compress(data, BlockSpec{12, 12}, p);
  fuzz_stream(
      stream,
      [](const auto& s) {
        std::vector<double> out;
        if (!pastri_decode_in_budget(s)) return out;
        const BlockReader reader(s);
        for (std::size_t b = 0; b < reader.num_blocks(); ++b) {
          const auto block = reader.read_block(b);
          out.insert(out.end(), block.begin(), block.end());
        }
        return out;
      },
      300, 7);
  fuzz_stream(
      stream,
      [](const auto& s) {
        if (!pastri_decode_in_budget(s)) return std::vector<double>{};
        return BlockReader(s).read_block(3);
      },
      300, 8);
}

TEST(Fuzz, PastriStreamConsumerNeverCrashes) {
  // The chunked decoder walks the payloads through a rolling buffer;
  // mutations must surface as exceptions regardless of where the damage
  // lands relative to chunk boundaries.  Small chunk sizes force every
  // refill/compact path.
  const auto data = fuzz_payload();
  Params p;
  const auto stream = compress(data, BlockSpec{12, 12}, p);
  for (const std::size_t chunk : {std::size_t{1}, std::size_t{37},
                                  std::size_t{4096}}) {
    fuzz_stream(
        stream,
        [chunk](const auto& s) {
          std::vector<double> out;
          if (!pastri_decode_in_budget(s)) return out;
          SpanSource src(s);
          StreamConsumer c(src,
                           StreamConsumerOptions{.chunk_bytes = chunk});
          std::vector<double> buf(c.info().spec.block_size());
          while (c.read_blocks(buf) > 0) {
            out.insert(out.end(), buf.begin(), buf.end());
          }
          return out;
        },
        200, 11 + static_cast<std::uint64_t>(chunk));
  }
}

TEST(Fuzz, PastriStreamConsumerTruncationInsideChunk) {
  // Hard truncations at every byte position near payload boundaries:
  // the consumer must either finish cleanly (truncation past the last
  // needed byte) or throw -- never hang waiting for bytes or read OOB.
  const auto data = fuzz_payload();
  Params p;
  const auto stream = compress(data, BlockSpec{12, 12}, p);
  for (std::size_t cut = 0; cut <= stream.size(); cut += 7) {
    std::vector<std::uint8_t> clipped(stream.begin(),
                                      stream.begin() + cut);
    try {
      SpanSource src(clipped);
      StreamConsumer c(src, StreamConsumerOptions{.chunk_bytes = 64});
      std::vector<double> buf(c.info().spec.block_size());
      while (c.read_blocks(buf) > 0) {
      }
    } catch (const std::exception&) {
      // rejected cleanly
    }
  }
}

TEST(Fuzz, ShardIsCompleteCorruptFooterNeverCrashes) {
  // shard_is_complete, the dump's resume probe, parses the shard's
  // footer and offset table from disk: a corrupt or clipped tail must
  // never crash it, and a truncated shard is never complete.
  const std::string dir = testutil::per_test_dir("pastri_fuzz");
  const auto data = fuzz_payload();
  const BlockSpec spec{12, 12};
  const std::size_t blocks = data.size() / spec.block_size();
  const auto stream = compress(data, spec, Params{});
  const std::string path = io::rank_file_path(dir, "shard", 0);
  const auto write_shard = [&](const std::vector<std::uint8_t>& bytes) {
    std::ofstream f(path, std::ios::binary | std::ios::trunc);
    f.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  };
  write_shard(stream);
  ASSERT_TRUE(io::shard_is_complete(dir, "shard", 0, blocks));
  std::mt19937_64 gen(21);
  for (int t = 0; t < 200; ++t) {
    std::vector<std::uint8_t> mutated = stream;
    const std::size_t tail = std::min<std::size_t>(40, mutated.size());
    const bool truncated = t % 2 != 0;
    if (!truncated) {
      const int flips = 1 + static_cast<int>(gen() % 6);
      for (int f = 0; f < flips; ++f) {
        const std::size_t at = mutated.size() - 1 - gen() % tail;
        mutated[at] ^= static_cast<std::uint8_t>(1u << (gen() % 8));
      }
    } else {
      mutated.resize(mutated.size() - 1 - gen() % tail);
    }
    write_shard(mutated);
    const bool complete = io::shard_is_complete(dir, "shard", 0, blocks);
    if (truncated) {
      EXPECT_FALSE(complete) << t;
    }
  }
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}

TEST(Fuzz, PastriIndexFooterNeverCrashes) {
  // Target the index footer and offset table specifically: mutate only
  // the last 32 bytes (footer is 20, table a few more) plus hard
  // truncations into them.  Decoders must throw, never read OOB.
  const auto data = fuzz_payload();
  Params p;
  const auto stream = compress(data, BlockSpec{12, 12}, p);
  std::mt19937_64 gen(9);
  for (int t = 0; t < 400; ++t) {
    std::vector<std::uint8_t> mutated = stream;
    if (t % 2 == 0) {
      const std::size_t tail = std::min<std::size_t>(32, mutated.size());
      const int flips = 1 + static_cast<int>(gen() % 6);
      for (int f = 0; f < flips; ++f) {
        const std::size_t at = mutated.size() - 1 - gen() % tail;
        mutated[at] ^= static_cast<std::uint8_t>(1u << (gen() % 8));
      }
    } else {
      mutated.resize(mutated.size() - 1 - gen() % 28);  // clip the tail
    }
    try {
      const BlockReader reader(mutated);
      for (std::size_t b = 0; b < reader.num_blocks(); ++b) {
        (void)reader.read_block(b);
      }
    } catch (const std::exception&) {
      // rejected cleanly
    }
  }
}

TEST(Fuzz, CApiReturnsStatusCodesNeverAborts) {
  // The C boundary must translate every failure on a mutated stream
  // into a pastri_status -- an exception escaping through extern "C"
  // would std::terminate (and a sanitizer build would flag any OOB
  // read long before that).
  const auto data = fuzz_payload();
  Params p;
  const auto stream = compress(data, BlockSpec{12, 12}, p);
  const auto is_status = [](pastri_status st) {
    return st == PASTRI_OK || st == PASTRI_ERR_INVALID_ARGUMENT ||
           st == PASTRI_ERR_CORRUPT_STREAM || st == PASTRI_ERR_INTERNAL ||
           st == PASTRI_ERR_IO;
  };
  fuzz_stream(
      stream,
      [&](const auto& s) {
        if (!pastri_decode_in_budget(s)) return 0;
        double* out = nullptr;
        size_t out_count = 0;
        const pastri_status st =
            pastri_decompress_buffer(s.data(), s.size(), &out, &out_count);
        EXPECT_TRUE(is_status(st));
        if (st != PASTRI_OK) {
          EXPECT_NE(pastri_last_error_message()[0], '\0');
        }
        pastri_free(out);
        return 0;
      },
      300, 31);
  fuzz_stream(
      stream,
      [&](const auto& s) {
        if (!pastri_decode_in_budget(s)) return 0;
        double out[144];
        EXPECT_TRUE(is_status(
            pastri_decompress_block(s.data(), s.size(), 3, out, 144)));
        return 0;
      },
      300, 32);
  fuzz_stream(
      stream,
      [&](const auto& s) {
        double eb = 0;
        size_t nsb = 0, sbs = 0, nb = 0;
        EXPECT_TRUE(is_status(
            pastri_peek(s.data(), s.size(), &eb, &nsb, &sbs, &nb)));
        return 0;
      },
      300, 33);
}

TEST(Fuzz, EveryHeaderEnumByteValueIsCheckedOnDecode) {
  // Sweep all 256 values of the version, bound_mode, metric and tree
  // header bytes: exactly the valid ones (version 2/3, mode 0..1, metric
  // 0..4, tree 1..5) parse; every other value throws std::runtime_error
  // from the C++ reader and is PASTRI_ERR_CORRUPT_STREAM at the C
  // boundary, never an internal error.
  const auto data = fuzz_payload();
  const auto stream = compress(data, BlockSpec{12, 12}, Params{});
  struct Field {
    std::size_t offset;
    int lo, hi;  // valid values
  };
  const Field fields[] = {{4, 2, 3}, {13, 0, 1}, {14, 0, 4}, {15, 1, 5}};
  for (const Field& f : fields) {
    for (int v = 0; v < 256; ++v) {
      SCOPED_TRACE("byte " + std::to_string(f.offset) + " = " +
                   std::to_string(v));
      std::vector<std::uint8_t> mutated = stream;
      mutated[f.offset] = static_cast<std::uint8_t>(v);
      if (v >= f.lo && v <= f.hi) {
        EXPECT_NO_THROW((void)peek_info(mutated));
        continue;
      }
      EXPECT_THROW((void)peek_info(mutated), std::runtime_error);
      EXPECT_THROW((void)BlockReader(mutated), std::runtime_error);
      double* out = nullptr;
      size_t count = 0;
      EXPECT_EQ(pastri_decompress_buffer(mutated.data(), mutated.size(),
                                         &out, &count),
                PASTRI_ERR_CORRUPT_STREAM);
      EXPECT_EQ(out, nullptr);
    }
  }
}

TEST(Fuzz, SzDecompressorNeverCrashes) {
  const auto data = fuzz_payload();
  baselines::SzParams p;
  const auto stream = baselines::sz_compress(data, p);
  fuzz_stream(
      stream, [](const auto& s) { return baselines::sz_decompress(s); },
      200, 2);
}

TEST(Fuzz, ZfpDecompressorNeverCrashes) {
  const auto data = fuzz_payload();
  baselines::ZfpParams p;
  const auto stream = baselines::zfp_compress(data, p);
  fuzz_stream(
      stream, [](const auto& s) { return baselines::zfp_decompress(s); },
      200, 3);
}

TEST(Fuzz, LzssDecompressorNeverCrashes) {
  const auto data = fuzz_payload();
  std::span<const std::uint8_t> bytes(
      reinterpret_cast<const std::uint8_t*>(data.data()),
      data.size() * sizeof(double));
  const auto stream = baselines::lzss_compress(bytes);
  fuzz_stream(
      stream, [](const auto& s) { return baselines::lzss_decompress(s); },
      200, 4);
}

TEST(Fuzz, FpcDecompressorNeverCrashes) {
  const auto data = fuzz_payload();
  const auto stream = baselines::fpc_compress(data);
  fuzz_stream(
      stream, [](const auto& s) { return baselines::fpc_decompress(s); },
      200, 5);
}

TEST(Fuzz, RppDecompressorNeverCrashes) {
  const auto data = fuzz_payload();
  const auto stream = baselines::rpp_compress(data, 1e-10);
  fuzz_stream(
      stream, [](const auto& s) { return baselines::rpp_decompress(s); },
      200, 6);
}

}  // namespace
}  // namespace pastri
