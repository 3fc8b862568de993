// Tests for the C-linkage API.
#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>

#include "core/pastri_capi.h"
#include "test_util.h"

namespace {

using pastri::BlockSpec;

TEST(CApi, ParamsInitMatchesPaperDefaults) {
  pastri_params p;
  pastri_params_init(&p);
  EXPECT_EQ(p.error_bound, 1e-10);
  EXPECT_EQ(p.bound_mode, 0);
  EXPECT_EQ(p.metric, 1);  // ER
  EXPECT_EQ(p.tree, 5);    // Tree 5
  EXPECT_NE(p.allow_sparse, 0);
  pastri_params_init(nullptr);  // must not crash
}

TEST(CApi, RoundTrip) {
  const BlockSpec spec{9, 14};
  std::vector<double> data;
  for (std::uint64_t b = 0; b < 8; ++b) {
    const auto block = pastri::testutil::noisy_pattern_block(spec, 1e-6, b);
    data.insert(data.end(), block.begin(), block.end());
  }
  pastri_params p;
  pastri_params_init(&p);

  unsigned char* stream = nullptr;
  size_t stream_size = 0;
  ASSERT_EQ(pastri_compress_buffer(data.data(), data.size(),
                                   spec.num_sub_blocks,
                                   spec.sub_block_size, &p, &stream,
                                   &stream_size),
            PASTRI_OK);
  ASSERT_NE(stream, nullptr);
  EXPECT_LT(stream_size, data.size() * sizeof(double));

  double* out = nullptr;
  size_t out_count = 0;
  ASSERT_EQ(pastri_decompress_buffer(stream, stream_size, &out,
                                     &out_count),
            PASTRI_OK);
  ASSERT_EQ(out_count, data.size());
  double max_err = 0;
  for (size_t i = 0; i < out_count; ++i) {
    max_err = std::max(max_err, std::abs(out[i] - data[i]));
  }
  EXPECT_LE(max_err, p.error_bound * (1 + 1e-12));

  pastri_free(stream);
  pastri_free(out);
}

TEST(CApi, PeekReadsHeader) {
  const auto data = pastri::testutil::random_doubles(36 * 4, -1, 1);
  pastri_params p;
  pastri_params_init(&p);
  p.error_bound = 1e-9;
  unsigned char* stream = nullptr;
  size_t stream_size = 0;
  ASSERT_EQ(pastri_compress_buffer(data.data(), data.size(), 6, 6, &p,
                                   &stream, &stream_size),
            PASTRI_OK);
  double eb = 0;
  size_t nsb = 0, sbs = 0, blocks = 0;
  ASSERT_EQ(pastri_peek(stream, stream_size, &eb, &nsb, &sbs, &blocks),
            PASTRI_OK);
  EXPECT_EQ(eb, 1e-9);
  EXPECT_EQ(nsb, 6u);
  EXPECT_EQ(sbs, 6u);
  EXPECT_EQ(blocks, 4u);
  EXPECT_EQ(pastri_peek(stream, stream_size, nullptr, nullptr, nullptr,
                        nullptr),
            PASTRI_OK);
  pastri_free(stream);
}

TEST(CApi, InvalidArgumentErrors) {
  pastri_params p;
  pastri_params_init(&p);
  unsigned char* stream = nullptr;
  size_t size = 0;
  double value = 1.0;
  EXPECT_EQ(pastri_compress_buffer(&value, 1, 0, 0, &p, &stream, &size),
            PASTRI_ERR_INVALID_ARGUMENT);
  EXPECT_NE(pastri_last_error()[0], '\0');
  EXPECT_EQ(pastri_compress_buffer(&value, 1, 1, 1, nullptr, &stream,
                                   &size),
            PASTRI_ERR_INVALID_ARGUMENT);
  // Size not a whole number of blocks:
  EXPECT_EQ(pastri_compress_buffer(&value, 1, 2, 3, &p, &stream, &size),
            PASTRI_ERR_INVALID_ARGUMENT);
  // Bad error bound:
  p.error_bound = -1.0;
  EXPECT_EQ(pastri_compress_buffer(&value, 1, 1, 1, &p, &stream, &size),
            PASTRI_ERR_INVALID_ARGUMENT);
}

TEST(CApi, CorruptStreamError) {
  const auto data = pastri::testutil::random_doubles(16, -1, 1);
  pastri_params p;
  pastri_params_init(&p);
  unsigned char* stream = nullptr;
  size_t size = 0;
  ASSERT_EQ(pastri_compress_buffer(data.data(), 16, 4, 4, &p, &stream,
                                   &size),
            PASTRI_OK);
  stream[0] ^= 0xFF;
  double* out = nullptr;
  size_t count = 0;
  EXPECT_EQ(pastri_decompress_buffer(stream, size, &out, &count),
            PASTRI_ERR_CORRUPT_STREAM);
  EXPECT_EQ(pastri_peek(stream, size, nullptr, nullptr, nullptr, nullptr),
            PASTRI_ERR_CORRUPT_STREAM);
  pastri_free(stream);
}

TEST(CApi, RandomAccessMatchesFullDecode) {
  const auto data = pastri::testutil::random_doubles(16 * 5, -1, 1, 11);
  pastri_params p;
  pastri_params_init(&p);
  unsigned char* stream = nullptr;
  size_t size = 0;
  ASSERT_EQ(pastri_compress_buffer(data.data(), data.size(), 4, 4, &p,
                                   &stream, &size),
            PASTRI_OK);
  double* full = nullptr;
  size_t full_count = 0;
  ASSERT_EQ(pastri_decompress_buffer(stream, size, &full, &full_count),
            PASTRI_OK);
  ASSERT_EQ(full_count, data.size());

  double block[16];
  for (size_t b = 0; b < 5; ++b) {
    ASSERT_EQ(pastri_decompress_block(stream, size, b, block, 16),
              PASTRI_OK);
    for (size_t i = 0; i < 16; ++i) {
      EXPECT_EQ(block[i], full[b * 16 + i]) << b;
    }
  }
  double* range = nullptr;
  size_t range_count = 0;
  ASSERT_EQ(
      pastri_decompress_range(stream, size, 1, 3, &range, &range_count),
      PASTRI_OK);
  ASSERT_EQ(range_count, 3u * 16);
  for (size_t i = 0; i < range_count; ++i) {
    EXPECT_EQ(range[i], full[16 + i]);
  }

  // Bad requests: out-of-range block / too-small buffer are argument
  // errors, not stream corruption.
  EXPECT_EQ(pastri_decompress_block(stream, size, 5, block, 16),
            PASTRI_ERR_INVALID_ARGUMENT);
  EXPECT_EQ(pastri_decompress_block(stream, size, 0, block, 15),
            PASTRI_ERR_INVALID_ARGUMENT);
  double* out = nullptr;
  size_t count = 0;
  EXPECT_EQ(pastri_decompress_range(stream, size, 4, 2, &out, &count),
            PASTRI_ERR_INVALID_ARGUMENT);
  // Corrupt tail (the index footer) surfaces as a corrupt stream.
  stream[size - 1] ^= 0xFF;
  EXPECT_EQ(pastri_decompress_block(stream, size, 0, block, 16),
            PASTRI_ERR_CORRUPT_STREAM);

  pastri_free(range);
  pastri_free(full);
  pastri_free(stream);
}

TEST(CApi, StreamWritesBatchIdenticalFile) {
  // The streaming file writer must emit the exact bytes of
  // pastri_compress_buffer over the concatenated blocks.
  const BlockSpec spec{6, 9};
  std::vector<double> data;
  for (std::uint64_t b = 0; b < 10; ++b) {
    const auto block = pastri::testutil::noisy_pattern_block(spec, 1e-6, b);
    data.insert(data.end(), block.begin(), block.end());
  }
  pastri_params p;
  pastri_params_init(&p);

  const std::string path =
      (std::filesystem::temp_directory_path() / "capi_stream.pastri")
          .string();
  pastri_stream* s = nullptr;
  ASSERT_EQ(pastri_stream_open(path.c_str(), spec.num_sub_blocks,
                               spec.sub_block_size, &p, &s),
            PASTRI_OK);
  ASSERT_NE(s, nullptr);
  const size_t bs = spec.block_size();
  for (size_t b = 0; b < 10; ++b) {
    ASSERT_EQ(pastri_stream_put_block(s, data.data() + b * bs), PASTRI_OK)
        << b;
  }
  size_t total = 0;
  ASSERT_EQ(pastri_stream_finish(s, &total), PASTRI_OK);
  // put/finish after finish are errors, close is still required.
  EXPECT_EQ(pastri_stream_put_block(s, data.data()),
            PASTRI_ERR_INVALID_ARGUMENT);
  pastri_stream_close(s);

  unsigned char* reference = nullptr;
  size_t ref_size = 0;
  ASSERT_EQ(pastri_compress_buffer(data.data(), data.size(),
                                   spec.num_sub_blocks,
                                   spec.sub_block_size, &p, &reference,
                                   &ref_size),
            PASTRI_OK);
  EXPECT_EQ(total, ref_size);
  std::ifstream f(path, std::ios::binary);
  std::vector<unsigned char> bytes((std::istreambuf_iterator<char>(f)),
                                   std::istreambuf_iterator<char>());
  EXPECT_EQ(bytes, std::vector<unsigned char>(reference,
                                              reference + ref_size));
  pastri_free(reference);
  std::error_code ec;
  std::filesystem::remove(path, ec);
}

TEST(CApi, StreamArgumentErrors) {
  pastri_params p;
  pastri_params_init(&p);
  pastri_stream* s = nullptr;
  EXPECT_EQ(pastri_stream_open(nullptr, 4, 4, &p, &s),
            PASTRI_ERR_INVALID_ARGUMENT);
  const std::string path =
      (std::filesystem::temp_directory_path() / "capi_stream_err.pastri")
          .string();
  EXPECT_EQ(pastri_stream_open(path.c_str(), 0, 0, &p, &s),
            PASTRI_ERR_INVALID_ARGUMENT);
  EXPECT_EQ(pastri_stream_open(path.c_str(), 4, 4, nullptr, &s),
            PASTRI_ERR_INVALID_ARGUMENT);
  EXPECT_EQ(pastri_stream_put_block(nullptr, nullptr),
            PASTRI_ERR_INVALID_ARGUMENT);
  EXPECT_EQ(pastri_stream_finish(nullptr, nullptr),
            PASTRI_ERR_INVALID_ARGUMENT);
  pastri_stream_close(nullptr);  // must be a no-op

  ASSERT_EQ(pastri_stream_open(path.c_str(), 4, 4, &p, &s), PASTRI_OK);
  EXPECT_EQ(pastri_stream_put_block(s, nullptr),
            PASTRI_ERR_INVALID_ARGUMENT);
  size_t total = 0;
  EXPECT_EQ(pastri_stream_finish(s, &total), PASTRI_OK);  // empty stream
  pastri_stream_close(s);
  std::error_code ec;
  std::filesystem::remove(path, ec);
}

TEST(CApi, StatusTypeAndLastErrorMessage) {
  // Every entry point returns pastri_status; failures leave a non-empty
  // thread-local message, and the original accessor stays an alias.
  const pastri_status st =
      pastri_decompress_buffer(nullptr, 0, nullptr, nullptr);
  EXPECT_EQ(st, PASTRI_ERR_INVALID_ARGUMENT);
  EXPECT_NE(pastri_last_error_message()[0], '\0');
  EXPECT_STREQ(pastri_last_error_message(), pastri_last_error());
}

TEST(CApi, StatusNames) {
  EXPECT_STREQ(pastri_status_name(PASTRI_OK), "PASTRI_OK");
  EXPECT_STREQ(pastri_status_name(PASTRI_ERR_CORRUPT_STREAM),
               "PASTRI_ERR_CORRUPT_STREAM");
  EXPECT_STREQ(pastri_status_name(static_cast<pastri_status>(-99)),
               "PASTRI_ERR_UNKNOWN");
}

/// One enum field of pastri_params set to one value.
struct EnumCase {
  const char* field;
  int pastri_params::*member;
  int value;
};

TEST(CApi, OutOfRangeEnumParamsAreInvalidArguments) {
  const auto data = pastri::testutil::random_doubles(16, -1, 1);
  const EnumCase bad[] = {
      {"bound_mode", &pastri_params::bound_mode, -1},
      {"bound_mode", &pastri_params::bound_mode, 2},
      {"bound_mode", &pastri_params::bound_mode, 7},
      {"bound_mode", &pastri_params::bound_mode, 256},  // wraps to 0 as u8
      {"metric", &pastri_params::metric, -1},
      {"metric", &pastri_params::metric, 5},
      {"metric", &pastri_params::metric, 200},
      {"tree", &pastri_params::tree, 0},
      {"tree", &pastri_params::tree, 6},
      {"tree", &pastri_params::tree, 200},
      {"num_threads", &pastri_params::num_threads, 1 << 20},  // > kMaxThreads
  };
  const std::string path =
      (std::filesystem::temp_directory_path() / "pastri_capi_enum.pastri")
          .string();
  for (const EnumCase& c : bad) {
    SCOPED_TRACE(std::string(c.field) + " = " + std::to_string(c.value));
    pastri_params p;
    pastri_params_init(&p);
    p.*c.member = c.value;
    unsigned char* stream = nullptr;
    size_t size = 0;
    EXPECT_EQ(pastri_compress_buffer(data.data(), 16, 4, 4, &p, &stream,
                                     &size),
              PASTRI_ERR_INVALID_ARGUMENT);
    EXPECT_EQ(stream, nullptr);
    EXPECT_NE(std::string(pastri_last_error_message()).find(c.field),
              std::string::npos);
    pastri_stream* s = nullptr;
    EXPECT_EQ(pastri_stream_open(path.c_str(), 4, 4, &p, &s),
              PASTRI_ERR_INVALID_ARGUMENT);
    EXPECT_EQ(s, nullptr);
  }
  std::error_code ec;
  std::filesystem::remove(path, ec);

  // The range ends themselves are valid.
  const EnumCase good[] = {
      {"bound_mode", &pastri_params::bound_mode, 1},
      {"metric", &pastri_params::metric, 0},
      {"metric", &pastri_params::metric, 4},
      {"tree", &pastri_params::tree, 1},
      {"tree", &pastri_params::tree, 5},
  };
  for (const EnumCase& c : good) {
    SCOPED_TRACE(std::string(c.field) + " = " + std::to_string(c.value));
    pastri_params p;
    pastri_params_init(&p);
    p.*c.member = c.value;
    unsigned char* stream = nullptr;
    size_t size = 0;
    EXPECT_EQ(pastri_compress_buffer(data.data(), 16, 4, 4, &p, &stream,
                                     &size),
              PASTRI_OK);
    pastri_free(stream);
  }
}

TEST(CApi, BadHeaderBytesAreCorruptStreams) {
  // Header byte offsets: magic 0..3, version 4, error bound 5..12, then
  // one byte each for bound_mode, metric and tree.
  const auto data = pastri::testutil::random_doubles(16 * 3, -1, 1);
  pastri_params p;
  pastri_params_init(&p);
  unsigned char* valid = nullptr;
  size_t size = 0;
  ASSERT_EQ(pastri_compress_buffer(data.data(), data.size(), 4, 4, &p,
                                   &valid, &size),
            PASTRI_OK);
  struct ByteCase {
    const char* field;
    std::size_t offset;
    unsigned char value;
  };
  const ByteCase bad[] = {
      {"version", 4, 0},     {"version", 4, 1},   {"version", 4, 4},
      {"version", 4, 5},     {"version", 4, 255}, {"bound_mode", 13, 2},
      {"bound_mode", 13, 9}, {"metric", 14, 5},   {"metric", 14, 77},
      {"tree", 15, 0},       {"tree", 15, 6},     {"tree", 15, 200},
  };
  const std::string path =
      (std::filesystem::temp_directory_path() / "pastri_capi_header.pastri")
          .string();
  for (const ByteCase& c : bad) {
    SCOPED_TRACE(std::string(c.field) + " byte = " +
                 std::to_string(c.value));
    std::vector<unsigned char> stream(valid, valid + size);
    stream[c.offset] = c.value;
    EXPECT_EQ(pastri_peek(stream.data(), stream.size(), nullptr, nullptr,
                          nullptr, nullptr),
              PASTRI_ERR_CORRUPT_STREAM);
    double* out = nullptr;
    size_t count = 0;
    EXPECT_EQ(pastri_decompress_buffer(stream.data(), stream.size(), &out,
                                       &count),
              PASTRI_ERR_CORRUPT_STREAM);
    EXPECT_EQ(out, nullptr);
    double block[16];
    EXPECT_EQ(pastri_decompress_block(stream.data(), stream.size(), 0,
                                      block, 16),
              PASTRI_ERR_CORRUPT_STREAM);
    EXPECT_EQ(pastri_decompress_range(stream.data(), stream.size(), 0, 3,
                                      &out, &count),
              PASTRI_ERR_CORRUPT_STREAM);
    std::ofstream(path, std::ios::binary)
        .write(reinterpret_cast<const char*>(stream.data()),
               static_cast<std::streamsize>(stream.size()));
    pastri_store* store = nullptr;
    EXPECT_EQ(pastri_store_open(path.c_str(), nullptr, &store),
              PASTRI_ERR_CORRUPT_STREAM);
    EXPECT_EQ(store, nullptr);
  }
  std::error_code ec;
  std::filesystem::remove(path, ec);
  pastri_free(valid);
}

TEST(CApi, StreamOpenToBadPathIsIoError) {
  pastri_params p;
  pastri_params_init(&p);
  pastri_stream* s = nullptr;
  EXPECT_EQ(pastri_stream_open("/nonexistent-dir/x/y.pastri", 4, 4, &p, &s),
            PASTRI_ERR_IO);
  EXPECT_NE(pastri_last_error_message()[0], '\0');
}

TEST(CApi, StreamWriteFailureIsIo) {
  // A full disk is a file-level fault, as a path that cannot be opened
  // is: both the failing put and the finish after it answer IO.
  if (!std::filesystem::exists("/dev/full")) {
    GTEST_SKIP() << "no /dev/full";
  }
  pastri_params p;
  pastri_params_init(&p);
  const BlockSpec spec{4, 16};
  pastri_stream* s = nullptr;
  ASSERT_EQ(pastri_stream_open("/dev/full", spec.num_sub_blocks,
                               spec.sub_block_size, &p, &s),
            PASTRI_OK);
  pastri_status put = PASTRI_OK;
  for (std::uint64_t b = 0; b < 4096 && put == PASTRI_OK; ++b) {
    const auto block = pastri::testutil::noisy_pattern_block(spec, 1e-6, b);
    put = pastri_stream_put_block(s, block.data());
  }
  EXPECT_EQ(put, PASTRI_ERR_IO);
  EXPECT_NE(pastri_last_error_message()[0], '\0');
  size_t total = 0;
  EXPECT_EQ(pastri_stream_finish(s, &total), PASTRI_ERR_IO);
  pastri_stream_close(s);
}

TEST(CApi, MetricsSnapshotJson) {
  EXPECT_EQ(pastri_metrics_snapshot_json(nullptr),
            PASTRI_ERR_INVALID_ARGUMENT);

  // Run a tiny compress so codec counters are nonzero, then snapshot.
  const auto data = pastri::testutil::random_doubles(16, -1, 1);
  pastri_params p;
  pastri_params_init(&p);
  unsigned char* stream = nullptr;
  size_t size = 0;
  ASSERT_EQ(pastri_compress_buffer(data.data(), 16, 4, 4, &p, &stream,
                                   &size),
            PASTRI_OK);
  char* json = nullptr;
  ASSERT_EQ(pastri_metrics_snapshot_json(&json), PASTRI_OK);
  ASSERT_NE(json, nullptr);
  const std::string text(json);
  EXPECT_NE(text.find("\"counters\""), std::string::npos);
  EXPECT_NE(text.find("pastri_core_blocks_encoded_total"),
            std::string::npos);
  EXPECT_NE(text.find("\"histograms\""), std::string::npos);
  pastri_free(json);
  pastri_free(stream);

  // Disable / re-enable and reset are safe to call at any time.
  pastri_metrics_enable(0);
  pastri_metrics_enable(1);
  pastri_metrics_reset();
  ASSERT_EQ(pastri_metrics_snapshot_json(&json), PASTRI_OK);
  pastri_free(json);
}

TEST(CApi, EmptyInput) {
  pastri_params p;
  pastri_params_init(&p);
  unsigned char* stream = nullptr;
  size_t size = 0;
  ASSERT_EQ(pastri_compress_buffer(nullptr, 0, 4, 4, &p, &stream, &size),
            PASTRI_OK);
  double* out = nullptr;
  size_t count = 123;
  ASSERT_EQ(pastri_decompress_buffer(stream, size, &out, &count),
            PASTRI_OK);
  EXPECT_EQ(count, 0u);
  pastri_free(stream);
  pastri_free(out);
}

}  // namespace
