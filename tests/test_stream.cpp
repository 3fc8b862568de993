// Tests for the streaming (block-at-a-time) API and its interoperability
// with the one-shot compress/decompress functions.
#include <gtest/gtest.h>

#include <cstring>
#include <sstream>

#include "core/stream.h"
#include "test_util.h"

namespace pastri {
namespace {

using testutil::max_abs_diff;

TEST(Stream, InteropStreamingCompressOneShotDecompress) {
  const BlockSpec spec{9, 11};
  Params p;
  VectorSink sink;
  StreamWriter writer(sink, spec, p);
  std::vector<double> all;
  for (std::uint64_t b = 0; b < 20; ++b) {
    const auto block = testutil::noisy_pattern_block(spec, 1e-6, b);
    writer.put_block(block);
    all.insert(all.end(), block.begin(), block.end());
  }
  EXPECT_EQ(writer.blocks_appended(), 20u);
  writer.finish();
  const auto back = decompress(sink.bytes());
  EXPECT_LE(max_abs_diff(all, back), p.error_bound * (1 + 1e-12));
}

TEST(Stream, InteropOneShotCompressStreamingDecompress) {
  const BlockSpec spec{6, 16};
  Params p;
  std::vector<double> all;
  for (std::uint64_t b = 0; b < 15; ++b) {
    const auto block = testutil::noisy_pattern_block(spec, 1e-5, b + 100);
    all.insert(all.end(), block.begin(), block.end());
  }
  const auto stream = compress(all, spec, p);

  SpanSource source(stream);
  StreamConsumer consumer(source);
  EXPECT_EQ(consumer.info().num_blocks, 15u);
  EXPECT_EQ(consumer.info().spec, spec);
  std::vector<double> block(spec.block_size());
  std::size_t b = 0;
  while (consumer.read_blocks(block) == 1) {
    EXPECT_LE(max_abs_diff(
                  std::span<const double>(all).subspan(
                      b * spec.block_size(), spec.block_size()),
                  block),
              p.error_bound * (1 + 1e-12))
        << "block " << b;
    ++b;
  }
  EXPECT_EQ(b, 15u);
  EXPECT_EQ(consumer.blocks_remaining(), 0u);
  EXPECT_EQ(consumer.read_blocks(block), 0u);
}

TEST(Stream, IdenticalBytesToOneShot) {
  const BlockSpec spec{8, 8};
  Params p;
  std::vector<double> all;
  VectorSink sink;
  StreamWriter writer(sink, spec, p);
  for (std::uint64_t b = 0; b < 10; ++b) {
    const auto block = testutil::noisy_pattern_block(spec, 1e-7, b + 7);
    writer.put_block(block);
    all.insert(all.end(), block.begin(), block.end());
  }
  writer.finish();
  EXPECT_EQ(sink.bytes(), compress(all, spec, p));
}

TEST(Stream, EmptyStream) {
  const BlockSpec spec{4, 4};
  Params p;
  VectorSink sink;
  StreamWriter writer(sink, spec, p);
  writer.finish();
  SpanSource source(sink.bytes());
  StreamConsumer consumer(source);
  EXPECT_EQ(consumer.info().num_blocks, 0u);
  std::vector<double> block(16);
  EXPECT_EQ(consumer.read_blocks(block), 0u);
}

TEST(Stream, RejectsWrongBlockSize) {
  const BlockSpec spec{4, 4};
  Params p;
  VectorSink sink;
  StreamWriter writer(sink, spec, p);
  std::vector<double> wrong(15, 1.0);
  EXPECT_THROW(writer.put_block(wrong), std::invalid_argument);

  // A buffer shorter than one block decodes nothing and consumes nothing.
  std::vector<double> data(32, 1.0);
  const auto stream = compress(data, spec, p);
  SpanSource source(stream);
  StreamConsumer consumer(source);
  std::vector<double> small(8);
  EXPECT_EQ(consumer.read_blocks(small), 0u);
  EXPECT_EQ(consumer.blocks_remaining(), 2u);
}

TEST(Stream, TruncatedPayloadThrows) {
  const BlockSpec spec{8, 8};
  Params p;
  std::vector<double> data(64 * 3, 0.5);
  auto stream = compress(data, spec, p);
  // Cut into the payload section itself (the global header is 32 bytes,
  // so 34 bytes leaves a length varint with its payload missing) -- just
  // clipping the tail would only lose the v3 index, which the sequential
  // reader does not need.
  stream.resize(34);
  SpanSource source(stream);
  StreamConsumer consumer(source);
  std::vector<double> block(64);
  EXPECT_THROW(
      {
        while (consumer.read_blocks(block) == 1) {
        }
      },
      std::exception);
}

TEST(Stream, StatsAccumulate) {
  const BlockSpec spec{6, 6};
  Params p;
  VectorSink sink;
  StreamWriter writer(sink, spec, p);
  for (std::uint64_t b = 0; b < 5; ++b) {
    writer.put_block(testutil::noisy_pattern_block(spec, 1e-6, b));
  }
  const std::size_t size = writer.finish();
  EXPECT_EQ(writer.stats().num_blocks, 5u);
  EXPECT_EQ(writer.stats().input_bytes, 5u * 36 * 8);
  EXPECT_EQ(writer.stats().output_bytes, size);
  EXPECT_EQ(sink.bytes().size(), size);
}

// ---- StreamWriter / StreamConsumer (bounded-memory pipeline) ------------

std::vector<double> concat_blocks(const BlockSpec& spec, std::size_t n,
                                  std::uint64_t seed = 0) {
  std::vector<double> all;
  for (std::uint64_t b = 0; b < n; ++b) {
    const auto block = testutil::noisy_pattern_block(spec, 1e-6, seed + b);
    all.insert(all.end(), block.begin(), block.end());
  }
  return all;
}

/// Strip the v3 index + footer and relabel as a legacy v2 stream.
std::vector<std::uint8_t> strip_to_v2(std::vector<std::uint8_t> stream) {
  EXPECT_GE(stream.size(), 20u);
  std::uint64_t index_offset = 0;
  std::memcpy(&index_offset, stream.data() + stream.size() - 20, 8);
  stream.resize(index_offset);
  stream[4] = 2;  // kStreamVersionUnindexed
  return stream;
}

TEST(Streaming, ByteIdentityUnderOddChunkSlicing) {
  // The container bytes must not depend on how the values were sliced
  // across put_values calls, the batch size, or the thread count.
  const BlockSpec spec{7, 13};
  Params p;
  const auto all = concat_blocks(spec, 23);
  const auto reference = compress(all, spec, p);
  for (std::size_t slice : {1u, 17u, 91u, 92u, 1000u}) {
    for (std::size_t batch : {1u, 3u, 0u}) {
      VectorSink sink;
      StreamWriter w(sink, spec, p,
                     StreamWriterOptions{.batch_blocks = batch});
      for (std::size_t at = 0; at < all.size(); at += slice) {
        const std::size_t n = std::min(slice, all.size() - at);
        w.put_values(std::span<const double>(all).subspan(at, n));
      }
      EXPECT_EQ(w.finish(), reference.size());
      EXPECT_EQ(sink.bytes(), reference)
          << "slice " << slice << " batch " << batch;
    }
  }
}

TEST(Streaming, AllZeroBlocksMidStream) {
  // Zero blocks (fully screened quartets) interleaved with real data:
  // they take the sparse/degenerate encode path mid-stream.
  const BlockSpec spec{6, 10};
  Params p;
  std::vector<double> all;
  for (std::uint64_t b = 0; b < 12; ++b) {
    if (b % 3 == 1) {
      all.insert(all.end(), spec.block_size(), 0.0);
    } else {
      const auto block = testutil::noisy_pattern_block(spec, 1e-6, b);
      all.insert(all.end(), block.begin(), block.end());
    }
  }
  VectorSink sink;
  StreamWriter w(sink, spec, p);
  w.put_values(all);
  w.finish();
  EXPECT_EQ(sink.bytes(), compress(all, spec, p));
  const auto back = decompress(sink.bytes());
  EXPECT_LE(max_abs_diff(all, back), p.error_bound * (1 + 1e-12));
  for (std::size_t i = 0; i < spec.block_size(); ++i) {
    EXPECT_EQ(back[spec.block_size() + i], 0.0);  // block 1 is all-zero
  }
}

TEST(Streaming, FinishWithZeroBlocks) {
  const BlockSpec spec{4, 4};
  Params p;
  VectorSink sink;
  StreamWriter w(sink, spec, p);
  const std::size_t total = w.finish();
  EXPECT_EQ(total, sink.bytes().size());
  EXPECT_EQ(peek_info(sink.bytes()).num_blocks, 0u);
  SpanSource src(sink.bytes());
  StreamConsumer c(src);
  std::vector<double> out(16);
  EXPECT_EQ(c.read_blocks(out), 0u);
  EXPECT_EQ(c.read_values(out), 0u);
}

TEST(Streaming, PartialTailAtFinishThrows) {
  const BlockSpec spec{4, 4};
  Params p;
  VectorSink sink;
  StreamWriter w(sink, spec, p);
  w.put_values(std::vector<double>(19, 0.5));  // 1 block + 3 values
  EXPECT_EQ(w.blocks_appended(), 1u);
  EXPECT_EQ(w.pending_values(), 3u);
  EXPECT_THROW(w.finish(), std::invalid_argument);
}

TEST(Streaming, AppendAfterFinishThrows) {
  const BlockSpec spec{4, 4};
  Params p;
  VectorSink sink;
  StreamWriter w(sink, spec, p);
  w.put_block(std::vector<double>(16, 0.25));
  w.finish();
  EXPECT_THROW(w.put_block(std::vector<double>(16, 0.25)),
               std::logic_error);
  EXPECT_THROW(w.finish(), std::logic_error);
}

TEST(Streaming, DeclaredBlockCountMismatchThrows) {
  const BlockSpec spec{4, 4};
  Params p;
  VectorSink sink;
  StreamWriter w(sink, spec, p,
                 StreamWriterOptions{.expected_blocks = 3});
  w.put_block(std::vector<double>(16, 0.5));
  w.put_block(std::vector<double>(16, 0.5));
  EXPECT_THROW(w.finish(), std::runtime_error);
}

TEST(Streaming, UnknownCountNeedsPatchableSink) {
  // A sink that cannot back-fill the header (e.g. a pipe) only works
  // when the block count is declared up-front.
  class AppendOnlySink final : public ByteSink {
   public:
    void write(std::span<const std::uint8_t> bytes) override {
      buf_.insert(buf_.end(), bytes.begin(), bytes.end());
    }
    std::vector<std::uint8_t> buf_;
  };
  const BlockSpec spec{5, 5};
  Params p;
  AppendOnlySink pipe;
  EXPECT_THROW(StreamWriter(pipe, spec, p), std::logic_error);

  const auto all = concat_blocks(spec, 6);
  StreamWriter w(pipe, spec, p,
                 StreamWriterOptions{.expected_blocks = 6});
  w.put_values(all);
  w.finish();
  EXPECT_EQ(pipe.buf_, compress(all, spec, p));  // no patch was needed
}

TEST(Streaming, ConsumerReadValuesOddSizes) {
  // read_values chunk sizes that never align to block boundaries.
  const BlockSpec spec{6, 11};
  Params p;
  const auto all = concat_blocks(spec, 9);
  const auto stream = compress(all, spec, p);
  const auto reference = decompress(stream);
  for (std::size_t slice : {1u, 7u, 65u, 67u, 500u}) {
    SpanSource src(stream);
    StreamConsumer c(src);
    EXPECT_EQ(c.blocks_remaining(), 9u);
    std::vector<double> got;
    std::vector<double> buf(slice);
    std::size_t n;
    while ((n = c.read_values(buf)) > 0) {
      got.insert(got.end(), buf.begin(), buf.begin() + n);
    }
    EXPECT_EQ(got, reference) << "slice " << slice;
  }
}

TEST(Streaming, ConsumerChunkSmallerThanPayload) {
  // Chunk sizes far below a single block payload: the rolling buffer
  // must grow for one payload and keep compacting correctly.
  const BlockSpec spec{8, 12};
  Params p;
  const auto all = concat_blocks(spec, 14);
  const auto stream = compress(all, spec, p);
  const auto reference = decompress(stream);
  for (std::size_t chunk : {1u, 13u, 64u, 300u}) {
    SpanSource src(stream);
    StreamConsumer c(src, StreamConsumerOptions{.chunk_bytes = chunk});
    std::vector<double> got(reference.size());
    EXPECT_EQ(c.read_blocks(got), 14u) << "chunk " << chunk;
    EXPECT_EQ(got, reference) << "chunk " << chunk;
    EXPECT_EQ(c.blocks_remaining(), 0u);
  }
}

TEST(Streaming, ConsumerReadsLegacyV2) {
  // The sequential walk needs no index, so v2 streams decode too.
  const BlockSpec spec{9, 9};
  Params p;
  const auto all = concat_blocks(spec, 7);
  const auto v3 = compress(all, spec, p);
  const auto v2 = strip_to_v2(v3);
  SpanSource src(v2);
  StreamConsumer c(src, StreamConsumerOptions{.chunk_bytes = 128});
  EXPECT_EQ(c.info().version, kStreamVersionUnindexed);
  std::vector<double> got(all.size());
  EXPECT_EQ(c.read_blocks(got), 7u);
  EXPECT_EQ(got, decompress(v3));
}

TEST(Streaming, OstreamSinkIstreamSourceRoundTrip) {
  // File-style transport: bytes through std::iostream both ways, with
  // the container starting at a nonzero stream offset.
  const BlockSpec spec{6, 8};
  Params p;
  const auto all = concat_blocks(spec, 11);
  std::stringstream ss(std::ios::in | std::ios::out | std::ios::binary);
  ss.write("hdr!", 4);  // preamble: container_base = 4
  OstreamSink sink(ss);
  StreamWriter w(sink, spec, p);  // count unknown -> patched at finish
  w.put_values(all);
  w.finish();

  const std::string bytes = ss.str();
  const auto reference = compress(all, spec, p);
  ASSERT_EQ(bytes.size(), 4 + reference.size());
  EXPECT_EQ(std::memcmp(bytes.data() + 4, reference.data(),
                        reference.size()),
            0);

  ss.seekg(4);
  IstreamSource src(ss);
  StreamConsumer c(src);
  std::vector<double> got(all.size());
  EXPECT_EQ(c.read_blocks(got), 11u);
  EXPECT_EQ(got, decompress(reference));
}

TEST(Streaming, DecompressHonorsThreadCount) {
  const BlockSpec spec{8, 8};
  Params p;
  const auto all = concat_blocks(spec, 16);
  const auto stream = compress(all, spec, p);
  const auto serial = decompress(stream, 1);
  const auto parallel = decompress(stream, 2);
  EXPECT_EQ(serial, parallel);  // bit-identical regardless of threads

  SpanSource src(stream);
  StreamConsumer c(src, StreamConsumerOptions{.num_threads = 2});
  std::vector<double> got(all.size());
  EXPECT_EQ(c.read_blocks(got), 16u);
  EXPECT_EQ(got, serial);
}

}  // namespace
}  // namespace pastri
