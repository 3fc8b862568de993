// Tests for the service layer: the pastri_store_* C API, the
// pastri_serve daemon (binary protocol + HTTP /metrics), admission
// control, and the BlockStore cache under concurrency.
//
// Every network test binds 127.0.0.1:0 (ephemeral port) so parallel
// ctest runs never collide.
#include <gtest/gtest.h>

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <thread>
#include <vector>

#include "core/pastri.h"
#include "core/pastri_capi.h"
#include "core/stream.h"
#include "io/block_store.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "test_util.h"

namespace pastri {
namespace {

class Serve : public ::testing::Test {
 protected:
  void SetUp() override { dir_ = testutil::per_test_dir("pastri_serve"); }
  void TearDown() override {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  /// Write a small container of deterministic blocks; returns its path
  /// and the exact uncompressed input.
  std::string write_container(std::size_t num_blocks,
                              std::vector<double>* input = nullptr) {
    const std::string path = dir_ + "/blocks.pastri";
    BlockSpec spec;
    spec.num_sub_blocks = 4;
    spec.sub_block_size = 16;
    Params params;
    std::ofstream f(path, std::ios::binary);
    OstreamSink sink(f);
    StreamWriter writer(sink, spec, params);
    std::vector<double> block(spec.block_size());
    for (std::size_t b = 0; b < num_blocks; ++b) {
      for (std::size_t i = 0; i < block.size(); ++i) {
        block[i] = (static_cast<double>(b) + 1.0) * 1e-3 *
                   (static_cast<double>(i) - 30.0);
      }
      writer.put_block(block);
      if (input != nullptr) {
        input->insert(input->end(), block.begin(), block.end());
      }
    }
    writer.finish();
    return path;
  }

  std::string dir_;
};

// ---- pastri_store_* C API ------------------------------------------------

TEST_F(Serve, StoreCApiRoundTrip) {
  std::vector<double> input;
  const std::string path = write_container(10, &input);

  pastri_store* store = nullptr;
  ASSERT_EQ(pastri_store_open(path.c_str(), nullptr, &store), PASTRI_OK);
  std::size_t num_blocks = 0, block_size = 0;
  ASSERT_EQ(pastri_store_num_blocks(store, &num_blocks), PASTRI_OK);
  ASSERT_EQ(pastri_store_block_size(store, &block_size), PASTRI_OK);
  EXPECT_EQ(num_blocks, 10u);
  EXPECT_EQ(block_size, 64u);

  Params params;
  std::vector<double> out(block_size);
  for (std::size_t b : {std::size_t{0}, std::size_t{7}, std::size_t{7}}) {
    ASSERT_EQ(pastri_store_get_block(store, b, out.data(), out.size()),
              PASTRI_OK);
    for (std::size_t i = 0; i < block_size; ++i) {
      EXPECT_NEAR(out[i], input[b * block_size + i], params.error_bound);
    }
  }

  std::vector<double> range(block_size * 4);
  ASSERT_EQ(
      pastri_store_get_range(store, 2, 4, range.data(), range.size()),
      PASTRI_OK);
  for (std::size_t i = 0; i < range.size(); ++i) {
    EXPECT_NEAR(range[i], input[2 * block_size + i], params.error_bound);
  }

  pastri_store_cache_stats stats;
  ASSERT_EQ(pastri_store_get_cache_stats(store, &stats), PASTRI_OK);
  EXPECT_EQ(stats.hits, 1u);    // the repeated block 7
  EXPECT_EQ(stats.misses, 2u);  // blocks 0 and 7 (ranges bypass)
  EXPECT_EQ(stats.unique_blocks, 2u);
  pastri_store_close(store);
}

TEST_F(Serve, StoreCApiStatusDiscipline) {
  pastri_store* store = nullptr;
  EXPECT_EQ(pastri_store_open(nullptr, nullptr, &store),
            PASTRI_ERR_INVALID_ARGUMENT);
  EXPECT_EQ(pastri_store_open((dir_ + "/missing").c_str(), nullptr, &store),
            PASTRI_ERR_CORRUPT_STREAM);

  // A non-PaSTRI file must be refused, not crash.
  const std::string junk = dir_ + "/junk";
  std::ofstream(junk, std::ios::binary) << "definitely not a container";
  EXPECT_EQ(pastri_store_open(junk.c_str(), nullptr, &store),
            PASTRI_ERR_CORRUPT_STREAM);

  // A truncated container must be refused, not crash.
  std::vector<double> input;
  const std::string path = write_container(10, &input);
  std::ifstream in(path, std::ios::binary);
  std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  const std::string cut = dir_ + "/truncated.pastri";
  std::ofstream(cut, std::ios::binary)
      .write(bytes.data(), static_cast<std::streamsize>(bytes.size() / 3));
  EXPECT_NE(pastri_store_open(cut.c_str(), nullptr, &store), PASTRI_OK);

  ASSERT_EQ(pastri_store_open(path.c_str(), nullptr, &store), PASTRI_OK);
  std::vector<double> out(64);
  EXPECT_EQ(pastri_store_get_block(store, 99, out.data(), out.size()),
            PASTRI_ERR_INVALID_ARGUMENT);
  EXPECT_EQ(pastri_store_get_block(store, 0, out.data(), 3),
            PASTRI_ERR_INVALID_ARGUMENT);
  EXPECT_EQ(pastri_store_get_range(store, 8, 4, out.data(), out.size()),
            PASTRI_ERR_INVALID_ARGUMENT);
  EXPECT_EQ(pastri_store_get_block(store, 0, nullptr, 64),
            PASTRI_ERR_INVALID_ARGUMENT);
  EXPECT_NE(pastri_last_error_message(), nullptr);
  pastri_store_close(store);
  pastri_store_close(nullptr);  // must be a no-op
}

TEST_F(Serve, StoreCApiCacheConfig) {
  pastri_store_cache_config cache;
  pastri_store_cache_config_init(&cache);
  EXPECT_EQ(cache.capacity_blocks, 1024u);
  EXPECT_EQ(cache.num_shards, 8u);

  const std::string path = write_container(4);
  pastri_store* store = nullptr;
  ASSERT_EQ(pastri_store_open(path.c_str(), &cache, &store), PASTRI_OK);
  std::vector<double> out(64);
  pastri_store_cache_stats stats;
  for (std::size_t b : {0, 0}) {
    ASSERT_EQ(pastri_store_get_block(store, b, out.data(), out.size()),
              PASTRI_OK);
  }
  ASSERT_EQ(pastri_store_get_cache_stats(store, &stats), PASTRI_OK);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);

  // Shrink to one block: the counters persist, and block 0 is evicted
  // by block 1 before it is read again.
  cache.capacity_blocks = 1;
  ASSERT_EQ(pastri_store_set_cache(store, &cache), PASTRI_OK);
  ASSERT_EQ(pastri_store_get_cache_stats(store, &stats), PASTRI_OK);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  for (std::size_t b : {0, 1, 0}) {
    ASSERT_EQ(pastri_store_get_block(store, b, out.data(), out.size()),
              PASTRI_OK);
  }
  ASSERT_EQ(pastri_store_get_cache_stats(store, &stats), PASTRI_OK);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 4u);
  EXPECT_EQ(stats.unique_blocks, 1u);

  EXPECT_EQ(pastri_store_set_cache(store, nullptr),
            PASTRI_ERR_INVALID_ARGUMENT);
  pastri_store_close(store);
}

// ---- daemon: protocol round trips ---------------------------------------

TEST_F(Serve, ProtocolRoundTrip) {
  std::vector<double> input;
  const std::string path = write_container(12, &input);
  serve::Server server;
  server.start();

  serve::Client client("127.0.0.1", server.port());
  client.ping();
  const serve::StoreInfo info = client.open_store(path);
  EXPECT_EQ(info.num_blocks, 12u);
  EXPECT_EQ(info.block_size, 64u);

  Params params;
  const std::vector<double> blk = client.get_block(info.id, 5);
  ASSERT_EQ(blk.size(), 64u);
  for (std::size_t i = 0; i < blk.size(); ++i) {
    EXPECT_NEAR(blk[i], input[5 * 64 + i], params.error_bound);
  }
  const std::vector<double> rng = client.get_range(info.id, 0, 12);
  ASSERT_EQ(rng.size(), input.size());
  for (std::size_t i = 0; i < rng.size(); ++i) {
    EXPECT_NEAR(rng[i], input[i], params.error_bound);
  }

  // A second client opening the same path shares the store (same id,
  // shared cache counters).
  serve::Client other("127.0.0.1", server.port());
  const serve::StoreInfo again = other.open_store(path);
  EXPECT_EQ(again.id, info.id);
  (void)other.get_block(info.id, 5);  // warm: decoded once by `client`
  const CacheStats stats = other.stats(info.id);
  EXPECT_GE(stats.hits, 1u);

  server.stop();
}

TEST_F(Serve, HostileCacheGeometryIsClamped) {
  // OPEN_STORE's cache fields come off the wire: a 2^40-block capacity
  // striped 2^32-1 ways must open with a bounded stripe count, not
  // allocate a stripe per requested shard.
  std::vector<double> input;
  const std::string path = write_container(6, &input);
  serve::Server server;
  server.start();

  {
    serve::Client client("127.0.0.1", server.port());
    const serve::StoreInfo info =
        client.open_store(path, std::size_t{1} << 40, 0xFFFFFFFFu);
    EXPECT_EQ(info.num_blocks, 6u);
    const std::vector<double> blk = client.get_block(info.id, 3);
    ASSERT_EQ(blk.size(), 64u);
    Params params;
    for (std::size_t i = 0; i < blk.size(); ++i) {
      EXPECT_NEAR(blk[i], input[3 * 64 + i], params.error_bound);
    }
    (void)client.get_block(info.id, 3);
    const CacheStats stats = client.stats(info.id);
    EXPECT_EQ(stats.hits, 1u);
    EXPECT_EQ(stats.misses, 1u);
    EXPECT_EQ(stats.unique_blocks, 1u);
    EXPECT_EQ(stats.bytes, 64 * sizeof(double));
  }

  server.stop();
}

TEST_F(Serve, StopDoesNotWaitForIdleClients) {
  // A connected client that sends nothing leaves its worker blocked in
  // recv; stop() must wake it at once rather than wait out the 200 ms
  // receive timeout every accepted socket carries.
  serve::Server server;
  server.start();
  serve::Client client("127.0.0.1", server.port());
  client.ping();  // a worker now serves this connection
  const auto t0 = std::chrono::steady_clock::now();
  server.stop();
  const auto stop_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                           std::chrono::steady_clock::now() - t0)
                           .count();
  EXPECT_LT(stop_ms, 150);
}

TEST_F(Serve, PutStreamRoundTrip) {
  serve::Server server;
  server.start();
  serve::Client client("127.0.0.1", server.port());

  const std::string path = dir_ + "/put.pastri";
  const std::uint32_t session = client.put_open(path, 4, 16, 1e-6);
  std::vector<double> input;
  std::vector<double> chunk(96);  // deliberately not block-aligned
  for (std::size_t c = 0; c < 8; ++c) {
    for (std::size_t i = 0; i < chunk.size(); ++i) {
      chunk[i] = 1e-4 * static_cast<double>(c * chunk.size() + i);
    }
    client.put_chunk(session, chunk);
    input.insert(input.end(), chunk.begin(), chunk.end());
  }
  const serve::PutResult result = client.put_close(session);
  EXPECT_EQ(result.num_blocks, 12u);  // 8 * 96 / 64
  EXPECT_EQ(result.input_bytes, input.size() * sizeof(double));
  EXPECT_GT(result.output_bytes, 0u);
  EXPECT_LT(result.output_bytes, result.input_bytes);

  // The stored bytes are the one-shot container of the same values.
  Params params;
  params.error_bound = 1e-6;
  std::ifstream stored(path, std::ios::binary);
  const std::vector<std::uint8_t> bytes(
      (std::istreambuf_iterator<char>(stored)),
      std::istreambuf_iterator<char>());
  EXPECT_EQ(bytes, compress(input, BlockSpec{4, 16}, params));

  // Read the container back through the same daemon.
  const serve::StoreInfo info = client.open_store(path);
  EXPECT_EQ(info.num_blocks, 12u);
  const std::vector<double> rng = client.get_range(info.id, 0, 12);
  ASSERT_EQ(rng.size(), input.size());
  for (std::size_t i = 0; i < rng.size(); ++i) {
    EXPECT_NEAR(rng[i], input[i], 1e-6);
  }

  // Unknown session ids are rejected, not fatal.
  EXPECT_THROW(client.put_close(session), serve::RpcError);
  server.stop();
}

// ---- daemon: robustness and admission control ---------------------------

TEST_F(Serve, MalformedFramesDontCrash) {
  const std::string path = write_container(4);
  serve::Server server;
  server.start();
  serve::Client client("127.0.0.1", server.port());
  const serve::StoreInfo info = client.open_store(path);

  // Unknown opcode.
  EXPECT_EQ(client.raw_frame(0x6F, {}).first,
            PASTRI_ERR_INVALID_ARGUMENT);
  // Truncated payloads for every opcode.
  for (std::uint8_t opcode = 0x01; opcode <= 0x09; ++opcode) {
    const auto [status, body] = client.raw_frame(opcode, {0x01});
    if (opcode != 0x07) {  // PUT_CHUNK tolerates any tail length
      EXPECT_EQ(status, PASTRI_ERR_INVALID_ARGUMENT)
          << "opcode " << int(opcode);
    }
  }
  // Trailing garbage after a valid GET_BLOCK payload.
  std::vector<std::uint8_t> long_payload(40, 0xEE);
  EXPECT_EQ(client.raw_frame(0x02, long_payload).first,
            PASTRI_ERR_INVALID_ARGUMENT);
  // Unknown store / session ids in well-formed frames.
  serve::WireWriter w;
  w.u32(4242);
  w.u64(0);
  EXPECT_EQ(client.raw_frame(0x02, w.data()).first,
            PASTRI_ERR_INVALID_ARGUMENT);
  // Retired paths: OPEN_STORE kind 1 (compute an ERI store on open) and
  // opcode 0x04 (its shell-block read) answer at once, without computing.
  serve::WireWriter eri;
  eri.u8(1);
  eri.u64(0);
  eri.u32(0);
  eri.f64(0.0);
  eri.str("benzene");
  EXPECT_EQ(client.raw_frame(0x01, eri.data()).first,
            PASTRI_ERR_INVALID_ARGUMENT);
  serve::WireWriter quartet;
  quartet.u32(info.id);
  for (int i = 0; i < 4; ++i) quartet.u32(0);
  ASSERT_EQ(quartet.data().size(), 20u);
  EXPECT_EQ(client.raw_frame(0x04, quartet.data()).first,
            PASTRI_ERR_INVALID_ARGUMENT);
  client.ping();
  // Deterministic pseudo-random fuzz payloads.
  std::uint64_t rng = 0x9E3779B97F4A7C15ull;
  for (int round = 0; round < 64; ++round) {
    std::vector<std::uint8_t> payload(round * 3 % 61);
    for (auto& b : payload) {
      rng = rng * 6364136223846793005ull + 1442695040888963407ull;
      b = static_cast<std::uint8_t>(rng >> 56);
    }
    const std::uint8_t opcode = static_cast<std::uint8_t>(rng % 16);
    (void)client.raw_frame(opcode, payload);  // must answer, not crash
  }

  // The connection survived all of it.
  client.ping();
  const std::vector<double> blk = client.get_block(info.id, 0);
  EXPECT_EQ(blk.size(), 64u);
  server.stop();
}

TEST_F(Serve, OversizedFrameRejected) {
  serve::Server server;
  server.start();
  // Hand-rolled socket: claim a 1 GiB frame, send nothing else.
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(server.port());
  ASSERT_EQ(
      ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  std::vector<std::uint8_t> wire(serve::kHello,
                                 serve::kHello + sizeof(serve::kHello));
  const std::uint32_t huge = 1u << 30;
  wire.resize(wire.size() + 4);
  std::memcpy(wire.data() + 4, &huge, 4);
  ASSERT_EQ(::send(fd, wire.data(), wire.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(wire.size()));
  // The server must answer a status frame, then close.
  std::uint8_t head[9];
  std::size_t got = 0;
  while (got < sizeof(head)) {
    const ssize_t r = ::recv(fd, head + got, sizeof(head) - got, 0);
    if (r <= 0) break;
    got += static_cast<std::size_t>(r);
  }
  ASSERT_EQ(got, sizeof(head));
  std::int32_t status;
  std::memcpy(&status, head + 5, 4);
  EXPECT_EQ(status, PASTRI_ERR_INVALID_ARGUMENT);
  char extra;
  EXPECT_EQ(::recv(fd, &extra, 1, 0), 0);  // orderly close
  ::close(fd);
  server.stop();
}

TEST_F(Serve, BusySheddingWhenFull) {
  serve::ServerConfig config;
  config.num_workers = 1;
  config.accept_queue_depth = 0;  // every connection sheds
  serve::Server server(config);
  server.start();

  // Connect without sending a byte: the shed response must arrive
  // unprompted (admission control acts before any request).
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(server.port());
  ASSERT_EQ(
      ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  std::uint8_t head[9];
  std::size_t got = 0;
  while (got < sizeof(head)) {
    const ssize_t r = ::recv(fd, head + got, sizeof(head) - got, 0);
    if (r <= 0) break;
    got += static_cast<std::size_t>(r);
  }
  ASSERT_EQ(got, sizeof(head));
  std::int32_t status;
  std::memcpy(&status, head + 5, 4);
  EXPECT_EQ(status, PASTRI_ERR_BUSY);
  ::close(fd);
  server.stop();
}

TEST_F(Serve, PutSessionCapSheds) {
  serve::ServerConfig config;
  config.max_put_sessions = 1;
  serve::Server server(config);
  server.start();
  serve::Client client("127.0.0.1", server.port());
  const std::uint32_t sid = client.put_open(dir_ + "/a.pastri", 4, 16);
  try {
    (void)client.put_open(dir_ + "/b.pastri", 4, 16);
    FAIL() << "second PUT session must shed";
  } catch (const serve::RpcError& e) {
    EXPECT_EQ(e.status, PASTRI_ERR_BUSY);
  }
  // Closing the first session frees the slot.
  std::vector<double> chunk(64, 0.25);
  client.put_chunk(sid, chunk);
  (void)client.put_close(sid);
  const std::uint32_t sid2 = client.put_open(dir_ + "/b.pastri", 4, 16);
  client.put_chunk(sid2, chunk);
  (void)client.put_close(sid2);
  server.stop();
}

TEST_F(Serve, PutBackpressureNeverFailsOrDrops) {
  serve::Server server;
  server.start();
  serve::Client client("127.0.0.1", server.port());
  const std::string path = dir_ + "/bp.pastri";
  const std::uint32_t sid = client.put_open(path, 4, 16);
  std::vector<double> input;
  std::vector<double> chunk(64);
  for (std::size_t c = 0; c < 32; ++c) {
    for (std::size_t i = 0; i < chunk.size(); ++i) {
      chunk[i] = std::sin(static_cast<double>(c * 64 + i) * 0.01);
    }
    client.put_chunk(sid, chunk);  // must block, never fail or drop
    input.insert(input.end(), chunk.begin(), chunk.end());
  }
  const serve::PutResult result = client.put_close(sid);
  EXPECT_EQ(result.num_blocks, 32u);
  const serve::StoreInfo info = client.open_store(path);
  const std::vector<double> rng = client.get_range(info.id, 0, 32);
  Params params;
  ASSERT_EQ(rng.size(), input.size());
  for (std::size_t i = 0; i < rng.size(); ++i) {
    EXPECT_NEAR(rng[i], input[i], params.error_bound);
  }
  server.stop();
}

TEST_F(Serve, PutErrorsAnswerTheirStatus) {
  serve::Server server;
  server.start();
  serve::Client client("127.0.0.1", server.port());
  const auto status_of = [](const auto& call) -> std::int32_t {
    try {
      call();
    } catch (const serve::RpcError& e) {
      return e.status;
    }
    return PASTRI_OK;
  };

  // An output that cannot be opened.
  EXPECT_EQ(status_of([&] {
              (void)client.put_open(dir_ + "/missing/put.pastri", 4, 16);
            }),
            PASTRI_ERR_IO);
  // A block spec rejected before the output is opened, so an existing
  // file at the path keeps its bytes.
  const std::string kept = write_container(2);
  const auto kept_bytes = std::filesystem::file_size(kept);
  EXPECT_EQ(status_of([&] { (void)client.put_open(kept, 0, 16); }),
            PASTRI_ERR_INVALID_ARGUMENT);
  EXPECT_EQ(std::filesystem::file_size(kept), kept_bytes);
  // A close that would leave a partial block.
  const std::uint32_t partial =
      client.put_open(dir_ + "/partial.pastri", 4, 16);
  client.put_chunk(partial, std::vector<double>(96, 0.5));
  EXPECT_EQ(status_of([&] { (void)client.put_close(partial); }),
            PASTRI_ERR_INVALID_ARGUMENT);

  // An output whose writes fail: the first failure sticks to the
  // session, and every later chunk and the close answer it again.
  if (std::filesystem::exists("/dev/full")) {
    const std::uint32_t full = client.put_open("/dev/full", 4, 16);
    std::vector<double> chunk(64 * 64);  // one encode batch
    for (std::size_t i = 0; i < chunk.size(); ++i) {
      chunk[i] = std::sin(static_cast<double>(i) * 0.37);
    }
    std::int32_t first = PASTRI_OK;
    for (int c = 0; c < 16 && first == PASTRI_OK; ++c) {
      first = status_of([&] { client.put_chunk(full, chunk); });
    }
    EXPECT_EQ(first, PASTRI_ERR_IO);
    EXPECT_EQ(status_of([&] { client.put_chunk(full, chunk); }),
              PASTRI_ERR_IO);
    EXPECT_EQ(status_of([&] { (void)client.put_close(full); }),
              PASTRI_ERR_IO);
  }

  client.ping();  // the connection survived every failure
  server.stop();
}

TEST_F(Serve, PutSessionStartsNoThread) {
  if (testutil::os_thread_count() < 1) {
    GTEST_SKIP() << "/proc/self/task unreadable";
  }
  serve::Server server;
  server.start();
  serve::Client client("127.0.0.1", server.port());
  client.ping();  // a worker now serves this connection
  const int before = testutil::os_thread_count();
  // Three open sessions, each a few blocks short of one encode batch.
  std::vector<std::uint32_t> sessions;
  for (int s = 0; s < 3; ++s) {
    sessions.push_back(client.put_open(
        dir_ + "/s" + std::to_string(s) + ".pastri", 4, 16));
    for (int c = 0; c < 3; ++c) {
      client.put_chunk(sessions.back(), std::vector<double>(64, 0.25 * c));
    }
  }
  EXPECT_EQ(testutil::os_thread_count(), before);
  for (const std::uint32_t sid : sessions) {
    EXPECT_EQ(client.put_close(sid).num_blocks, 3u);
  }
  server.stop();
}

// ---- daemon: HTTP metrics ------------------------------------------------

TEST_F(Serve, HttpMetricsEndpoint) {
  const std::string path = write_container(4);
  serve::Server server;
  server.start();
  serve::Client client("127.0.0.1", server.port());
  const serve::StoreInfo info = client.open_store(path);
  (void)client.get_block(info.id, 0);

  const std::string response =
      serve::Client::http_get("127.0.0.1", server.port(), "/metrics");
  EXPECT_NE(response.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(response.find("pastri_serve_requests_total"),
            std::string::npos);
  EXPECT_NE(response.find("pastri_serve_bytes_out_total"),
            std::string::npos);
  EXPECT_NE(response.find("pastri_core_blocks_decoded_total"),
            std::string::npos);

  const std::string missing =
      serve::Client::http_get("127.0.0.1", server.port(), "/nope");
  EXPECT_NE(missing.find("404"), std::string::npos);
  server.stop();
}

TEST_F(Serve, BlockStoreConcurrentReaders) {
  std::vector<double> input;
  const std::string path = write_container(16, &input);
  io::BlockStore store(path, CacheConfig{8, 4});
  Params params;
  constexpr std::size_t kThreads = 8;
  std::atomic<std::size_t> mismatches{0};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::uint64_t rng = 17 * (t + 1);
      for (std::size_t it = 0; it < 200; ++it) {
        rng = rng * 6364136223846793005ull + 1442695040888963407ull;
        const std::size_t b = (rng >> 33) % store.num_blocks();
        const auto blk = store.block(b);
        for (std::size_t i = 0; i < blk->size(); ++i) {
          if (std::abs((*blk)[i] - input[b * 64 + i]) >
              params.error_bound) {
            ++mismatches;
          }
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0u);
  const CacheStats stats = store.cache_stats();
  EXPECT_EQ(stats.hits + stats.misses, kThreads * 200u);
}

}  // namespace
}  // namespace pastri
