// client.h - Blocking client for the pastri_serve binary protocol.
//
// One Client owns one TCP connection; calls are synchronous
// request/response pairs, so a Client must not be shared across threads
// without external serialization (open one Client per thread instead --
// the server is built for many concurrent connections).  Non-OK
// response statuses surface as RpcError; transport failures as
// std::runtime_error.
//
// Used by the Serve test suite, perfbench's serve workload, and
// `pastri_tool serve-client`.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/sharded_cache.h"
#include "serve/protocol.h"

namespace pastri::serve {

/// A response frame with a non-OK pastri_status.
struct RpcError : std::runtime_error {
  RpcError(std::int32_t s, const std::string& what)
      : std::runtime_error(what), status(s) {}
  std::int32_t status;
};

struct StoreInfo {
  std::uint32_t id = 0;
  std::uint64_t num_blocks = 0;
  std::uint64_t block_size = 0;
};

struct PutResult {
  std::uint64_t num_blocks = 0;
  std::uint64_t input_bytes = 0;
  std::uint64_t output_bytes = 0;
};

class Client {
 public:
  /// Connect and send the binary-protocol hello.  Throws
  /// std::runtime_error when the daemon is unreachable.
  Client(const std::string& host, std::uint16_t port);
  ~Client();
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  StoreInfo open_store(const std::string& path,
                       std::size_t cache_blocks = 0,
                       std::size_t cache_shards = 0);
  std::vector<double> get_block(std::uint32_t store, std::uint64_t block);
  std::vector<double> get_range(std::uint32_t store, std::uint64_t first,
                                std::uint64_t count);
  CacheStats stats(std::uint32_t store);
  std::uint32_t put_open(const std::string& path,
                         std::uint16_t num_sub_blocks,
                         std::uint16_t sub_block_size,
                         double error_bound = 0.0);
  void put_chunk(std::uint32_t session,
                 const std::vector<double>& values);
  PutResult put_close(std::uint32_t session);
  void ping();

  /// Send an arbitrary frame and return {status, body} -- the fuzz
  /// tests use this to probe malformed payloads.
  std::pair<std::int32_t, std::vector<std::uint8_t>> raw_frame(
      std::uint8_t opcode, const std::vector<std::uint8_t>& payload);

  /// Plain HTTP GET against the same port on a throwaway connection
  /// (static: the metrics endpoint is one-request-per-connection).
  /// Returns the full response (status line, headers, body).
  static std::string http_get(const std::string& host, std::uint16_t port,
                              const std::string& path);

 private:
  std::vector<std::uint8_t> call_(std::uint8_t opcode,
                                  const std::vector<std::uint8_t>& payload);
  std::vector<double> values_response_(std::vector<std::uint8_t> body);
  void write_all_(const void* buf, std::size_t n);
  void read_exact_(void* buf, std::size_t n);

  int fd_ = -1;
};

}  // namespace pastri::serve
