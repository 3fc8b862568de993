#include "serve/client.h"

#include <arpa/inet.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "core/pastri_capi.h"

namespace pastri::serve {
namespace {

int connect_tcp(const std::string& host, std::uint16_t port) {
  addrinfo hints{};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* res = nullptr;
  if (::getaddrinfo(host.c_str(), std::to_string(port).c_str(), &hints,
                    &res) != 0 ||
      res == nullptr) {
    throw std::runtime_error("cannot resolve " + host);
  }
  const int fd = ::socket(res->ai_family, res->ai_socktype, 0);
  if (fd < 0) {
    ::freeaddrinfo(res);
    throw std::runtime_error("socket() failed");
  }
  if (::connect(fd, res->ai_addr, res->ai_addrlen) != 0) {
    ::freeaddrinfo(res);
    ::close(fd);
    throw std::runtime_error("cannot connect to " + host + ":" +
                             std::to_string(port));
  }
  ::freeaddrinfo(res);
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

}  // namespace

Client::Client(const std::string& host, std::uint16_t port)
    : fd_(connect_tcp(host, port)) {
  write_all_(kHello, sizeof(kHello));
}

Client::~Client() {
  if (fd_ >= 0) ::close(fd_);
}

void Client::write_all_(const void* buf, std::size_t n) {
  const auto* p = static_cast<const std::uint8_t*>(buf);
  std::size_t sent = 0;
  while (sent < n) {
    const ssize_t w = ::send(fd_, p + sent, n - sent, MSG_NOSIGNAL);
    if (w >= 0) {
      sent += static_cast<std::size_t>(w);
      continue;
    }
    if (errno == EINTR) continue;
    throw std::runtime_error("serve client: send failed");
  }
}

void Client::read_exact_(void* buf, std::size_t n) {
  auto* p = static_cast<std::uint8_t*>(buf);
  std::size_t got = 0;
  while (got < n) {
    const ssize_t r = ::recv(fd_, p + got, n - got, 0);
    if (r > 0) {
      got += static_cast<std::size_t>(r);
      continue;
    }
    if (r < 0 && errno == EINTR) continue;
    throw std::runtime_error("serve client: connection closed");
  }
}

std::pair<std::int32_t, std::vector<std::uint8_t>> Client::raw_frame(
    std::uint8_t opcode, const std::vector<std::uint8_t>& payload) {
  WireWriter head;
  head.u32(static_cast<std::uint32_t>(payload.size()));
  head.u8(opcode);
  write_all_(head.data().data(), head.data().size());
  if (!payload.empty()) write_all_(payload.data(), payload.size());

  std::uint8_t rhead[9];
  read_exact_(rhead, sizeof(rhead));
  std::uint32_t body_len;
  std::int32_t status;
  std::memcpy(&body_len, rhead, 4);
  std::memcpy(&status, rhead + 5, 4);
  if (body_len > kMaxFrameBytes) {
    throw std::runtime_error("serve client: oversized response");
  }
  std::vector<std::uint8_t> body(body_len);
  if (body_len != 0) read_exact_(body.data(), body_len);
  return {status, std::move(body)};
}

std::vector<std::uint8_t> Client::call_(
    std::uint8_t opcode, const std::vector<std::uint8_t>& payload) {
  auto [status, body] = raw_frame(opcode, payload);
  if (status != PASTRI_OK) {
    throw RpcError(status,
                   std::string("serve rpc failed: ") +
                       pastri_status_name(
                           static_cast<pastri_status>(status)));
  }
  return body;
}

std::vector<double> Client::values_response_(
    std::vector<std::uint8_t> body) {
  WireReader r(body);
  const std::uint64_t count = r.u64();
  if (r.remaining() != count * sizeof(double)) {
    throw std::runtime_error("serve client: malformed values response");
  }
  std::vector<double> values(count);
  std::memcpy(values.data(), r.rest(), r.remaining());
  return values;
}

StoreInfo Client::open_store(const std::string& path,
                             std::size_t cache_blocks,
                             std::size_t cache_shards) {
  WireWriter w;
  w.u8(0);
  w.u64(cache_blocks);
  w.u32(static_cast<std::uint32_t>(cache_shards));
  w.f64(0.0);
  w.str(path);
  const auto body =
      call_(static_cast<std::uint8_t>(Opcode::kOpenStore), w.data());
  WireReader r(body);
  StoreInfo info;
  info.id = r.u32();
  info.num_blocks = r.u64();
  info.block_size = r.u64();
  return info;
}

std::vector<double> Client::get_block(std::uint32_t store,
                                      std::uint64_t block) {
  WireWriter w;
  w.u32(store);
  w.u64(block);
  return values_response_(
      call_(static_cast<std::uint8_t>(Opcode::kGetBlock), w.data()));
}

std::vector<double> Client::get_range(std::uint32_t store,
                                      std::uint64_t first,
                                      std::uint64_t count) {
  WireWriter w;
  w.u32(store);
  w.u64(first);
  w.u64(count);
  return values_response_(
      call_(static_cast<std::uint8_t>(Opcode::kGetRange), w.data()));
}

CacheStats Client::stats(std::uint32_t store) {
  WireWriter w;
  w.u32(store);
  const auto body =
      call_(static_cast<std::uint8_t>(Opcode::kStats), w.data());
  WireReader r(body);
  CacheStats st;
  st.hits = r.u64();
  st.misses = r.u64();
  st.bytes = r.u64();
  st.unique_blocks = r.u64();
  return st;
}

std::uint32_t Client::put_open(const std::string& path,
                               std::uint16_t num_sub_blocks,
                               std::uint16_t sub_block_size,
                               double error_bound) {
  WireWriter w;
  w.u16(num_sub_blocks);
  w.u16(sub_block_size);
  w.f64(error_bound);
  w.str(path);
  const auto body =
      call_(static_cast<std::uint8_t>(Opcode::kPutOpen), w.data());
  WireReader r(body);
  return r.u32();
}

void Client::put_chunk(std::uint32_t session,
                       const std::vector<double>& values) {
  WireWriter w;
  w.u32(session);
  w.bytes(values.data(), values.size() * sizeof(double));
  call_(static_cast<std::uint8_t>(Opcode::kPutChunk), w.data());
}

PutResult Client::put_close(std::uint32_t session) {
  WireWriter w;
  w.u32(session);
  const auto body =
      call_(static_cast<std::uint8_t>(Opcode::kPutClose), w.data());
  WireReader r(body);
  PutResult res;
  res.num_blocks = r.u64();
  res.input_bytes = r.u64();
  res.output_bytes = r.u64();
  return res;
}

void Client::ping() { call_(static_cast<std::uint8_t>(Opcode::kPing), {}); }

std::string Client::http_get(const std::string& host, std::uint16_t port,
                             const std::string& path) {
  const int fd = connect_tcp(host, port);
  const std::string request =
      "GET " + path + " HTTP/1.1\r\nHost: " + host +
      "\r\nConnection: close\r\n\r\n";
  std::size_t sent = 0;
  while (sent < request.size()) {
    const ssize_t w = ::send(fd, request.data() + sent,
                             request.size() - sent, MSG_NOSIGNAL);
    if (w < 0 && errno == EINTR) continue;
    if (w < 0) {
      ::close(fd);
      throw std::runtime_error("serve client: send failed");
    }
    sent += static_cast<std::size_t>(w);
  }
  std::string response;
  char buf[4096];
  for (;;) {
    const ssize_t r = ::recv(fd, buf, sizeof(buf), 0);
    if (r < 0 && errno == EINTR) continue;
    if (r <= 0) break;
    response.append(buf, static_cast<std::size_t>(r));
  }
  ::close(fd);
  return response;
}

}  // namespace pastri::serve
