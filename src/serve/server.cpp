#include "serve/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <fstream>
#include <map>
#include <mutex>
#include <set>
#include <span>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/pastri.h"
#include "core/pastri_capi.h"
#include "core/stream.h"
#include "io/block_store.h"
#include "obs/export.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "serve/protocol.h"

namespace pastri::serve {
namespace {

struct ServeMetrics {
  obs::Counter requests = obs::registry().counter(obs::kServeRequests);
  obs::Histogram request_ns = obs::registry().histogram(obs::kServeRequestNs);
  obs::Counter bytes_in = obs::registry().counter(obs::kServeBytesIn);
  obs::Counter bytes_out = obs::registry().counter(obs::kServeBytesOut);
  obs::Counter shed = obs::registry().counter(obs::kServeShed);
  obs::Counter errors = obs::registry().counter(obs::kServeErrors);
  obs::Gauge active_connections =
      obs::registry().gauge(obs::kServeActiveConnections);
  obs::Gauge open_stores = obs::registry().gauge(obs::kServeOpenStores);
};

ServeMetrics& metrics() {
  static ServeMetrics m;
  return m;
}

/// Thrown by request handlers to produce a non-OK response frame.
struct RequestError : std::runtime_error {
  RequestError(pastri_status s, const std::string& what)
      : std::runtime_error(what), status(s) {}
  pastri_status status;
};

/// Opens a PUT session's output, or answers PASTRI_ERR_IO.  Checked
/// before the StreamWriter exists: its constructor writes the header.
std::ofstream open_output(const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw RequestError(PASTRI_ERR_IO, "cannot open " + path);
  return out;
}

/// One streaming write in flight on a connection, encoded on the
/// connection's worker: put() returns once every whole batch it
/// completes is encoded and written, so the PUT_CHUNK response (and
/// the next frame read) waits for the encode, and a fast client waits
/// in TCP.  The first failure sticks: every later put() and close()
/// answers its status.
class PutSession {
 public:
  PutSession(const std::string& path, const BlockSpec& spec,
             const Params& params)
      : path_(path),
        out_(open_output(path)),
        sink_(out_),
        writer_(sink_, spec, params) {}

  void put(std::span<const double> values) {
    run_([&] { writer_.put_values(values); });
  }

  /// Finish the container and return the writer's stats.  The session
  /// is unusable afterwards.
  Stats close() {
    std::size_t total = 0;
    run_([&] { total = writer_.finish(); });
    out_.close();
    if (!out_) {
      throw RequestError(PASTRI_ERR_IO, "write failed: " + path_);
    }
    Stats stats = writer_.stats();
    stats.output_bytes = total;
    return stats;
  }

 private:
  template <class F>
  void run_(F&& call) {
    if (status_ == PASTRI_OK) {
      try {
        call();
        return;
      } catch (const std::invalid_argument& e) {
        status_ = PASTRI_ERR_INVALID_ARGUMENT;  // e.g. a partial block
        error_ = e.what();
      } catch (const std::runtime_error& e) {
        status_ = PASTRI_ERR_IO;  // the output stream failed
        error_ = e.what();
      } catch (const std::exception& e) {
        status_ = PASTRI_ERR_INTERNAL;
        error_ = e.what();
      }
    }
    throw RequestError(status_, error_);
  }

  std::string path_;
  std::ofstream out_;
  OstreamSink sink_;
  StreamWriter writer_;
  pastri_status status_ = PASTRI_OK;
  std::string error_;
};

}  // namespace

struct Server::Impl {
  explicit Impl(const ServerConfig& cfg) : config(cfg) {}

  ServerConfig config;
  int listen_fd = -1;
  std::uint16_t bound_port = 0;
  std::atomic<bool> stopping{false};
  std::thread accept_thread;
  std::vector<std::thread> workers;

  // Bounded queue of accepted connections awaiting a worker, and the
  // connections workers are serving (stop() shuts these down so no
  // worker sits out its receive timeout on an idle client).
  std::mutex conn_mu;
  std::condition_variable conn_cv;
  std::deque<int> conn_queue;
  std::set<int> live_fds;

  // Server-wide store registry, deduplicated by path so every client of
  // the same container shares one sharded cache.
  std::mutex store_mu;
  std::map<std::string, std::uint32_t> store_ids;
  std::vector<std::shared_ptr<io::BlockStore>> stores;
  std::atomic<std::size_t> active_connections{0};

  // ---- socket helpers --------------------------------------------------

  /// Read exactly n bytes.  Returns false on orderly EOF before any
  /// byte; throws on mid-buffer EOF/error.  Honors the receive timeout
  /// so a stalled peer cannot pin a worker past stop().
  bool read_exact(int fd, void* buf, std::size_t n) {
    auto* p = static_cast<std::uint8_t*>(buf);
    std::size_t got = 0;
    while (got < n) {
      const ssize_t r = ::recv(fd, p + got, n - got, 0);
      if (r > 0) {
        got += static_cast<std::size_t>(r);
        continue;
      }
      if (r == 0) {
        if (got == 0) return false;
        throw RequestError(PASTRI_ERR_CORRUPT_STREAM,
                           "connection closed mid-frame");
      }
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        if (stopping.load(std::memory_order_relaxed)) {
          throw RequestError(PASTRI_ERR_BUSY, "server stopping");
        }
        continue;
      }
      throw RequestError(PASTRI_ERR_IO, "recv failed");
    }
    metrics().bytes_in.add(n);
    return true;
  }

  void write_all(int fd, const void* buf, std::size_t n) {
    const auto* p = static_cast<const std::uint8_t*>(buf);
    std::size_t sent = 0;
    while (sent < n) {
      const ssize_t w = ::send(fd, p + sent, n - sent, MSG_NOSIGNAL);
      if (w >= 0) {
        sent += static_cast<std::size_t>(w);
        continue;
      }
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        if (stopping.load(std::memory_order_relaxed)) {
          throw RequestError(PASTRI_ERR_BUSY, "server stopping");
        }
        continue;
      }
      throw RequestError(PASTRI_ERR_IO, "send failed");
    }
    metrics().bytes_out.add(n);
  }

  void send_response(int fd, std::uint8_t opcode, pastri_status status,
                     const std::vector<std::uint8_t>& body) {
    WireWriter head;
    head.u32(static_cast<std::uint32_t>(body.size()));
    head.u8(opcode);
    head.i32(static_cast<std::int32_t>(status));
    write_all(fd, head.data().data(), head.data().size());
    if (!body.empty()) write_all(fd, body.data(), body.size());
  }

  // ---- store registry --------------------------------------------------

  std::shared_ptr<io::BlockStore> store(std::uint32_t id) {
    std::lock_guard<std::mutex> lock(store_mu);
    if (id >= stores.size() || !stores[id]) {
      throw RequestError(PASTRI_ERR_INVALID_ARGUMENT, "unknown store id");
    }
    return stores[id];
  }

  std::uint32_t register_store(const std::string& path,
                               std::shared_ptr<io::BlockStore> opened) {
    std::lock_guard<std::mutex> lock(store_mu);
    if (auto it = store_ids.find(path); it != store_ids.end()) {
      return it->second;
    }
    if (stores.size() >= config.max_open_stores) {
      throw RequestError(PASTRI_ERR_BUSY, "open store cap reached");
    }
    const auto id = static_cast<std::uint32_t>(stores.size());
    stores.push_back(std::move(opened));
    store_ids.emplace(path, id);
    metrics().open_stores.set(static_cast<double>(stores.size()));
    return id;
  }

  /// Look up an existing store by path without opening one.
  std::shared_ptr<io::BlockStore> find_store(const std::string& path,
                                             std::uint32_t* id) {
    std::lock_guard<std::mutex> lock(store_mu);
    if (auto it = store_ids.find(path); it != store_ids.end()) {
      *id = it->second;
      return stores[it->second];
    }
    return nullptr;
  }

  // ---- request handlers ------------------------------------------------

  std::vector<std::uint8_t> handle_open_store(WireReader& req) {
    const std::uint8_t kind = req.u8();
    const std::uint64_t cache_blocks = req.u64();
    const std::uint32_t cache_shards = req.u32();
    (void)req.f64();  // error_bound: kept in the wire layout, unused
    const std::string path = req.str();
    req.expect_end();
    if (kind != 0) {
      throw RequestError(PASTRI_ERR_INVALID_ARGUMENT,
                         "unknown store kind");
    }
    CacheConfig cache = config.default_cache;
    if (cache_blocks != 0) {
      cache.capacity_blocks = static_cast<std::size_t>(cache_blocks);
      cache.num_shards = cache_shards == 0 ? cache.num_shards : cache_shards;
    }

    std::uint32_t id = 0;
    std::shared_ptr<io::BlockStore> opened = find_store(path, &id);
    if (!opened) {
      try {
        opened = std::make_shared<io::BlockStore>(path, cache);
      } catch (const std::invalid_argument& e) {
        throw RequestError(PASTRI_ERR_INVALID_ARGUMENT, e.what());
      } catch (const std::runtime_error& e) {
        throw RequestError(PASTRI_ERR_CORRUPT_STREAM, e.what());
      }
      id = register_store(path, opened);
    }

    WireWriter out;
    out.u32(id);
    out.u64(opened->num_blocks());
    out.u64(opened->block_size());
    return out.take();
  }

  std::vector<std::uint8_t> handle_get_block(WireReader& req) {
    const std::uint32_t id = req.u32();
    const std::uint64_t block = req.u64();
    req.expect_end();
    const auto blocks = store(id);
    std::shared_ptr<const std::vector<double>> values;
    try {
      values = blocks->block(static_cast<std::size_t>(block));
    } catch (const std::out_of_range& e) {
      throw RequestError(PASTRI_ERR_INVALID_ARGUMENT, e.what());
    } catch (const std::runtime_error& e) {
      throw RequestError(PASTRI_ERR_CORRUPT_STREAM, e.what());
    }
    WireWriter out;
    out.u64(values->size());
    out.bytes(values->data(), values->size() * sizeof(double));
    return out.take();
  }

  std::vector<std::uint8_t> handle_get_range(WireReader& req) {
    const std::uint32_t id = req.u32();
    const std::uint64_t first = req.u64();
    const std::uint64_t count = req.u64();
    req.expect_end();
    const auto blocks = store(id);
    const std::uint64_t block_bytes = blocks->block_size() * sizeof(double);
    if (block_bytes == 0 || count > kMaxFrameBytes / block_bytes) {
      throw RequestError(PASTRI_ERR_INVALID_ARGUMENT,
                         "range larger than the frame cap");
    }
    std::vector<double> values;
    try {
      values = blocks->range(static_cast<std::size_t>(first),
                             static_cast<std::size_t>(count));
    } catch (const std::out_of_range& e) {
      throw RequestError(PASTRI_ERR_INVALID_ARGUMENT, e.what());
    } catch (const std::runtime_error& e) {
      throw RequestError(PASTRI_ERR_CORRUPT_STREAM, e.what());
    }
    WireWriter out;
    out.u64(values.size());
    out.bytes(values.data(), values.size() * sizeof(double));
    return out.take();
  }

  std::vector<std::uint8_t> handle_stats(WireReader& req) {
    const std::uint32_t id = req.u32();
    req.expect_end();
    const CacheStats st = store(id)->cache_stats();
    WireWriter out;
    out.u64(st.hits);
    out.u64(st.misses);
    out.u64(st.bytes);
    out.u64(st.unique_blocks);
    return out.take();
  }

  // ---- connection loop -------------------------------------------------

  struct ConnectionState {
    std::map<std::uint32_t, std::unique_ptr<PutSession>> puts;
    std::uint32_t next_put_id = 1;
  };

  std::vector<std::uint8_t> handle_put_open(ConnectionState& conn,
                                            WireReader& req) {
    BlockSpec spec;
    spec.num_sub_blocks = req.u16();
    spec.sub_block_size = req.u16();
    const double error_bound = req.f64();
    const std::string path = req.str();
    req.expect_end();
    if (conn.puts.size() >= config.max_put_sessions) {
      throw RequestError(PASTRI_ERR_BUSY, "PUT session cap reached");
    }
    Params params;
    if (error_bound > 0.0) params.error_bound = error_bound;
    std::unique_ptr<PutSession> session;
    try {
      spec.validate();  // before opening truncates a file at the path
      session = std::make_unique<PutSession>(path, spec, params);
    } catch (const std::invalid_argument& e) {
      throw RequestError(PASTRI_ERR_INVALID_ARGUMENT, e.what());
    }
    const std::uint32_t sid = conn.next_put_id++;
    conn.puts.emplace(sid, std::move(session));
    WireWriter out;
    out.u32(sid);
    return out.take();
  }

  std::vector<std::uint8_t> handle_put_chunk(ConnectionState& conn,
                                             WireReader& req) {
    const std::uint32_t sid = req.u32();
    const std::size_t bytes = req.remaining();
    if (bytes % sizeof(double) != 0) {
      throw RequestError(PASTRI_ERR_INVALID_ARGUMENT,
                         "chunk is not a whole number of doubles");
    }
    auto it = conn.puts.find(sid);
    if (it == conn.puts.end()) {
      throw RequestError(PASTRI_ERR_INVALID_ARGUMENT,
                         "unknown PUT session");
    }
    std::vector<double> chunk(bytes / sizeof(double));
    std::memcpy(chunk.data(), req.rest(), bytes);
    it->second->put(chunk);
    return {};
  }

  std::vector<std::uint8_t> handle_put_close(ConnectionState& conn,
                                             WireReader& req) {
    const std::uint32_t sid = req.u32();
    req.expect_end();
    auto it = conn.puts.find(sid);
    if (it == conn.puts.end()) {
      throw RequestError(PASTRI_ERR_INVALID_ARGUMENT,
                         "unknown PUT session");
    }
    Stats stats;
    try {
      stats = it->second->close();
    } catch (...) {
      conn.puts.erase(it);
      throw;
    }
    conn.puts.erase(it);
    WireWriter out;
    out.u64(stats.num_blocks);
    out.u64(stats.input_bytes);
    out.u64(stats.output_bytes);
    return out.take();
  }

  /// One binary-protocol frame: returns false when the peer hung up.
  bool serve_frame(int fd, ConnectionState& conn) {
    std::uint8_t head[5];
    if (!read_exact(fd, head, 4)) return false;
    std::uint32_t payload_len;
    std::memcpy(&payload_len, head, 4);
    if (payload_len > kMaxFrameBytes) {
      // The framing itself cannot be trusted past this point; respond
      // and let the caller close the connection.
      metrics().errors.inc();
      send_response(fd, 0, PASTRI_ERR_INVALID_ARGUMENT, {});
      return false;
    }
    read_exact(fd, head + 4, 1);
    const std::uint8_t opcode = head[4];
    std::vector<std::uint8_t> payload(payload_len);
    if (payload_len != 0) read_exact(fd, payload.data(), payload_len);

    const auto start = std::chrono::steady_clock::now();
    metrics().requests.inc();
    pastri_status status = PASTRI_OK;
    std::vector<std::uint8_t> body;
    try {
      WireReader req(payload);
      switch (static_cast<Opcode>(opcode)) {
        case Opcode::kOpenStore: body = handle_open_store(req); break;
        case Opcode::kGetBlock: body = handle_get_block(req); break;
        case Opcode::kGetRange: body = handle_get_range(req); break;
        case Opcode::kStats: body = handle_stats(req); break;
        case Opcode::kPutOpen: body = handle_put_open(conn, req); break;
        case Opcode::kPutChunk: body = handle_put_chunk(conn, req); break;
        case Opcode::kPutClose: body = handle_put_close(conn, req); break;
        case Opcode::kPing: req.expect_end(); break;
        default:
          throw RequestError(PASTRI_ERR_INVALID_ARGUMENT,
                             "unknown opcode");
      }
    } catch (const RequestError& e) {
      status = e.status;
      body.clear();
    } catch (const std::out_of_range&) {
      status = PASTRI_ERR_INVALID_ARGUMENT;  // short / trailing frame
      body.clear();
    } catch (const std::exception&) {
      status = PASTRI_ERR_INTERNAL;
      body.clear();
    }
    if (status != PASTRI_OK) metrics().errors.inc();
    send_response(fd, opcode, status, body);
    metrics().request_ns.record(static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - start)
            .count()));
    return true;
  }

  void serve_http(int fd, const char hello[4]) {
    // Read the rest of the request head (we already have 4 bytes).
    std::string request(hello, 4);
    char c;
    while (request.size() < 8192 &&
           request.find("\r\n\r\n") == std::string::npos) {
      const ssize_t r = ::recv(fd, &c, 1, 0);
      if (r <= 0) {
        if (r < 0 && (errno == EINTR ||
                      ((errno == EAGAIN || errno == EWOULDBLOCK) &&
                       !stopping.load(std::memory_order_relaxed)))) {
          continue;
        }
        return;
      }
      request.push_back(c);
    }
    const std::size_t sp1 = request.find(' ');
    const std::size_t sp2 = request.find(' ', sp1 + 1);
    const std::string path = sp2 == std::string::npos
                                 ? std::string()
                                 : request.substr(sp1 + 1, sp2 - sp1 - 1);
    std::string body, head;
    if (path == "/metrics") {
      body = obs::export_prometheus(obs::registry().snapshot());
      head = "HTTP/1.1 200 OK\r\nContent-Type: text/plain; "
             "version=0.0.4\r\n";
    } else {
      body = "not found\n";
      head = "HTTP/1.1 404 Not Found\r\nContent-Type: text/plain\r\n";
    }
    head += "Content-Length: " + std::to_string(body.size()) +
            "\r\nConnection: close\r\n\r\n";
    try {
      write_all(fd, head.data(), head.size());
      write_all(fd, body.data(), body.size());
    } catch (const RequestError&) {
      // Peer went away mid-response; nothing to clean up.
    }
  }

  void serve_connection(int fd) {
    metrics().active_connections.set(
        static_cast<double>(++active_connections));
    char hello[4];
    try {
      if (read_exact(fd, hello, 4)) {
        if (std::memcmp(hello, kHello, 4) == 0) {
          ConnectionState conn;
          while (!stopping.load(std::memory_order_relaxed)) {
            if (!serve_frame(fd, conn)) break;
          }
        } else if (std::memcmp(hello, "GET ", 4) == 0) {
          serve_http(fd, hello);
        }
        // Anything else: unknown protocol, close silently.
      }
    } catch (const RequestError&) {
      // Framing/transport failure: the connection is beyond saving.
      metrics().errors.inc();
    }
    {
      // Unlisted before the close, so stop() never shuts down a reused fd.
      std::lock_guard<std::mutex> lock(conn_mu);
      live_fds.erase(fd);
    }
    ::close(fd);
    metrics().active_connections.set(
        static_cast<double>(--active_connections));
  }

  void worker_loop() {
    for (;;) {
      int fd = -1;
      {
        std::unique_lock<std::mutex> lock(conn_mu);
        conn_cv.wait(lock, [this] {
          return !conn_queue.empty() ||
                 stopping.load(std::memory_order_relaxed);
        });
        // Stopping: stop() closes whatever is still queued.
        if (stopping.load(std::memory_order_relaxed)) return;
        fd = conn_queue.front();
        conn_queue.pop_front();
        live_fds.insert(fd);
      }
      serve_connection(fd);
    }
  }

  void accept_loop() {
    for (;;) {
      const int fd = ::accept(listen_fd, nullptr, nullptr);
      if (fd < 0) {
        if (errno == EINTR) continue;
        return;  // listen socket closed by stop()
      }
      if (stopping.load(std::memory_order_relaxed)) {
        ::close(fd);
        return;
      }
      // Bound every read so a stalled peer cannot pin a worker forever.
      timeval tv{};
      tv.tv_usec = 200 * 1000;
      ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
      int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      bool shed = false;
      {
        std::lock_guard<std::mutex> lock(conn_mu);
        if (conn_queue.size() >= config.accept_queue_depth) {
          shed = true;
        } else {
          conn_queue.push_back(fd);
        }
      }
      if (shed) {
        metrics().shed.inc();
        try {
          send_response(fd, 0, PASTRI_ERR_BUSY, {});
        } catch (const RequestError&) {
        }
        ::close(fd);
      } else {
        conn_cv.notify_one();
      }
    }
  }
};

Server::Server(const ServerConfig& config)
    : impl_(std::make_unique<Impl>(config)) {}

Server::~Server() { stop(); }

void Server::start() {
  Impl& s = *impl_;
  if (s.listen_fd >= 0) throw std::logic_error("Server already started");
  s.listen_fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (s.listen_fd < 0) throw std::runtime_error("socket() failed");
  int one = 1;
  ::setsockopt(s.listen_fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(s.config.port);
  if (::bind(s.listen_fd, reinterpret_cast<sockaddr*>(&addr),
             sizeof(addr)) != 0 ||
      ::listen(s.listen_fd, 64) != 0) {
    ::close(s.listen_fd);
    s.listen_fd = -1;
    throw std::runtime_error("cannot bind 127.0.0.1:" +
                             std::to_string(s.config.port));
  }
  socklen_t len = sizeof(addr);
  ::getsockname(s.listen_fd, reinterpret_cast<sockaddr*>(&addr), &len);
  s.bound_port = ntohs(addr.sin_port);

  const std::size_t workers =
      s.config.num_workers == 0 ? 1 : s.config.num_workers;
  s.workers.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i) {
    s.workers.emplace_back([&s] { s.worker_loop(); });
  }
  s.accept_thread = std::thread([&s] { s.accept_loop(); });
}

std::uint16_t Server::port() const { return impl_->bound_port; }

const ServerConfig& Server::config() const { return impl_->config; }

void Server::stop() {
  Impl& s = *impl_;
  if (s.listen_fd < 0) return;
  s.stopping.store(true, std::memory_order_relaxed);
  ::shutdown(s.listen_fd, SHUT_RDWR);
  ::close(s.listen_fd);
  if (s.accept_thread.joinable()) s.accept_thread.join();
  {
    // Wake every worker blocked in recv on a connected client: its recv
    // returns EOF at once instead of waiting out SO_RCVTIMEO.
    std::lock_guard<std::mutex> lock(s.conn_mu);
    for (const int fd : s.live_fds) ::shutdown(fd, SHUT_RDWR);
  }
  s.conn_cv.notify_all();
  for (std::thread& w : s.workers) {
    if (w.joinable()) w.join();
  }
  s.workers.clear();
  {
    std::lock_guard<std::mutex> lock(s.conn_mu);
    for (int fd : s.conn_queue) ::close(fd);
    s.conn_queue.clear();
  }
  {
    std::lock_guard<std::mutex> lock(s.store_mu);
    s.stores.clear();
    s.store_ids.clear();
    metrics().open_stores.set(0.0);
  }
  s.listen_fd = -1;
}

}  // namespace pastri::serve
