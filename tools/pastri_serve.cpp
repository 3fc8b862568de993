// pastri_serve - Long-running daemon serving compressed block stores
// over TCP (binary protocol + HTTP /metrics on one port).
//
//   pastri_serve [--port N] [--workers N] [--accept-queue N]
//                [--max-stores N] [--cache-blocks N] [--cache-shards N]
//
// --cache-shards is capped at --cache-blocks and at 256.
// Binds 127.0.0.1 only.  Prints "listening on 127.0.0.1:<port>" once
// ready (scrapeable by scripts that pass --port 0 for an ephemeral
// port) and exits cleanly on SIGINT/SIGTERM.
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <semaphore>

#include "serve/server.h"

namespace {

std::binary_semaphore g_shutdown(0);

void on_signal(int) { g_shutdown.release(); }

int usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--port N] [--workers N] [--accept-queue N]\n"
      "          [--max-stores N] [--cache-blocks N] [--cache-shards N]\n"
      "Serves PaSTRI block stores on 127.0.0.1 (binary protocol and\n"
      "HTTP GET /metrics on the same port).  --port 0 (the default)\n"
      "picks an ephemeral port, printed on stdout at startup.\n"
      "--cache-shards is capped at --cache-blocks and at 256.\n",
      argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  pastri::serve::ServerConfig config;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    const char* val = i + 1 < argc ? argv[i + 1] : nullptr;
    auto take = [&](std::size_t& out) {
      if (val == nullptr) return false;
      out = static_cast<std::size_t>(std::strtoull(val, nullptr, 10));
      ++i;
      return true;
    };
    std::size_t n = 0;
    if (std::strcmp(arg, "--port") == 0 && take(n)) {
      config.port = static_cast<std::uint16_t>(n);
    } else if (std::strcmp(arg, "--workers") == 0 && take(n)) {
      config.num_workers = n;
    } else if (std::strcmp(arg, "--accept-queue") == 0 && take(n)) {
      config.accept_queue_depth = n;
    } else if (std::strcmp(arg, "--max-stores") == 0 && take(n)) {
      config.max_open_stores = n;
    } else if (std::strcmp(arg, "--cache-blocks") == 0 && take(n)) {
      config.default_cache.capacity_blocks = n;
    } else if (std::strcmp(arg, "--cache-shards") == 0 && take(n)) {
      config.default_cache.num_shards = n;
    } else {
      return usage(argv[0]);
    }
  }

  pastri::serve::Server server(config);
  try {
    server.start();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pastri_serve: %s\n", e.what());
    return 1;
  }
  std::printf("listening on 127.0.0.1:%u\n",
              static_cast<unsigned>(server.port()));
  std::fflush(stdout);

  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);
  g_shutdown.acquire();
  std::fprintf(stderr, "pastri_serve: shutting down\n");
  server.stop();
  return 0;
}
