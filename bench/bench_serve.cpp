// bench_serve.cpp - Concurrency benchmark of the pastri_serve daemon
// and the sharded block cache behind it.
//
// Two measurements:
//
//   1. Warm-read scaling of ShardedBlockCache-backed BlockStore reads
//      at 1/2/4/8 threads, once with the default 8-way striping and
//      once with num_shards=1 (the old single-global-mutex behavior),
//      so the striping win -- and the host's actual core budget -- are
//      both on the record.
//
//   2. K concurrent clients (own TCP connection each) driving a mixed
//      workload against a live Server: 70% GET_BLOCK, 15% GET_RANGE,
//      15% PUT_CHUNK into a per-client streaming session.  Reports
//      p50/p99 request latency, aggregate throughput, and the error
//      count (which must be zero).
//
// Emits BENCH_serve.json at the repo root.  `--smoke` shrinks the run
// for CI and writes the JSON into the build tree instead (see
// bench::artifact_path); `--port N` targets an externally started
// daemon instead of an in-process Server (the CI smoke step uses this
// against a real pastri_serve process).
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <random>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "core/pastri.h"
#include "core/stream.h"
#include "io/block_store.h"
#include "serve/client.h"
#include "serve/server.h"

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::string write_container(const pastri::BlockSpec& spec,
                            std::size_t num_blocks) {
  const std::string path = "/tmp/pastri_bench_serve.pastri";
  std::mt19937_64 gen(20180901);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  std::ofstream f(path, std::ios::binary);
  pastri::OstreamSink sink(f);
  pastri::StreamWriter writer(sink, spec, pastri::Params{});
  std::vector<double> block(spec.block_size());
  std::vector<double> base(spec.sub_block_size);
  for (std::size_t b = 0; b < num_blocks; ++b) {
    for (auto& x : base) x = 1e-4 * dist(gen);
    for (std::size_t j = 0; j < spec.num_sub_blocks; ++j) {
      const double s = dist(gen);
      for (std::size_t i = 0; i < spec.sub_block_size; ++i) {
        block[j * spec.sub_block_size + i] = s * base[i] + 1e-8 * dist(gen);
      }
    }
    writer.put_block(block);
  }
  writer.finish();
  return path;
}

struct ScalingRow {
  std::size_t threads;
  std::size_t shards;
  double mops_per_s;
};

/// Warm-cache lookup rate: every block pre-decoded, T threads hammer
/// random lookups for a fixed op count each.
ScalingRow warm_read_rate(const std::string& path, std::size_t threads,
                          std::size_t shards, std::size_t num_blocks,
                          std::size_t ops_per_thread) {
  pastri::io::BlockStore store(path,
                               pastri::CacheConfig{num_blocks, shards});
  for (std::size_t b = 0; b < num_blocks; ++b) (void)store.block(b);
  std::atomic<bool> go{false};
  std::vector<std::thread> pool;
  for (std::size_t t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      while (!go.load(std::memory_order_acquire)) {
      }
      std::uint64_t rng = 0x853C49E6748FEA9Bull + t;
      for (std::size_t i = 0; i < ops_per_thread; ++i) {
        rng = rng * 6364136223846793005ull + 1442695040888963407ull;
        (void)store.block((rng >> 33) % num_blocks);
      }
    });
  }
  const auto t0 = Clock::now();
  go.store(true, std::memory_order_release);
  for (auto& th : pool) th.join();
  const double dt = seconds_since(t0);
  return {threads, shards,
          static_cast<double>(threads * ops_per_thread) / dt / 1e6};
}

struct ClientResult {
  std::vector<double> latencies_us;
  std::uint64_t bytes_read = 0;
  std::uint64_t bytes_written = 0;
  std::uint64_t errors = 0;
};

ClientResult run_client(std::uint16_t port, std::size_t index,
                        const std::string& container,
                        std::size_t num_blocks, std::size_t block_size,
                        std::size_t ops) {
  ClientResult res;
  res.latencies_us.reserve(ops);
  try {
    pastri::serve::Client client("127.0.0.1", port);
    const pastri::serve::StoreInfo info = client.open_store(container);
    const std::string put_path =
        "/tmp/pastri_bench_serve_put_" + std::to_string(index) + ".pastri";
    const std::uint32_t put = client.put_open(put_path, 36, 36);
    std::vector<double> chunk(block_size, 0.25 + 1e-3 * index);
    std::uint64_t rng = 0x2545F4914F6CDD1Dull * (index + 1);
    for (std::size_t i = 0; i < ops; ++i) {
      rng = rng * 6364136223846793005ull + 1442695040888963407ull;
      const std::uint64_t pick = (rng >> 57) % 20;  // 0..19
      const auto t0 = Clock::now();
      try {
        if (pick < 14) {
          const auto blk =
              client.get_block(info.id, (rng >> 20) % num_blocks);
          res.bytes_read += blk.size() * sizeof(double);
        } else if (pick < 17) {
          const std::size_t first = (rng >> 20) % (num_blocks - 8);
          const auto r = client.get_range(info.id, first, 8);
          res.bytes_read += r.size() * sizeof(double);
        } else {
          client.put_chunk(put, chunk);
          res.bytes_written += chunk.size() * sizeof(double);
        }
      } catch (const std::exception&) {
        ++res.errors;
      }
      res.latencies_us.push_back(seconds_since(t0) * 1e6);
    }
    (void)client.put_close(put);
    std::remove(put_path.c_str());
  } catch (const std::exception&) {
    ++res.errors;
  }
  return res;
}

double percentile(std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const auto idx = static_cast<std::size_t>(
      p * static_cast<double>(sorted.size() - 1));
  return sorted[idx];
}

}  // namespace

int main(int argc, char** argv) {
  using namespace pastri;
  bool smoke = bench::quick_mode();
  std::uint16_t external_port = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--port") == 0 && i + 1 < argc) {
      external_port =
          static_cast<std::uint16_t>(std::atoi(argv[++i]));
    } else {
      std::fprintf(stderr, "usage: %s [--smoke] [--port N]\n", argv[0]);
      return 2;
    }
  }

  const BlockSpec spec{36, 36};  // the paper's (dd|dd) shape
  const std::size_t num_blocks = smoke ? 64 : 512;
  const std::size_t clients = smoke ? 4 : 8;
  const std::size_t ops_per_client = smoke ? 200 : 2000;
  const std::size_t warm_ops = smoke ? 20000 : 200000;
  const std::string container = write_container(spec, num_blocks);

  // ---- 1. warm-read cache scaling, striped vs single mutex ------------
  std::vector<ScalingRow> scaling;
  for (const std::size_t shards : {std::size_t{8}, std::size_t{1}}) {
    for (const std::size_t threads :
         {std::size_t{1}, std::size_t{2}, std::size_t{4}, std::size_t{8}}) {
      scaling.push_back(
          warm_read_rate(container, threads, shards, num_blocks, warm_ops));
      std::printf("warm read: %zu thread(s), %zu shard(s): %8.2f Mops/s\n",
                  scaling.back().threads, scaling.back().shards,
                  scaling.back().mops_per_s);
    }
  }

  // ---- 2. mixed concurrent clients against a live daemon ---------------
  serve::Server server;  // used unless --port points elsewhere
  std::uint16_t port = external_port;
  if (port == 0) {
    server.start();
    port = server.port();
  }

  const auto t0 = Clock::now();
  std::vector<ClientResult> results(clients);
  {
    std::vector<std::thread> pool;
    for (std::size_t c = 0; c < clients; ++c) {
      pool.emplace_back([&, c] {
        results[c] = run_client(port, c, container, num_blocks,
                                spec.block_size(), ops_per_client);
      });
    }
    for (auto& th : pool) th.join();
  }
  const double elapsed = seconds_since(t0);

  std::vector<double> latencies;
  std::uint64_t bytes_read = 0, bytes_written = 0, errors = 0;
  for (const ClientResult& r : results) {
    latencies.insert(latencies.end(), r.latencies_us.begin(),
                     r.latencies_us.end());
    bytes_read += r.bytes_read;
    bytes_written += r.bytes_written;
    errors += r.errors;
  }
  std::sort(latencies.begin(), latencies.end());
  const double p50 = percentile(latencies, 0.50);
  const double p99 = percentile(latencies, 0.99);
  const double gbps =
      static_cast<double>(bytes_read + bytes_written) / elapsed / 1e9;
  const double rps = static_cast<double>(latencies.size()) / elapsed;

  std::printf(
      "serve: %zu clients x %zu ops  p50 %.1f us  p99 %.1f us  "
      "%.0f req/s  %.3f GB/s  errors %llu\n",
      clients, ops_per_client, p50, p99, rps, gbps,
      static_cast<unsigned long long>(errors));

  // ---- artifact ---------------------------------------------------------
  const std::string out = bench::artifact_path("BENCH_serve.json", smoke);
  std::ofstream json(out);
  json << "{\n  \"mode\": \"" << (smoke ? "smoke" : "default") << "\",\n";
  json << "  \"host\": {\"hardware_concurrency\": "
       << std::thread::hardware_concurrency() << "},\n";
  if (std::thread::hardware_concurrency() < 8) {
    json << "  \"note\": \"host has fewer cores than bench threads; "
            "warm-read scaling reflects lock overhead only, not "
            "parallel speedup\",\n";
  }
  json << "  \"warm_read_scaling\": [\n";
  for (std::size_t i = 0; i < scaling.size(); ++i) {
    json << "    {\"threads\": " << scaling[i].threads
         << ", \"shards\": " << scaling[i].shards << ", \"mops_per_s\": "
         << scaling[i].mops_per_s << "}"
         << (i + 1 < scaling.size() ? "," : "") << "\n";
  }
  json << "  ],\n";
  json << "  \"serve\": {\"clients\": " << clients
       << ", \"ops_per_client\": " << ops_per_client
       << ", \"p50_us\": " << p50 << ", \"p99_us\": " << p99
       << ", \"requests_per_s\": " << rps << ", \"throughput_gb_s\": "
       << gbps << ", \"bytes_read\": " << bytes_read
       << ", \"bytes_written\": " << bytes_written << ", \"errors\": "
       << errors << "}\n}\n";
  json.close();
  std::printf("wrote %s\n", out.c_str());

  std::remove(container.c_str());
  return errors == 0 ? 0 : 1;
}
