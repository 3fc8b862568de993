// pastri_tool - Command-line compressor, the analogue of the PaSTRI mode
// shipped in the SZ package: compresses/decompresses .eri dataset files.
//
//   $ pastri_tool compress   in.eri out.pastri [--eb 1e-10]
//                            [--metric ER|FR|AR|AAR|IS]
//                            [--tree 1..5] [--no-sparse]
//                            [--chunk BYTES] [--threads N]
//   $ pastri_tool decompress in.pastri out.eri [--chunk BYTES]
//                            [--threads N]
//   $ pastri_tool verify     in.eri in.pastri
//   $ pastri_tool extract    in.pastri FIRST [COUNT]   # seek, don't scan
//   $ pastri_tool inspect    in.pastri                 # index stats
//
// compress/decompress stream through fixed-size chunks (default 4 MiB):
// peak memory is O(chunk), independent of the dataset size, and "-"
// works as IN or OUT for stdin/stdout pipelines --
//
//   $ generator | pastri_tool compress - - > eri.pastri
//
// (the .eri header always carries the block count, so compressing to a
// pipe needs no seeking).
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>

#include "core/pastri.h"
#include "core/pastri_capi.h"
#include "core/simd/simd.h"
#include "core/stream.h"
#include "io/tool_container.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "qc/eri_engine.h"
#include "qc/eri_pipeline.h"
#include "qc/molecule.h"
#include "serve/client.h"

namespace {

using namespace pastri;

constexpr std::size_t kDefaultChunkBytes = std::size_t{4} << 20;

/// --metrics[=json|prom] report, printed to stderr on exit so it can
/// never corrupt a payload going to stdout.
enum class MetricsMode { Off, Json, Prom };
MetricsMode g_metrics_mode = MetricsMode::Off;

/// Set by cmd_compress so the json report can pair the run's Stats with
/// the metrics snapshot (obs::export_run_json).
Stats g_compress_stats;
bool g_have_compress_stats = false;

int usage() {
  std::fprintf(
      stderr,
      "usage:\n"
      "  pastri_tool compress   IN.eri OUT.pastri [--eb E] [--metric M]"
      " [--tree N] [--no-sparse] [--chunk BYTES] [--threads N]\n"
      "  pastri_tool decompress IN.pastri OUT.eri [--chunk BYTES]"
      " [--threads N]\n"
      "  pastri_tool verify     IN.eri IN.pastri\n"
      "  pastri_tool extract    IN.pastri FIRST [COUNT]\n"
      "  pastri_tool inspect    IN.pastri\n"
      "  pastri_tool generate   MOLECULE CONFIG DIR BASENAME"
      " [--shards N] [--resume] [--eb E]"
      " [--blocks N] [--batch N] [--seed S]\n"
      "  pastri_tool serve-client HOST:PORT ping\n"
      "  pastri_tool serve-client HOST:PORT get-block STORE FIRST [COUNT]\n"
      "  pastri_tool serve-client HOST:PORT stats STORE\n"
      "  pastri_tool serve-client HOST:PORT put-stream IN.eri OUT.pastri"
      " [--eb E]\n"
      "\n"
      "every subcommand also accepts --metrics[=json|prom]: dump the\n"
      "telemetry snapshot (counters, gauges, latency histograms) to\n"
      "stderr on exit.\n"
      "\n"
      "compress/decompress stream via fixed-size chunks (peak memory\n"
      "O(chunk)); \"-\" as IN or OUT means stdin/stdout.\n");
  return 2;
}

std::vector<std::uint8_t> read_file(const std::string& path) {
  std::ifstream f(path, std::ios::binary | std::ios::ate);
  if (!f) throw std::runtime_error("cannot open " + path);
  const auto size = f.tellg();
  f.seekg(0);
  std::vector<std::uint8_t> data(static_cast<std::size_t>(size));
  f.read(reinterpret_cast<char*>(data.data()), size);
  return data;
}

ScalingMetric parse_metric(const std::string& s) {
  for (ScalingMetric m : {ScalingMetric::FR, ScalingMetric::ER,
                          ScalingMetric::AR, ScalingMetric::AAR,
                          ScalingMetric::IS}) {
    if (s == scaling_metric_name(m)) return m;
  }
  throw std::invalid_argument("unknown metric: " + s);
}

/// File-or-stdio stream selection ("-" = the standard stream).
std::istream& open_input(const std::string& path, std::ifstream& file) {
  if (path == "-") return std::cin;
  file.open(path, std::ios::binary);
  if (!file) throw std::runtime_error("cannot open " + path);
  return file;
}

std::ostream& open_output(const std::string& path, std::ofstream& file) {
  if (path == "-") return std::cout;
  file.open(path, std::ios::binary | std::ios::trunc);
  if (!file) throw std::runtime_error("cannot open " + path);
  return file;
}

int cmd_compress(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string in = argv[0], out = argv[1];
  Params p;
  std::size_t chunk_bytes = kDefaultChunkBytes;
  for (int i = 2; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (a == "--eb" && next()) p.error_bound = std::stod(argv[i]);
    else if (a == "--metric" && next()) p.metric = parse_metric(argv[i]);
    else if (a == "--tree" && next())
      p.tree = static_cast<EcqTree>(std::stoi(argv[i]));
    else if (a == "--no-sparse") p.allow_sparse = false;
    else if (a == "--chunk" && next())
      chunk_bytes = std::stoull(argv[i]);
    else if (a == "--threads" && next()) p.num_threads = std::stoi(argv[i]);
    else return usage();
  }

  std::ifstream fin;
  std::ofstream fout;
  std::istream& is = open_input(in, fin);
  std::ostream& os = open_output(out, fout);

  // The .eri header declares the block count, so the stream header can
  // be written final immediately -- no seeking, stdout works.
  const qc::EriDatasetHeader hdr = qc::read_dataset_header(is);
  const BlockSpec spec{hdr.shape.num_sub_blocks(),
                       hdr.shape.sub_block_size()};
  OstreamSink sink(os);
  io::write_tool_header(os, {hdr.label, hdr.shape});
  StreamWriter writer(sink, spec, p,
                      StreamWriterOptions{.expected_blocks = hdr.num_blocks});

  std::vector<double> buf(
      std::max<std::size_t>(1, chunk_bytes / sizeof(double)));
  std::size_t left = hdr.num_blocks * spec.block_size();
  while (left > 0) {
    const std::size_t want = std::min(buf.size(), left);
    is.read(reinterpret_cast<char*>(buf.data()),
            static_cast<std::streamsize>(want * sizeof(double)));
    const auto got_bytes = static_cast<std::size_t>(is.gcount());
    if (got_bytes == 0 || got_bytes % sizeof(double) != 0) {
      throw std::runtime_error("truncated .eri input");
    }
    const std::size_t got = got_bytes / sizeof(double);
    writer.put_values(std::span<const double>(buf.data(), got));
    left -= got;
  }
  writer.finish();
  os.flush();
  if (!os) throw std::runtime_error("write failed: " + out);

  // When the container goes to stdout the report must not corrupt it.
  std::FILE* rpt = out == "-" ? stderr : stdout;
  const Stats& st = writer.stats();
  g_compress_stats = st;
  g_have_compress_stats = true;
  std::fprintf(rpt,
               "%s: %zu -> %zu bytes, ratio %.2fx (EB=%.0e, %s, %s)\n",
               hdr.label.c_str(), st.input_bytes, st.output_bytes,
               st.ratio(), p.error_bound, scaling_metric_name(p.metric),
               ecq_tree_name(p.tree));
  std::fprintf(rpt,
               "block types: %zu/%zu/%zu/%zu  outliers: %zu  sparse "
               "blocks: %zu\n",
               st.blocks_by_type[0], st.blocks_by_type[1],
               st.blocks_by_type[2], st.blocks_by_type[3], st.num_outliers,
               st.sparse_blocks);
  return 0;
}

int cmd_decompress(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string in = argv[0], out = argv[1];
  std::size_t chunk_bytes = kDefaultChunkBytes;
  int num_threads = 0;
  for (int i = 2; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (a == "--chunk" && next()) chunk_bytes = std::stoull(argv[i]);
    else if (a == "--threads" && next()) num_threads = std::stoi(argv[i]);
    else return usage();
  }

  std::ifstream fin;
  std::ofstream fout;
  std::istream& is = open_input(in, fin);
  std::ostream& os = open_output(out, fout);

  const io::ToolHeader header = io::read_tool_header(is);
  const qc::BlockShape& shape = header.shape;
  IstreamSource source(is);
  StreamConsumer consumer(
      source, StreamConsumerOptions{.chunk_bytes = chunk_bytes,
                                    .num_threads = num_threads});
  if (consumer.info().spec.num_sub_blocks != shape.num_sub_blocks() ||
      consumer.info().spec.sub_block_size != shape.sub_block_size()) {
    throw std::runtime_error("container shape disagrees with stream header");
  }
  const std::size_t num_blocks = consumer.blocks_remaining();
  qc::write_dataset_header(os, {header.label, shape, num_blocks});

  std::vector<double> buf(
      std::max<std::size_t>(1, chunk_bytes / sizeof(double)));
  for (;;) {
    const std::size_t n = consumer.read_values(buf);
    if (n == 0) break;
    os.write(reinterpret_cast<const char*>(buf.data()),
             static_cast<std::streamsize>(n * sizeof(double)));
    if (!os) throw std::runtime_error("write failed: " + out);
  }
  os.flush();
  if (!os) throw std::runtime_error("write failed: " + out);

  std::FILE* rpt = out == "-" ? stderr : stdout;
  std::fprintf(rpt,
               "wrote %s: %zu blocks, %.2f MB (values within the error "
               "bound of the originals)\n",
               out.c_str(), num_blocks,
               static_cast<double>(num_blocks * shape.block_size() *
                                   sizeof(double)) /
                   1e6);
  return 0;
}

int cmd_verify(const char* eri_path, const char* pastri_path) {
  const auto original = qc::load_dataset(eri_path);
  const auto bytes = read_file(pastri_path);

  // Whole-container path: parse the header in memory, decompress all.
  const auto stream = io::parse_tool_file(bytes).stream;
  const auto info = peek_info(stream);
  const auto restored = decompress(stream, info);
  if (restored.size() != original.values.size()) {
    std::printf("FAIL: size mismatch\n");
    return 1;
  }
  double max_err = 0.0;
  for (std::size_t i = 0; i < restored.size(); ++i) {
    max_err = std::max(max_err,
                       std::abs(restored[i] - original.values[i]));
  }
  std::printf("max |error| = %.3e, bound = %.0e -> %s\n", max_err,
              info.error_bound,
              max_err <= info.error_bound ? "PASS" : "FAIL");
  return max_err <= info.error_bound ? 0 : 1;
}

int cmd_extract(const char* in, const char* first_s, const char* count_s) {
  // Random access through the block index: only the requested blocks are
  // decoded, however large the container.
  const auto bytes = read_file(in);
  const BlockReader reader(io::parse_tool_file(bytes).stream);
  const std::size_t first = std::stoull(first_s);
  const std::size_t count = count_s ? std::stoull(count_s) : 1;
  const auto values = reader.read_range(first, count);
  std::printf("# %zu block(s) from %zu of %zu (container v%u, block size "
              "%zu)\n",
              count, first, reader.num_blocks(), reader.info().version,
              reader.info().spec.block_size());
  for (std::size_t i = 0; i < values.size(); ++i) {
    std::printf("%.17g\n", values[i]);
  }
  return 0;
}

int cmd_inspect(const char* in) {
  const auto bytes = read_file(in);
  // A raw PaSTRI container (what serve-client put-stream writes) has no
  // tool header: it is inspected whole, under its path.
  const bool tool_file =
      bytes.size() >= 4 && std::memcmp(bytes.data(), &io::kToolMagic, 4) == 0;
  const io::ToolFile file = tool_file ? io::parse_tool_file(bytes)
                                      : io::ToolFile{{in, {}}, bytes};
  const auto stream = file.stream;

  // Probe through the C API first: a malformed or truncated container
  // reports its status code and the thread's error message instead of an
  // unwound exception.  Decoding block 0 walks the whole frame -- header,
  // index footer, and offset table.
  size_t nsb = 0, sbs = 0, nb = 0;
  pastri_status st =
      pastri_peek(stream.data(), stream.size(), nullptr, &nsb, &sbs, &nb);
  if (st == PASTRI_OK && nb > 0) {
    std::vector<double> probe(nsb * sbs);
    st = pastri_decompress_block(stream.data(), stream.size(), 0,
                                 probe.data(), probe.size());
  }
  if (st != PASTRI_OK) {
    std::fprintf(stderr, "error: %s: %s\n", pastri_status_name(st),
                 pastri_last_error_message());
    return 1;
  }

  const BlockReader reader(stream);
  const StreamInfo& info = reader.info();
  std::printf("%s: container v%u, %zu blocks of %zux%zu (EB=%.0e, %s, "
              "%s)\n",
              file.header.label.c_str(), info.version, reader.num_blocks(),
              info.spec.num_sub_blocks, info.spec.sub_block_size,
              info.error_bound, scaling_metric_name(info.metric),
              ecq_tree_name(info.tree));

  const BlockIndex& idx = reader.index();
  std::size_t payload_bytes = 0, min_len = SIZE_MAX, max_len = 0;
  for (std::size_t b = 0; b < idx.num_blocks(); ++b) {
    const std::size_t len = idx.extent(b).length;
    payload_bytes += len;
    min_len = std::min(min_len, len);
    max_len = std::max(max_len, len);
  }
  if (idx.num_blocks() == 0) min_len = 0;
  std::printf("index: %zu entries, %zu table bytes; payloads %zu bytes "
              "(min %zu / avg %.1f / max %zu per block)\n",
              idx.num_blocks(), idx.serialized_bytes(), payload_bytes,
              min_len,
              idx.num_blocks()
                  ? static_cast<double>(payload_bytes) /
                        static_cast<double>(idx.num_blocks())
                  : 0.0,
              max_len);

  // Resolved encode SIMD tier plus per-tier availability, so a
  // mis-dispatch -- e.g. AVX-512 silently falling back to scalar on an
  // OS without ZMM state saving -- is visible here and in the
  // pastri_core_simd_backend gauge of --metrics.  Decode always runs
  // the scalar path.
  std::printf("simd: encode backend %s, decode scalar; tiers",
              simd::backend_name(simd::active_backend()));
  for (simd::Backend b : simd::kAllBackends) {
    std::printf(" %s=%s", simd::backend_name(b),
                simd::backend_supported(b) ? "yes" : "no");
  }
  std::printf("\n");
  return 0;
}

/// generate: the fused compute->compress->io dump from the shell.
/// Plans MOLECULE's sampled CONFIG dataset, computes and then encodes
/// one chunk of quartet blocks at a time, and writes
/// `DIR/BASENAME.manifest` + shards -- the same files a dense
/// generate-then-compress run produces, byte for byte.
/// --resume continues an interrupted dump.
int cmd_generate(int argc, char** argv) {
  if (argc < 4) return usage();
  const std::string molecule = argv[0], config = argv[1];
  const std::string dir = argv[2], basename = argv[3];
  Params p;
  qc::DatasetOptions dopt;
  dopt.config = qc::parse_config(config);
  qc::EriDumpOptions dump;
  for (int i = 4; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (a == "--shards" && next()) dump.num_shards = std::stoi(argv[i]);
    else if (a == "--resume") dump.resume = true;
    else if (a == "--eb" && next()) p.error_bound = std::stod(argv[i]);
    else if (a == "--blocks" && next())
      dopt.max_blocks = std::stoull(argv[i]);
    else if (a == "--batch" && next())
      dump.batch_blocks = std::stoull(argv[i]);
    else if (a == "--seed" && next()) dopt.seed = std::stoull(argv[i]);
    else return usage();
  }

  const qc::Molecule mol = qc::make_molecule(molecule);
  const qc::EriDumpResult res =
      qc::dump_eri_sharded(mol, dopt, p, dir, basename, dump);
  const qc::EriPipelineResult& pl = res.pipeline;

  std::printf("%s: %zu blocks -> %zu shards, %zu compressed bytes"
              " (%zu shards / %zu blocks reused)\n",
              pl.meta.label.c_str(), pl.meta.num_blocks, res.shards_total,
              res.bytes_total, res.shards_reused, res.blocks_reused);
  std::printf("wall %.3f s; busy compute %.3f / encode %.3f (io %.3f) s\n",
              static_cast<double>(pl.wall_ns) / 1e9,
              static_cast<double>(pl.compute_ns) / 1e9,
              static_cast<double>(pl.encode_ns) / 1e9,
              static_cast<double>(pl.io_ns) / 1e9);
  if (pl.stats.output_bytes > 0) {
    std::printf("codec: %zu -> %zu bytes, ratio %.2fx (EB=%.0e)\n",
                pl.stats.input_bytes, pl.stats.output_bytes,
                pl.stats.ratio(), p.error_bound);
  }
  return 0;
}

/// serve-client: drive a running pastri_serve daemon.
///
///   serve-client HOST:PORT ping
///   serve-client HOST:PORT get-block STORE_PATH FIRST [COUNT]
///   serve-client HOST:PORT stats STORE_PATH
///   serve-client HOST:PORT put-stream IN.eri OUT.pastri [--eb E]
///
/// STORE_PATH and OUT.pastri name files on the daemon's host (it opens
/// them server-side); IN.eri is read locally and streamed over the
/// wire.  put-stream writes a raw PaSTRI container (no tool header),
/// which open_store/get-block read back directly.
std::pair<std::string, std::uint16_t> parse_host_port(
    const std::string& arg) {
  const std::size_t colon = arg.rfind(':');
  if (colon == std::string::npos || colon + 1 >= arg.size()) {
    throw std::invalid_argument("expected HOST:PORT, got: " + arg);
  }
  return {arg.substr(0, colon),
          static_cast<std::uint16_t>(std::stoul(arg.substr(colon + 1)))};
}

int cmd_serve_client(int argc, char** argv) {
  if (argc < 2) return usage();
  const auto [host, port] = parse_host_port(argv[0]);
  const std::string verb = argv[1];
  serve::Client client(host, port);

  if (verb == "ping") {
    client.ping();
    std::printf("ok\n");
    return 0;
  }
  if (verb == "get-block" && argc >= 4) {
    const serve::StoreInfo info = client.open_store(argv[2]);
    const std::size_t first = std::stoull(argv[3]);
    const std::size_t count = argc >= 5 ? std::stoull(argv[4]) : 1;
    const auto values = client.get_range(info.id, first, count);
    std::printf("# %zu block(s) from %zu of %llu (block size %llu)\n",
                count, first,
                static_cast<unsigned long long>(info.num_blocks),
                static_cast<unsigned long long>(info.block_size));
    for (const double v : values) std::printf("%.17g\n", v);
    return 0;
  }
  if (verb == "stats" && argc >= 3) {
    const serve::StoreInfo info = client.open_store(argv[2]);
    const CacheStats st = client.stats(info.id);
    std::printf("store %u: %llu blocks, cache hits %llu misses %llu "
                "bytes %llu unique %llu\n",
                info.id,
                static_cast<unsigned long long>(info.num_blocks),
                static_cast<unsigned long long>(st.hits),
                static_cast<unsigned long long>(st.misses),
                static_cast<unsigned long long>(st.bytes),
                static_cast<unsigned long long>(st.unique_blocks));
    return 0;
  }
  if (verb == "put-stream" && argc >= 4) {
    double eb = 0.0;
    for (int i = 4; i < argc; ++i) {
      if (std::string(argv[i]) == "--eb" && i + 1 < argc) {
        eb = std::stod(argv[++i]);
      }
    }
    std::ifstream fin;
    std::istream& is = open_input(argv[2], fin);
    const qc::EriDatasetHeader hdr = qc::read_dataset_header(is);
    const std::uint32_t session = client.put_open(
        argv[3],
        static_cast<std::uint16_t>(hdr.shape.num_sub_blocks()),
        static_cast<std::uint16_t>(hdr.shape.sub_block_size()), eb);
    const std::size_t block_size =
        hdr.shape.num_sub_blocks() * hdr.shape.sub_block_size();
    std::vector<double> buf(block_size * 64);
    std::size_t left = hdr.num_blocks * block_size;
    while (left > 0) {
      const std::size_t want = std::min(buf.size(), left);
      is.read(reinterpret_cast<char*>(buf.data()),
              static_cast<std::streamsize>(want * sizeof(double)));
      const auto got_bytes = static_cast<std::size_t>(is.gcount());
      if (got_bytes == 0 || got_bytes % sizeof(double) != 0) {
        throw std::runtime_error("truncated .eri input");
      }
      buf.resize(got_bytes / sizeof(double));
      client.put_chunk(session, buf);
      left -= buf.size();
      buf.resize(block_size * 64);
    }
    const serve::PutResult res = client.put_close(session);
    std::printf("%s: %llu blocks, %llu -> %llu bytes (%.2fx)\n", argv[3],
                static_cast<unsigned long long>(res.num_blocks),
                static_cast<unsigned long long>(res.input_bytes),
                static_cast<unsigned long long>(res.output_bytes),
                res.output_bytes
                    ? static_cast<double>(res.input_bytes) /
                          static_cast<double>(res.output_bytes)
                    : 0.0);
    return 0;
  }
  return usage();
}

/// Strip --metrics[=json|prom] from argv (any position, any subcommand)
/// and record the requested mode.  Returns the new argc, or -1 on a bad
/// value.
int strip_metrics_flag(int argc, char** argv) {
  int kept = 1;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--metrics" || a == "--metrics=json") {
      g_metrics_mode = MetricsMode::Json;
    } else if (a == "--metrics=prom") {
      g_metrics_mode = MetricsMode::Prom;
    } else if (a.rfind("--metrics=", 0) == 0) {
      std::fprintf(stderr, "error: bad --metrics value (json|prom)\n");
      return -1;
    } else {
      argv[kept++] = argv[i];
    }
  }
  return kept;
}

void report_metrics() {
  if (g_metrics_mode == MetricsMode::Off) return;
  const obs::MetricsSnapshot snap = obs::registry().snapshot();
  if (g_metrics_mode == MetricsMode::Prom) {
    std::fputs(obs::export_prometheus(snap).c_str(), stderr);
    return;
  }
  const std::string json = g_have_compress_stats
                               ? obs::export_run_json(g_compress_stats, snap)
                               : obs::export_json(snap);
  std::fprintf(stderr, "%s\n", json.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  argc = strip_metrics_flag(argc, argv);
  if (argc < 0) return 2;
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  int rc = 2;
  try {
    if (cmd == "compress") rc = cmd_compress(argc - 2, argv + 2);
    else if (cmd == "decompress") rc = cmd_decompress(argc - 2, argv + 2);
    else if (cmd == "verify" && argc >= 4)
      rc = cmd_verify(argv[2], argv[3]);
    else if (cmd == "extract" && argc >= 4)
      rc = cmd_extract(argv[2], argv[3], argc >= 5 ? argv[4] : nullptr);
    else if (cmd == "inspect" && argc >= 3) rc = cmd_inspect(argv[2]);
    else if (cmd == "generate") rc = cmd_generate(argc - 2, argv + 2);
    else if (cmd == "serve-client") rc = cmd_serve_client(argc - 2, argv + 2);
    else return usage();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    report_metrics();
    return 1;
  }
  report_metrics();
  return rc;
}
