#include "io/file_per_process.h"

#include <filesystem>
#include <fstream>
#include <stdexcept>

#include "obs/metric_names.h"
#include "obs/metrics.h"

namespace pastri::io {
namespace {

std::string rank_path(const std::string& dir, const std::string& basename,
                      int rank) {
  return rank_file_path(dir, basename, rank);
}

/// Ranged-read telemetry (obs/metric_names.h): every slice read a shard
/// consumer issues is counted here, whatever layer asked for it.
struct SliceMetrics {
  obs::Counter ranged_reads = obs::registry().counter(obs::kIoRangedReads);
  obs::Counter ranged_read_bytes =
      obs::registry().counter(obs::kIoRangedReadBytes);
  obs::Histogram ranged_read_ns =
      obs::registry().histogram(obs::kIoRangedReadNs);
};

const SliceMetrics& slice_metrics() {
  static const SliceMetrics m;
  return m;
}

}  // namespace

std::string rank_file_path(const std::string& dir,
                           const std::string& basename, int rank) {
  return dir + "/" + basename + "." + std::to_string(rank);
}

void write_rank_file(const std::string& dir, const std::string& basename,
                     int rank, std::span<const std::uint8_t> data) {
  const std::string path = rank_path(dir, basename, rank);
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  if (!f) throw std::runtime_error("cannot open for write: " + path);
  f.write(reinterpret_cast<const char*>(data.data()),
          static_cast<std::streamsize>(data.size()));
  if (!f) throw std::runtime_error("write failed: " + path);
}

std::vector<std::uint8_t> read_rank_file(const std::string& dir,
                                         const std::string& basename,
                                         int rank) {
  const std::string path = rank_path(dir, basename, rank);
  std::ifstream f(path, std::ios::binary | std::ios::ate);
  if (!f) throw std::runtime_error("cannot open for read: " + path);
  const std::streamsize size = f.tellg();
  f.seekg(0);
  std::vector<std::uint8_t> data(static_cast<std::size_t>(size));
  f.read(reinterpret_cast<char*>(data.data()), size);
  if (!f) throw std::runtime_error("read failed: " + path);
  return data;
}

std::size_t rank_file_size(const std::string& dir,
                           const std::string& basename, int rank) {
  const std::string path = rank_path(dir, basename, rank);
  std::error_code ec;
  const std::uintmax_t size = std::filesystem::file_size(path, ec);
  if (ec) throw std::runtime_error("cannot stat: " + path);
  return static_cast<std::size_t>(size);
}

std::vector<std::uint8_t> read_rank_file_slice(const std::string& dir,
                                               const std::string& basename,
                                               int rank, std::size_t offset,
                                               std::size_t count) {
  const SliceMetrics& metrics = slice_metrics();
  obs::ScopedTimer timer(metrics.ranged_read_ns);
  metrics.ranged_reads.inc();
  metrics.ranged_read_bytes.add(count);
  const std::string path = rank_path(dir, basename, rank);
  std::ifstream f(path, std::ios::binary | std::ios::ate);
  if (!f) throw std::runtime_error("cannot open for read: " + path);
  const auto size = static_cast<std::size_t>(f.tellg());
  if (offset > size || count > size - offset) {
    throw std::runtime_error("slice out of range: " + path);
  }
  f.seekg(static_cast<std::streamoff>(offset));
  std::vector<std::uint8_t> data(count);
  f.read(reinterpret_cast<char*>(data.data()),
         static_cast<std::streamsize>(count));
  if (!f) throw std::runtime_error("read failed: " + path);
  return data;
}

bool remove_rank_file(const std::string& dir, const std::string& basename,
                      int rank) {
  std::error_code ec;
  return std::filesystem::remove(rank_path(dir, basename, rank), ec);
}

}  // namespace pastri::io
