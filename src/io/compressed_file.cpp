#include "io/compressed_file.h"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <limits>
#include <stdexcept>
#include <utility>

#include "core/format_detail.h"
#include "io/file_per_process.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"

namespace pastri::io {
namespace {

constexpr char kManifestMagic[] = "PaSTRIshards v1";

/// Shard-level telemetry (obs/metric_names.h); the per-slice read
/// counters live in file_per_process.cpp.
struct ShardMetrics {
  obs::Histogram shard_append_ns =
      obs::registry().histogram(obs::kIoShardAppendNs);
  obs::Counter shard_bytes_written =
      obs::registry().counter(obs::kIoShardBytesWritten);
  obs::Counter shards_finished =
      obs::registry().counter(obs::kIoShardsFinished);
};

const ShardMetrics& shard_metrics() {
  static const ShardMetrics m;
  return m;
}

std::string manifest_path(const std::string& dir,
                          const std::string& basename) {
  return dir + "/" + basename + ".manifest";
}

/// Parse a shard's stream header with one small ranged read.
StreamInfo peek_shard(const std::string& dir, const std::string& basename,
                      int shard, std::size_t file_size) {
  const auto head = read_rank_file_slice(
      dir, basename, shard, 0,
      std::min(file_size, detail::kGlobalHeaderBytes));
  return peek_info(head);
}

/// Parse an indexed shard's footer and offset table with two ranged
/// reads.  Throws std::runtime_error on a short file or a footer or
/// table that disagrees with the shard header `info`.
BlockIndex read_shard_index(const std::string& dir,
                            const std::string& basename, int shard,
                            std::size_t file_size, const StreamInfo& info) {
  if (file_size < detail::kGlobalHeaderBytes + detail::kIndexFooterBytes) {
    throw std::runtime_error("shard too short for index footer");
  }
  const std::size_t table_end = file_size - detail::kIndexFooterBytes;
  const auto tail = read_rank_file_slice(dir, basename, shard, table_end,
                                         detail::kIndexFooterBytes);
  const detail::IndexFooter footer =
      detail::parse_index_footer(tail, file_size);
  if (footer.num_blocks != info.num_blocks) {
    throw std::runtime_error(
        "shard index footer disagrees with its header");
  }
  const auto table =
      read_rank_file_slice(dir, basename, shard, footer.index_offset,
                           table_end - footer.index_offset);
  return BlockIndex::parse(table, detail::kGlobalHeaderBytes,
                           footer.index_offset, info.num_blocks);
}

/// count * block_size, or std::runtime_error if that overflows.
std::size_t dataset_values(std::size_t count, std::size_t block_size) {
  if (block_size != 0 &&
      count > std::numeric_limits<std::size_t>::max() / block_size) {
    throw std::runtime_error("pastri-io: block range too large");
  }
  return count * block_size;
}

/// Per-shard block counts read from the shard stream headers themselves
/// (one small ranged read per shard), NOT from the manifest -- the
/// shards are the source of truth for their own layout.  Throws
/// std::runtime_error if the totals disagree with the manifest.
std::vector<std::size_t> shard_block_counts(
    const std::string& dir, const std::string& basename,
    const CompressedDatasetInfo& info) {
  std::vector<std::size_t> counts(info.layout.num_shards);
  std::size_t total = 0;
  for (std::size_t s = 0; s < counts.size(); ++s) {
    const int shard = static_cast<int>(s);
    const std::size_t fsize = rank_file_size(dir, basename, shard);
    counts[s] = peek_shard(dir, basename, shard, fsize).num_blocks;
    total += counts[s];
  }
  if (total != info.num_blocks) {
    throw std::runtime_error(
        "shard headers disagree with manifest block count");
  }
  return counts;
}

}  // namespace

void check_shard_block_size(const StreamInfo& shard,
                            const qc::BlockShape& shape) {
  if (shard.spec.block_size() != shape.block_size()) {
    throw std::runtime_error(
        "shard block size disagrees with the manifest shape");
  }
}

// ---- Layout / manifest / resume helpers ---------------------------------

ShardLayout make_shard_layout(std::size_t num_blocks, int num_shards) {
  if (num_shards < 1) {
    throw std::invalid_argument("num_shards must be >= 1");
  }
  const std::size_t shards = static_cast<std::size_t>(num_shards);
  ShardLayout layout;
  layout.num_shards = shards;
  const std::size_t base = num_blocks / shards;
  const std::size_t extra = num_blocks % shards;
  layout.blocks_per_shard.reserve(shards);
  for (std::size_t s = 0; s < shards; ++s) {
    layout.blocks_per_shard.push_back(base + (s < extra ? 1 : 0));
  }
  return layout;
}

std::size_t shard_first_block(const ShardLayout& layout, std::size_t s) {
  if (s > layout.blocks_per_shard.size()) {
    throw std::out_of_range("shard_first_block: shard out of range");
  }
  std::size_t first = 0;
  for (std::size_t i = 0; i < s; ++i) first += layout.blocks_per_shard[i];
  return first;
}

void write_dataset_manifest(const std::string& dir,
                            const std::string& basename,
                            const std::string& label,
                            const qc::BlockShape& shape,
                            std::size_t num_blocks,
                            const ShardLayout& layout) {
  std::ofstream mf(manifest_path(dir, basename), std::ios::trunc);
  if (!mf) throw std::runtime_error("cannot write manifest");
  mf << kManifestMagic << "\n";
  mf << label << "\n";
  mf << shape.n[0] << " " << shape.n[1] << " " << shape.n[2] << " "
     << shape.n[3] << "\n";
  mf << num_blocks << " " << layout.num_shards << "\n";
  for (std::size_t n : layout.blocks_per_shard) mf << n << " ";
  mf << "\n";
  if (!mf) throw std::runtime_error("manifest write failed");
}

bool shard_is_complete(const std::string& dir, const std::string& basename,
                       int shard, std::size_t expected_blocks) {
  try {
    const std::size_t fsize = rank_file_size(dir, basename, shard);
    const StreamInfo info = peek_shard(dir, basename, shard, fsize);
    if (info.num_blocks != expected_blocks) return false;
    // The header alone is not proof of completion: a fresh ShardWriter
    // declaring expected_blocks writes it final before any payload.  A
    // finished shard additionally carries an intact trailing footer and
    // a parsable offset table; a mid-dump truncation loses both.
    if (info.version == kStreamVersionIndexed) {
      read_shard_index(dir, basename, shard, fsize, info);
      return true;
    }
    // Legacy v2 shards have no footer to validate structurally; prove
    // completeness the hard way by decoding the whole shard.
    const auto bytes = read_rank_file(dir, basename, shard);
    return decompress(bytes).size() ==
           expected_blocks * info.spec.block_size();
  } catch (...) {
    return false;
  }
}

// ---- ShardWriter --------------------------------------------------------

class ShardWriter::FileSink final : public ByteSink {
 public:
  explicit FileSink(std::ostream& os) : inner_(os) {}

  void write(std::span<const std::uint8_t> bytes) override {
    timed_([&] { inner_.write(bytes); });
  }
  bool can_patch() const override { return inner_.can_patch(); }
  void patch(std::size_t offset,
             std::span<const std::uint8_t> bytes) override {
    timed_([&] { inner_.patch(offset, bytes); });
  }

  std::uint64_t ns() const { return ns_; }

 private:
  template <class F>
  void timed_(F&& call) {
    const auto t0 = std::chrono::steady_clock::now();
    call();
    ns_ += static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - t0)
            .count());
  }

  OstreamSink inner_;
  std::uint64_t ns_ = 0;
};

ShardWriter::ShardWriter(const std::string& dir, const std::string& basename,
                         int shard, const BlockSpec& spec,
                         const Params& params,
                         std::uint64_t expected_blocks)
    : path_(rank_file_path(dir, basename, shard)) {
  file_.open(path_, std::ios::binary | std::ios::trunc);
  if (!file_) throw std::runtime_error("cannot open for write: " + path_);
  sink_ = std::make_unique<FileSink>(file_);
  writer_ = std::make_unique<StreamWriter>(
      *sink_, spec, params,
      StreamWriterOptions{.expected_blocks = expected_blocks});
}

ShardWriter::~ShardWriter() = default;

void ShardWriter::put_block(std::span<const double> block) {
  obs::ScopedTimer timer(shard_metrics().shard_append_ns);
  writer_->put_block(block);
}

void ShardWriter::put_values(std::span<const double> values) {
  obs::ScopedTimer timer(shard_metrics().shard_append_ns);
  writer_->put_values(values);
}

std::size_t ShardWriter::finish() {
  const std::size_t total = writer_->finish();
  shard_metrics().shards_finished.inc();
  shard_metrics().shard_bytes_written.add(total);
  file_.flush();
  if (!file_) throw std::runtime_error("write failed: " + path_);
  file_.close();
  return total;
}

std::uint64_t ShardWriter::io_ns() const { return sink_->ns(); }

// ---- ShardedDatasetWriter ----------------------------------------------

ShardedDatasetWriter::ShardedDatasetWriter(
    const std::string& dir, const std::string& basename, std::string label,
    const qc::BlockShape& shape, std::size_t num_blocks,
    const Params& params, int num_shards, std::size_t first_shard)
    : dir_(dir),
      basename_(basename),
      label_(std::move(label)),
      shape_(shape),
      num_blocks_(num_blocks),
      params_(params),
      layout_(make_shard_layout(num_blocks, num_shards)),
      shard_(first_shard) {
  if (first_shard > layout_.num_shards) {
    throw std::invalid_argument(
        "ShardedDatasetWriter: first shard past the layout");
  }
}

ShardedDatasetWriter::~ShardedDatasetWriter() = default;

void ShardedDatasetWriter::roll_() {
  const BlockSpec spec{shape_.num_sub_blocks(), shape_.sub_block_size()};
  while (shard_ < layout_.num_shards) {
    if (!cur_) {
      cur_ = std::make_unique<ShardWriter>(
          dir_, basename_, static_cast<int>(shard_), spec, params_,
          layout_.blocks_per_shard[shard_]);
      values_in_shard_ = 0;
    }
    if (values_in_shard_ <
        layout_.blocks_per_shard[shard_] * shape_.block_size()) {
      return;
    }
    total_bytes_ += cur_->finish();
    stats_.merge(cur_->stats());
    io_ns_ += cur_->io_ns();
    cur_.reset();
    ++shard_;
  }
}

void ShardedDatasetWriter::put_block(std::span<const double> block) {
  if (block.size() != shape_.block_size()) {
    throw std::invalid_argument("ShardedDatasetWriter: block size mismatch");
  }
  put_values(block);
}

void ShardedDatasetWriter::put_values(std::span<const double> values) {
  while (!values.empty()) {
    roll_();
    if (!cur_) {
      throw std::runtime_error(
          "ShardedDatasetWriter: more blocks than declared");
    }
    const std::size_t room =
        layout_.blocks_per_shard[shard_] * shape_.block_size() -
        values_in_shard_;
    const std::size_t take = std::min(room, values.size());
    cur_->put_values(values.first(take));
    values_in_shard_ += take;
    values_written_ += take;
    values = values.subspan(take);
  }
}

std::size_t ShardedDatasetWriter::finish() {
  // Finishes the open shard and any remaining zero-block ones; a short
  // count, a trailing partial block included, leaves a shard open.
  roll_();
  if (shard_ != layout_.num_shards) {
    throw std::runtime_error(
        "ShardedDatasetWriter: fewer blocks than declared");
  }
  write_dataset_manifest(dir_, basename_, label_, shape_, num_blocks_,
                         layout_);
  return total_bytes_;
}

std::size_t write_compressed_dataset(const qc::EriDataset& ds,
                                     const Params& params, int num_shards,
                                     const std::string& dir,
                                     const std::string& basename) {
  // Streams through ShardedDatasetWriter -- same shard layout, manifest,
  // and shard bytes as compressing each shard whole ever produced.
  ShardedDatasetWriter writer(dir, basename, ds.label, ds.shape,
                              ds.num_blocks, params, num_shards);
  writer.put_values(ds.values);
  return writer.finish();
}

CompressedDatasetInfo read_manifest(const std::string& dir,
                                    const std::string& basename) {
  std::ifstream mf(manifest_path(dir, basename));
  if (!mf) throw std::runtime_error("cannot open manifest");
  std::string magic;
  std::getline(mf, magic);
  if (magic != kManifestMagic) {
    throw std::runtime_error("bad manifest magic");
  }
  CompressedDatasetInfo info;
  std::getline(mf, info.label);
  for (auto& n : info.shape.n) {
    unsigned v;
    mf >> v;
    n = static_cast<std::uint16_t>(v);
  }
  mf >> info.num_blocks >> info.layout.num_shards;
  // One entry at a time: a hostile shard count cannot size a vector
  // larger than the file's entries.
  for (std::size_t s = 0; mf && s < info.layout.num_shards; ++s) {
    std::size_t n = 0;
    if (mf >> n) info.layout.blocks_per_shard.push_back(n);
  }
  if (!mf) throw std::runtime_error("truncated manifest");
  return info;
}

qc::EriDataset read_compressed_dataset(const std::string& dir,
                                       const std::string& basename) {
  const CompressedDatasetInfo info = read_manifest(dir, basename);
  const std::vector<std::size_t> counts =
      shard_block_counts(dir, basename, info);
  const std::size_t bs = info.shape.block_size();
  qc::EriDataset ds;
  ds.label = info.label;
  ds.shape = info.shape;
  ds.num_blocks = info.num_blocks;
  ds.values.resize(dataset_values(info.num_blocks, bs));
  // Each shard decodes straight into its slice of ds.values; only one
  // shard file is in memory at a time.
  std::size_t first = 0;
  for (std::size_t s = 0; s < counts.size(); ++s) {
    const auto bytes = read_rank_file(dir, basename, static_cast<int>(s));
    const BlockReader reader(bytes);
    check_shard_block_size(reader.info(), info.shape);
    if (reader.num_blocks() != counts[s]) {
      throw std::runtime_error("shard block count changed while reading");
    }
    reader.read_range(0, counts[s],
                      std::span<double>(ds.values)
                          .subspan(first * bs, counts[s] * bs));
    first += counts[s];
  }
  return ds;
}

}  // namespace pastri::io
