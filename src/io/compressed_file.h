// compressed_file.h - On-disk container for PaSTRI-compressed ERI
// datasets, sharded file-per-process as the paper's Bebop experiment
// does ("file-per-process mode with POSIX I/O on each process").
//
// Each shard is an independent PaSTRI stream over a contiguous range of
// blocks, so ranks can dump and load their shards with no coordination;
// a small manifest records the dataset metadata and shard layout.
#pragma once

#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "core/pastri.h"
#include "core/stream.h"
#include "qc/dataset.h"

namespace pastri::io {

struct ShardLayout {
  std::size_t num_shards = 1;
  std::vector<std::size_t> blocks_per_shard;  ///< one entry per shard
};

/// The contiguous layout every sharded writer/reader in this module
/// uses: blocks are dealt round-down with the remainder spread over the
/// leading shards.  Exposed so per-rank writers and the pipeline's
/// resume probe can address "shard s holds dataset blocks
/// [first_block(s), first_block(s)+count)" without a
/// ShardedDatasetWriter instance.
ShardLayout make_shard_layout(std::size_t num_blocks, int num_shards);

/// Dataset block index of shard `s`'s first block under `layout`.
std::size_t shard_first_block(const ShardLayout& layout, std::size_t s);

/// Write the dataset manifest for shards produced outside
/// ShardedDatasetWriter (per-rank dumps).  The layout must describe the
/// shard files actually on disk.
void write_dataset_manifest(const std::string& dir,
                            const std::string& basename,
                            const std::string& label,
                            const qc::BlockShape& shape,
                            std::size_t num_blocks,
                            const ShardLayout& layout);

/// True iff `<dir>/<basename>.<shard>` exists and parses as a finished
/// container holding exactly `expected_blocks`: header block count
/// final, trailing index footer intact, offset table consistent.
/// Any parse failure (missing file, mid-dump truncation, stale partial
/// shard) returns false rather than throwing -- this is the resume
/// probe, and an unreadable shard just means "redo it".
bool shard_is_complete(const std::string& dir, const std::string& basename,
                       int shard, std::size_t expected_blocks);

/// Streams blocks into one shard file (`<dir>/<basename>.<shard>`) as
/// they arrive -- the shard is one PaSTRI container written through a
/// core StreamWriter, so peak memory is O(batch), not O(shard), and the
/// bytes are identical to compressing the whole shard at once.
class ShardWriter {
 public:
  /// Create/truncate a fresh shard.  Declaring `expected_blocks` writes
  /// the header final immediately; with kUnknownBlockCount the count is
  /// back-filled at finish() (shard files are seekable, so both work).
  ShardWriter(const std::string& dir, const std::string& basename,
              int shard, const BlockSpec& spec, const Params& params,
              std::uint64_t expected_blocks = kUnknownBlockCount);

  ~ShardWriter();
  ShardWriter(const ShardWriter&) = delete;
  ShardWriter& operator=(const ShardWriter&) = delete;

  /// Append one block / an arbitrary slice of values (partial block
  /// tails carry over between calls, as in StreamWriter::put_values).
  void put_block(std::span<const double> block);
  void put_values(std::span<const double> values);

  /// Blocks appended so far.
  std::size_t blocks() const { return writer_->blocks_appended(); }

  /// Emit the offset table and footer; returns the shard size in bytes.
  std::size_t finish();

  const Stats& stats() const { return writer_->stats(); }

  /// Time spent inside the shard file's write and patch calls.
  std::uint64_t io_ns() const;

 private:
  class FileSink;  ///< OstreamSink that times its calls

  std::string path_;
  std::ofstream file_;
  std::unique_ptr<FileSink> sink_;
  std::unique_ptr<StreamWriter> writer_;
};

/// Streams a whole dataset into `num_shards` shard files plus the
/// manifest, routing blocks to shards in the same contiguous layout
/// `write_compressed_dataset` uses.  Blocks are compressed and written
/// as they arrive; nothing dense is ever buffered beyond one encode
/// batch, so a compute -> compress pipeline needs no ERI tensor.
class ShardedDatasetWriter {
 public:
  /// The dataset metadata (label/shape/total block count) is declared
  /// up-front -- it fixes the shard layout and the manifest contents.
  /// Writing starts at shard `first_shard`, i.e. at dataset block
  /// shard_first_block(layout, first_shard): a resumed dump keeps the
  /// shards before it as they are on disk.  Throws std::invalid_argument
  /// if `first_shard` is past the last shard.
  ShardedDatasetWriter(const std::string& dir, const std::string& basename,
                       std::string label, const qc::BlockShape& shape,
                       std::size_t num_blocks, const Params& params,
                       int num_shards, std::size_t first_shard = 0);
  ~ShardedDatasetWriter();
  ShardedDatasetWriter(const ShardedDatasetWriter&) = delete;
  ShardedDatasetWriter& operator=(const ShardedDatasetWriter&) = delete;

  /// Append one block / an arbitrary slice of values.  Each shard's part
  /// of a slice goes to its ShardWriter in one put_values call; a
  /// partial block tail carries over to the next call.  Throws
  /// std::runtime_error past the declared block count.
  void put_block(std::span<const double> block);
  void put_values(std::span<const double> values);

  /// Whole blocks appended through this writer.
  std::size_t blocks_written() const {
    return values_written_ / shape_.block_size();
  }

  /// Codec stats, summed over finished shards.
  const Stats& stats() const { return stats_; }

  /// ShardWriter::io_ns, summed over finished shards.
  std::uint64_t io_ns() const { return io_ns_; }

  /// Finish the open shard, write the manifest.  Throws
  /// std::runtime_error unless exactly the declared number of blocks
  /// was appended.  Returns total compressed bytes of the shards this
  /// writer wrote.
  std::size_t finish();

 private:
  void roll_();  ///< close full shards, open the next one

  std::string dir_, basename_, label_;
  qc::BlockShape shape_;
  std::size_t num_blocks_ = 0;
  Params params_;
  ShardLayout layout_;
  Stats stats_;
  std::uint64_t io_ns_ = 0;

  std::unique_ptr<ShardWriter> cur_;
  std::size_t shard_ = 0;            // index of the open/next shard
  std::size_t values_in_shard_ = 0;  // appended to the open shard
  std::size_t values_written_ = 0;
  std::size_t total_bytes_ = 0;
};

/// Compress `ds` into `num_shards` independent streams under
/// `<dir>/<basename>.manifest` + `<dir>/<basename>.<shard>`.
/// Returns the total compressed bytes written.
std::size_t write_compressed_dataset(const qc::EriDataset& ds,
                                     const Params& params, int num_shards,
                                     const std::string& dir,
                                     const std::string& basename);

/// Load a dataset written by write_compressed_dataset.  Values satisfy
/// the stream's error bound relative to the originals.  The values are
/// allocated once; each shard is read whole and decoded straight into
/// its slice of them, so the read-back holds one dataset buffer plus one
/// shard file.  Throws std::runtime_error if a shard's block size
/// disagrees with the manifest shape or the shard headers' block counts
/// disagree with the manifest total.
qc::EriDataset read_compressed_dataset(const std::string& dir,
                                       const std::string& basename);

/// Read only the manifest (label, shape, shard layout).
struct CompressedDatasetInfo {
  std::string label;
  qc::BlockShape shape;
  std::size_t num_blocks = 0;
  ShardLayout layout;
};
CompressedDatasetInfo read_manifest(const std::string& dir,
                                    const std::string& basename);

/// Throws std::runtime_error unless a shard's blocks have the manifest's
/// block size, so a shard can never decode past its slice of the
/// caller's output.  Both readers of a sharded dataset call it:
/// read_compressed_dataset and io::BlockStore.
void check_shard_block_size(const StreamInfo& shard,
                            const qc::BlockShape& shape);

}  // namespace pastri::io
