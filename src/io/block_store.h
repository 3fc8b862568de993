// block_store.h - Long-lived, read-mostly handle over compressed block
// data: the C++ backing of the pastri_store_* C API and the store the
// pastri_serve daemon serves concurrent clients from.
//
// A BlockStore opens one of
//   * a raw PaSTRI container (as written by pastri_stream_* or the C++
//     StreamWriter -- "PSTR" magic),
//   * a pastri_tool container ("TSCP" magic, io/tool_container.h; the
//     tool header is skipped),
//   * a sharded dataset, when the path is its manifest file
//     ("<dir>/<basename>.manifest"); shard streams are concatenated in
//     dataset block order,
// loads the compressed bytes into memory once, and serves decoded
// blocks through a mutex-striped LRU cache (core/sharded_cache.h) with
// the decode itself running outside any lock -- concurrent readers on
// warm data touch only their key's shard mutex, and cold misses decode
// in parallel.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/pastri.h"
#include "core/sharded_cache.h"

namespace pastri::io {

class BlockStore {
 public:
  /// Sniffs the backing from the path/magic as described above.  Throws
  /// std::runtime_error on unreadable/malformed input,
  /// std::invalid_argument on an empty path.
  explicit BlockStore(const std::string& path,
                      const CacheConfig& cache = {1024, 8});

  /// Stream metadata (shard 0's header for sharded datasets; all shards
  /// must agree on the block spec).
  const StreamInfo& info() const { return info_; }
  std::size_t num_blocks() const { return num_blocks_; }
  std::size_t block_size() const { return info_.spec.block_size(); }
  std::size_t compressed_bytes() const { return compressed_bytes_; }

  /// Decode block `index` (store-global block order) through the cache:
  /// shard-locked O(1) on a warm hit, lock-free decode + insert on a
  /// miss (concurrent misses on one block get the vector cached first).
  /// Thread-safe.  Throws std::out_of_range.
  std::shared_ptr<const std::vector<double>> block(std::size_t index) const;

  /// Decode blocks [first, first+count) straight into `out` (sized
  /// count * block_size() by the caller), each shard's part through the
  /// block-parallel BlockReader range decoder into its slice: no
  /// temporary per shard.  Bypasses the cache (bulk reads would churn
  /// it).  Thread-safe.  Throws std::out_of_range on a range past the
  /// store and std::invalid_argument on a wrongly sized `out`.
  void range(std::size_t first, std::size_t count,
             std::span<double> out) const;
  /// Same, into a fresh vector.
  std::vector<double> range(std::size_t first, std::size_t count) const;

  void set_cache(const CacheConfig& config) { cache_.configure(config); }
  CacheConfig cache_config() const { return cache_.config(); }
  CacheStats cache_stats() const { return cache_.stats(); }

 private:
  struct Shard {
    std::vector<std::uint8_t> bytes;    ///< the whole container
    std::unique_ptr<BlockReader> reader;
    std::size_t first_block = 0;        ///< store-global index of block 0
  };

  void open_container_(const std::string& path);
  void open_manifest_(const std::string& path);
  void add_shard_(std::vector<std::uint8_t>&& bytes,
                  const std::string& what);

  std::vector<Shard> shards_;
  StreamInfo info_;
  std::size_t num_blocks_ = 0;
  std::size_t compressed_bytes_ = 0;
  mutable ShardedBlockCache cache_;
};

}  // namespace pastri::io
