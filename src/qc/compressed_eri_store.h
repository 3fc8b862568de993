// compressed_eri_store.h - ERIs held in PaSTRI-compressed form, the
// paper's Fig. 11 infrastructure: "generating the data once, then
// compressing it once by using PaSTRI, and then decompressing it
// whenever it is needed again."
//
// A general basis mixes shell types, so blocks come in several shapes;
// PaSTRI streams are per-BF-configuration (the paper's datasets are
// organized the same way).  The store groups shell quartets by their
// (lA lB | lC lD) class and keeps one compressed stream per class.
// Consumers either materialize the dense tensor once, or -- because the
// indexed container makes every block seekable -- pull single quartet
// blocks on demand through `shell_block`, backed by a small LRU cache,
// so a direct-SCF Fock build can consume compressed integrals
// quartet-by-quartet without ever holding the full tensor.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <span>

#include "core/pastri.h"
#include "core/sharded_cache.h"
#include "qc/quartet_plan.h"
#include "qc/scf.h"

namespace pastri::qc {

class CompressedEriStore {
 public:
  /// Compute all shell-quartet blocks of `basis` and compress them,
  /// one PaSTRI stream per quartet class.  Each class is computed in
  /// parallel batches (QuartetPlan::compute_class, `params.num_threads`
  /// threads as in core/parallel.h) that go straight into the class's
  /// StreamWriter, so write-side memory is O(batch): no dense per-class
  /// tensor and no list of all quartets.  The streams are the same bytes
  /// for any thread count.
  CompressedEriStore(const BasisSet& basis, const Params& params);

  /// Decompress everything into the dense (mu nu | la si) tensor.
  /// Every value is within the error bound of the exact integral.
  EriTensor materialize() const;

  /// Decompress only the (p q | u v) shell-quartet block (shell
  /// indices, in the basis's shell order).  The returned values are laid
  /// out exactly like compute_eri_block's output for those shells, each
  /// within the error bound of the exact integral.  A sharded LRU cache
  /// makes repeated quartet access cheap; the shared_ptr stays valid
  /// after eviction.  Thread-safe, and scalable across concurrent
  /// readers: the cache lock is held only for the O(1) lookup/insert,
  /// never across the decode, and the key space is mutex-striped
  /// (CacheConfig::num_shards), so warm hits on different quartets do
  /// not contend.  Two threads missing the same quartet may both
  /// decode, but the cache keeps the first vector published under the
  /// quartet and hands it to both, and both misses are counted
  /// (hit+miss accounting stays exact).  Throws std::out_of_range for
  /// shell indices outside the basis.
  std::shared_ptr<const std::vector<double>> shell_block(
      std::size_t p, std::size_t q, std::size_t u, std::size_t v) const;

  /// Replace the cache geometry (total capacity in blocks -- 0 disables
  /// caching -- and the number of mutex-striped shards).
  void set_cache(const CacheConfig& config) { cache_.configure(config); }
  CacheConfig cache_config() const { return cache_.config(); }

  /// Aggregated cache accounting: lifetime hit/miss counters, plus the
  /// number of quartet blocks currently cached and their decoded bytes.
  /// Each cached quartet owns its vector, so warm-cache memory is at
  /// most the cache capacity times the largest block.
  CacheStats cache_stats() const { return cache_.stats(); }

  std::size_t compressed_bytes() const;
  std::size_t uncompressed_bytes() const;
  double ratio() const {
    return compressed_bytes()
               ? static_cast<double>(uncompressed_bytes()) /
                     static_cast<double>(compressed_bytes())
               : 0.0;
  }
  std::size_t num_classes() const { return streams_.size(); }
  std::size_t num_shells() const { return layout_.num_shells(); }

  /// The shells the store was built for (momentum and center of each).
  /// Consumers check it against their own basis before reading blocks.
  const ShellLayout& layout() const { return layout_; }

  /// The compressed stream of quartet class (lA lB | lC lD); empty when
  /// the basis has no quartet of that class.
  std::span<const std::uint8_t> class_stream(
      const std::array<int, 4>& cls) const;

 private:
  struct ClassData {
    BlockSpec spec;
    std::size_t num_blocks = 0;
    std::vector<std::uint8_t> stream;
    /// Seekable view of `stream` (the map node and the vector's buffer
    /// are both stable, so the span inside stays valid).
    std::unique_ptr<BlockReader> reader;
  };

  struct BlockRef {
    const ClassData* cls = nullptr;
    std::size_t ordinal = 0;  ///< block number within the class stream
  };

  ShellLayout layout_;
  std::map<std::array<int, 4>, ClassData> streams_;
  /// Stream position of every ordered quartet, by layout_.quartet_index.
  std::vector<BlockRef> block_of_;
  std::size_t uncompressed_bytes_ = 0;

  /// Sharded LRU of decoded quartet blocks keyed by
  /// layout_.quartet_index (see core/sharded_cache.h); block_of_ and
  /// streams_ are immutable after construction, so shell_block takes no
  /// other lock.
  mutable ShardedBlockCache cache_;
};

}  // namespace pastri::qc
