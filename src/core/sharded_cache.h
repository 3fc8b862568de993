// sharded_cache.h - Mutex-striped LRU cache of decoded blocks, keyed by
// block number, shared by every layer that serves repeated reads off a
// compressed container: CompressedEriStore (qc) and BlockStore (io),
// and through BlockStore the pastri_store_* C API and the pastri_serve
// daemon.
//
// The key space is split over N independently locked stripes, and no
// lock is held while a block is decoded: callers `lookup()`
// (stripe-locked, O(1)), decode outside any lock on a miss, then
// `insert()` the result.  Two threads that miss the same key
// concurrently both decode, but `insert()` keeps the first entry
// published under that key and hands it to the second thread too, so
// both end up holding one std::shared_ptr -- never divergent copies --
// and hit/miss accounting stays exact (each thread that failed the
// lookup counts one miss).  A capacity-0 cache keeps nothing, so there
// each thread keeps the vector it decoded.
//
// Eviction is per-stripe LRU: capacity is distributed over the stripes,
// so global recency order is only approximate across stripes (the
// standard sharded-cache tradeoff).  With num_shards = 1 the behavior
// is exactly a single-list LRU.
#pragma once

#include <algorithm>
#include <functional>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <vector>

namespace pastri {

/// Cache geometry.  `capacity_blocks` is the total number of cached
/// decoded blocks across all shards (0 disables caching; lookups then
/// always miss and insert() hands back the fresh vector).  `num_shards`
/// is the number of independently locked stripes; it is clamped to
/// [1, min(capacity_blocks, 256)] (capacity only when it is nonzero), so
/// every live shard can hold at least one block and no geometry -- a
/// hostile OPEN_STORE frame included -- allocates more than 256
/// stripes.
struct CacheConfig {
  std::size_t capacity_blocks = 64;
  std::size_t num_shards = 8;
};

/// Aggregated cache accounting.  `hits`/`misses` are lifetime lookup
/// counters (they survive reconfiguration); `unique_blocks` is the
/// number of blocks currently cached and `bytes` their decoded size
/// (each cached entry owns its vector).
struct CacheStats {
  std::size_t hits = 0;
  std::size_t misses = 0;
  std::size_t bytes = 0;
  std::size_t unique_blocks = 0;
};

/// Keys are block numbers: a BlockStore's store-global block index, or
/// a CompressedEriStore's ShellLayout::quartet_index.
class ShardedBlockCache {
 public:
  using Key = std::size_t;
  using Value = std::shared_ptr<const std::vector<double>>;

  explicit ShardedBlockCache(const CacheConfig& config = {}) {
    configure(config);
  }

  /// Replace the cache geometry.  Changing the shard count re-stripes
  /// the key space, so cached entries are dropped; shrinking only the
  /// capacity trims per-shard LRU tails.  Hit/miss counters persist.
  /// Safe to call while other threads are reading (they hold the
  /// structure lock shared; this takes it exclusive).
  void configure(const CacheConfig& config) {
    std::size_t shards =
        std::clamp<std::size_t>(config.num_shards, 1, kMaxShards);
    if (config.capacity_blocks > 0) {
      shards = std::min(shards, config.capacity_blocks);
    }
    std::unique_lock<std::shared_mutex> lock(structure_mutex_);
    config_ = CacheConfig{config.capacity_blocks, shards};
    if (shards != shards_.size()) {
      // Re-striping: collect the old counters, then rebuild.
      std::size_t hits = 0, misses = 0;
      for (const auto& s : shards_) {
        std::lock_guard<std::mutex> sl(s->mutex);
        hits += s->hits;
        misses += s->misses;
      }
      std::vector<std::unique_ptr<Shard>> fresh(shards);
      for (auto& s : fresh) s = std::make_unique<Shard>();
      if (!fresh.empty()) {
        fresh[0]->hits = hits;
        fresh[0]->misses = misses;
      }
      shards_.swap(fresh);
    }
    for (std::size_t i = 0; i < shards_.size(); ++i) {
      Shard& s = *shards_[i];
      std::lock_guard<std::mutex> sl(s.mutex);
      s.capacity = shard_capacity_(i);
      trim_(s);
    }
  }

  CacheConfig config() const {
    std::shared_lock<std::shared_mutex> lock(structure_mutex_);
    return config_;
  }

  /// Shard-locked O(1) probe.  A hit refreshes the entry's recency and
  /// returns the shared decoded vector; a miss returns nullptr.  Each
  /// call counts exactly one hit or one miss.
  Value lookup(Key key) {
    std::shared_lock<std::shared_mutex> structure(structure_mutex_);
    Shard& s = shard_of_(key);
    std::lock_guard<std::mutex> lock(s.mutex);
    if (const auto hit = s.entries.find(key); hit != s.entries.end()) {
      ++s.hits;
      s.lru.splice(s.lru.begin(), s.lru, hit->second.first);
      return hit->second.second;
    }
    ++s.misses;
    return nullptr;
  }

  /// Publish a block decoded outside the lock under `key` and return
  /// the cached value.  If a racing thread already cached `key`, its
  /// entry is kept (refreshed) and returned, so concurrent misses on one
  /// key converge on one vector.  With capacity 0 nothing is kept and
  /// the fresh vector is returned.  Counts neither hit nor miss.
  Value insert(Key key, std::vector<double>&& decoded) {
    auto value =
        std::make_shared<const std::vector<double>>(std::move(decoded));
    std::shared_lock<std::shared_mutex> structure(structure_mutex_);
    Shard& s = shard_of_(key);
    std::lock_guard<std::mutex> lock(s.mutex);
    if (s.capacity == 0) return value;
    if (const auto hit = s.entries.find(key); hit != s.entries.end()) {
      s.lru.splice(s.lru.begin(), s.lru, hit->second.first);
      return hit->second.second;
    }
    s.lru.push_front(key);
    s.entries[key] = {s.lru.begin(), value};
    trim_(s);
    return value;
  }

  /// Aggregate counters, and the count and decoded bytes of the blocks
  /// currently cached.
  CacheStats stats() const {
    CacheStats st;
    std::shared_lock<std::shared_mutex> lock(structure_mutex_);
    for (const auto& shard : shards_) {
      std::lock_guard<std::mutex> sl(shard->mutex);
      st.hits += shard->hits;
      st.misses += shard->misses;
      st.unique_blocks += shard->entries.size();
      for (const auto& [key, entry] : shard->entries) {
        st.bytes += entry.second->size() * sizeof(double);
      }
    }
    return st;
  }

 private:
  /// Upper bound on the stripe count: the geometry can come from a
  /// remote request, and each stripe is a heap-allocated Shard.
  static constexpr std::size_t kMaxShards = 256;

  struct Shard {
    mutable std::mutex mutex;
    std::list<Key> lru;  ///< most recent at front
    std::map<Key, std::pair<std::list<Key>::iterator, Value>> entries;
    std::size_t capacity = 0;
    std::size_t hits = 0;
    std::size_t misses = 0;
  };

  /// Shard i's slice of the total capacity (remainder to the first
  /// shards, so every unit of capacity is assigned).
  std::size_t shard_capacity_(std::size_t i) const {
    const std::size_t n = shards_.size();
    return config_.capacity_blocks / n +
           (i < config_.capacity_blocks % n ? 1 : 0);
  }

  /// Requires structure_mutex_ held (shared or exclusive): shards_ is
  /// only reallocated under the exclusive lock in configure().
  Shard& shard_of_(Key key) {
    return *shards_[std::hash<Key>{}(key) % shards_.size()];
  }

  void trim_(Shard& s) {
    while (s.entries.size() > s.capacity) {
      s.entries.erase(s.lru.back());
      s.lru.pop_back();
    }
  }

  /// Guards the shard *array* (and config_), not the entries: readers
  /// hold it shared while touching their shard, configure() holds it
  /// exclusive while re-striping.  Per-shard mutexes guard the entries.
  mutable std::shared_mutex structure_mutex_;
  CacheConfig config_;
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace pastri
