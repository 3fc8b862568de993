// sharded_cache.h - Mutex-striped LRU cache for decoded blocks, shared
// by every layer that serves repeated reads off a compressed container:
// CompressedEriStore (qc) and BlockStore (io), and through BlockStore
// the pastri_store_* C API and the pastri_serve daemon.
//
// The original CompressedEriStore cache held one global mutex across
// the whole lookup-decode-insert sequence, serializing all readers.
// This cache splits the key space over N independently locked shards
// and takes no lock at all while a block is being decoded: callers
// `lookup()` (shard-locked, O(1)), decode outside any lock on a miss,
// then `insert()` the result.  Two threads that miss the same key
// concurrently both decode, but `insert()` routes every decoded vector
// through a content-hash dedup map, so they end up sharing one
// canonical std::shared_ptr -- never divergent copies -- and hit/miss
// accounting stays exact (each thread that failed the lookup counts
// one miss).
//
// Eviction is per-shard LRU: capacity is distributed over the shards,
// so global recency order is only approximate across shards (the
// standard sharded-cache tradeoff).  With num_shards = 1 the behavior
// is exactly the old single-list LRU.
#pragma once

#include <cstdint>
#include <cstring>
#include <functional>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <shared_mutex>
#include <unordered_map>
#include <vector>

namespace pastri {

/// Cache geometry.  `capacity_blocks` is the total number of cached
/// decoded blocks across all shards (0 disables caching; lookups then
/// always miss but insert() still dedups and returns a canonical
/// value).  `num_shards` is the number of independently locked stripes;
/// it is clamped to [1, capacity_blocks] (when capacity is nonzero) so
/// every live shard can hold at least one block.
struct CacheConfig {
  std::size_t capacity_blocks = 64;
  std::size_t num_shards = 8;
};

/// Aggregated cache accounting.  `hits`/`misses` are lifetime lookup
/// counters (they survive reconfiguration); `bytes`/`unique_blocks`
/// count each distinct decoded vector once however many keys share it.
struct CacheStats {
  std::size_t hits = 0;
  std::size_t misses = 0;
  std::size_t bytes = 0;
  std::size_t unique_blocks = 0;
};

namespace detail {

/// FNV-1a over the decoded doubles, keyed on exact bit patterns (the
/// decoder is deterministic, so equal blocks decode bit-identically).
inline std::uint64_t value_hash(const std::vector<double>& values) {
  std::uint64_t h = 1469598103934665603ull;
  for (const double v : values) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    for (int i = 0; i < 8; ++i) {
      h ^= (bits >> (8 * i)) & 0xffu;
      h *= 1099511628211ull;
    }
  }
  return h;
}

}  // namespace detail

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
    std::size_t shards = config.num_shards == 0 ? 1 : config.num_shards;
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

  /// Publish a block decoded outside the lock.  The vector is deduped
  /// against every live cached value by content hash, so concurrent
  /// inserts of the same decoded bytes (same key or not) converge on
  /// one canonical vector; that canonical value is cached under `key`
  /// (unless capacity is 0) and returned.  Counts neither hit nor miss.
  Value insert(Key key, std::vector<double>&& decoded) {
    Value value = dedup_(std::move(decoded));
    std::shared_lock<std::shared_mutex> structure(structure_mutex_);
    Shard& s = shard_of_(key);
    std::lock_guard<std::mutex> lock(s.mutex);
    if (s.capacity == 0) return value;
    if (const auto hit = s.entries.find(key); hit != s.entries.end()) {
      // A racing thread beat us to the insert; keep its entry (the
      // values are canonical-equal anyway) and refresh recency.
      s.lru.splice(s.lru.begin(), s.lru, hit->second.first);
      return hit->second.second;
    }
    s.lru.push_front(key);
    s.entries[key] = {s.lru.begin(), value};
    trim_(s);
    return value;
  }

  /// Aggregate counters plus distinct-vector byte accounting (each
  /// shared vector counted once across all shards).
  CacheStats stats() const {
    CacheStats st;
    std::set<const void*> seen;
    std::shared_lock<std::shared_mutex> lock(structure_mutex_);
    for (const auto& shard : shards_) {
      std::lock_guard<std::mutex> sl(shard->mutex);
      st.hits += shard->hits;
      st.misses += shard->misses;
      for (const auto& [key, entry] : shard->entries) {
        if (seen.insert(entry.second.get()).second) {
          st.bytes += entry.second->size() * sizeof(double);
        }
      }
    }
    st.unique_blocks = seen.size();
    return st;
  }

  /// Drop every cached entry (counters persist).
  void clear() {
    std::shared_lock<std::shared_mutex> lock(structure_mutex_);
    for (const auto& shard : shards_) {
      std::lock_guard<std::mutex> sl(shard->mutex);
      shard->lru.clear();
      shard->entries.clear();
    }
  }

 private:
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

  /// Content-hash dedup of decoded vectors (weak_ptr so dedup never
  /// extends a lifetime).  Guarded by its own mutex -- touched once per
  /// decode, never on the hit path.
  Value dedup_(std::vector<double>&& decoded) {
    const std::uint64_t h = detail::value_hash(decoded);
    std::lock_guard<std::mutex> lock(dedup_mutex_);
    if (const auto shared = by_value_.find(h); shared != by_value_.end()) {
      if (auto alive = shared->second.lock();
          alive && *alive == decoded) {  // guard against hash collisions
        return alive;
      }
    }
    auto value =
        std::make_shared<const std::vector<double>>(std::move(decoded));
    by_value_[h] = value;
    return value;
  }

  /// Guards the shard *array* (and config_), not the entries: readers
  /// hold it shared while touching their shard, configure() holds it
  /// exclusive while re-striping.  Per-shard mutexes guard the entries.
  mutable std::shared_mutex structure_mutex_;
  CacheConfig config_;
  std::vector<std::unique_ptr<Shard>> shards_;

  mutable std::mutex dedup_mutex_;
  std::unordered_map<std::uint64_t,
                     std::weak_ptr<const std::vector<double>>>
      by_value_;
};

}  // namespace pastri
