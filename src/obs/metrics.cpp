// metrics.cpp - MetricsRegistry: slot allocation, per-thread shard
// management, aggregation, and the standard-set pre-registration.
#include "obs/metrics.h"

#include "obs/metric_names.h"

namespace pastri::obs {
namespace {

std::uint64_t next_registry_id() {
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

enum class StdType { Counter, Gauge, Histogram };
struct StdMetric {
  std::string_view name;
  StdType type;
};

/// The metrics every layer reports.  Pre-registering them at instance()
/// construction makes snapshots complete and stably ordered even for
/// code paths a given run never exercises.
constexpr StdMetric kStandardMetrics[] = {
    {kCoreBlocksEncoded, StdType::Counter},
    {kCoreBlocksDecoded, StdType::Counter},
    {kCorePatternSelectNs, StdType::Histogram},
    {kCoreQuantizeNs, StdType::Histogram},
    {kCoreEcqEncodeNs, StdType::Histogram},
    {kCoreEcqDecodeNs, StdType::Histogram},
    {kCoreEcqDenseSymbols, StdType::Counter},
    {kCoreEncodeBytes, StdType::Counter},
    {kCoreSimdBackend, StdType::Gauge},
    {kCoreSimdDecodeBackend, StdType::Gauge},
    {kStreamEncodeBatchNs, StdType::Histogram},
    {kStreamDecodeBatchNs, StdType::Histogram},
    {kStreamEncodeBatchBlocks, StdType::Histogram},
    {kStreamDecodeBatchBlocks, StdType::Histogram},
    {kStreamRawBytesIn, StdType::Counter},
    {kStreamCompressedBytesOut, StdType::Counter},
    {kStreamCompressedBytesIn, StdType::Counter},
    {kStreamRawBytesOut, StdType::Counter},
    {kStreamCompressionRatio, StdType::Gauge},
    {kIoRangedReads, StdType::Counter},
    {kIoRangedReadBytes, StdType::Counter},
    {kIoRangedReadNs, StdType::Histogram},
    {kIoShardAppendNs, StdType::Histogram},
    {kIoShardBytesWritten, StdType::Counter},
    {kIoShardsFinished, StdType::Counter},
    {kQcEriCacheHits, StdType::Counter},
    {kQcEriCacheMisses, StdType::Counter},
    {kQcEriQuartets, StdType::Counter},
    {kQcEriGenerateBatchNs, StdType::Histogram},
    {kQcEriGenerateRate, StdType::Gauge},
    {kQcShellPairCacheHits, StdType::Counter},
    {kQcShellPairCacheMisses, StdType::Counter},
    {kQcBoysEvals, StdType::Counter},
    {kQcPipelineChunks, StdType::Counter},
    {kServeRequests, StdType::Counter},
    {kServeRequestNs, StdType::Histogram},
    {kServeBytesIn, StdType::Counter},
    {kServeBytesOut, StdType::Counter},
    {kServeShed, StdType::Counter},
    {kServeErrors, StdType::Counter},
    {kServeActiveConnections, StdType::Gauge},
    {kServeOpenStores, StdType::Gauge},
};

}  // namespace

MetricsRegistry::MetricsRegistry() : id_(next_registry_id()) {}

MetricsRegistry::~MetricsRegistry() = default;

MetricsRegistry& MetricsRegistry::instance() {
  // Leaked on purpose: instrumentation sites hold handles in static
  // storage and worker threads may outlive main()'s statics, so the
  // global registry must never be destroyed.
  static MetricsRegistry* reg = [] {
    auto* r = new MetricsRegistry();
    for (const StdMetric& m : kStandardMetrics) {
      switch (m.type) {
        case StdType::Counter: r->counter(m.name); break;
        case StdType::Gauge: r->gauge(m.name); break;
        case StdType::Histogram: r->histogram(m.name); break;
      }
    }
    return r;
  }();
  return *reg;
}

std::size_t MetricsRegistry::register_slot_(std::vector<std::string>& names,
                                            std::size_t capacity,
                                            std::string_view name) {
  for (std::size_t i = 0; i < names.size(); ++i) {
    if (names[i] == name) return i;
  }
  if (names.size() >= capacity) return kMaxCounters + kMaxHistograms;
  names.emplace_back(name);
  return names.size() - 1;
}

Counter MetricsRegistry::counter(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  const std::size_t slot = register_slot_(counter_names_, kMaxCounters, name);
  if (slot >= kMaxCounters) return Counter{};
  return Counter{this, slot};
}

Gauge MetricsRegistry::gauge(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  const std::size_t slot = register_slot_(gauge_names_, kMaxGauges, name);
  if (slot >= kMaxGauges) return Gauge{};
  return Gauge{this, slot};
}

Histogram MetricsRegistry::histogram(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  const std::size_t slot = register_slot_(hist_names_, kMaxHistograms, name);
  if (slot >= kMaxHistograms) return Histogram{};
  return Histogram{this, slot};
}

detail::MetricShard& MetricsRegistry::shard_for_this_thread() {
  struct TlsEntry {
    std::uint64_t registry_id;
    detail::MetricShard* shard;
  };
  // Registry ids are process-unique and never reused, so a stale entry
  // for a destroyed registry can never match a live one.
  thread_local std::vector<TlsEntry> tls;
  for (const TlsEntry& e : tls) {
    if (e.registry_id == id_) return *e.shard;
  }
  auto owned = std::make_unique<detail::MetricShard>();
  detail::MetricShard* shard = owned.get();
  {
    std::lock_guard<std::mutex> lock(mu_);
    shards_.push_back(std::move(owned));
  }
  tls.push_back({id_, shard});
  return *shard;
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  MetricsSnapshot snap;
  std::lock_guard<std::mutex> lock(mu_);
  snap.counters.resize(counter_names_.size());
  for (std::size_t i = 0; i < counter_names_.size(); ++i) {
    snap.counters[i].name = counter_names_[i];
  }
  snap.gauges.resize(gauge_names_.size());
  for (std::size_t i = 0; i < gauge_names_.size(); ++i) {
    snap.gauges[i].name = gauge_names_[i];
    snap.gauges[i].value = gauges_[i].load(std::memory_order_relaxed);
  }
  snap.histograms.resize(hist_names_.size());
  for (std::size_t i = 0; i < hist_names_.size(); ++i) {
    snap.histograms[i].name = hist_names_[i];
  }
  for (const auto& shard : shards_) {
    for (std::size_t i = 0; i < snap.counters.size(); ++i) {
      snap.counters[i].value +=
          shard->counters[i].load(std::memory_order_relaxed);
    }
    for (std::size_t i = 0; i < snap.histograms.size(); ++i) {
      const auto& h = shard->hists[i];
      auto& s = snap.histograms[i];
      s.count += h.count.load(std::memory_order_relaxed);
      s.sum += h.sum.load(std::memory_order_relaxed);
      for (std::size_t b = 0; b < kHistBuckets; ++b) {
        s.buckets[b] += h.buckets[b].load(std::memory_order_relaxed);
      }
    }
  }
  return snap;
}

void MetricsRegistry::reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& g : gauges_) g.store(0.0, std::memory_order_relaxed);
  for (const auto& shard : shards_) {
    for (auto& c : shard->counters) c.store(0, std::memory_order_relaxed);
    for (auto& h : shard->hists) {
      h.count.store(0, std::memory_order_relaxed);
      h.sum.store(0, std::memory_order_relaxed);
      for (auto& b : h.buckets) b.store(0, std::memory_order_relaxed);
    }
  }
}

}  // namespace pastri::obs
