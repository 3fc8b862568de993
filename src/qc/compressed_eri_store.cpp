#include "qc/compressed_eri_store.h"

#include <stdexcept>

#include "core/stream.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"

namespace pastri::qc {
namespace {

/// LRU cache telemetry (obs/metric_names.h), the registry-side view of
/// cache_stats() hits and misses.
struct StoreMetrics {
  obs::Counter cache_hits = obs::registry().counter(obs::kQcEriCacheHits);
  obs::Counter cache_misses =
      obs::registry().counter(obs::kQcEriCacheMisses);
};

const StoreMetrics& store_metrics() {
  static const StoreMetrics m;
  return m;
}

}  // namespace

CompressedEriStore::CompressedEriStore(const BasisSet& basis,
                                       const Params& params)
    : layout_(basis), block_of_(layout_.num_quartets()) {
  // Pass 1: group quartets by configuration class.  No integrals yet --
  // this only fixes each class's block spec and every quartet's ordinal
  // in its class stream (flat-index order within the class).
  const std::vector<std::array<int, 4>> classes = layout_.quartet_classes();
  for (const std::array<int, 4>& cls : classes) {
    ClassData& cd = streams_[cls];
    layout_.for_each_quartet_in_class(
        cls, [&](std::size_t a, std::size_t b, std::size_t c, std::size_t d) {
          if (cd.num_blocks == 0) {
            cd.spec.num_sub_blocks = layout_.width(a) * layout_.width(b);
            cd.spec.sub_block_size = layout_.width(c) * layout_.width(d);
          }
          block_of_[layout_.quartet_index(a, b, c, d)] = {&cd,
                                                          cd.num_blocks++};
        });
  }

  // Pass 2: compute -> compress each class on the fly.  The plan computes
  // the class's quartets in ordinal order, one parallel batch at a time,
  // and each batch goes straight into the class's StreamWriter, so the
  // write side holds O(batch) blocks, never a dense per-class tensor.
  const QuartetPlan plan(basis);
  for (const std::array<int, 4>& cls : classes) {
    ClassData& cd = streams_.at(cls);
    VectorSink sink;
    StreamWriter writer(
        sink, cd.spec, params,
        StreamWriterOptions{.expected_blocks = cd.num_blocks});
    plan.compute_class(cls, params.num_threads,
                       [&](std::span<const Quartet>,
                           std::span<const double> blocks) {
                         writer.put_values(blocks);
                       });
    writer.finish();
    uncompressed_bytes_ += writer.stats().input_bytes;
    cd.stream = sink.take();
    cd.reader = std::make_unique<BlockReader>(cd.stream);
  }
}

std::shared_ptr<const std::vector<double>> CompressedEriStore::shell_block(
    std::size_t p, std::size_t q, std::size_t u, std::size_t v) const {
  const std::size_t ns = layout_.num_shells();
  if (p >= ns || q >= ns || u >= ns || v >= ns) {
    throw std::out_of_range("shell_block: shell quartet out of range");
  }
  const std::size_t key = layout_.quartet_index(p, q, u, v);
  if (auto hit = cache_.lookup(key)) {
    store_metrics().cache_hits.inc();
    return hit;
  }
  store_metrics().cache_misses.inc();
  // Decode outside any lock: concurrent misses on distinct quartets
  // decode in parallel (BlockReader reads are const and thread-safe);
  // concurrent misses on the *same* quartet both decode but converge on
  // the first vector the cache publishes under the quartet's key.
  const BlockRef& ref = block_of_[key];
  std::vector<double> decoded = ref.cls->reader->read_block(ref.ordinal);
  return cache_.insert(key, std::move(decoded));
}

EriTensor CompressedEriStore::materialize() const {
  const std::size_t n = layout_.num_functions();
  EriTensor eri(n * n * n * n, 0.0);
  for (const auto& [cls, cd] : streams_) {
    const std::vector<double> values = decompress(cd.stream);
    const double* blk = values.data();
    layout_.for_each_quartet_in_class(
        cls, [&](std::size_t a, std::size_t b, std::size_t c, std::size_t d) {
          layout_.for_each_element(
              a, b, c, d, blk,
              [&](std::size_t mu, std::size_t nu, std::size_t la,
                  std::size_t si, double val) {
                eri[((mu * n + nu) * n + la) * n + si] = val;
              });
          blk += cd.spec.block_size();
        });
  }
  return eri;
}

std::span<const std::uint8_t> CompressedEriStore::class_stream(
    const std::array<int, 4>& cls) const {
  const auto it = streams_.find(cls);
  if (it == streams_.end()) return {};
  return it->second.stream;
}

std::size_t CompressedEriStore::compressed_bytes() const {
  std::size_t total = 0;
  for (const auto& [cls, cd] : streams_) total += cd.stream.size();
  return total;
}

std::size_t CompressedEriStore::uncompressed_bytes() const {
  return uncompressed_bytes_;
}

}  // namespace pastri::qc
