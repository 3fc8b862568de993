// eri_pipeline.cpp - The fused compute->compress->io driver.  Lives in
// the io build target (not pastri_qc) because it feeds the shard
// writers; the header sits with the other qc entry points it extends.
#include "qc/eri_pipeline.h"

#include <algorithm>
#include <chrono>
#include <exception>
#include <functional>
#include <thread>
#include <utility>
#include <vector>

#include "core/pipeline.h"
#include "core/stream.h"
#include "io/file_per_process.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"

namespace pastri::qc {
namespace {

/// Pipeline telemetry (obs/metric_names.h): one counter bump per chunk,
/// stall totals added once per run.
struct PipelineMetrics {
  obs::Counter chunks = obs::registry().counter(obs::kQcPipelineChunks);
  obs::Gauge queue_depth =
      obs::registry().gauge(obs::kQcPipelineQueueDepth);
  obs::Counter compute_stall =
      obs::registry().counter(obs::kQcPipelineComputeStallNs);
  obs::Counter encode_stall =
      obs::registry().counter(obs::kQcPipelineEncodeStallNs);
  obs::Counter io_stall =
      obs::registry().counter(obs::kQcPipelineIoStallNs);
  obs::Gauge overlap_pct =
      obs::registry().gauge(obs::kQcPipelineOverlapPct);
};

const PipelineMetrics& pipeline_metrics() {
  static const PipelineMetrics m;
  return m;
}

std::uint64_t since_ns(std::chrono::steady_clock::time_point t0) {
  const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                      std::chrono::steady_clock::now() - t0)
                      .count();
  return ns > 0 ? static_cast<std::uint64_t>(ns) : 0;
}

/// Blocks per chunk: the caller's, or StreamWriter's own encode batch
/// rule for this block shape and thread count, so one computed chunk
/// fills exactly one encode batch.
std::size_t chunk_blocks(const EriPipelineOptions& popt,
                         const BlockSpec& spec, const Params& params) {
  return popt.batch_blocks != 0
             ? popt.batch_blocks
             : auto_batch_blocks(spec, params.num_threads);
}

struct PumpStats {
  std::size_t chunks = 0;
  std::uint64_t compute_ns = 0;
  std::uint64_t encode_ns = 0;
  std::uint64_t compute_stall_ns = 0;
  std::uint64_t encode_stall_ns = 0;
};

using PutFn = std::function<void(std::span<const double> values)>;

/// Drive dataset blocks [first, first+count) from `gen` into `put`, in
/// order.  One producer thread computes chunks of `batch` whole blocks
/// and hands them over a bounded filled-chunk queue (capacity =
/// queue_depth); `put` runs on the caller's thread.  Chunk buffers
/// return through a free queue, so steady-state allocation is zero and
/// peak memory is queue_depth + 2 chunks: the queued ones, one being
/// computed and one being encoded.
PumpStats pump_blocks(const EriBlockGenerator& gen, std::size_t first,
                      std::size_t count, std::size_t batch,
                      std::size_t queue_depth, const PutFn& put) {
  const std::size_t bs = gen.meta().shape.block_size();
  PumpStats st;
  if (count == 0) return st;

  const std::size_t depth = std::max<std::size_t>(1, queue_depth);
  const std::size_t nbuf = depth + 2;
  using Chunk = std::vector<double>;
  BoundedQueue<Chunk> free_q(nbuf);
  BoundedQueue<Chunk> filled_q(depth);
  for (std::size_t i = 0; i < nbuf; ++i) {
    Chunk c;
    c.reserve(batch * bs);
    free_q.push(std::move(c));
  }

  // The producer keeps the quartet math parallel inside
  // compute_range while the encode stage runs on this thread.
  std::exception_ptr producer_error;
  std::thread producer([&] {
    try {
      for (std::size_t b0 = 0; b0 < count; b0 += batch) {
        Chunk c;
        if (!free_q.pop(c)) break;
        const std::size_t n = std::min(batch, count - b0);
        c.resize(n * bs);
        const auto t0 = std::chrono::steady_clock::now();
        gen.compute_range(first + b0, n, c);
        st.compute_ns += since_ns(t0);
        if (!filled_q.push(std::move(c))) break;
      }
    } catch (...) {
      producer_error = std::current_exception();
    }
    filled_q.close();
  });

  try {
    Chunk c;
    while (filled_q.pop(c)) {
      pipeline_metrics().queue_depth.set(
          static_cast<double>(filled_q.size()));
      const auto t0 = std::chrono::steady_clock::now();
      put(c);
      st.encode_ns += since_ns(t0);
      ++st.chunks;
      pipeline_metrics().chunks.inc();
      free_q.push(std::move(c));
    }
  } catch (...) {
    // Unblock the producer wherever it is waiting, then re-raise.
    free_q.close();
    filled_q.close();
    producer.join();
    throw;
  }
  producer.join();
  if (producer_error) std::rethrow_exception(producer_error);

  st.compute_stall_ns =
      free_q.consumer_wait_ns() + filled_q.producer_wait_ns();
  st.encode_stall_ns =
      filled_q.consumer_wait_ns() + free_q.producer_wait_ns();
  pipeline_metrics().compute_stall.add(st.compute_stall_ns);
  pipeline_metrics().encode_stall.add(st.encode_stall_ns);
  return st;
}

/// (sum busy - wall) / (sum busy - max busy): the fraction of the
/// theoretically hideable stage time that overlap actually hid.
double overlap_efficiency(std::uint64_t wall, std::uint64_t compute,
                          std::uint64_t encode, std::uint64_t io) {
  const double sum = static_cast<double>(compute) +
                     static_cast<double>(encode) + static_cast<double>(io);
  const double mx = static_cast<double>(
      std::max(compute, std::max(encode, io)));
  const double denom = sum - mx;
  if (denom <= 0.0) return 0.0;
  const double eff = (sum - static_cast<double>(wall)) / denom;
  return std::clamp(eff, 0.0, 1.0);
}

void finalize_result(EriPipelineResult& res, const PumpStats& ps,
                     std::uint64_t wall_ns) {
  res.chunks = ps.chunks;
  res.compute_ns = ps.compute_ns;
  res.encode_ns += ps.encode_ns;
  res.compute_stall_ns = ps.compute_stall_ns;
  res.encode_stall_ns = ps.encode_stall_ns;
  res.wall_ns = wall_ns;
  res.overlap_efficiency = overlap_efficiency(wall_ns, res.compute_ns,
                                              res.encode_ns, res.io_ns);
  pipeline_metrics().io_stall.add(res.io_stall_ns);
  pipeline_metrics().overlap_pct.set(100.0 * res.overlap_efficiency);
}

}  // namespace

EriDumpResult dump_eri_sharded(const Molecule& mol, const DatasetOptions& opt,
                               const Params& params, const std::string& dir,
                               const std::string& basename,
                               const EriDumpOptions& dopt,
                               const EriPipelineOptions& popt) {
  const auto t_start = std::chrono::steady_clock::now();
  const EriBlockGenerator gen(mol, opt);
  const EriStreamMeta& meta = gen.meta();
  const io::ShardLayout layout =
      io::make_shard_layout(meta.num_blocks, dopt.num_shards);

  EriDumpResult res;
  res.pipeline.meta = meta;
  res.shards_total = layout.num_shards;

  // Resume: keep the leading run of shards that already parse as
  // complete containers.  The first incomplete one (a mid-dump
  // truncation, a partial write) is regenerated from scratch -- the
  // plan is deterministic, so the redone bytes equal what the
  // interrupted run would have produced.
  std::size_t start_shard = 0;
  if (dopt.resume) {
    while (start_shard < layout.num_shards &&
           io::shard_is_complete(dir, basename,
                                 static_cast<int>(start_shard),
                                 layout.blocks_per_shard[start_shard])) {
      res.bytes_total +=
          io::rank_file_size(dir, basename, static_cast<int>(start_shard));
      res.blocks_reused += layout.blocks_per_shard[start_shard];
      ++start_shard;
    }
  }
  res.shards_reused = start_shard;

  const BlockSpec spec{meta.shape.num_sub_blocks(),
                       meta.shape.sub_block_size()};
  io::ShardedDatasetWriter writer(dir, basename, meta.label, meta.shape,
                                  meta.num_blocks, params, dopt.num_shards,
                                  popt.async_io, start_shard);
  const std::size_t first = io::shard_first_block(layout, start_shard);
  const PumpStats ps = pump_blocks(
      gen, first, meta.num_blocks - first, chunk_blocks(popt, spec, params),
      popt.queue_depth,
      [&](std::span<const double> values) { writer.put_values(values); });

  const auto t_fin = std::chrono::steady_clock::now();
  res.pipeline.bytes_written = writer.finish();
  res.bytes_total += res.pipeline.bytes_written;
  res.pipeline.stats = writer.stats();
  res.pipeline.io_stall_ns = writer.io_stats().backpressure_wait_ns;
  res.pipeline.io_ns = writer.io_stats().apply_ns;
  res.pipeline.encode_ns = since_ns(t_fin);
  finalize_result(res.pipeline, ps, since_ns(t_start));
  return res;
}

}  // namespace pastri::qc
