// eri_pipeline.cpp - The fused compute->compress->io driver.  Lives in
// the io build target (not pastri_qc) because it feeds the shard
// writers; the header sits with the other qc entry points it extends.
#include "qc/eri_pipeline.h"

#include <algorithm>
#include <chrono>
#include <vector>

#include "core/stream.h"
#include "io/file_per_process.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"

namespace pastri::qc {
namespace {

/// Pipeline telemetry (obs/metric_names.h): one counter bump per chunk.
const obs::Counter& chunks_counter() {
  static const obs::Counter c =
      obs::registry().counter(obs::kQcPipelineChunks);
  return c;
}

std::uint64_t since_ns(std::chrono::steady_clock::time_point t0) {
  const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                      std::chrono::steady_clock::now() - t0)
                      .count();
  return ns > 0 ? static_cast<std::uint64_t>(ns) : 0;
}

}  // namespace

EriDumpResult dump_eri_sharded(const Molecule& mol, const DatasetOptions& opt,
                               const Params& params, const std::string& dir,
                               const std::string& basename,
                               const EriDumpOptions& dopt) {
  const auto t_start = std::chrono::steady_clock::now();
  const EriBlockGenerator gen(mol, opt);
  const EriStreamMeta& meta = gen.meta();
  const io::ShardLayout layout =
      io::make_shard_layout(meta.num_blocks, dopt.num_shards);

  EriDumpResult res;
  EriPipelineResult& pl = res.pipeline;
  pl.meta = meta;
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

  // Blocks per chunk: the caller's, or StreamWriter's own encode batch
  // rule for this block shape and thread count, so one computed chunk
  // fills exactly one encode batch.
  const BlockSpec spec{meta.shape.num_sub_blocks(),
                       meta.shape.sub_block_size()};
  const std::size_t batch =
      dopt.batch_blocks != 0 ? dopt.batch_blocks
                             : auto_batch_blocks(spec, params.num_threads);
  const std::size_t bs = meta.shape.block_size();

  io::ShardedDatasetWriter writer(dir, basename, meta.label, meta.shape,
                                  meta.num_blocks, params, dopt.num_shards,
                                  start_shard);
  std::vector<double> chunk;
  for (std::size_t b0 = io::shard_first_block(layout, start_shard);
       b0 < meta.num_blocks; b0 += batch) {
    const std::size_t n = std::min(batch, meta.num_blocks - b0);
    chunk.resize(n * bs);
    auto t0 = std::chrono::steady_clock::now();
    gen.compute_range(b0, n, chunk);
    pl.compute_ns += since_ns(t0);
    t0 = std::chrono::steady_clock::now();
    writer.put_values(chunk);
    pl.encode_ns += since_ns(t0);
    ++pl.chunks;
    chunks_counter().inc();
  }

  const auto t_fin = std::chrono::steady_clock::now();
  pl.bytes_written = writer.finish();
  pl.encode_ns += since_ns(t_fin);
  res.bytes_total += pl.bytes_written;
  pl.stats = writer.stats();
  pl.io_ns = writer.io_ns();
  pl.wall_ns = since_ns(t_start);
  return res;
}

}  // namespace pastri::qc
