// eri_pipeline.h - Fused compute->compress->io pipeline over the ERI
// generator: the software analogue of the FPGA PaSTRI successor's
// single-pass compute-and-compress datapath (arXiv:2303.13632).
//
// Three stages, connected by bounded queues (core/pipeline.h) so they
// overlap while peak memory stays O(batch x depth):
//
//   compute   a producer thread fills double-buffered chunks of whole
//             quartet blocks via EriBlockGenerator::compute_range
//             (OpenMP-parallel inside the chunk)
//   encode    the caller's thread drains chunks in dataset order into a
//             StreamWriter / ShardedDatasetWriter (OpenMP batch encode,
//             in-order serialization)
//   io        an AsyncSink drain thread applies the container bytes to
//             the file (ShardIo::async)
//
// Because StreamWriter's bytes are independent of how put_values slices
// the stream, and chunks arrive in dataset order, the pipelined
// container is byte-identical to the sequential
// generate_eri_block_batches -> StreamWriter path -- the golden-digest
// tests pin this.  Every knob here changes only wall time, never bytes.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/pastri.h"
#include "core/stream.h"
#include "io/compressed_file.h"
#include "qc/eri_engine.h"

namespace pastri::qc {

struct EriPipelineOptions {
  /// Blocks per chunk (0 = auto: the StreamWriter encode batch size, so
  /// one chunk fills one encode batch exactly).
  std::size_t batch_blocks = 0;

  /// Filled-chunk queue capacity; 2 = classic double buffering (compute
  /// fills one chunk while encode drains the other).  Peak buffered
  /// memory is (queue_depth + 2) chunks.
  std::size_t queue_depth = 2;

  /// Run compute on a separate producer thread (true) or inline on the
  /// caller's thread (false).  false is the sequential baseline the
  /// benchmarks compare against; the bytes are identical either way.
  bool pipelined = true;

  /// Number of compute producer threads when pipelined.  The chunk
  /// stream is claimed dynamically (each producer grabs the next unowned
  /// chunk index); a consumer-side reorder ring re-establishes dataset
  /// order, so the encoded bytes are identical for every producer count.
  /// Each producer runs its own OpenMP team inside compute_range, so on
  /// many-core hosts 1 is usually right; >1 pays off when per-chunk
  /// OpenMP scaling has flattened, and for `dump_eri_sharded` it
  /// approximates one producer per shard's block range in flight.
  std::size_t producers = 1;

  /// Drain container bytes through an AsyncSink worker thread.
  bool async_io = true;
};

/// Per-producer stage accounting (one entry per producer thread when
/// pipelined; empty for the sequential path).
struct EriProducerStats {
  std::uint64_t compute_ns = 0;  ///< busy in compute_range
  std::uint64_t stall_ns = 0;    ///< blocked on free buffers / filled queue
  std::size_t chunks = 0;        ///< chunks this producer computed
};

/// Stage telemetry for one pipeline run.  Busy times are per stage;
/// stalls are time a stage spent blocked on its neighbour's queue.  The
/// same numbers feed the pastri_qc_pipeline_* obs metrics.
struct EriPipelineResult {
  EriStreamMeta meta;
  Stats stats;                    ///< codec stats of the written stream
  std::size_t bytes_written = 0;  ///< compressed container bytes
  std::size_t chunks = 0;

  std::uint64_t wall_ns = 0;
  std::uint64_t compute_ns = 0;  ///< producer busy in compute_range
  std::uint64_t encode_ns = 0;   ///< consumer busy in put_values/finish
  std::uint64_t io_ns = 0;       ///< AsyncSink busy applying bytes

  std::uint64_t compute_stall_ns = 0;  ///< compute blocked (encode behind)
  std::uint64_t encode_stall_ns = 0;   ///< encode blocked (compute behind)
  std::uint64_t io_stall_ns = 0;       ///< encode blocked on io backpressure

  /// (sum of stage busy - wall) / (sum - max): 0 = fully sequential,
  /// 1 = wall time equals the slowest stage (perfect overlap).  Zero
  /// when a single stage dominates outright (nothing to overlap).
  double overlap_efficiency = 0.0;

  /// Per-producer breakdown of compute_ns / compute_stall_ns (their
  /// sums).  Empty when the run was sequential (pipelined = false).
  std::vector<EriProducerStats> producers;
};

/// Generate `mol`'s sampled ERI dataset under `opt` and compress it into
/// `sink` as one PaSTRI container, stages overlapped per `popt`.
EriPipelineResult compress_eri_stream(const Molecule& mol,
                                      const DatasetOptions& opt,
                                      const Params& params, ByteSink& sink,
                                      const EriPipelineOptions& popt = {});

struct EriDumpOptions {
  int num_shards = 1;

  /// Reuse shards a previous interrupted dump finished: a shard file
  /// that parses as a complete container with its layout's block count
  /// is kept verbatim; the first incomplete shard and everything after
  /// it is regenerated (the plan is deterministic, so regenerated bytes
  /// equal what the interrupted run would have written).
  bool resume = false;
};

/// dump_eri_sharded telemetry: the pipeline result of the generated part
/// plus what resume skipped.
struct EriDumpResult {
  EriPipelineResult pipeline;
  std::size_t shards_total = 0;
  std::size_t shards_reused = 0;   ///< complete shards kept by resume
  std::size_t blocks_reused = 0;   ///< blocks inside those shards
  std::size_t bytes_total = 0;     ///< all shard bytes, reused included
};

/// Generate and compress the dataset into `num_shards` shard containers
/// plus manifest under `<dir>/<basename>.*` -- the same files, layout,
/// and bytes `write_compressed_dataset(generate_eri_dataset(...))`
/// produces, without ever materializing the dense tensor.  The result
/// loads with read_compressed_dataset / CompressedEriStore and drives
/// direct SCF and MP2 straight off the stream.
EriDumpResult dump_eri_sharded(const Molecule& mol, const DatasetOptions& opt,
                               const Params& params, const std::string& dir,
                               const std::string& basename,
                               const EriDumpOptions& dopt = {},
                               const EriPipelineOptions& popt = {});

}  // namespace pastri::qc
