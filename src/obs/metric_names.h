// metric_names.h - Canonical metric names of the PaSTRI telemetry layer.
//
// Naming scheme: pastri_<layer>_<what>[_<unit>], where <layer> is one of
// core / stream / io / qc / tool, monotonic counters end in `_total`,
// latency histograms end in `_ns`, and gauges carry their unit suffix
// (`_mbps`, `_ratio`).  Every instrumentation site and the registry's
// standard-set pre-registration reference these constants, so the name
// an exporter renders can never drift from the name a hot path updates.
#pragma once

#include <string_view>

namespace pastri::obs {

// ---- core: per-block codec stages --------------------------------------
inline constexpr std::string_view kCoreBlocksEncoded =
    "pastri_core_blocks_encoded_total";
inline constexpr std::string_view kCoreBlocksDecoded =
    "pastri_core_blocks_decoded_total";
inline constexpr std::string_view kCorePatternSelectNs =
    "pastri_core_pattern_select_ns";
inline constexpr std::string_view kCoreQuantizeNs =
    "pastri_core_quantize_ns";
inline constexpr std::string_view kCoreEcqEncodeNs =
    "pastri_core_ecq_encode_ns";
inline constexpr std::string_view kCoreEcqDecodeNs =
    "pastri_core_ecq_decode_ns";
inline constexpr std::string_view kCoreEcqDenseSymbols =
    "pastri_core_ecq_dense_symbols_total";
inline constexpr std::string_view kCoreEncodeBytes =
    "pastri_core_encode_bytes_total";
inline constexpr std::string_view kCoreSimdBackend =
    "pastri_core_simd_backend";
inline constexpr std::string_view kCoreSimdDecodeBackend =
    "pastri_core_simd_decode_backend";

// ---- stream: batch pipeline --------------------------------------------
inline constexpr std::string_view kStreamEncodeBatchNs =
    "pastri_stream_encode_batch_ns";
inline constexpr std::string_view kStreamDecodeBatchNs =
    "pastri_stream_decode_batch_ns";
inline constexpr std::string_view kStreamEncodeBatchBlocks =
    "pastri_stream_encode_batch_blocks";
inline constexpr std::string_view kStreamDecodeBatchBlocks =
    "pastri_stream_decode_batch_blocks";
inline constexpr std::string_view kStreamRawBytesIn =
    "pastri_stream_raw_bytes_in_total";
inline constexpr std::string_view kStreamCompressedBytesOut =
    "pastri_stream_compressed_bytes_out_total";
inline constexpr std::string_view kStreamCompressedBytesIn =
    "pastri_stream_compressed_bytes_in_total";
inline constexpr std::string_view kStreamRawBytesOut =
    "pastri_stream_raw_bytes_out_total";
inline constexpr std::string_view kStreamCompressionRatio =
    "pastri_stream_compression_ratio";

// ---- io: shard read/write ----------------------------------------------
inline constexpr std::string_view kIoRangedReads =
    "pastri_io_ranged_reads_total";
inline constexpr std::string_view kIoRangedReadBytes =
    "pastri_io_ranged_read_bytes_total";
inline constexpr std::string_view kIoRangedReadNs =
    "pastri_io_ranged_read_ns";
inline constexpr std::string_view kIoShardAppendNs =
    "pastri_io_shard_append_ns";
inline constexpr std::string_view kIoShardBytesWritten =
    "pastri_io_shard_bytes_written_total";
inline constexpr std::string_view kIoShardsFinished =
    "pastri_io_shards_finished_total";

// ---- qc: compressed ERI store + integral generation --------------------
inline constexpr std::string_view kQcEriCacheHits =
    "pastri_qc_eri_cache_hits_total";
inline constexpr std::string_view kQcEriCacheMisses =
    "pastri_qc_eri_cache_misses_total";
inline constexpr std::string_view kQcEriQuartets =
    "pastri_qc_eri_quartets_total";
inline constexpr std::string_view kQcEriGenerateBatchNs =
    "pastri_qc_eri_generate_batch_ns";
inline constexpr std::string_view kQcEriGenerateRate =
    "pastri_qc_eri_generate_rate_qps";
inline constexpr std::string_view kQcShellPairCacheHits =
    "pastri_qc_shellpair_cache_hits_total";
inline constexpr std::string_view kQcShellPairCacheMisses =
    "pastri_qc_shellpair_cache_misses_total";
inline constexpr std::string_view kQcBoysEvals =
    "pastri_qc_boys_evals_total";

// ---- qc: fused compute->compress->io pipeline --------------------------
inline constexpr std::string_view kQcPipelineChunks =
    "pastri_qc_pipeline_chunks_total";

// ---- serve: the pastri_serve daemon ------------------------------------
inline constexpr std::string_view kServeRequests =
    "pastri_serve_requests_total";
inline constexpr std::string_view kServeRequestNs =
    "pastri_serve_request_ns";
inline constexpr std::string_view kServeBytesIn =
    "pastri_serve_bytes_in_total";
inline constexpr std::string_view kServeBytesOut =
    "pastri_serve_bytes_out_total";
inline constexpr std::string_view kServeShed =
    "pastri_serve_shed_total";
inline constexpr std::string_view kServeErrors =
    "pastri_serve_errors_total";
inline constexpr std::string_view kServeActiveConnections =
    "pastri_serve_active_connections";
inline constexpr std::string_view kServeOpenStores =
    "pastri_serve_open_stores";

}  // namespace pastri::obs
