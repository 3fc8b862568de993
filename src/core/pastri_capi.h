// pastri_capi.h - C-linkage API for the PaSTRI compressor.
//
// The paper's implementation shipped inside SZ, a C library; this header
// gives C callers (and FFI bindings) the same surface: plain structs,
// status-code returns, malloc-owned output buffers released with
// pastri_free().  The streams are byte-identical to the C++ API's.
//
// Error handling contract: every entry point returns pastri_status and
// never lets a C++ exception cross the boundary.  On failure, a
// human-readable message for the calling thread is available from
// pastri_last_error_message().
#pragma once

#include <stddef.h>

#ifdef __cplusplus
extern "C" {
#endif

/* Status codes returned by every pastri_* entry point (0 = success). */
typedef enum pastri_status {
  PASTRI_OK = 0,
  PASTRI_ERR_INVALID_ARGUMENT = -1, /* bad pointer, size, or parameter */
  PASTRI_ERR_CORRUPT_STREAM = -2,   /* malformed or truncated container */
  PASTRI_ERR_INTERNAL = -3,         /* allocation failure or library bug */
  PASTRI_ERR_IO = -4,               /* file open/write/close failed */
  PASTRI_ERR_BUSY = -5,             /* admission control shed the request
                                     * (pastri_serve: connection/session
                                     * caps reached; retry later) */
} pastri_status;

/* Mirrors pastri::Params; initialize with pastri_params_init. */
typedef struct pastri_params {
  double error_bound;  /* absolute bound, or relative factor */
  int bound_mode;      /* 0 = absolute, 1 = block-relative */
  int metric;          /* 0=FR 1=ER 2=AR 3=AAR 4=IS */
  int tree;            /* 1..5 (Fig. 7 trees) */
  int allow_sparse;    /* nonzero = adaptive sparse ECQ */
  int num_threads;     /* 0 = default, at most 1024 (core/parallel.h) */
} pastri_params;

/* Fill with the paper's defaults (EB=1e-10, ER, Tree 5, sparse on).
 * Out-of-range bound_mode/metric/tree make every entry point taking the
 * struct return PASTRI_ERR_INVALID_ARGUMENT. */
void pastri_params_init(pastri_params* params);

/* Static name of a status code ("PASTRI_OK", "PASTRI_ERR_CORRUPT_STREAM",
 * ...); "PASTRI_ERR_UNKNOWN" for values outside the enum.  Never NULL. */
const char* pastri_status_name(pastri_status status);

/* Compress `count` doubles structured as blocks of
 * num_sub_blocks * sub_block_size values.  On success *out receives a
 * malloc'd buffer of *out_size bytes (caller frees with pastri_free).
 */
pastri_status pastri_compress_buffer(const double* data, size_t count,
                                     size_t num_sub_blocks,
                                     size_t sub_block_size,
                                     const pastri_params* params,
                                     unsigned char** out, size_t* out_size);

/* Decompress a stream produced by pastri_compress_buffer (or the C++
 * API).  On success *out receives a malloc'd array of *out_count
 * doubles, decoded straight into it (no intermediate copy). */
pastri_status pastri_decompress_buffer(const unsigned char* stream,
                                       size_t stream_size, double** out,
                                       size_t* out_count);

/* Decode only block `block_index` of a stream into `out`, which must
 * hold at least out_capacity doubles (>= the stream's block size, i.e.
 * num_sub_blocks * sub_block_size from pastri_peek).  O(1) seek on
 * indexed (v3) streams; falls back to a scan on legacy streams. */
pastri_status pastri_decompress_block(const unsigned char* stream,
                                      size_t stream_size,
                                      size_t block_index, double* out,
                                      size_t out_capacity);

/* Decompress blocks [first, first+count) into a malloc'd array of
 * *out_count doubles (caller frees with pastri_free). */
pastri_status pastri_decompress_range(const unsigned char* stream,
                                      size_t stream_size, size_t first,
                                      size_t count, double** out,
                                      size_t* out_count);

/* ---- Streaming compression ------------------------------------------
 *
 * Bounded-memory counterpart of pastri_compress_buffer: blocks are
 * appended one at a time and encoded in batches straight to a file, so
 * the dense dataset never has to exist in memory.  The bytes written
 * are identical to pastri_compress_buffer fed the same blocks.
 *
 *   pastri_stream* s;
 *   pastri_stream_open("out.pastri", 36, 36, &params, &s);
 *   for (...) pastri_stream_put_block(s, block);       // 36*36 doubles
 *   pastri_stream_finish(s, &total_bytes);
 *   pastri_stream_close(s);
 *
 * Handles are not thread-safe; closing without finish() abandons an
 * unfinished (unreadable) file. */

typedef struct pastri_stream pastri_stream;

/* Open a streaming compressor writing a fresh container to `path`. */
pastri_status pastri_stream_open(const char* path, size_t num_sub_blocks,
                                 size_t sub_block_size,
                                 const pastri_params* params,
                                 pastri_stream** out);

/* Append one block of num_sub_blocks * sub_block_size doubles. */
pastri_status pastri_stream_put_block(pastri_stream* stream,
                                      const double* block);

/* Flush pending blocks, emit the offset table and footer, back-fill the
 * header block count.  *out_size (may be NULL) receives the container
 * size in bytes.  The handle must still be released with
 * pastri_stream_close. */
pastri_status pastri_stream_finish(pastri_stream* stream, size_t* out_size);

/* Release the handle (after finish, or to abandon an open stream). */
void pastri_stream_close(pastri_stream* stream);

/* Read stream metadata without decompressing; any pointer may be NULL. */
pastri_status pastri_peek(const unsigned char* stream, size_t stream_size,
                          double* error_bound, size_t* num_sub_blocks,
                          size_t* sub_block_size, size_t* num_blocks);

/* ---- Compressed block stores ----------------------------------------
 *
 * A store is a long-lived, read-mostly handle over compressed data with
 * a sharded LRU cache of decoded blocks in front of it -- the server
 * surface of the library: pastri_serve's OPEN_STORE/GET_BLOCK RPCs map
 * 1:1 onto these calls.  One backing, opened by pastri_store_open(path):
 * a single PaSTRI container (raw stream as written by pastri_stream_* /
 * the C++ StreamWriter, or a pastri_tool "TSCP" file -- sniffed from the
 * magic), or a sharded dataset when `path` is its manifest file
 * ("<dir>/<basename>.manifest", e.g. from pastri_eri_dump); shards are
 * concatenated in dataset block order.  Blocks are addressed by index
 * via pastri_store_get_block / pastri_store_get_range.
 *
 * Thread safety: all get/stats calls on one store are safe to call
 * concurrently (the decoded-block cache is mutex-striped and the decode
 * itself runs outside any lock); open/set-cache/close must not race
 * with gets on the same handle. */

typedef struct pastri_store pastri_store;

/* Decoded-block cache geometry.  capacity_blocks is the total cache
 * size across shards (0 disables caching); num_shards is the number of
 * independently locked stripes (0 = library default), capped at
 * capacity_blocks and at 256. */
typedef struct pastri_store_cache_config {
  size_t capacity_blocks;
  size_t num_shards;
} pastri_store_cache_config;

/* Aggregated cache accounting.  hits/misses are lifetime counters;
 * unique_blocks is the number of blocks currently cached and bytes
 * their decoded size. */
typedef struct pastri_store_cache_stats {
  size_t hits;
  size_t misses;
  size_t bytes;
  size_t unique_blocks;
} pastri_store_cache_stats;

/* Fill with the library defaults (capacity 1024 blocks, 8 shards). */
void pastri_store_cache_config_init(pastri_store_cache_config* config);

/* Open a block store over a container file, a pastri_tool file, or a
 * sharded dataset manifest (see above).  `cache` may be NULL for the
 * defaults.  On success *out receives the handle (release with
 * pastri_store_close). */
pastri_status pastri_store_open(const char* path,
                                const pastri_store_cache_config* cache,
                                pastri_store** out);

/* Total blocks in the store (all shards). */
pastri_status pastri_store_num_blocks(const pastri_store* store,
                                      size_t* out);

/* Values per block. */
pastri_status pastri_store_block_size(const pastri_store* store,
                                      size_t* out);

/* Decode block `block` into `out` (>= out_capacity values, which must
 * be >= the store's block size).  Served from the decoded-block cache
 * when warm. */
pastri_status pastri_store_get_block(pastri_store* store, size_t block,
                                     double* out, size_t out_capacity);

/* Decode blocks [first, first+count) into `out` (capacity
 * count * block_size values).  Bypasses the cache and batches into the
 * block-parallel range decoder. */
pastri_status pastri_store_get_range(pastri_store* store, size_t first,
                                     size_t count, double* out,
                                     size_t out_capacity);

/* Replace the cache geometry (changing the shard count drops cached
 * entries; counters persist). */
pastri_status pastri_store_set_cache(
    pastri_store* store, const pastri_store_cache_config* cache);

pastri_status pastri_store_get_cache_stats(const pastri_store* store,
                                           pastri_store_cache_stats* out);

/* Release the handle (NULL is a no-op). */
void pastri_store_close(pastri_store* store);

/* ---- Fused generate->compress->io pipeline ---------------------------
 *
 * One call drives the whole front half of the paper's workflow: ERI
 * quartet generation, PaSTRI compression, and sharded container io,
 * one chunk of blocks at a time: each chunk is computed, then encoded
 * and written, each step parallel across the blocks.  The shard bytes
 * are identical to compressing the dense dataset whatever the chunk
 * size. */

typedef struct pastri_eri_dump_options {
  int num_shards;      /* shard files to write (>= 1) */
  int resume;          /* nonzero: keep complete shards of a prior
                          interrupted dump, regenerate the rest */
  int async_io;        /* ignored; kept so the struct layout is stable */
  size_t batch_blocks; /* blocks per pipeline chunk (0 = auto) */
} pastri_eri_dump_options;

/* Fill with the defaults (1 shard, no resume, auto batch). */
void pastri_eri_dump_options_init(pastri_eri_dump_options* options);

typedef struct pastri_eri_dump_result {
  size_t num_blocks;         /* dataset blocks (reused + generated) */
  size_t bytes_written;      /* compressed bytes actually generated */
  size_t shards_total;
  size_t shards_reused;      /* complete shards kept by resume */
  unsigned long long wall_ns;
  double overlap_efficiency; /* always 0: no step waits on another */
} pastri_eri_dump_result;

/* Generate the sampled ERI dataset of a named built-in molecule
 * ("benzene", "glutamine", "alanine") for BF configuration `config`
 * (e.g. "(dd|dd)") and compress it into the sharded dataset
 * `<dir>/<basename>.manifest` + `<dir>/<basename>.<shard>`.  The output
 * loads with pastri_store_open on the manifest path.  `params`,
 * `options`, and `result` may each be NULL (defaults / ignored). */
pastri_status pastri_eri_dump(const char* molecule, const char* config,
                              const pastri_params* params,
                              const char* dir, const char* basename,
                              const pastri_eri_dump_options* options,
                              pastri_eri_dump_result* result);

/* ---- Telemetry -------------------------------------------------------
 *
 * The library keeps process-wide counters, gauges, and latency
 * histograms for every codec / stream / io / qc stage (see
 * obs/metric_names.h for the naming scheme).  Collection is on by
 * default and costs one relaxed atomic update per event. */

/* Snapshot all metrics as a malloc'd JSON string (caller frees with
 * pastri_free).  The shape matches pastri_tool --metrics=json. */
pastri_status pastri_metrics_snapshot_json(char** out);

/* Globally enable (nonzero) or disable (0) metric collection. */
void pastri_metrics_enable(int enabled);

/* Zero every counter, gauge, and histogram. */
void pastri_metrics_reset(void);

/* Release a buffer returned by this API. */
void pastri_free(void* ptr);

/* Human-readable message for the most recent failure on this thread.
 * Never NULL; empty until the first failure. */
const char* pastri_last_error_message(void);

/* Alias of pastri_last_error_message (original name). */
const char* pastri_last_error(void);

#ifdef __cplusplus
}  /* extern "C" */
#endif
