// store_capi.cpp - The pastri_store_* C API family (declared in
// core/pastri_capi.h) and pastri_eri_dump.  Lives in the io library
// rather than core because a store handle is an io::BlockStore
// (container and shard files) and the dump drives the qc pipeline into
// shard files.  Same contract as the rest of the C API: every entry
// point returns pastri_status, no exception ever crosses the boundary,
// failures record a thread-local message for
// pastri_last_error_message().
#include <cstring>

#include "core/capi_detail.h"
#include "core/pastri_capi.h"
#include "io/block_store.h"
#include "qc/eri_pipeline.h"
#include "qc/molecule.h"

namespace {

using pastri::capi::fail;

pastri::CacheConfig to_cpp_cache(const pastri_store_cache_config* cfg) {
  pastri::CacheConfig out{1024, 8};
  if (cfg != nullptr) {
    out.capacity_blocks = cfg->capacity_blocks;
    out.num_shards = cfg->num_shards == 0 ? 8 : cfg->num_shards;
  }
  return out;
}

}  // namespace

/* Opaque store handle: one io::BlockStore. */
struct pastri_store : pastri::io::BlockStore {
  using BlockStore::BlockStore;
};

extern "C" {

void pastri_store_cache_config_init(pastri_store_cache_config* config) {
  if (config == nullptr) return;
  config->capacity_blocks = 1024;
  config->num_shards = 8;
}

pastri_status pastri_store_open(const char* path,
                                const pastri_store_cache_config* cache,
                                pastri_store** out) {
  if (path == nullptr || out == nullptr) {
    return fail(PASTRI_ERR_INVALID_ARGUMENT, "null argument");
  }
  try {
    *out = new pastri_store(path, to_cpp_cache(cache));
    return PASTRI_OK;
  } catch (const std::invalid_argument& e) {
    return fail(PASTRI_ERR_INVALID_ARGUMENT, e.what());
  } catch (const std::runtime_error& e) {
    return fail(PASTRI_ERR_CORRUPT_STREAM, e.what());
  } catch (const std::exception& e) {
    return fail(PASTRI_ERR_INTERNAL, e.what());
  } catch (...) {
    return fail(PASTRI_ERR_INTERNAL, "unknown exception");
  }
}

pastri_status pastri_store_num_blocks(const pastri_store* store,
                                      size_t* out) {
  if (store == nullptr || out == nullptr) {
    return fail(PASTRI_ERR_INVALID_ARGUMENT, "null argument");
  }
  *out = store->num_blocks();
  return PASTRI_OK;
}

pastri_status pastri_store_block_size(const pastri_store* store,
                                      size_t* out) {
  if (store == nullptr || out == nullptr) {
    return fail(PASTRI_ERR_INVALID_ARGUMENT, "null argument");
  }
  *out = store->block_size();
  return PASTRI_OK;
}

pastri_status pastri_store_get_block(pastri_store* store, size_t block,
                                     double* out, size_t out_capacity) {
  if (store == nullptr || out == nullptr) {
    return fail(PASTRI_ERR_INVALID_ARGUMENT, "null argument");
  }
  try {
    if (block >= store->num_blocks()) {
      return fail(PASTRI_ERR_INVALID_ARGUMENT, "block index out of range");
    }
    if (out_capacity < store->block_size()) {
      return fail(PASTRI_ERR_INVALID_ARGUMENT, "output buffer too small");
    }
    const auto values = store->block(block);
    std::memcpy(out, values->data(), values->size() * sizeof(double));
    return PASTRI_OK;
  } catch (const std::runtime_error& e) {
    return fail(PASTRI_ERR_CORRUPT_STREAM, e.what());
  } catch (const std::exception& e) {
    return fail(PASTRI_ERR_INTERNAL, e.what());
  } catch (...) {
    return fail(PASTRI_ERR_INTERNAL, "unknown exception");
  }
}

pastri_status pastri_store_get_range(pastri_store* store, size_t first,
                                     size_t count, double* out,
                                     size_t out_capacity) {
  if (store == nullptr || out == nullptr) {
    return fail(PASTRI_ERR_INVALID_ARGUMENT, "null argument");
  }
  try {
    if (first + count < first || first + count > store->num_blocks()) {
      return fail(PASTRI_ERR_INVALID_ARGUMENT, "block range out of range");
    }
    const std::size_t need = count * store->block_size();
    if (out_capacity < need) {
      return fail(PASTRI_ERR_INVALID_ARGUMENT, "output buffer too small");
    }
    store->range(first, count, std::span<double>(out, need));
    return PASTRI_OK;
  } catch (const std::runtime_error& e) {
    return fail(PASTRI_ERR_CORRUPT_STREAM, e.what());
  } catch (const std::exception& e) {
    return fail(PASTRI_ERR_INTERNAL, e.what());
  } catch (...) {
    return fail(PASTRI_ERR_INTERNAL, "unknown exception");
  }
}

pastri_status pastri_store_set_cache(
    pastri_store* store, const pastri_store_cache_config* cache) {
  if (store == nullptr || cache == nullptr) {
    return fail(PASTRI_ERR_INVALID_ARGUMENT, "null argument");
  }
  try {
    store->set_cache(to_cpp_cache(cache));
    return PASTRI_OK;
  } catch (const std::exception& e) {
    return fail(PASTRI_ERR_INTERNAL, e.what());
  } catch (...) {
    return fail(PASTRI_ERR_INTERNAL, "unknown exception");
  }
}

pastri_status pastri_store_get_cache_stats(const pastri_store* store,
                                           pastri_store_cache_stats* out) {
  if (store == nullptr || out == nullptr) {
    return fail(PASTRI_ERR_INVALID_ARGUMENT, "null argument");
  }
  try {
    const pastri::CacheStats st = store->cache_stats();
    out->hits = st.hits;
    out->misses = st.misses;
    out->bytes = st.bytes;
    out->unique_blocks = st.unique_blocks;
    return PASTRI_OK;
  } catch (const std::exception& e) {
    return fail(PASTRI_ERR_INTERNAL, e.what());
  } catch (...) {
    return fail(PASTRI_ERR_INTERNAL, "unknown exception");
  }
}

void pastri_store_close(pastri_store* store) { delete store; }

void pastri_eri_dump_options_init(pastri_eri_dump_options* options) {
  if (options == nullptr) return;
  options->num_shards = 1;
  options->resume = 0;
  options->async_io = 0;  // ignored
  options->batch_blocks = 0;
}

pastri_status pastri_eri_dump(const char* molecule, const char* config,
                              const pastri_params* params,
                              const char* dir, const char* basename,
                              const pastri_eri_dump_options* options,
                              pastri_eri_dump_result* result) {
  if (molecule == nullptr || config == nullptr || dir == nullptr ||
      basename == nullptr) {
    return fail(PASTRI_ERR_INVALID_ARGUMENT, "null argument");
  }
  try {
    pastri::Params p;
    if (params != nullptr) p = pastri::capi::to_cpp_params(*params);
    pastri_eri_dump_options defaults;
    pastri_eri_dump_options_init(&defaults);
    const pastri_eri_dump_options& o =
        options != nullptr ? *options : defaults;
    if (o.num_shards < 1) {
      return fail(PASTRI_ERR_INVALID_ARGUMENT, "num_shards must be >= 1");
    }

    const pastri::qc::Molecule mol = pastri::qc::make_molecule(molecule);
    pastri::qc::DatasetOptions dopt;
    dopt.config = pastri::qc::parse_config(config);

    pastri::qc::EriDumpOptions dump;
    dump.num_shards = o.num_shards;
    dump.resume = o.resume != 0;
    dump.batch_blocks = o.batch_blocks;

    const pastri::qc::EriDumpResult r =
        pastri::qc::dump_eri_sharded(mol, dopt, p, dir, basename, dump);
    if (result != nullptr) {
      result->num_blocks = r.pipeline.meta.num_blocks;
      result->bytes_written = r.pipeline.bytes_written;
      result->shards_total = r.shards_total;
      result->shards_reused = r.shards_reused;
      result->wall_ns = r.pipeline.wall_ns;
      result->overlap_efficiency = r.pipeline.overlap_efficiency;
    }
    return PASTRI_OK;
  } catch (const std::invalid_argument& e) {
    return fail(PASTRI_ERR_INVALID_ARGUMENT, e.what());
  } catch (const std::runtime_error& e) {
    return fail(PASTRI_ERR_IO, e.what());
  } catch (const std::exception& e) {
    return fail(PASTRI_ERR_INTERNAL, e.what());
  } catch (...) {
    return fail(PASTRI_ERR_INTERNAL, "unknown exception");
  }
}

}  // extern "C"
