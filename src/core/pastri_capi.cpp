#include "core/pastri_capi.h"

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>

#include "core/capi_detail.h"
#include "core/pastri.h"
#include "core/stream.h"
#include "obs/export.h"
#include "obs/metrics.h"

namespace pastri::capi {
namespace {

thread_local std::string g_last_error;

}  // namespace

pastri_status fail(pastri_status code, const char* what) noexcept {
  try {
    g_last_error = what;
  } catch (...) {
    // Out of memory assigning the message; the code still reports it.
  }
  return code;
}

pastri::Params to_cpp_params(const pastri_params& p) {
  // Range-check the raw ints before narrowing them to the 8-bit enums.
  if (const char* bad =
          invalid_enum_field(p.bound_mode, p.metric, p.tree)) {
    throw std::invalid_argument(bad);
  }
  pastri::Params out;
  out.error_bound = p.error_bound;
  out.bound_mode = static_cast<pastri::BoundMode>(p.bound_mode);
  out.metric = static_cast<pastri::ScalingMetric>(p.metric);
  out.tree = static_cast<pastri::EcqTree>(p.tree);
  out.allow_sparse = p.allow_sparse != 0;
  out.num_threads = p.num_threads;
  return out;
}

const char* last_error_cstr() { return g_last_error.c_str(); }

}  // namespace pastri::capi

namespace {

using pastri::capi::fail;

pastri::Params to_cpp(const pastri_params& p) {
  return pastri::capi::to_cpp_params(p);
}

/// Copy a vector into a malloc-owned buffer the C caller frees with
/// pastri_free.  Returns PASTRI_OK or PASTRI_ERR_INTERNAL.
template <typename T>
pastri_status malloc_copy(const std::vector<T>& src, T** out,
                          size_t* out_count) {
  auto* buf = static_cast<T*>(std::malloc(src.size() * sizeof(T)));
  if (buf == nullptr && !src.empty()) {
    return fail(PASTRI_ERR_INTERNAL, "out of memory");
  }
  if (!src.empty()) {
    std::memcpy(buf, src.data(), src.size() * sizeof(T));
  }
  *out = buf;
  *out_count = src.size();
  return PASTRI_OK;
}

/// Decode blocks [first, first+count) straight into one malloc-owned
/// buffer the C caller frees with pastri_free.  Returns PASTRI_OK or
/// PASTRI_ERR_INTERNAL; decode errors propagate as exceptions.
pastri_status malloc_decode(const pastri::BlockReader& reader,
                            size_t first, size_t count, double** out,
                            size_t* out_count) {
  const size_t n = reader.range_values(first, count);
  if (n > SIZE_MAX / sizeof(double)) {
    return fail(PASTRI_ERR_INTERNAL, "out of memory");
  }
  std::unique_ptr<double, decltype(&std::free)> buf(
      static_cast<double*>(std::malloc(n * sizeof(double))), &std::free);
  if (buf == nullptr && n != 0) {
    return fail(PASTRI_ERR_INTERNAL, "out of memory");
  }
  reader.read_range(first, count, std::span<double>(buf.get(), n));
  *out = buf.release();
  *out_count = n;
  return PASTRI_OK;
}

}  // namespace

/* Opaque streaming-compressor handle (member order matters: writer holds
 * a reference into sink, which writes to file). */
struct pastri_stream {
  std::ofstream file;
  std::unique_ptr<pastri::OstreamSink> sink;
  std::unique_ptr<pastri::StreamWriter> writer;
  size_t block_size = 0;
  bool finished = false;
};

namespace {

/// Status of an exception from a stream handle's writer: a failed
/// output file (say, a full disk) is PASTRI_ERR_IO, as in
/// pastri_stream_open; anything else is internal.
pastri_status stream_failure(const pastri_stream& s) {
  return s.file ? PASTRI_ERR_INTERNAL : PASTRI_ERR_IO;
}

}  // namespace

extern "C" {

void pastri_params_init(pastri_params* params) {
  if (params == nullptr) return;
  const pastri::Params d;
  params->error_bound = d.error_bound;
  params->bound_mode = static_cast<int>(d.bound_mode);
  params->metric = static_cast<int>(d.metric);
  params->tree = static_cast<int>(d.tree);
  params->allow_sparse = d.allow_sparse ? 1 : 0;
  params->num_threads = d.num_threads;
}

const char* pastri_status_name(pastri_status status) {
  switch (status) {
    case PASTRI_OK: return "PASTRI_OK";
    case PASTRI_ERR_INVALID_ARGUMENT: return "PASTRI_ERR_INVALID_ARGUMENT";
    case PASTRI_ERR_CORRUPT_STREAM: return "PASTRI_ERR_CORRUPT_STREAM";
    case PASTRI_ERR_INTERNAL: return "PASTRI_ERR_INTERNAL";
    case PASTRI_ERR_IO: return "PASTRI_ERR_IO";
    case PASTRI_ERR_BUSY: return "PASTRI_ERR_BUSY";
  }
  return "PASTRI_ERR_UNKNOWN";
}

pastri_status pastri_compress_buffer(const double* data, size_t count,
                                     size_t num_sub_blocks,
                                     size_t sub_block_size,
                                     const pastri_params* params,
                                     unsigned char** out, size_t* out_size) {
  if ((data == nullptr && count != 0) || params == nullptr ||
      out == nullptr || out_size == nullptr) {
    return fail(PASTRI_ERR_INVALID_ARGUMENT, "null argument");
  }
  try {
    const pastri::BlockSpec spec{num_sub_blocks, sub_block_size};
    const auto stream = pastri::compress(
        std::span<const double>(data, count), spec, to_cpp(*params));
    return malloc_copy(stream, out, out_size);
  } catch (const std::invalid_argument& e) {
    return fail(PASTRI_ERR_INVALID_ARGUMENT, e.what());
  } catch (const std::exception& e) {
    return fail(PASTRI_ERR_INTERNAL, e.what());
  } catch (...) {
    return fail(PASTRI_ERR_INTERNAL, "unknown exception");
  }
}

pastri_status pastri_decompress_buffer(const unsigned char* stream,
                                       size_t stream_size, double** out,
                                       size_t* out_count) {
  if (stream == nullptr || out == nullptr || out_count == nullptr) {
    return fail(PASTRI_ERR_INVALID_ARGUMENT, "null argument");
  }
  try {
    const pastri::BlockReader reader(
        std::span<const std::uint8_t>(stream, stream_size));
    return malloc_decode(reader, 0, reader.num_blocks(), out, out_count);
  } catch (const std::runtime_error& e) {
    return fail(PASTRI_ERR_CORRUPT_STREAM, e.what());
  } catch (const std::exception& e) {
    return fail(PASTRI_ERR_INTERNAL, e.what());
  } catch (...) {
    return fail(PASTRI_ERR_INTERNAL, "unknown exception");
  }
}

pastri_status pastri_decompress_block(const unsigned char* stream,
                                      size_t stream_size,
                                      size_t block_index, double* out,
                                      size_t out_capacity) {
  if (stream == nullptr || out == nullptr) {
    return fail(PASTRI_ERR_INVALID_ARGUMENT, "null argument");
  }
  try {
    const pastri::BlockReader reader(
        std::span<const std::uint8_t>(stream, stream_size));
    if (block_index >= reader.num_blocks()) {
      return fail(PASTRI_ERR_INVALID_ARGUMENT, "block index out of range");
    }
    const size_t block_size = reader.info().spec.block_size();
    if (out_capacity < block_size) {
      return fail(PASTRI_ERR_INVALID_ARGUMENT, "output buffer too small");
    }
    reader.read_block(block_index, std::span<double>(out, block_size));
    return PASTRI_OK;
  } catch (const std::runtime_error& e) {
    return fail(PASTRI_ERR_CORRUPT_STREAM, e.what());
  } catch (const std::exception& e) {
    return fail(PASTRI_ERR_INTERNAL, e.what());
  } catch (...) {
    return fail(PASTRI_ERR_INTERNAL, "unknown exception");
  }
}

pastri_status pastri_decompress_range(const unsigned char* stream,
                                      size_t stream_size, size_t first,
                                      size_t count, double** out,
                                      size_t* out_count) {
  if (stream == nullptr || out == nullptr || out_count == nullptr) {
    return fail(PASTRI_ERR_INVALID_ARGUMENT, "null argument");
  }
  try {
    const pastri::BlockReader reader(
        std::span<const std::uint8_t>(stream, stream_size));
    if (first + count < first || first + count > reader.num_blocks()) {
      return fail(PASTRI_ERR_INVALID_ARGUMENT, "block range out of range");
    }
    return malloc_decode(reader, first, count, out, out_count);
  } catch (const std::runtime_error& e) {
    return fail(PASTRI_ERR_CORRUPT_STREAM, e.what());
  } catch (const std::exception& e) {
    return fail(PASTRI_ERR_INTERNAL, e.what());
  } catch (...) {
    return fail(PASTRI_ERR_INTERNAL, "unknown exception");
  }
}

pastri_status pastri_peek(const unsigned char* stream, size_t stream_size,
                          double* error_bound, size_t* num_sub_blocks,
                          size_t* sub_block_size, size_t* num_blocks) {
  if (stream == nullptr) {
    return fail(PASTRI_ERR_INVALID_ARGUMENT, "null argument");
  }
  try {
    const pastri::StreamInfo info = pastri::peek_info(
        std::span<const std::uint8_t>(stream, stream_size));
    if (error_bound != nullptr) *error_bound = info.error_bound;
    if (num_sub_blocks != nullptr) {
      *num_sub_blocks = info.spec.num_sub_blocks;
    }
    if (sub_block_size != nullptr) {
      *sub_block_size = info.spec.sub_block_size;
    }
    if (num_blocks != nullptr) *num_blocks = info.num_blocks;
    return PASTRI_OK;
  } catch (const std::exception& e) {
    return fail(PASTRI_ERR_CORRUPT_STREAM, e.what());
  } catch (...) {
    return fail(PASTRI_ERR_INTERNAL, "unknown exception");
  }
}

pastri_status pastri_stream_open(const char* path, size_t num_sub_blocks,
                                 size_t sub_block_size,
                                 const pastri_params* params,
                                 pastri_stream** out) {
  if (path == nullptr || params == nullptr || out == nullptr) {
    return fail(PASTRI_ERR_INVALID_ARGUMENT, "null argument");
  }
  try {
    auto s = std::make_unique<pastri_stream>();
    s->file.open(path, std::ios::binary | std::ios::trunc);
    if (!s->file) {
      return fail(PASTRI_ERR_IO, "cannot open output file");
    }
    const pastri::BlockSpec spec{num_sub_blocks, sub_block_size};
    s->sink = std::make_unique<pastri::OstreamSink>(s->file);
    s->writer = std::make_unique<pastri::StreamWriter>(*s->sink, spec,
                                                       to_cpp(*params));
    s->block_size = spec.block_size();
    *out = s.release();
    return PASTRI_OK;
  } catch (const std::invalid_argument& e) {
    return fail(PASTRI_ERR_INVALID_ARGUMENT, e.what());
  } catch (const std::exception& e) {
    return fail(PASTRI_ERR_INTERNAL, e.what());
  } catch (...) {
    return fail(PASTRI_ERR_INTERNAL, "unknown exception");
  }
}

pastri_status pastri_stream_put_block(pastri_stream* stream,
                                      const double* block) {
  if (stream == nullptr || block == nullptr) {
    return fail(PASTRI_ERR_INVALID_ARGUMENT, "null argument");
  }
  if (stream->finished) {
    return fail(PASTRI_ERR_INVALID_ARGUMENT, "stream already finished");
  }
  try {
    stream->writer->put_block(
        std::span<const double>(block, stream->block_size));
    return PASTRI_OK;
  } catch (const std::exception& e) {
    return fail(stream_failure(*stream), e.what());
  } catch (...) {
    return fail(PASTRI_ERR_INTERNAL, "unknown exception");
  }
}

pastri_status pastri_stream_finish(pastri_stream* stream,
                                   size_t* out_size) {
  if (stream == nullptr) {
    return fail(PASTRI_ERR_INVALID_ARGUMENT, "null argument");
  }
  if (stream->finished) {
    return fail(PASTRI_ERR_INVALID_ARGUMENT, "stream already finished");
  }
  try {
    const size_t total = stream->writer->finish();
    stream->file.close();
    if (!stream->file) {
      return fail(PASTRI_ERR_IO, "close failed");
    }
    stream->finished = true;
    if (out_size != nullptr) *out_size = total;
    return PASTRI_OK;
  } catch (const std::exception& e) {
    return fail(stream_failure(*stream), e.what());
  } catch (...) {
    return fail(PASTRI_ERR_INTERNAL, "unknown exception");
  }
}

void pastri_stream_close(pastri_stream* stream) {
  try {
    delete stream;
  } catch (...) {
    // An abandoned sink may fail flushing on destruction; swallow it.
  }
}

pastri_status pastri_metrics_snapshot_json(char** out) {
  if (out == nullptr) {
    return fail(PASTRI_ERR_INVALID_ARGUMENT, "null argument");
  }
  try {
    const std::string json =
        pastri::obs::export_json(pastri::obs::registry().snapshot());
    auto* buf = static_cast<char*>(std::malloc(json.size() + 1));
    if (buf == nullptr) {
      return fail(PASTRI_ERR_INTERNAL, "out of memory");
    }
    std::memcpy(buf, json.c_str(), json.size() + 1);
    *out = buf;
    return PASTRI_OK;
  } catch (const std::exception& e) {
    return fail(PASTRI_ERR_INTERNAL, e.what());
  } catch (...) {
    return fail(PASTRI_ERR_INTERNAL, "unknown exception");
  }
}

void pastri_metrics_enable(int enabled) {
  pastri::obs::registry().set_enabled(enabled != 0);
}

void pastri_metrics_reset(void) { pastri::obs::registry().reset(); }

void pastri_free(void* ptr) { std::free(ptr); }

const char* pastri_last_error_message(void) {
  return pastri::capi::last_error_cstr();
}

const char* pastri_last_error(void) { return pastri_last_error_message(); }

}  // extern "C"
