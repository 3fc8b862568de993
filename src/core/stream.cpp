// stream.cpp - Streaming drivers: StreamWriter (batch-parallel encode,
// in-order serialization, O(batch) memory) and StreamConsumer (chunked
// pull decode), plus the byte transports and the original buffer-at-once
// wrappers.  The one-shot compress/decompress in compressor.cpp are thin
// wrappers over these, which keeps the two paths bit-identical.
#include "core/stream.h"

#include <algorithm>
#include <cstring>
#include <istream>
#include <limits>
#include <ostream>
#include <stdexcept>

#include "bitio/varint.h"
#include "core/format_detail.h"
#include "core/parallel.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"

namespace pastri {

// ---- Byte transport -----------------------------------------------------

void ByteSink::patch(std::size_t, std::span<const std::uint8_t>) {
  throw std::logic_error("ByteSink: this sink does not support patch()");
}

void VectorSink::write(std::span<const std::uint8_t> bytes) {
  buf_.insert(buf_.end(), bytes.begin(), bytes.end());
}

void VectorSink::patch(std::size_t offset,
                       std::span<const std::uint8_t> bytes) {
  if (offset + bytes.size() < offset || offset + bytes.size() > buf_.size()) {
    throw std::logic_error("VectorSink: patch outside written bytes");
  }
  std::memcpy(buf_.data() + offset, bytes.data(), bytes.size());
}

OstreamSink::OstreamSink(std::ostream& os) : os_(os) {
  const auto pos = os_.tellp();
  seekable_ = pos != std::ostream::pos_type(-1);
  base_ = seekable_ ? static_cast<std::size_t>(pos) : 0;
}

void OstreamSink::write(std::span<const std::uint8_t> bytes) {
  os_.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  if (!os_) throw std::runtime_error("OstreamSink: write failed");
}

void OstreamSink::patch(std::size_t offset,
                        std::span<const std::uint8_t> bytes) {
  if (!seekable_) {
    throw std::logic_error("OstreamSink: stream is not seekable");
  }
  const auto end = os_.tellp();
  os_.seekp(static_cast<std::streamoff>(base_ + offset));
  os_.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  os_.seekp(end);
  if (!os_) throw std::runtime_error("OstreamSink: patch failed");
}

std::size_t SpanSource::read(std::span<std::uint8_t> out) {
  const std::size_t n = std::min(out.size(), data_.size() - pos_);
  if (n > 0) std::memcpy(out.data(), data_.data() + pos_, n);
  pos_ += n;
  return n;
}

std::size_t IstreamSource::read(std::span<std::uint8_t> out) {
  is_.read(reinterpret_cast<char*>(out.data()),
           static_cast<std::streamsize>(out.size()));
  return static_cast<std::size_t>(is_.gcount());
}

// ---- StreamWriter -------------------------------------------------------

std::size_t auto_batch_blocks(const BlockSpec& spec, int num_threads) {
  const std::size_t bs = std::max<std::size_t>(1, spec.block_size());
  const auto threads =
      static_cast<std::size_t>(resolve_threads(num_threads));
  const std::size_t want = std::max<std::size_t>(64, 16 * threads);
  const std::size_t mem_cap =
      std::max<std::size_t>(1, (std::size_t{8} << 20) / (bs * sizeof(double)));
  return std::min(want, mem_cap);
}

namespace {

/// Batch-pipeline telemetry (obs/metric_names.h).  One update per batch,
/// not per block, so the cost is invisible next to the encode itself.
struct StreamMetrics {
  obs::Histogram encode_batch_ns =
      obs::registry().histogram(obs::kStreamEncodeBatchNs);
  obs::Histogram decode_batch_ns =
      obs::registry().histogram(obs::kStreamDecodeBatchNs);
  obs::Histogram encode_batch_blocks =
      obs::registry().histogram(obs::kStreamEncodeBatchBlocks);
  obs::Histogram decode_batch_blocks =
      obs::registry().histogram(obs::kStreamDecodeBatchBlocks);
  obs::Counter raw_bytes_in = obs::registry().counter(obs::kStreamRawBytesIn);
  obs::Counter compressed_bytes_out =
      obs::registry().counter(obs::kStreamCompressedBytesOut);
  obs::Counter compressed_bytes_in =
      obs::registry().counter(obs::kStreamCompressedBytesIn);
  obs::Counter raw_bytes_out =
      obs::registry().counter(obs::kStreamRawBytesOut);
  obs::Gauge compression_ratio =
      obs::registry().gauge(obs::kStreamCompressionRatio);
};

const StreamMetrics& stream_metrics() {
  static const StreamMetrics m;
  return m;
}

}  // namespace

StreamWriter::StreamWriter(ByteSink& sink, const BlockSpec& spec,
                           const Params& params,
                           const StreamWriterOptions& opt)
    : sink_(sink),
      spec_(spec),
      params_(params),
      expected_blocks_(opt.expected_blocks),
      batch_capacity_(opt.batch_blocks) {
  spec_.validate();
  params_.validate();
  patch_header_ = expected_blocks_ == kUnknownBlockCount;
  if (patch_header_ && !sink_.can_patch()) {
    throw std::logic_error(
        "StreamWriter: sink cannot patch the header; declare "
        "expected_blocks up-front for non-seekable sinks");
  }
  if (batch_capacity_ == 0) {
    batch_capacity_ = auto_batch_blocks(spec_, params_.num_threads);
  }
  batch_.resize(batch_capacity_ * spec_.block_size());

  bitio::BitWriter w;
  detail::write_global_header(w, spec_, params_,
                              patch_header_ ? 0 : expected_blocks_);
  const auto header = w.take();
  sink_.write(header);
  bytes_emitted_ = header.size();
  stats_.header_bits = 8 * header.size();
}

StreamWriter::~StreamWriter() = default;

std::size_t StreamWriter::blocks_appended() const {
  return sizes_.size() + batch_count_;
}

void StreamWriter::put_block(std::span<const double> block) {
  if (finished_) {
    throw std::logic_error("StreamWriter: put after finish()");
  }
  const std::size_t bs = spec_.block_size();
  if (block.size() != bs) {
    throw std::invalid_argument("StreamWriter: block size mismatch");
  }
  std::memcpy(batch_.data() + batch_count_ * bs, block.data(),
              bs * sizeof(double));
  ++batch_count_;
  stats_.input_bytes += bs * sizeof(double);
  stats_.num_blocks = sizes_.size() + batch_count_;
  if (batch_count_ == batch_capacity_) flush_batch_();
}

void StreamWriter::put_values(std::span<const double> values) {
  const std::size_t bs = spec_.block_size();
  if (!tail_.empty()) {
    const std::size_t take = std::min(bs - tail_.size(), values.size());
    tail_.insert(tail_.end(), values.begin(), values.begin() + take);
    values = values.subspan(take);
    if (tail_.size() == bs) {
      put_block(tail_);
      tail_.clear();
    }
  }
  while (values.size() >= bs) {
    put_block(values.first(bs));
    values = values.subspan(bs);
  }
  if (!values.empty()) {
    if (finished_) throw std::logic_error("StreamWriter: put after finish()");
    tail_.assign(values.begin(), values.end());
  }
}

void StreamWriter::flush_batch_() {
  const std::size_t n = batch_count_;
  if (n == 0) return;
  const StreamMetrics& metrics = stream_metrics();
  obs::ScopedTimer batch_timer(metrics.encode_batch_ns);
  metrics.encode_batch_blocks.record(n);
  const std::size_t bs = spec_.block_size();
  const int nthreads = resolve_threads(params_.num_threads);

  // Workers encode the staged blocks independently into their own
  // workspace (bit staging + payload arena, reused batch to batch); the
  // serializer below then writes them in append order, so the container
  // bytes cannot depend on scheduling.
  if (workspaces_.size() < static_cast<std::size_t>(nthreads)) {
    // Size every new worker's workspace now: the schedule may hand a
    // worker no chunk in this batch, and it must not then warm up
    // inside a later, steady-state one.
    const std::size_t sized = workspaces_.size();
    workspaces_.resize(static_cast<std::size_t>(nthreads));
    for (std::size_t t = sized; t < workspaces_.size(); ++t) {
      workspaces_[t].reserve_encode(spec_);
    }
  }
  for (int t = 0; t < nthreads; ++t) {
    workspaces_[t].arena.clear();   // capacity retained
    workspaces_[t].stats = Stats{};  // merged into stats_ after the join
  }
  refs_.resize(n);
  // Several chunks per worker, so the whole team shares every batch: a
  // batch that fits one chunk runs on a single thread and leaves the
  // other workspaces cold until some later batch.
  const std::size_t chunk = std::clamp<std::size_t>(
      n / (4 * static_cast<std::size_t>(nthreads)), 1, 16);
  parallel_for(n, chunk, nthreads,
               [&](std::size_t begin, std::size_t end, int worker) {
                 const auto w = static_cast<std::size_t>(worker);
                 CodecWorkspace& ws = workspaces_[w];
                 for (std::size_t b = begin; b < end; ++b) {
                   ws.writer.restart();
                   compress_block(std::span<const double>(batch_).subspan(
                                      b * bs, bs),
                                  spec_, params_, ws.writer, &ws.stats, ws);
                   const auto payload = ws.writer.finish_view();
                   refs_[b] = {w, ws.arena.size(), payload.size()};
                   ws.arena.insert(ws.arena.end(), payload.begin(),
                                   payload.end());
                 }
               });
  for (int t = 0; t < nthreads; ++t) stats_.merge(workspaces_[t].stats);

  std::size_t emitted = 0;
  for (std::size_t b = 0; b < n; ++b) {
    const PayloadRef& ref = refs_[b];
    const auto payload = std::span<const std::uint8_t>(
        workspaces_[ref.worker].arena).subspan(ref.off, ref.len);
    std::uint8_t varint[10];
    std::size_t width = 0;
    std::uint64_t v = payload.size();
    while (v >= 0x80) {
      varint[width++] = static_cast<std::uint8_t>((v & 0x7F) | 0x80);
      v >>= 7;
    }
    varint[width++] = static_cast<std::uint8_t>(v);
    sink_.write({varint, width});
    sink_.write(payload);
    sizes_.push_back(payload.size());
    bytes_emitted_ += width + payload.size();
    emitted += width + payload.size();
    stats_.header_bits += 8 * width;
  }
  batch_count_ = 0;
  metrics.raw_bytes_in.add(n * bs * sizeof(double));
  metrics.compressed_bytes_out.add(emitted);
  if (bytes_emitted_ > 0) {
    metrics.compression_ratio.set(
        static_cast<double>(stats_.input_bytes) /
        static_cast<double>(bytes_emitted_));
  }
}

std::size_t StreamWriter::finish() {
  if (finished_) throw std::logic_error("StreamWriter: already finished");
  if (!tail_.empty()) {
    throw std::invalid_argument(
        "PaSTRI: data size is not a whole number of blocks");
  }
  flush_batch_();
  const std::uint64_t num_blocks = sizes_.size();
  if (expected_blocks_ != kUnknownBlockCount &&
      num_blocks != expected_blocks_) {
    throw std::runtime_error(
        "StreamWriter: appended block count differs from expected_blocks");
  }

  const BlockIndex index =
      BlockIndex::from_payload_sizes(detail::kGlobalHeaderBytes, sizes_);
  const std::size_t index_offset = bytes_emitted_;
  bitio::BitWriter w;
  index.serialize(w);
  detail::write_index_footer(w, {index_offset, num_blocks});
  const auto tail = w.take();
  sink_.write(tail);
  bytes_emitted_ += tail.size();
  stats_.header_bits += 8 * tail.size();

  // Back-fill the header block count if it was not known up-front (a
  // count of zero needs no patch).
  if (patch_header_ && num_blocks != 0) {
    std::uint8_t le[8];
    std::memcpy(le, &num_blocks, 8);  // little-endian hosts only
    sink_.patch(detail::kHeaderNumBlocksOffset, le);
  }
  finished_ = true;
  stats_.num_blocks = num_blocks;
  stats_.output_bytes = bytes_emitted_;
  return bytes_emitted_;
}

// ---- StreamConsumer -----------------------------------------------------

StreamConsumer::StreamConsumer(ByteSource& source,
                               const StreamConsumerOptions& opt)
    : source_(source) {
  resolve_threads(opt.num_threads);  // a bad count throws before any buffer
  const std::size_t chunk =
      opt.chunk_bytes ? opt.chunk_bytes : (std::size_t{1} << 20);
  buf_.resize(std::max<std::size_t>(chunk, detail::kGlobalHeaderBytes));
  ensure_(detail::kGlobalHeaderBytes);
  bitio::BitReader r(
      std::span<const std::uint8_t>(buf_).subspan(
          pos_, detail::kGlobalHeaderBytes));
  info_ = detail::read_global_header(r);
  pos_ += detail::kGlobalHeaderBytes;
  params_ = info_.to_params();
  params_.num_threads = opt.num_threads;
  remaining_ = info_.num_blocks;

  batch_blocks_ = opt.batch_blocks
                      ? opt.batch_blocks
                      : auto_batch_blocks(info_.spec, params_.num_threads);
  // Sanity cap on a single payload's declared length: a valid block
  // never exceeds ~16 bytes per value plus per-sub-block metadata, so a
  // larger length varint is corruption, not data -- reject before
  // allocating buffer space for it.
  const std::size_t bs = info_.spec.block_size();
  if (bs > (std::numeric_limits<std::size_t>::max() >> 5)) {
    max_payload_ = std::numeric_limits<std::size_t>::max();
  } else {
    max_payload_ = 16 * bs +
                   7 * (info_.spec.num_sub_blocks +
                        info_.spec.sub_block_size) +
                   64;
  }
}

void StreamConsumer::refill_() {
  if (pos_ > 0) {
    std::memmove(buf_.data(), buf_.data() + pos_, end_ - pos_);
    end_ -= pos_;
    pos_ = 0;
  }
  if (end_ == buf_.size()) return;
  const std::size_t got =
      source_.read(std::span<std::uint8_t>(buf_).subspan(end_));
  if (got == 0) {
    eof_ = true;
    return;
  }
  end_ += got;
}

void StreamConsumer::ensure_(std::size_t n) {
  if (n > buf_.size()) {
    // One payload larger than the read chunk: compact, then grow.
    if (pos_ > 0) {
      std::memmove(buf_.data(), buf_.data() + pos_, end_ - pos_);
      end_ -= pos_;
      pos_ = 0;
    }
    buf_.resize(n);
  }
  while (end_ - pos_ < n && !eof_) refill_();
  if (end_ - pos_ < n) {
    throw std::runtime_error("PaSTRI: truncated stream");
  }
}

std::size_t StreamConsumer::decode_batch_(std::span<double> out,
                                          std::size_t max_blocks) {
  const StreamMetrics& metrics = stream_metrics();
  obs::ScopedTimer batch_timer(metrics.decode_batch_ns);
  // Gather whole payloads into the buffer without consuming them, so the
  // batch can be decoded in parallel straight out of the buffer.  All
  // offsets are relative to pos_, which refill_/ensure_ preserve.
  extents_.clear();  // capacity retained batch to batch
  std::size_t cur = 0;
  while (extents_.size() < max_blocks) {
    std::uint64_t len = 0;
    unsigned shift = 0;
    std::size_t i = 0;
    for (;;) {
      ensure_(cur + i + 1);
      const std::uint8_t byte = buf_[pos_ + cur + i];
      ++i;
      len |= static_cast<std::uint64_t>(byte & 0x7F) << shift;
      if ((byte & 0x80) == 0) break;
      shift += 7;
      if (shift >= 64) {
        throw std::runtime_error("PaSTRI: corrupt block length");
      }
    }
    if (len > max_payload_) {
      throw std::runtime_error("PaSTRI: corrupt block length");
    }
    ensure_(cur + i + static_cast<std::size_t>(len));
    extents_.push_back({cur + i, static_cast<std::size_t>(len)});
    cur += i + static_cast<std::size_t>(len);
  }

  const std::size_t bs = info_.spec.block_size();
  const std::size_t n = extents_.size();
  const int nthreads = resolve_threads(params_.num_threads);
  if (workspaces_.size() < static_cast<std::size_t>(nthreads)) {
    workspaces_.resize(static_cast<std::size_t>(nthreads));
  }
  parallel_for(n, 16, nthreads,
               [&](std::size_t begin, std::size_t end, int worker) {
                 CodecWorkspace& ws =
                     workspaces_[static_cast<std::size_t>(worker)];
                 for (std::size_t b = begin; b < end; ++b) {
                   const Extent& e = extents_[b];
                   bitio::BitReader r(
                       std::span<const std::uint8_t>(buf_).subspan(
                           pos_ + e.off, e.len));
                   decompress_block(r, info_.spec, params_,
                                    out.subspan(b * bs, bs), ws);
                 }
               });
  pos_ += cur;
  remaining_ -= n;
  metrics.decode_batch_blocks.record(n);
  metrics.compressed_bytes_in.add(cur);
  metrics.raw_bytes_out.add(n * bs * sizeof(double));
  return n;
}

std::size_t StreamConsumer::read_blocks(std::span<double> out) {
  const std::size_t bs = info_.spec.block_size();
  const std::size_t want = std::min(out.size() / bs, remaining_);
  std::size_t done = 0;
  while (done < want) {
    done += decode_batch_(out.subspan(done * bs),
                          std::min(batch_blocks_, want - done));
  }
  return done;
}

std::size_t StreamConsumer::read_values(std::span<double> out) {
  const std::size_t bs = info_.spec.block_size();
  std::size_t written = 0;
  if (carry_pos_ < carry_.size()) {
    const std::size_t take =
        std::min(out.size(), carry_.size() - carry_pos_);
    std::memcpy(out.data(), carry_.data() + carry_pos_,
                take * sizeof(double));
    carry_pos_ += take;
    written += take;
  }
  const std::size_t aligned = ((out.size() - written) / bs) * bs;
  if (aligned > 0 && remaining_ > 0) {
    written += bs * read_blocks(out.subspan(written, aligned));
  }
  if (written < out.size() && remaining_ > 0) {
    carry_.resize(bs);
    carry_pos_ = 0;
    read_blocks(carry_);
    const std::size_t take = out.size() - written;
    std::memcpy(out.data() + written, carry_.data(),
                take * sizeof(double));
    carry_pos_ = take;
    written += take;
  }
  return written;
}

}  // namespace pastri
