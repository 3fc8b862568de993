#include "core/block_index.h"

#include <stdexcept>

#include "bitio/bit_reader.h"
#include "bitio/varint.h"

namespace pastri {

BlockIndex BlockIndex::from_payload_sizes(
    std::size_t payload_base, std::span<const std::size_t> sizes) {
  BlockIndex idx;
  idx.extents_.reserve(sizes.size());
  std::size_t off = payload_base;
  for (std::size_t len : sizes) {
    off += bitio::varint_width(len);
    idx.extents_.push_back({off, len});
    off += len;
  }
  return idx;
}

BlockIndex BlockIndex::parse(std::span<const std::uint8_t> table,
                             std::size_t payload_base,
                             std::size_t payload_end,
                             std::size_t num_blocks) {
  if (payload_base > payload_end) {
    throw std::runtime_error("PaSTRI: corrupt block index bounds");
  }
  // Each entry is at least one table byte, so a count beyond the table
  // size is corrupt -- reject before reserving storage for it.
  if (num_blocks > table.size()) {
    throw std::runtime_error("PaSTRI: truncated block index");
  }
  BlockIndex idx;
  idx.extents_.reserve(num_blocks);
  bitio::BitReader r(table);
  std::size_t off = payload_base;
  for (std::size_t b = 0; b < num_blocks; ++b) {
    std::uint64_t len;
    try {
      len = bitio::read_varint(r);
    } catch (const std::exception&) {
      throw std::runtime_error("PaSTRI: truncated block index");
    }
    const std::size_t width = bitio::varint_width(len);
    // Overflow-safe: the entry (varint + payload) must fit in what is
    // left of [off, payload_end).
    if (len > payload_end || off + width > payload_end ||
        len > payload_end - off - width) {
      throw std::runtime_error("PaSTRI: corrupt block index entry");
    }
    off += width;
    idx.extents_.push_back({off, static_cast<std::size_t>(len)});
    off += static_cast<std::size_t>(len);
  }
  if (off != payload_end) {
    throw std::runtime_error(
        "PaSTRI: block index does not tile the payload section");
  }
  if (r.bits_remaining() != 0) {
    throw std::runtime_error("PaSTRI: trailing bytes in block index");
  }
  return idx;
}

BlockIndex BlockIndex::scan(std::span<const std::uint8_t> stream,
                            std::size_t payload_base,
                            std::size_t num_blocks) {
  if (payload_base > stream.size() ||
      num_blocks > stream.size() - payload_base) {
    // Every block costs at least its one-byte length varint.
    throw std::runtime_error("PaSTRI: truncated stream");
  }
  BlockIndex idx;
  idx.extents_.reserve(num_blocks);
  bitio::BitReader r(stream.subspan(payload_base));
  for (std::size_t b = 0; b < num_blocks; ++b) {
    const std::uint64_t len = bitio::read_varint(r);
    const std::size_t off = payload_base + r.bit_position() / 8;
    if (len > stream.size() || off + len > stream.size()) {
      throw std::runtime_error("PaSTRI: truncated stream");
    }
    idx.extents_.push_back({off, static_cast<std::size_t>(len)});
    r.skip_bits(8 * static_cast<std::size_t>(len));
  }
  return idx;
}

void BlockIndex::serialize(bitio::BitWriter& w) const {
  for (const BlockExtent& e : extents_) bitio::write_varint(w, e.length);
}

const BlockExtent& BlockIndex::extent(std::size_t b) const {
  if (b >= extents_.size()) {
    throw std::out_of_range("BlockIndex: block out of range");
  }
  return extents_[b];
}

std::size_t BlockIndex::serialized_bytes() const {
  std::size_t n = 0;
  for (const BlockExtent& e : extents_) n += bitio::varint_width(e.length);
  return n;
}

}  // namespace pastri
