// block_index.h - Per-block offset table of a PaSTRI container.
//
// The paper's key structural property -- every block is a byte-aligned,
// independently decodable unit (Section IV-C) -- only pays off for random
// access if block b can be *located* without walking all prior payloads.
// Indexed (v3) containers therefore append a delta-varint coded table of
// payload lengths after the payloads, plus a fixed footer locating the
// table.  Unindexed (v2) streams get an equivalent index rebuilt once by
// the old sequential varint scan.  Either way the result is a BlockIndex:
// the absolute byte extent of every block payload, i.e. O(1) seek.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "bitio/bit_writer.h"

namespace pastri {

/// Byte extent of one block payload inside a stream.
struct BlockExtent {
  std::size_t offset = 0;  ///< absolute byte offset of the payload
  std::size_t length = 0;  ///< payload bytes (excludes the length varint)

  bool operator==(const BlockExtent&) const = default;
};

class BlockIndex {
 public:
  BlockIndex() = default;

  /// Build from in-memory payload sizes at write time.  `payload_base`
  /// is the byte offset where the first length varint starts (i.e. the
  /// global header size).
  static BlockIndex from_payload_sizes(std::size_t payload_base,
                                       std::span<const std::size_t> sizes);

  /// Parse a serialized table.  `table` must span exactly the index
  /// section; the payload region it describes is [payload_base,
  /// payload_end).  Throws std::runtime_error if the table is truncated,
  /// has trailing bytes, or does not tile the payload region exactly.
  static BlockIndex parse(std::span<const std::uint8_t> table,
                          std::size_t payload_base, std::size_t payload_end,
                          std::size_t num_blocks);

  /// Rebuild the index of an unindexed (v2) stream by the sequential
  /// varint walk over [payload_base, stream.size()).  Throws
  /// std::runtime_error / std::out_of_range on truncated input.
  static BlockIndex scan(std::span<const std::uint8_t> stream,
                         std::size_t payload_base, std::size_t num_blocks);

  /// Append the table (one length varint per block) to `w`.
  void serialize(bitio::BitWriter& w) const;

  std::size_t num_blocks() const { return extents_.size(); }
  bool empty() const { return extents_.empty(); }

  /// Extent of block b; throws std::out_of_range when b >= num_blocks().
  const BlockExtent& extent(std::size_t b) const;

  /// Serialized table size in bytes (the container's index overhead).
  std::size_t serialized_bytes() const;

 private:
  std::vector<BlockExtent> extents_;
};

}  // namespace pastri
