// tool_container.h - The pastri_tool container ("TSCP"): a dataset's
// .eri label and block shape in front of one PaSTRI stream.  This
// module is the only code that knows the layout: pastri_tool writes and
// reads it, and BlockStore opens it.
//
// Layout (all fields little-endian, all byte-aligned):
//     u32 magic "TSCP", u32 label_len (at most 1 MiB), label bytes,
//     u16 n[4] (the BlockShape), then the PaSTRI stream.
#pragma once

#include <cstdint>
#include <istream>
#include <ostream>
#include <span>
#include <string>

#include "qc/dataset.h"

namespace pastri::io {

inline constexpr std::uint32_t kToolMagic = 0x50435354;  // "TSCP"

struct ToolHeader {
  std::string label;
  qc::BlockShape shape;

  /// Encoded size in bytes: the PaSTRI stream starts at this offset.
  std::size_t size() const { return 4 + 4 + label.size() + 4 * 2; }
};

/// Write the header; the caller appends the stream.  Throws
/// std::runtime_error when the write fails.
void write_tool_header(std::ostream& os, const ToolHeader& header);

/// Read the header, leaving `is` at the first stream byte.  Throws
/// std::runtime_error on a wrong magic, a label longer than 1 MiB, or a
/// header cut short.
ToolHeader read_tool_header(std::istream& is);

/// An in-memory container: its header and the PaSTRI stream after it
/// (a view into the parsed bytes).
struct ToolFile {
  ToolHeader header;
  std::span<const std::uint8_t> stream;
};

/// Split an in-memory container through read_tool_header (same checks,
/// same exceptions).
ToolFile parse_tool_file(std::span<const std::uint8_t> bytes);

}  // namespace pastri::io
