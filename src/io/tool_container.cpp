#include "io/tool_container.h"

#include <stdexcept>
#include <streambuf>

namespace pastri::io {
namespace {

/// Read-only streambuf over borrowed bytes, so parse_tool_file runs the
/// one istream reader without copying the container.
struct SpanBuf : std::streambuf {
  explicit SpanBuf(std::span<const std::uint8_t> bytes) {
    char* p = const_cast<char*>(reinterpret_cast<const char*>(bytes.data()));
    setg(p, p, p + bytes.size());
  }
};

constexpr std::uint32_t kMaxLabelBytes = 1u << 20;

}  // namespace

void write_tool_header(std::ostream& os, const ToolHeader& header) {
  os.write(reinterpret_cast<const char*>(&kToolMagic), 4);
  const auto label_len = static_cast<std::uint32_t>(header.label.size());
  os.write(reinterpret_cast<const char*>(&label_len), 4);
  os.write(header.label.data(), label_len);
  for (const std::uint16_t n : header.shape.n) {
    os.write(reinterpret_cast<const char*>(&n), 2);
  }
  if (!os) throw std::runtime_error("container header write failed");
}

ToolHeader read_tool_header(std::istream& is) {
  std::uint32_t magic = 0, label_len = 0;
  is.read(reinterpret_cast<char*>(&magic), 4);
  if (!is || magic != kToolMagic) {
    throw std::runtime_error("not a pastri_tool container");
  }
  is.read(reinterpret_cast<char*>(&label_len), 4);
  if (!is || label_len > kMaxLabelBytes) {
    throw std::runtime_error("corrupt pastri_tool container label");
  }
  ToolHeader header;
  header.label.resize(label_len);
  is.read(header.label.data(), label_len);
  for (std::uint16_t& n : header.shape.n) {
    is.read(reinterpret_cast<char*>(&n), 2);
  }
  if (!is) throw std::runtime_error("truncated pastri_tool container header");
  return header;
}

ToolFile parse_tool_file(std::span<const std::uint8_t> bytes) {
  SpanBuf buf(bytes);
  std::istream is(&buf);
  ToolFile file;
  file.header = read_tool_header(is);
  file.stream = bytes.subspan(file.header.size());
  return file;
}

}  // namespace pastri::io
