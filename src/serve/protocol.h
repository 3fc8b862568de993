// protocol.h - Wire format of the pastri_serve daemon.
//
// One TCP port carries two protocols, disambiguated by the first four
// bytes of a connection:
//
//   * "PSRV" -- the binary block protocol below.  The client sends the
//     4-byte hello once, then a sequence of frames; the server answers
//     each frame with exactly one response frame on the same socket.
//   * "GET " -- plaintext HTTP.  `GET /metrics` returns the process
//     metrics registry in Prometheus text exposition format; anything
//     else is 404.  The connection closes after one response.
//
// Request frame (all integers little-endian):
//     u32 payload_len   length of everything after the opcode byte
//     u8  opcode        Opcode below
//     u8  payload[payload_len]
//
// Response frame:
//     u32 body_len      length of everything after the status field
//     u8  opcode        echo of the request opcode
//     i32 status        pastri_status; body is empty unless PASTRI_OK
//     u8  body[body_len]
//
// Every malformed frame (unknown opcode, short payload, oversized
// length) yields a status response, never a dropped connection mid
// frame and never a crash; the server closes the connection after
// responding to a frame it could not trust the framing of.
//
// Request payloads / response bodies per opcode:
//
//   OPEN_STORE   u8 kind (must be 0: container or manifest path; any
//                other kind answers PASTRI_ERR_INVALID_ARGUMENT),
//                u64 cache_capacity_blocks, u32 cache_shards (capped
//                at the capacity and at 256),
//                f64 error_bound (unused, kept for wire compatibility),
//                u16 name_len, name bytes (the path)
//             -> u32 store_id, u64 num_blocks, u64 block_size
//   GET_BLOCK    u32 store_id, u64 block
//             -> u64 count, f64 values[count]
//   GET_RANGE    u32 store_id, u64 first, u64 count
//             -> u64 count, f64 values[count]
//   0x04         reserved (answers PASTRI_ERR_INVALID_ARGUMENT, like any
//                unknown opcode)
//   STATS        u32 store_id
//             -> u64 hits, u64 misses, u64 bytes, u64 unique_blocks
//                (unique_blocks = blocks currently cached, bytes = their
//                decoded size)
//   PUT_OPEN     u16 num_sub_blocks, u16 sub_block_size,
//                f64 error_bound (<= 0 = default), u16 path_len, path
//             -> u32 session_id
//   PUT_CHUNK    u32 session_id, f64 values[] (whole payload; chunk
//                boundaries need not align to blocks)
//             -> empty (the response is the backpressure: it is sent
//                only after the chunk is queued, and queueing blocks
//                while the session's bounded queue is full)
//   PUT_CLOSE    u32 session_id
//             -> u64 num_blocks, u64 input_bytes, u64 output_bytes
//   PING         empty -> empty
#pragma once

#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

namespace pastri::serve {

/// Binary-protocol connection hello ("PSRV").
inline constexpr std::uint8_t kHello[4] = {'P', 'S', 'R', 'V'};

/// Hard cap on a frame payload / response body.  Large enough for a
/// GET_RANGE of thousands of blocks, small enough that a corrupt
/// length field cannot make the server allocate unbounded memory.
inline constexpr std::uint32_t kMaxFrameBytes = 64u << 20;

enum class Opcode : std::uint8_t {
  kOpenStore = 0x01,
  kGetBlock = 0x02,
  kGetRange = 0x03,
  // 0x04 is reserved: no opcode may reuse it.
  kStats = 0x05,
  kPutOpen = 0x06,
  kPutChunk = 0x07,
  kPutClose = 0x08,
  kPing = 0x09,
};

/// Little-endian append/read helpers shared by the server, the client,
/// and the protocol tests.  Readers throw std::out_of_range when the
/// buffer is short -- the server maps that to
/// PASTRI_ERR_INVALID_ARGUMENT rather than trusting a malformed frame.
class WireWriter {
 public:
  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u16(std::uint16_t v) { append_(&v, 2); }
  void u32(std::uint32_t v) { append_(&v, 4); }
  void u64(std::uint64_t v) { append_(&v, 8); }
  void i32(std::int32_t v) { append_(&v, 4); }
  void f64(double v) { append_(&v, 8); }
  void bytes(const void* data, std::size_t n) { append_(data, n); }
  void str(const std::string& s) {
    u16(static_cast<std::uint16_t>(s.size()));
    append_(s.data(), s.size());
  }

  const std::vector<std::uint8_t>& data() const { return buf_; }
  std::vector<std::uint8_t> take() { return std::move(buf_); }

 private:
  void append_(const void* p, std::size_t n) {
    const auto* b = static_cast<const std::uint8_t*>(p);
    buf_.insert(buf_.end(), b, b + n);
  }
  std::vector<std::uint8_t> buf_;
};

class WireReader {
 public:
  WireReader(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}
  explicit WireReader(const std::vector<std::uint8_t>& buf)
      : WireReader(buf.data(), buf.size()) {}
  // A reader only borrows the buffer; refuse temporaries outright.
  explicit WireReader(std::vector<std::uint8_t>&&) = delete;

  std::uint8_t u8() { return take_<std::uint8_t>(); }
  std::uint16_t u16() { return take_<std::uint16_t>(); }
  std::uint32_t u32() { return take_<std::uint32_t>(); }
  std::uint64_t u64() { return take_<std::uint64_t>(); }
  std::int32_t i32() { return take_<std::int32_t>(); }
  double f64() { return take_<double>(); }

  std::string str() {
    const std::size_t n = u16();
    need_(n);
    std::string s(reinterpret_cast<const char*>(data_ + pos_), n);
    pos_ += n;
    return s;
  }

  /// The unread tail (e.g. the f64 payload of PUT_CHUNK).
  const std::uint8_t* rest() const { return data_ + pos_; }
  std::size_t remaining() const { return size_ - pos_; }
  void expect_end() const {
    if (pos_ != size_) {
      throw std::out_of_range("protocol: trailing bytes in frame");
    }
  }

 private:
  template <typename T>
  T take_() {
    need_(sizeof(T));
    T v;
    std::memcpy(&v, data_ + pos_, sizeof(T));
    pos_ += sizeof(T);
    return v;
  }
  void need_(std::size_t n) const {
    if (size_ - pos_ < n) {
      throw std::out_of_range("protocol: short frame");
    }
  }

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

}  // namespace pastri::serve
