// bit_writer.h - LSB-first bit-granular output stream.
//
// All PaSTRI stream components (quantized pattern, scales, ECQ prefix
// codes) are written through this writer so that the compressed size is
// exactly the number of bits the quantization calculus of the paper
// (Section IV-B) predicts, rounded up to whole bytes only once per stream.
#pragma once

#include <cassert>
#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

namespace pastri::bitio {

/// Accumulates bits least-significant-first into a growable byte buffer.
///
/// Writing order is little-endian within a byte: the first bit written
/// lands in bit 0 of byte 0.  `BitReader` consumes in the same order, so
/// the pair round-trips arbitrary bit sequences.
class BitWriter {
 public:
  BitWriter() = default;

  /// Append the low `nbits` bits of `value` (0 <= nbits <= 64).
  void write_bits(std::uint64_t value, unsigned nbits) {
    assert(nbits <= 64);
    if (nbits == 0) return;
    if (nbits < 64) value &= (std::uint64_t{1} << nbits) - 1;
    acc_ |= value << fill_;
    if (fill_ + nbits < 64) {
      fill_ += nbits;
      return;
    }
    const unsigned spill = fill_ + nbits - 64;
    flush_acc_();
    acc_ = spill ? (value >> (nbits - spill)) : 0;
    fill_ = spill;
  }

  /// Append a single bit.
  void write_bit(bool bit) { write_bits(bit ? 1u : 0u, 1); }

  /// Append a signed value in `nbits` bits using two's complement.
  void write_signed(std::int64_t value, unsigned nbits) {
    write_bits(static_cast<std::uint64_t>(value), nbits);
  }

  /// Append a run of fixed-width two's-complement values (the PQ/SQ
  /// arrays).  Bit-identical to calling write_signed per element.
  void write_signed_run(std::span<const std::int64_t> values,
                        unsigned nbits) {
    bytes_.reserve(bytes_.size() + (nbits * values.size()) / 8 + 8);
    for (std::int64_t v : values) {
      write_bits(static_cast<std::uint64_t>(v), nbits);
    }
  }

  /// Append an unsigned value in unary: `value` one-bits then a zero-bit.
  void write_unary(unsigned value) {
    for (unsigned i = 0; i < value; ++i) write_bit(true);
    write_bit(false);
  }

  /// Append the raw bytes of a trivially copyable value, byte-aligned
  /// relative to the value itself (the stream itself need not be aligned).
  template <typename T>
  void write_raw(const T& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    std::uint64_t tmp = 0;
    if constexpr (sizeof(T) <= 8) {
      std::memcpy(&tmp, &v, sizeof(T));
      write_bits(tmp, 8 * sizeof(T));
    } else {
      const auto* p = reinterpret_cast<const unsigned char*>(&v);
      for (std::size_t i = 0; i < sizeof(T); ++i) write_bits(p[i], 8);
    }
  }

  /// Append whole bytes (the stream need not be byte-aligned).
  void write_bytes(std::span<const std::uint8_t> bytes) {
    if (fill_ % 8 == 0) {
      // Fast path: flush the accumulator, then bulk-append.
      flush_partial_();
      bytes_.insert(bytes_.end(), bytes.begin(), bytes.end());
      return;
    }
    for (std::uint8_t b : bytes) write_bits(b, 8);
  }

  /// Number of bits written so far.
  std::size_t bit_count() const { return 8 * bytes_.size() + fill_; }

  /// Finish the stream: pads the final partial byte with zero bits.
  /// The writer may continue to be used afterwards (pad bits remain).
  std::vector<std::uint8_t> take() {
    align_to_byte();
    flush_partial_();
    std::vector<std::uint8_t> out = std::move(bytes_);
    bytes_.clear();
    acc_ = 0;
    fill_ = 0;
    return out;
  }

  /// Finish the stream like `take`, but keep ownership of the buffer:
  /// returns a view of the padded bytes, valid until the next write.
  /// With `restart()` this lets a driver reuse one writer (and its
  /// heap buffer) across many blocks without per-block allocation.
  std::span<const std::uint8_t> finish_view() {
    align_to_byte();
    flush_partial_();
    return bytes_;
  }

  /// Make room for `bytes` bytes of output without reallocating.
  void reserve(std::size_t bytes) { bytes_.reserve(bytes); }

  /// Reset to an empty stream, retaining the buffer capacity.
  void restart() {
    bytes_.clear();
    acc_ = 0;
    fill_ = 0;
  }

  /// Pad with zero bits to the next byte boundary.
  void align_to_byte() {
    const unsigned rem = fill_ % 8;
    if (rem != 0) write_bits(0, 8 - rem);
  }

 private:
  void flush_acc_() {
    const std::size_t n = bytes_.size();
    bytes_.resize(n + 8);
    std::memcpy(bytes_.data() + n, &acc_, 8);  // little-endian hosts only
    acc_ = 0;
  }

  void flush_partial_() {
    unsigned fill = fill_;
    std::uint64_t acc = acc_;
    while (fill >= 8) {
      bytes_.push_back(static_cast<std::uint8_t>(acc & 0xFF));
      acc >>= 8;
      fill -= 8;
    }
    assert(fill == 0);
    acc_ = 0;
    fill_ = 0;
  }

  std::vector<std::uint8_t> bytes_;
  std::uint64_t acc_ = 0;
  unsigned fill_ = 0;  // bits currently buffered in acc_
};

}  // namespace pastri::bitio
