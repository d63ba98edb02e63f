// Bit-level serialization used by all three codecs.
#ifndef SMOL_CODEC_BITSTREAM_H_
#define SMOL_CODEC_BITSTREAM_H_

#include <cstdint>
#include <cstring>
#include <vector>

#include "src/util/result.h"

namespace smol {

/// \brief MSB-first bit writer over a growable byte vector.
class BitWriter {
 public:
  /// Appends the low \p nbits bits of \p value, most significant first.
  void WriteBits(uint32_t value, int nbits);

  /// Flushes partial bits (zero-padded) so the stream is byte aligned.
  void AlignToByte();

  /// Appends a full byte (stream must be byte-aligned for raw writes).
  void WriteByte(uint8_t b);

  /// Appends a little-endian 32-bit integer (byte-aligned).
  void WriteU32(uint32_t v);

  /// Appends a little-endian 16-bit integer (byte-aligned).
  void WriteU16(uint16_t v);

  /// Current size in bytes, counting any partial byte.
  size_t SizeBytes() const { return bytes_.size() + (bit_count_ > 0 ? 1 : 0); }

  /// Finishes the stream and moves out the bytes.
  std::vector<uint8_t> Finish();

 private:
  std::vector<uint8_t> bytes_;
  uint32_t bit_buffer_ = 0;  // Up to 31 pending bits, MSB-first.
  int bit_count_ = 0;
};

/// Little-endian 16- and 32-bit loads from a byte span (see
/// BitReader::ReadBytes).
inline uint16_t LoadU16Le(const uint8_t* p) {
  return static_cast<uint16_t>(p[0] | (p[1] << 8));
}
inline uint32_t LoadU32Le(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
         (static_cast<uint32_t>(p[2]) << 16) |
         (static_cast<uint32_t>(p[3]) << 24);
}

/// \brief MSB-first bit reader over a byte span.
class BitReader {
 public:
  BitReader(const uint8_t* data, size_t size) : data_(data), size_(size) {}

  /// Reads \p nbits (<= 24) bits MSB-first. Fails past end of stream.
  Result<uint32_t> ReadBits(int nbits);

  /// Returns the next \p nbits (1..24) bits MSB-first without consuming
  /// them, zero-padded past the end of the stream (hot path, no Status).
  uint32_t PeekBits(int nbits) const {
    uint64_t window;
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__
    if (byte_pos_ + 8 <= size_) {
      // Hot path: one unaligned load covers bit_pos_ + nbits (< 33 bits).
      std::memcpy(&window, data_ + byte_pos_, 8);
      window = __builtin_bswap64(window);
      return static_cast<uint32_t>((window >> (64 - bit_pos_ - nbits)) &
                                   ((1u << nbits) - 1u));
    }
#endif
    window = 0;
    for (int i = 0; i < 5; ++i) {
      window = (window << 8) |
               (byte_pos_ + i < size_ ? data_[byte_pos_ + i] : 0u);
    }
    return static_cast<uint32_t>((window >> (40 - bit_pos_ - nbits)) &
                                 ((1u << nbits) - 1u));
  }

  /// Consumes \p nbits bits; false if that would pass the end of the stream
  /// (the position is left unchanged on failure).
  bool SkipBits(int nbits) {
    const size_t target = byte_pos_ * 8 + static_cast<size_t>(bit_pos_) +
                          static_cast<size_t>(nbits);
    if (target > size_ * 8) return false;
    byte_pos_ = target >> 3;
    bit_pos_ = static_cast<int>(target & 7);
    return true;
  }

  /// Skips to the next byte boundary.
  void AlignToByte() {
    if (bit_pos_ != 0) {
      bit_pos_ = 0;
      ++byte_pos_;
    }
  }

  Result<uint8_t> ReadByte();
  Result<uint32_t> ReadU32();
  Result<uint16_t> ReadU16();

  /// Aligns like ReadU16, then consumes the next \p n bytes and returns
  /// where they start in the stream: one bounds check for a whole table,
  /// read with LoadU16Le/LoadU32Le.
  Result<const uint8_t*> ReadBytes(size_t n);

  /// Repositions the reader to an absolute byte offset (byte-aligned).
  Status SeekToByte(size_t offset);

  size_t byte_position() const { return byte_pos_; }
  bool AtEnd() const { return byte_pos_ >= size_; }

  /// The whole stream and the absolute bit position within it, for decoders
  /// that run their own bit window (see DecodeBlock) and hand the position
  /// back with SetBitPosition.
  const uint8_t* data() const { return data_; }
  size_t size() const { return size_; }
  size_t bit_position() const { return byte_pos_ * 8 + bit_pos_; }

  /// Moves to absolute bit \p pos, which must be <= size() * 8.
  void SetBitPosition(size_t pos) {
    byte_pos_ = pos >> 3;
    bit_pos_ = static_cast<int>(pos & 7);
  }

 private:
  const uint8_t* data_;
  size_t size_;
  size_t byte_pos_ = 0;
  int bit_pos_ = 0;
};

}  // namespace smol

#endif  // SMOL_CODEC_BITSTREAM_H_
