#include "src/codec/bitstream.h"

namespace smol {

void BitWriter::WriteBits(uint32_t value, int nbits) {
  for (int i = nbits - 1; i >= 0; --i) {
    bit_buffer_ = (bit_buffer_ << 1) | ((value >> i) & 1);
    if (++bit_count_ == 8) {
      bytes_.push_back(static_cast<uint8_t>(bit_buffer_ & 0xFF));
      bit_buffer_ = 0;
      bit_count_ = 0;
    }
  }
}

void BitWriter::AlignToByte() {
  if (bit_count_ > 0) {
    bit_buffer_ <<= (8 - bit_count_);
    bytes_.push_back(static_cast<uint8_t>(bit_buffer_ & 0xFF));
    bit_buffer_ = 0;
    bit_count_ = 0;
  }
}

void BitWriter::WriteByte(uint8_t b) {
  AlignToByte();
  bytes_.push_back(b);
}

void BitWriter::WriteU32(uint32_t v) {
  AlignToByte();
  bytes_.push_back(static_cast<uint8_t>(v & 0xFF));
  bytes_.push_back(static_cast<uint8_t>((v >> 8) & 0xFF));
  bytes_.push_back(static_cast<uint8_t>((v >> 16) & 0xFF));
  bytes_.push_back(static_cast<uint8_t>((v >> 24) & 0xFF));
}

void BitWriter::WriteU16(uint16_t v) {
  AlignToByte();
  bytes_.push_back(static_cast<uint8_t>(v & 0xFF));
  bytes_.push_back(static_cast<uint8_t>((v >> 8) & 0xFF));
}

std::vector<uint8_t> BitWriter::Finish() {
  AlignToByte();
  return std::move(bytes_);
}

Result<uint32_t> BitReader::ReadBits(int nbits) {
  if (nbits == 0) return 0u;
  const uint32_t value = PeekBits(nbits);
  if (!SkipBits(nbits)) return Status::Corruption("bitstream truncated");
  return value;
}

Result<uint8_t> BitReader::ReadByte() {
  AlignToByte();
  if (byte_pos_ >= size_) return Status::Corruption("bitstream truncated");
  return data_[byte_pos_++];
}

Result<uint32_t> BitReader::ReadU32() {
  AlignToByte();
  if (byte_pos_ + 4 > size_) return Status::Corruption("bitstream truncated");
  const uint32_t v = LoadU32Le(data_ + byte_pos_);
  byte_pos_ += 4;
  return v;
}

Result<uint16_t> BitReader::ReadU16() {
  AlignToByte();
  if (byte_pos_ + 2 > size_) return Status::Corruption("bitstream truncated");
  const uint16_t v = LoadU16Le(data_ + byte_pos_);
  byte_pos_ += 2;
  return v;
}

Result<const uint8_t*> BitReader::ReadBytes(size_t n) {
  AlignToByte();
  if (n > size_ - byte_pos_) return Status::Corruption("bitstream truncated");
  const uint8_t* start = data_ + byte_pos_;
  byte_pos_ += n;
  return start;
}

Status BitReader::SeekToByte(size_t offset) {
  if (offset > size_) return Status::OutOfRange("seek past end of stream");
  byte_pos_ = offset;
  bit_pos_ = 0;
  return Status::OK();
}

}  // namespace smol
