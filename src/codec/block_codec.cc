#include "src/codec/block_codec.h"

#include <cstring>

#include "src/util/macros.h"
#include "src/util/simd.h"

namespace smol {

namespace {

void StoreBlockScalar(const int16_t* samples, int n,
                      std::vector<uint8_t>& plane, int plane_w, int plane_h,
                      int bx, int by) {
  for (int y = 0; y < n; ++y) {
    const int sy = by + y;
    if (sy >= plane_h) break;
    for (int x = 0; x < n; ++x) {
      const int sx = bx + x;
      if (sx >= plane_w) break;
      int v = samples[y * n + x] + 128;
      if (v < 0) v = 0;
      if (v > 255) v = 255;
      plane[static_cast<size_t>(sy) * plane_w + sx] = static_cast<uint8_t>(v);
    }
  }
}

#if SMOL_SIMD_X86

// Baseline SSE2 (so they inline into the decode loops), dispatched at the
// SSE4 tier so a scalar cap still runs the reference loop. The level shift
// is a saturating 16-bit add, which cannot wrap, and _mm_packus_epi16 then
// clamps to [0, 255]: the scalar loop's result for every int16 sample.

// Two 8-sample rows per pack.
void StoreBlock8Sse2(const int16_t* samples, uint8_t* dst, size_t stride) {
  const __m128i bias = _mm_set1_epi16(128);
  for (int y = 0; y < 8; y += 2) {
    const __m128i r0 = _mm_adds_epi16(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(samples + y * 8)),
        bias);
    const __m128i r1 = _mm_adds_epi16(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(samples + y * 8 + 8)),
        bias);
    const __m128i px = _mm_packus_epi16(r0, r1);
    _mm_storel_epi64(reinterpret_cast<__m128i*>(dst + y * stride), px);
    _mm_storel_epi64(reinterpret_cast<__m128i*>(dst + (y + 1) * stride),
                     _mm_unpackhi_epi64(px, px));
  }
}

// All four 4-sample rows in one pack.
void StoreBlock4Sse2(const int16_t* samples, uint8_t* dst, size_t stride) {
  const __m128i bias = _mm_set1_epi16(128);
  const __m128i r01 = _mm_adds_epi16(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(samples)), bias);
  const __m128i r23 = _mm_adds_epi16(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(samples + 8)), bias);
  alignas(16) uint8_t px[16];
  _mm_store_si128(reinterpret_cast<__m128i*>(px), _mm_packus_epi16(r01, r23));
  for (int y = 0; y < 4; ++y) std::memcpy(dst + y * stride, px + y * 4, 4);
}

#endif  // SMOL_SIMD_X86

}  // namespace

int BitSize(int v) {
  int a = v < 0 ? -v : v;
  int size = 0;
  while (a > 0) {
    a >>= 1;
    ++size;
  }
  return size;
}

uint32_t EncodeValueBits(int v, int size) {
  return v >= 0 ? static_cast<uint32_t>(v)
                : static_cast<uint32_t>(v + (1 << size) - 1);
}

int DecodeValueBits(uint32_t bits, int size) {
  if (size == 0) return 0;
  const int half = 1 << (size - 1);
  const int v = static_cast<int>(bits);
  return v >= half ? v : v - ((1 << size) - 1);
}

void ExtractBlock(const std::vector<uint8_t>& plane, int plane_w, int plane_h,
                  int bx, int by, int bias, int16_t out[64]) {
  for (int y = 0; y < 8; ++y) {
    int sy = by + y;
    if (sy >= plane_h) sy = plane_h - 1;
    for (int x = 0; x < 8; ++x) {
      int sx = bx + x;
      if (sx >= plane_w) sx = plane_w - 1;
      out[y * 8 + x] =
          static_cast<int16_t>(plane[static_cast<size_t>(sy) * plane_w + sx]) -
          static_cast<int16_t>(bias);
    }
  }
}

CoeffBlock TransformBlock(const int16_t samples[64], const QuantTable& qt) {
  float dct[64];
  ForwardDct8x8(samples, dct);
  int16_t quant[64];
  Quantize(dct, qt, quant);
  CoeffBlock out;
  for (int i = 0; i < 64; ++i) out.zz[i] = quant[kZigZag[i]];
  return out;
}

void ReconstructBlock(const DecodedBlock& block, const QuantTable& qt,
                      int16_t out[64]) {
  float dct[64];
  Dequantize(block.coef, qt, dct);
  InverseDct8x8(dct, out);
}

void ReconstructBlock(const CoeffBlock& block, const QuantTable& qt,
                      int16_t out[64]) {
  DecodedBlock natural;
  for (int i = 0; i < 64; ++i) natural.coef[kZigZag[i]] = block.zz[i];
  ReconstructBlock(natural, qt, out);
}

void ReconstructBlockScaled(const DecodedBlock& block, const QuantTable& qt,
                            int n, int16_t* out) {
  float dct[64];  // InverseDctScaled reads only the n x n corner written here
  for (int v = 0; v < n; ++v) {
    for (int u = 0; u < n; ++u) {
      const int k = v * 8 + u;
      dct[k] = static_cast<float>(block.coef[k]) * qt.q[k];
    }
  }
  InverseDctScaled(dct, n, out);
}

void StoreBlock(const int16_t* samples, int n, std::vector<uint8_t>& plane,
                int plane_w, int plane_h, int bx, int by) {
#if SMOL_SIMD_X86
  if ((n == 8 || n == 4) && bx + n <= plane_w && by + n <= plane_h &&
      simd::Sse4()) {
    uint8_t* dst = plane.data() + static_cast<size_t>(by) * plane_w + bx;
    if (n == 8) {
      StoreBlock8Sse2(samples, dst, static_cast<size_t>(plane_w));
    } else {
      StoreBlock4Sse2(samples, dst, static_cast<size_t>(plane_w));
    }
    return;
  }
#endif
  StoreBlockScalar(samples, n, plane, plane_w, plane_h, bx, by);
}

void AccumulateBlockStats(const CoeffBlock& block, int* dc_pred,
                          std::vector<uint64_t>& dc_freq,
                          std::vector<uint64_t>& ac_freq) {
  const int diff = block.zz[0] - *dc_pred;
  *dc_pred = block.zz[0];
  dc_freq[BitSize(diff)]++;
  int run = 0;
  for (int i = 1; i < 64; ++i) {
    if (block.zz[i] == 0) {
      ++run;
      continue;
    }
    while (run >= 16) {
      ac_freq[0xF0]++;  // ZRL
      run -= 16;
    }
    ac_freq[(run << 4) | BitSize(block.zz[i])]++;
    run = 0;
  }
  if (run > 0) ac_freq[0x00]++;  // EOB
}

void EncodeBlock(const CoeffBlock& block, int* dc_pred,
                 const HuffmanTable& dc_table, const HuffmanTable& ac_table,
                 BitWriter* writer) {
  const int diff = block.zz[0] - *dc_pred;
  *dc_pred = block.zz[0];
  const int dc_size = BitSize(diff);
  dc_table.EncodeSymbol(writer, dc_size);
  if (dc_size > 0) writer->WriteBits(EncodeValueBits(diff, dc_size), dc_size);
  int run = 0;
  for (int i = 1; i < 64; ++i) {
    if (block.zz[i] == 0) {
      ++run;
      continue;
    }
    while (run >= 16) {
      ac_table.EncodeSymbol(writer, 0xF0);
      run -= 16;
    }
    const int size = BitSize(block.zz[i]);
    ac_table.EncodeSymbol(writer, (run << 4) | size);
    writer->WriteBits(EncodeValueBits(block.zz[i], size), size);
    run = 0;
  }
  if (run > 0) ac_table.EncodeSymbol(writer, 0x00);
}

namespace {

// MSB-first 64-bit bit window over a BitReader's stream. It refills whole
// bytes and never reads past the stream; past its end the window shifts in
// zeros and its bit count goes negative, so Overrun() is exactly "a consumed
// bit lies past the end" (where BitReader::SkipBits fails).
class BitWindow {
 public:
  explicit BitWindow(const BitReader& reader)
      : begin_(reader.data()), end_(reader.data() + reader.size()) {
    const size_t pos = reader.bit_position();
    next_ = begin_ + (pos >> 3);
    Refill();
    Consume(static_cast<int>(pos & 7));
  }

  // Guarantees 32 bits to Peek (zeros past the end of the stream), enough
  // for a 16-bit code plus 15 value bits.
  void Refill() {
    if (count_ >= 32) return;
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__
    if (end_ - next_ >= 8) {
      // One unaligned load. The bytes that do not fit whole are loaded
      // again next time, OR-ing the same bits into the same place.
      uint64_t word;
      std::memcpy(&word, next_, 8);
      bits_ |= __builtin_bswap64(word) >> count_;
      next_ += (63 - count_) >> 3;
      count_ |= 56;
      return;
    }
#endif
    while (count_ <= 56 && next_ < end_) {
      bits_ |= static_cast<uint64_t>(*next_++) << (56 - count_);
      count_ += 8;
    }
  }

  // The next n (1..32) bits, MSB-first.
  uint32_t Peek(int n) const { return static_cast<uint32_t>(bits_ >> (64 - n)); }

  void Consume(int n) {
    bits_ <<= n;
    count_ -= n;
  }

  bool Overrun() const { return count_ < 0; }

  // Absolute position of the next unconsumed bit (valid unless Overrun()).
  size_t BitPosition() const {
    return static_cast<size_t>(next_ - begin_) * 8 -
           static_cast<size_t>(count_);
  }

 private:
  const uint8_t* begin_;
  const uint8_t* end_;
  const uint8_t* next_;  // next byte to load
  uint64_t bits_ = 0;    // unconsumed bits, MSB-aligned
  int count_ = 0;        // loaded bits not yet consumed
};

Status Truncated() { return Status::Corruption("bitstream truncated"); }

}  // namespace

BlockDecodeTables::BlockDecodeTables(const HuffmanTable& dc,
                                     const HuffmanTable& ac)
    : dc_(&dc), ac_(&ac) {
  std::memset(fast_ac_, 0, sizeof(fast_ac_));
  // Walk the AC LUT one code at a time: a code of length len owns a span of
  // 2^(kHuffmanLutBits - len) prefixes, and when its value bits fit too,
  // each value owns an equal sub-span of it.
  uint32_t prefix = 0;
  while (prefix < (1u << kHuffmanLutBits)) {
    const uint32_t entry = ac.LutEntry(prefix);
    if (entry == 0) {  // no whole code in this prefix
      ++prefix;
      continue;
    }
    const int code_len = static_cast<int>(entry & 0xFF);
    const int sym = static_cast<int>(entry >> 8);
    const int size = sym & 0x0F;
    const uint32_t span_end = prefix + (1u << (kHuffmanLutBits - code_len));
    // EOB, ZRL and other size-0 symbols, symbols outside the run/size byte
    // alphabet, and values whose bits run past the prefix keep len == 0.
    if (size == 0 || sym > 0xFF || code_len + size > kHuffmanLutBits) {
      prefix = span_end;
      continue;
    }
    const uint32_t per_value = 1u << (kHuffmanLutBits - code_len - size);
    for (uint32_t bits = 0; prefix < span_end; ++bits) {
      const FastAc fast{
          static_cast<int16_t>(DecodeValueBits(bits, size)),
          static_cast<uint8_t>(sym >> 4),
          static_cast<uint8_t>(code_len + size)};
      for (uint32_t k = 0; k < per_value; ++k) fast_ac_[prefix++] = fast;
    }
  }
}

Status DecodeBlock(BitReader* reader, const BlockDecodeTables& tables,
                   int* dc_pred, DecodedBlock* block) {
  std::memset(block->coef, 0, sizeof(block->coef));
  BitWindow window(*reader);
  const uint32_t dc_entry = tables.dc_->Lookup(window.Peek(kMaxHuffmanBits));
  if (dc_entry == 0) return Status::Corruption("invalid Huffman prefix");
  window.Consume(static_cast<int>(dc_entry & 0xFF));
  const int dc_size = static_cast<int>(dc_entry >> 8);
  if (dc_size > 15) return Status::Corruption("bad DC size");
  int diff = 0;
  if (dc_size > 0) {
    diff = DecodeValueBits(window.Peek(dc_size), dc_size);
    window.Consume(dc_size);
  }
  if (window.Overrun()) return Truncated();
  *dc_pred += diff;
  block->coef[0] = static_cast<int16_t>(*dc_pred);  // kZigZag[0] == 0
  int i = 1;
  while (i < 64) {
    window.Refill();
    const BlockDecodeTables::FastAc fast =
        tables.fast_ac_[window.Peek(kHuffmanLutBits)];
    if (fast.len != 0) {
      window.Consume(fast.len);
      i += fast.run;
      if (i >= 64) return Status::Corruption("AC index overflow");
      block->coef[kZigZag[i++]] = fast.value;
      if (window.Overrun()) return Truncated();
      continue;
    }
    const uint32_t entry = tables.ac_->Lookup(window.Peek(kMaxHuffmanBits));
    if (entry == 0) return Status::Corruption("invalid Huffman prefix");
    window.Consume(static_cast<int>(entry & 0xFF));
    if (window.Overrun()) return Truncated();
    const int sym = static_cast<int>(entry >> 8);
    if (sym == 0x00) break;  // EOB
    if (sym == 0xF0) {       // ZRL
      i += 16;
      continue;
    }
    const int run = sym >> 4;
    const int size = sym & 0x0F;
    if (size == 0) return Status::Corruption("bad AC symbol");
    i += run;
    if (i >= 64) return Status::Corruption("AC index overflow");
    block->coef[kZigZag[i++]] = static_cast<int16_t>(
        DecodeValueBits(window.Peek(size), size));
    window.Consume(size);
    if (window.Overrun()) return Truncated();
  }
  reader->SetBitPosition(window.BitPosition());
  return Status::OK();
}

}  // namespace smol
