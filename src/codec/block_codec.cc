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

// The next 8 stream bytes as one big-endian word.
uint64_t LoadBe64(const uint8_t* p) {
  uint64_t word;
  std::memcpy(&word, p, 8);
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__
  word = __builtin_bswap64(word);
#endif
  return word;
}

// MSB-first 64-bit bit window over a BitReader's stream. It refills whole
// bytes and never reads past the stream; past its end the window shifts in
// zeros and its bit count goes negative, so Overrun() is exactly "a consumed
// bit lies past the end" (where BitReader::SkipBits fails).
class BitWindow {
 public:
  // Bytes that must remain past the load pointer for a whole block to
  // decode unchecked: a block consumes under 250 bytes (a 31-bit DC plus 63
  // AC symbols of at most 31 bits), the load pointer runs at most 8 bytes
  // ahead of the consumed bits, and a refill loads 8 bytes.
  static constexpr ptrdiff_t kFarBytes = 264;

  explicit BitWindow(const BitReader& reader)
      : begin_(reader.data()), end_(reader.data() + reader.size()) {
    const size_t pos = reader.bit_position();
    next_ = begin_ + (pos >> 3);
    Refill();
    Consume(static_cast<int>(pos & 7));
  }

  // True while a whole block decodes with RefillFar() and no Overrun().
  bool Far() const { return end_ - next_ >= kFarBytes; }

  // Guarantees 56 bits to Peek: one unaligned load. The bytes that do not
  // fit whole are loaded again next time, OR-ing the same bits into the
  // same place. 8 bytes must remain past the load pointer.
  void RefillFar() {
    bits_ |= LoadBe64(next_) >> count_;
    next_ += (63 - count_) >> 3;
    count_ |= 56;
  }

  // Guarantees 32 bits to Peek (zeros past the end of the stream), enough
  // for a 16-bit code plus 15 value bits.
  void Refill() {
    if (count_ >= 32) return;
    if (end_ - next_ >= 8) {
      RefillFar();
      return;
    }
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

// The fast-AC run that marks EOB: from any position it steps past the
// block, as a ZRL (run 15 plus a zero) does from position 48 on.
constexpr int kEobRun = 63;

// Natural index of each zig-zag position a fast symbol can reach (at most
// 63 + kEobRun). Positions past the block map to 0, the DC slot: it takes
// the one store past the block (a zero for EOB or ZRL, a non-zero value for
// an index overflow) and is written with the DC value last.
constexpr uint8_t kZigZagOrDc[128] = {
    0,  1,  8,  16, 9,  2,  3,  10, 17, 24, 32, 25, 18, 11, 4,  5,
    12, 19, 26, 33, 40, 48, 41, 34, 27, 20, 13, 6,  7,  14, 21, 28,
    35, 42, 49, 56, 57, 50, 43, 36, 29, 22, 15, 23, 30, 37, 44, 51,
    58, 59, 52, 45, 38, 31, 39, 46, 53, 60, 61, 54, 47, 55, 62, 63};

constexpr const char* kTruncated = "bitstream truncated";
constexpr const char* kInvalidPrefix = "invalid Huffman prefix";
constexpr const char* kIndexOverflow = "AC index overflow";

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
    // EOB is a zero past the block and ZRL a zero after a run of 15. Other
    // size-0 symbols, symbols outside the run/size byte alphabet and values
    // whose bits run past the prefix keep len == 0.
    const bool eob_or_zrl = sym == 0x00 || sym == 0xF0;
    if ((size == 0 && !eob_or_zrl) || sym > 0xFF ||
        code_len + size > kHuffmanLutBits) {
      prefix = span_end;
      continue;
    }
    const int run = sym == 0x00 ? kEobRun : sym >> 4;
    const uint32_t per_value = 1u << (kHuffmanLutBits - code_len - size);
    for (uint32_t bits = 0; prefix < span_end; ++bits) {
      const FastAc fast{static_cast<uint8_t>(code_len + size),
                        static_cast<uint8_t>(run),
                        static_cast<int16_t>(DecodeValueBits(bits, size))};
      for (uint32_t k = 0; k < per_value; ++k) fast_ac_[prefix++] = fast;
    }
  }
}

// The block decoder, a friend of BlockDecodeTables. Errors are static
// messages (nullptr for none), turned into a Status once per call.
class BlockDecoder {
 public:
  // Decodes one block from \p w. kFar: the window is Far() at its start, so
  // it refills unchecked once per four fast symbols and never overruns;
  // otherwise it refills and checks for an overrun after every symbol.
  // \p coef must be zero.
  template <bool kFar>
  static const char* Block(BitWindow& w, const BlockDecodeTables& t,
                           int* dc_pred, int16_t* coef) {
    kFar ? w.RefillFar() : w.Refill();
    // DC: one LUT probe for the size, then its value bits without a
    // branch (size 0 peeks nothing and decodes 0).
    const uint32_t dc = t.dc_->Lookup(w.Peek(kMaxHuffmanBits));
    if (dc == 0) return kInvalidPrefix;
    w.Consume(static_cast<int>(dc & 0xFF));
    const int size = static_cast<int>(dc >> 8);
    if (size > 15) return "bad DC size";
    const int bits = static_cast<int>(w.Peek(16) >> (16 - size));
    const int diff = bits >= (1 << size) >> 1 ? bits : bits - ((1 << size) - 1);
    w.Consume(size);
    if (!kFar && w.Overrun()) return kTruncated;
    *dc_pred += diff;
    int i = 1;  // zig-zag position of the next coefficient
    for (;;) {
      if (kFar) w.RefillFar();
      // kFar: four fast symbols per refill, each at most kHuffmanLutBits
      // of the 56 bits it guarantees.
#pragma GCC unroll 4
      for (int s = 0; s < (kFar ? 4 : 1); ++s) {
        if (!kFar) w.Refill();
        const BlockDecodeTables::FastAc f =
            t.fast_ac_[w.Peek(kHuffmanLutBits)];
        if (f.len == 0) goto slow;
        w.Consume(f.len);
        i += f.run;
        coef[kZigZagOrDc[i++]] = f.value;
        if (!kFar && w.Overrun()) return kTruncated;
        if (i >= 64) goto end;
      }
      continue;
    slow:
      // A symbol the fast table leaves to the Huffman LUT or canonical scan.
      kFar ? w.RefillFar() : w.Refill();
      {
        const uint32_t entry = t.ac_->Lookup(w.Peek(kMaxHuffmanBits));
        if (entry == 0) return kInvalidPrefix;
        w.Consume(static_cast<int>(entry & 0xFF));
        if (!kFar && w.Overrun()) return kTruncated;
        const int sym = static_cast<int>(entry >> 8);
        if (sym == 0x00) break;  // EOB
        if (sym == 0xF0) {       // ZRL
          i += 16;
          if (i >= 64) break;
          continue;
        }
        const int run = sym >> 4;
        const int size = sym & 0x0F;
        if (size == 0) return "bad AC symbol";
        i += run;
        if (i >= 64) return kIndexOverflow;
        coef[kZigZagOrDc[i++]] =
            static_cast<int16_t>(DecodeValueBits(w.Peek(size), size));
        w.Consume(size);
        if (!kFar && w.Overrun()) return kTruncated;
        if (i >= 64) break;
      }
    }
  end:
    // The one end check: the DC slot holds the store past the block, which
    // is zero unless a value landed there.
    if (coef[0] != 0) return kIndexOverflow;
    coef[0] = static_cast<int16_t>(*dc_pred);
    return nullptr;
  }

  static Status Blocks(BitReader* reader,
                       const BlockDecodeTables* const* tables,
                       const int* components, int period, int count,
                       int* dc_pred, DecodedBlock* out, int* decoded) {
    std::memset(out, 0, sizeof(DecodedBlock) * static_cast<size_t>(count));
    BitWindow w(*reader);
    const char* error = nullptr;
    int k = 0;
    for (int slot = 0; k < count; ++k) {
      const BlockDecodeTables& t = *tables[slot];
      int* pred = &dc_pred[components[slot]];
      error = w.Far() ? Block<true>(w, t, pred, out[k].coef)
                      : Block<false>(w, t, pred, out[k].coef);
      if (error != nullptr) break;
      if (++slot == period) slot = 0;
    }
    *decoded = k;
    if (error != nullptr) return Status::Corruption(error);
    reader->SetBitPosition(w.BitPosition());
    return Status::OK();
  }
};

Status DecodeBlock(BitReader* reader, const BlockDecodeTables& tables,
                   int* dc_pred, DecodedBlock* block) {
  const BlockDecodeTables* slot = &tables;
  const int component = 0;
  int decoded = 0;
  return BlockDecoder::Blocks(reader, &slot, &component, 1, 1, dc_pred, block,
                              &decoded);
}

Status DecodeBlocks(BitReader* reader, const BlockDecodeTables* const* tables,
                    const int* components, int period, int count,
                    int* dc_pred, DecodedBlock* out, int* decoded) {
  return BlockDecoder::Blocks(reader, tables, components, period, count,
                              dc_pred, out, decoded);
}

}  // namespace smol
