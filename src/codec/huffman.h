// Canonical Huffman coding (length-limited), shared by SJPG/SPNG/SV264.
//
// JPEG transmits Huffman tables as 16 length counts plus the symbol list in
// canonical order; we follow the same wire format so tables are compact and
// decode-side reconstruction is deterministic.
#ifndef SMOL_CODEC_HUFFMAN_H_
#define SMOL_CODEC_HUFFMAN_H_

#include <cstdint>
#include <vector>

#include "src/codec/bitstream.h"
#include "src/util/result.h"

namespace smol {

/// Maximum code length (JPEG's limit).
inline constexpr int kMaxHuffmanBits = 16;

/// Lookahead width of the decode LUT: codes up to this length decode with a
/// single table probe; longer (rare) codes fall back to the canonical scan.
inline constexpr int kHuffmanLutBits = 10;

/// \brief Canonical Huffman code table for a byte-symbol alphabet.
class HuffmanTable {
 public:
  /// Builds a length-limited canonical code from symbol frequencies.
  /// Symbols with zero frequency get no code. At least one symbol must have
  /// nonzero frequency. \p alphabet_size <= 65536.
  static Result<HuffmanTable> FromFrequencies(const std::vector<uint64_t>& freq);

  /// Serializes as: u16 alphabet size, 16 bytes of per-length counts,
  /// then the symbols in canonical order (u16 each).
  void Serialize(BitWriter* writer) const;

  /// Reconstructs a table from the wire format. A symbol list in canonical
  /// order (ascending within each length, each symbol once: what Serialize
  /// writes) builds in one pass; any other list is reordered from the code
  /// lengths it leaves (a repeated symbol keeps its last length).
  static Result<HuffmanTable> Deserialize(BitReader* reader);

  /// Writes the code for \p symbol; the symbol must have a code.
  void EncodeSymbol(BitWriter* writer, int symbol) const;

  /// Reads one symbol; Corruption on invalid prefix or truncation.
  Result<int> DecodeSymbol(BitReader* reader) const;

  /// Resolves the code at the front of \p bits, the next kMaxHuffmanBits
  /// bits of the stream MSB-first (zero-padded past its end), without a
  /// reader. Returns (symbol << 8 | code length), or 0 for an invalid prefix.
  uint32_t Lookup(uint32_t bits) const {
    const uint32_t entry = lut_[bits >> (kMaxHuffmanBits - kHuffmanLutBits)];
    return entry != 0 ? entry : LookupLong(bits);
  }

  /// Read-only view of the decode LUT: the entry for a kHuffmanLutBits-bit
  /// stream prefix, (symbol << 8 | code length), or 0 when the prefix holds
  /// no whole code. \p prefix < 2^kHuffmanLutBits.
  uint32_t LutEntry(uint32_t prefix) const { return lut_[prefix]; }

  /// Code length for \p symbol (0 if absent).
  int CodeLength(int symbol) const {
    return symbol >= 0 && symbol < static_cast<int>(lengths_.size())
               ? lengths_[symbol]
               : 0;
  }

  int alphabet_size() const { return static_cast<int>(lengths_.size()); }

 private:
  // Builds count_ and sorted_symbols_ from lengths_, then the codes.
  Status BuildFromLengths();

  // Checks the Kraft inequality over count_, then assigns codes_, the
  // first_code_/first_index_ decode acceleration and the LUT from
  // sorted_symbols_, which must be in canonical (length, symbol) order.
  Status AssignCanonicalCodes();

  // Lookup's canonical scan for codes longer than kHuffmanLutBits.
  uint32_t LookupLong(uint32_t bits) const;

  std::vector<uint8_t> lengths_;        // per-symbol code length, 0 = absent
  std::vector<uint16_t> codes_;         // per-symbol canonical code
  std::vector<uint16_t> sorted_symbols_;  // symbols in canonical order
  // Decode LUT indexed by the next kHuffmanLutBits of the stream: entry
  // (symbol << 8 | length) for codes short enough to fit, 0 for longer
  // codes and invalid prefixes (both resolved by the slow path).
  std::vector<uint32_t> lut_;
  // Canonical decode acceleration: for each length L, the first code value and
  // the index of its symbol in sorted_symbols_.
  int32_t first_code_[kMaxHuffmanBits + 1] = {0};
  int32_t first_index_[kMaxHuffmanBits + 1] = {0};
  int32_t count_[kMaxHuffmanBits + 1] = {0};
};

}  // namespace smol

#endif  // SMOL_CODEC_HUFFMAN_H_
