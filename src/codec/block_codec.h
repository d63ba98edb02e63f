// Shared 8x8 block transform + entropy coding primitives used by the SJPG
// image codec and the SV264 video codec (both are block-DCT codecs).
#ifndef SMOL_CODEC_BLOCK_CODEC_H_
#define SMOL_CODEC_BLOCK_CODEC_H_

#include <cstdint>
#include <vector>

#include "src/codec/bitstream.h"
#include "src/codec/dct.h"
#include "src/codec/huffman.h"
#include "src/util/result.h"

namespace smol {

/// One 8x8 block of quantized coefficients in zig-zag order: what the
/// encoder transforms into and entropy-codes.
struct CoeffBlock {
  int16_t zz[64];
};

/// One 8x8 block of quantized coefficients in natural (row-major) order:
/// what DecodeBlock writes. The decoder stores each coefficient it reads at
/// its natural index, so reconstruction needs no dezigzag pass. A type of
/// its own, so an encoder (zig-zag) block cannot be passed where a decoded
/// one is expected, or the reverse.
struct DecodedBlock {
  int16_t coef[64];
};

/// JPEG-style magnitude category: bits needed to represent |v| (0 for v==0).
int BitSize(int v);

/// JPEG signed-value bit encoding (negatives stored as v + 2^size - 1).
uint32_t EncodeValueBits(int v, int size);
int DecodeValueBits(uint32_t bits, int size);

/// Extracts an 8x8 block at (bx, by) from \p plane with edge replication,
/// level-shifted by \p bias (128 for intra samples, 0 for residuals).
void ExtractBlock(const std::vector<uint8_t>& plane, int plane_w, int plane_h,
                  int bx, int by, int bias, int16_t out[64]);

/// Forward DCT + quantization + zig-zag of one block of samples.
CoeffBlock TransformBlock(const int16_t samples[64], const QuantTable& qt);

/// Dequantization + inverse DCT of one decoded block (output natural order
/// samples).
void ReconstructBlock(const DecodedBlock& block, const QuantTable& qt,
                      int16_t out[64]);

/// The same for an encoder block: dezigzags it first. Encoders use it to
/// rebuild the reference a decoder will see, to the same bytes.
void ReconstructBlock(const CoeffBlock& block, const QuantTable& qt,
                      int16_t out[64]);

/// Dequantization + scaled inverse DCT of one decoded block: the n x n (n in
/// {1, 2, 4}) level-shifted samples InverseDctScaled reconstructs from the
/// top-left n x n coefficients. Only those n*n coefficients are
/// dequantized, with the same products as Dequantize.
void ReconstructBlockScaled(const DecodedBlock& block, const QuantTable& qt,
                            int n, int16_t* out);

/// Stores an n x n block of level-shifted samples (row-major) into \p plane
/// at (bx, by): adds the 128 level shift back and saturates to [0, 255],
/// clipping the block to the plane. Unclipped 8x8 and 4x4 blocks store whole
/// rows with SIMD; the per-pixel loop is the reference and runs for other
/// blocks and under ScopedSimdLevelCap(kScalar).
void StoreBlock(const int16_t* samples, int n, std::vector<uint8_t>& plane,
                int plane_w, int plane_h, int bx, int by);

/// First-pass Huffman statistics for one block (DC diff + AC run/size).
/// \p dc_freq must have >= 17 entries, \p ac_freq >= 256.
void AccumulateBlockStats(const CoeffBlock& block, int* dc_pred,
                          std::vector<uint64_t>& dc_freq,
                          std::vector<uint64_t>& ac_freq);

/// Entropy-encodes one block (JPEG DC-differential + AC run-length coding).
void EncodeBlock(const CoeffBlock& block, int* dc_pred,
                 const HuffmanTable& dc_table, const HuffmanTable& ac_table,
                 BitWriter* writer);

/// \brief Decode-side tables for one component class (luma or chroma).
///
/// Borrows the DC and AC Huffman tables (they must outlive this) and builds
/// a fast-AC table from the AC table's LUT: per kHuffmanLutBits-bit stream
/// prefix, a whole AC symbol -- run/size code plus value bits, EOB and ZRL
/// included -- when it fits the prefix. Build it once per table set (per
/// SJPG decode, per SV264 frame) on the stack: it is ~4 KB and allocates
/// nothing.
class BlockDecodeTables {
 public:
  BlockDecodeTables(const HuffmanTable& dc, const HuffmanTable& ac);

 private:
  friend class BlockDecoder;  // block_codec.cc

  // len == 0: the prefix needs the Huffman LUT or canonical scan instead
  // (other size-0 symbols, codes whose value bits do not fit, invalid
  // prefixes). len comes first: the low byte of an entry is the shift.
  struct FastAc {
    uint8_t len;    // code + value bits consumed
    uint8_t run;    // zero run before it (EOB: a run past the block)
    int16_t value;  // decoded coefficient; 0 marks EOB and ZRL
  };

  const HuffmanTable* dc_;
  const HuffmanTable* ac_;
  FastAc fast_ac_[1u << kHuffmanLutBits];
};

/// Entropy-decodes one block, reading from the reader's position and leaving
/// it after the block. Each coefficient is written at its natural index.
/// Corruption on a consumed bit past the end of the stream, an invalid
/// prefix, DC size > 15, an AC size-0 symbol other than EOB and ZRL, or AC
/// index >= 64 (a ZRL past the last coefficient ends the block); the reader
/// position is then unspecified. The same decoder as DecodeBlocks with
/// count 1.
Status DecodeBlock(BitReader* reader, const BlockDecodeTables& tables,
                   int* dc_pred, DecodedBlock* block);

/// Entropy-decodes \p count consecutive blocks into out[0, count) through
/// one 64-bit bit window, then leaves the reader after the last block (an
/// SJPG MCU row is one call). Block k uses *tables[k % period] and the DC
/// predictor dc_pred[components[k % period]]. Every block decodes as
/// DecodeBlock would. Most symbols take one fast-table probe; while a
/// block's worth of bytes remains in the stream the window refills once per
/// four of them and checks for the end of the stream once per block, and
/// nearer the end it checks every symbol. *decoded is the number of blocks
/// decoded before the first failing one (count on OK); on failure the
/// reader position is unspecified.
Status DecodeBlocks(BitReader* reader, const BlockDecodeTables* const* tables,
                    const int* components, int period, int count,
                    int* dc_pred, DecodedBlock* out, int* decoded);

}  // namespace smol

#endif  // SMOL_CODEC_BLOCK_CODEC_H_
