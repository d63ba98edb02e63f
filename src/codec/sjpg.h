// SJPG: a from-scratch JPEG-like lossy image codec.
//
// Structure mirrors baseline JPEG: RGB -> YCbCr 4:2:0, 8x8 block DCT,
// quality-scaled quantization (libjpeg rule), zig-zag, DC differential +
// AC run-length coding, canonical Huffman entropy coding. Two deliberate
// departures support the paper's §6.4 optimizations natively:
//
//  * A per-MCU-row byte-offset index (the moral equivalent of JPEG restart
//    markers at every MCU row) makes any band of rows independently
//    decodable, enabling ROI decoding (Algorithm 1 in the paper).
//  * Decode stats expose how many blocks were entropy-decoded vs. inverse-
//    transformed, so tests/benches can verify partial decoding saves work.
//
// ROI decoding follows the paper exactly: rows outside the ROI band are
// skipped via the index; within a row, entropy decoding proceeds left-to-
// right and stops after the last ROI column (raster early stop); the inverse
// DCT runs only for macroblocks intersecting the ROI. Full, ROI and
// reduced-resolution decodes are one loop over such a band of MCUs.
#ifndef SMOL_CODEC_SJPG_H_
#define SMOL_CODEC_SJPG_H_

#include <cstdint>
#include <vector>

#include "src/codec/image.h"
#include "src/util/result.h"

namespace smol {

/// Encoder configuration.
struct SjpgEncodeOptions {
  /// JPEG-style quality in [1, 100]; the paper evaluates q=75 and q=95.
  int quality = 75;
};

/// Parsed stream metadata (available without decoding pixel data).
struct SjpgHeader {
  int width = 0;
  int height = 0;
  int channels = 0;
  int quality = 0;
  int mcu_size = 0;   ///< 16 for color (4:2:0), 8 for grayscale.
  int mcu_rows = 0;
  int mcu_cols = 0;
};

/// Decoder configuration: which region to decode, and at what scale. Both
/// run the same band loop; an ROI at a scale_denom above 1 is rejected
/// (InvalidArgument).
struct SjpgDecodeOptions {
  /// Decode only this region (paper's ROI decoding). Empty => full image.
  /// The returned image has exactly the ROI's dimensions. Early stopping is
  /// the ROI of the first rows: Roi{0, 0, width, rows}.
  Roi roi;
  /// Multi-resolution (scaled) decoding: decode at 1/scale_denom resolution
  /// using only the top-left coefficients of each block (libjpeg's
  /// scale_num/scale_denom trick; §6.4's multi-resolution decoding).
  /// Allowed values: 1 (full), 2, 4, 8 (DC-only); the output is
  /// ceil(width / scale_denom) x ceil(height / scale_denom). Requires an
  /// empty ROI.
  int scale_denom = 1;
};

/// Work counters for verifying partial-decode savings.
struct SjpgDecodeStats {
  int64_t entropy_blocks = 0;  ///< 8x8 blocks entropy-decoded.
  int64_t idct_blocks = 0;     ///< 8x8 blocks inverse-transformed.
  int64_t mcu_rows_decoded = 0;
};

/// Encodes \p image (1 or 3 channels) into an SJPG byte stream.
Result<std::vector<uint8_t>> SjpgEncode(const Image& image,
                                        const SjpgEncodeOptions& options = {});

/// Parses only the header of an SJPG stream.
Result<SjpgHeader> SjpgPeekHeader(const std::vector<uint8_t>& bytes);

/// Decodes an SJPG stream (optionally a partial region; see options).
Result<Image> SjpgDecode(const std::vector<uint8_t>& bytes,
                         const SjpgDecodeOptions& options = {},
                         SjpgDecodeStats* stats = nullptr);

/// Same decode emitting into \p out, whose storage is reused across calls
/// (the serving path decodes every frame into one per-thread scratch image).
/// Aligned full-band decodes convert colorspace straight into \p out with no
/// band intermediate or crop copy.
Status SjpgDecodeInto(const std::vector<uint8_t>& bytes,
                      const SjpgDecodeOptions& options, Image* out,
                      SjpgDecodeStats* stats = nullptr);

}  // namespace smol

#endif  // SMOL_CODEC_SJPG_H_
