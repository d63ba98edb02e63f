#include "src/codec/sjpg.h"

#include <algorithm>
#include <array>
#include <cstring>
#include <optional>

#include "src/codec/bitstream.h"
#include "src/codec/block_codec.h"
#include "src/codec/color.h"
#include "src/codec/dct.h"
#include "src/codec/huffman.h"
#include "src/util/macros.h"

namespace smol {

namespace {

constexpr uint32_t kMagic = 0x3150'4A53;  // "SJP1" little-endian.

struct PlaneSet {
  std::vector<uint8_t> y, cb, cr;
  int w = 0, h = 0, cw = 0, ch = 0;
};

// Per-MCU block layout: color = 4 luma (2x2) + Cb + Cr; gray = 1 luma.
struct BlockRef {
  int component;  // 0 = Y, 1 = Cb, 2 = Cr
  int dx, dy;     // block offset within the MCU's luma grid (pixels)
};

const BlockRef kColorBlocks[6] = {{0, 0, 0}, {0, 8, 0}, {0, 0, 8},
                                  {0, 8, 8}, {1, 0, 0}, {2, 0, 0}};
const BlockRef kGrayBlocks[1] = {{0, 0, 0}};

}  // namespace

Result<std::vector<uint8_t>> SjpgEncode(const Image& image,
                                        const SjpgEncodeOptions& options) {
  if (image.empty()) return Status::InvalidArgument("empty image");
  if (image.channels() != 1 && image.channels() != 3) {
    return Status::InvalidArgument("SJPG supports 1 or 3 channels");
  }
  const bool color = image.channels() == 3;
  const int w = image.width();
  const int h = image.height();
  const int mcu = color ? 16 : 8;
  const int mcu_cols = (w + mcu - 1) / mcu;
  const int mcu_rows = (h + mcu - 1) / mcu;

  const QuantTable luma_qt = QuantTable::Luma(options.quality);
  const QuantTable chroma_qt = QuantTable::Chroma(options.quality);

  PlaneSet planes;
  planes.w = w;
  planes.h = h;
  if (color) {
    Ycbcr420 ycc = RgbToYcbcr420(image);
    planes.y = std::move(ycc.y);
    planes.cb = std::move(ycc.cb);
    planes.cr = std::move(ycc.cr);
    planes.cw = (w + 1) / 2;
    planes.ch = (h + 1) / 2;
  } else {
    planes.y.assign(image.data(), image.data() + image.size_bytes());
  }

  const BlockRef* blocks = color ? kColorBlocks : kGrayBlocks;
  const int blocks_per_mcu = color ? 6 : 1;

  // Pass 1: transform all blocks and gather Huffman statistics.
  std::vector<CoeffBlock> coeffs;
  coeffs.reserve(static_cast<size_t>(mcu_rows) * mcu_cols * blocks_per_mcu);
  std::vector<uint64_t> dc_luma_freq(17, 0), ac_luma_freq(256, 0);
  std::vector<uint64_t> dc_chroma_freq(17, 0), ac_chroma_freq(256, 0);
  for (int mr = 0; mr < mcu_rows; ++mr) {
    int dc_pred[3] = {0, 0, 0};  // reset per MCU row (restart semantics)
    for (int mc = 0; mc < mcu_cols; ++mc) {
      for (int b = 0; b < blocks_per_mcu; ++b) {
        const BlockRef& ref = blocks[b];
        int16_t samples[64];
        CoeffBlock cb;
        if (ref.component == 0) {
          ExtractBlock(planes.y, planes.w, planes.h, mc * mcu + ref.dx,
                       mr * mcu + ref.dy, /*bias=*/128, samples);
          cb = TransformBlock(samples, luma_qt);
          AccumulateBlockStats(cb, &dc_pred[0], dc_luma_freq, ac_luma_freq);
        } else {
          auto& plane = ref.component == 1 ? planes.cb : planes.cr;
          ExtractBlock(plane, planes.cw, planes.ch, mc * 8, mr * 8,
                       /*bias=*/128, samples);
          cb = TransformBlock(samples, chroma_qt);
          AccumulateBlockStats(cb, &dc_pred[ref.component], dc_chroma_freq,
                               ac_chroma_freq);
        }
        coeffs.push_back(cb);
      }
    }
  }
  // Guarantee the structural symbols exist so the tables are well-formed.
  dc_luma_freq[0] += 1;
  ac_luma_freq[0x00] += 1;
  dc_chroma_freq[0] += 1;
  ac_chroma_freq[0x00] += 1;

  SMOL_ASSIGN_OR_RETURN(HuffmanTable dc_luma,
                        HuffmanTable::FromFrequencies(dc_luma_freq));
  SMOL_ASSIGN_OR_RETURN(HuffmanTable ac_luma,
                        HuffmanTable::FromFrequencies(ac_luma_freq));
  SMOL_ASSIGN_OR_RETURN(HuffmanTable dc_chroma,
                        HuffmanTable::FromFrequencies(dc_chroma_freq));
  SMOL_ASSIGN_OR_RETURN(HuffmanTable ac_chroma,
                        HuffmanTable::FromFrequencies(ac_chroma_freq));

  // Pass 2: entropy-encode each MCU row byte-aligned, recording offsets.
  std::vector<std::vector<uint8_t>> row_streams(mcu_rows);
  {
    size_t idx = 0;
    for (int mr = 0; mr < mcu_rows; ++mr) {
      BitWriter row_writer;
      int dc_pred[3] = {0, 0, 0};
      for (int mc = 0; mc < mcu_cols; ++mc) {
        for (int b = 0; b < blocks_per_mcu; ++b) {
          const BlockRef& ref = blocks[b];
          if (ref.component == 0) {
            EncodeBlock(coeffs[idx], &dc_pred[0], dc_luma, ac_luma,
                        &row_writer);
          } else {
            EncodeBlock(coeffs[idx], &dc_pred[ref.component], dc_chroma,
                        ac_chroma, &row_writer);
          }
          ++idx;
        }
      }
      row_streams[mr] = row_writer.Finish();
    }
  }

  // Assemble: header, tables, row index, entropy data.
  BitWriter out;
  out.WriteU32(kMagic);
  out.WriteU16(static_cast<uint16_t>(w));
  out.WriteU16(static_cast<uint16_t>(h));
  out.WriteByte(static_cast<uint8_t>(image.channels()));
  out.WriteByte(static_cast<uint8_t>(options.quality));
  for (int i = 0; i < 64; ++i) out.WriteU16(luma_qt.q[i]);
  if (color) {
    for (int i = 0; i < 64; ++i) out.WriteU16(chroma_qt.q[i]);
  }
  dc_luma.Serialize(&out);
  ac_luma.Serialize(&out);
  if (color) {
    dc_chroma.Serialize(&out);
    ac_chroma.Serialize(&out);
  }
  out.WriteU16(static_cast<uint16_t>(mcu_rows));
  uint32_t offset = 0;
  for (int mr = 0; mr < mcu_rows; ++mr) {
    out.WriteU32(offset);
    offset += static_cast<uint32_t>(row_streams[mr].size());
  }
  out.WriteU32(offset);  // total entropy size (sentinel)
  for (auto& rs : row_streams) {
    for (uint8_t byte : rs) out.WriteByte(byte);
  }
  return out.Finish();
}

namespace {

struct ParsedStream {
  SjpgHeader header;
  QuantTable luma_qt;
  QuantTable chroma_qt;
  HuffmanTable dc_luma, ac_luma, dc_chroma, ac_chroma;
  std::vector<uint32_t> row_offsets;  // mcu_rows + 1 entries
  size_t entropy_base = 0;            // byte offset of entropy data
};

Result<ParsedStream> ParseStream(const std::vector<uint8_t>& bytes) {
  BitReader reader(bytes.data(), bytes.size());
  SMOL_ASSIGN_OR_RETURN(uint32_t magic, reader.ReadU32());
  if (magic != kMagic) return Status::Corruption("not an SJPG stream");
  ParsedStream ps;
  SMOL_ASSIGN_OR_RETURN(uint16_t w, reader.ReadU16());
  SMOL_ASSIGN_OR_RETURN(uint16_t h, reader.ReadU16());
  SMOL_ASSIGN_OR_RETURN(uint8_t channels, reader.ReadByte());
  SMOL_ASSIGN_OR_RETURN(uint8_t quality, reader.ReadByte());
  if (w == 0 || h == 0) return Status::Corruption("zero dimensions");
  if (channels != 1 && channels != 3) {
    return Status::Corruption("bad channel count");
  }
  ps.header.width = w;
  ps.header.height = h;
  ps.header.channels = channels;
  ps.header.quality = quality;
  const bool color = channels == 3;
  ps.header.mcu_size = color ? 16 : 8;
  ps.header.mcu_cols = (w + ps.header.mcu_size - 1) / ps.header.mcu_size;
  ps.header.mcu_rows = (h + ps.header.mcu_size - 1) / ps.header.mcu_size;
  // Each quant table and the row index below take one bounds check.
  auto read_quant = [&reader](QuantTable* qt) -> Status {
    SMOL_ASSIGN_OR_RETURN(const uint8_t* q, reader.ReadBytes(2 * 64));
    for (int i = 0; i < 64; ++i) {
      qt->q[i] = LoadU16Le(q + 2 * i);
      if (qt->q[i] == 0) return Status::Corruption("zero quant value");
    }
    return Status::OK();
  };
  SMOL_RETURN_IF_ERROR(read_quant(&ps.luma_qt));
  if (color) SMOL_RETURN_IF_ERROR(read_quant(&ps.chroma_qt));
  SMOL_ASSIGN_OR_RETURN(ps.dc_luma, HuffmanTable::Deserialize(&reader));
  SMOL_ASSIGN_OR_RETURN(ps.ac_luma, HuffmanTable::Deserialize(&reader));
  if (color) {
    SMOL_ASSIGN_OR_RETURN(ps.dc_chroma, HuffmanTable::Deserialize(&reader));
    SMOL_ASSIGN_OR_RETURN(ps.ac_chroma, HuffmanTable::Deserialize(&reader));
  }
  SMOL_ASSIGN_OR_RETURN(uint16_t mcu_rows, reader.ReadU16());
  if (mcu_rows != ps.header.mcu_rows) {
    return Status::Corruption("MCU row count mismatch");
  }
  ps.row_offsets.resize(mcu_rows + 1);
  SMOL_ASSIGN_OR_RETURN(const uint8_t* index,
                        reader.ReadBytes(4 * ps.row_offsets.size()));
  for (size_t i = 0; i < ps.row_offsets.size(); ++i) {
    ps.row_offsets[i] = LoadU32Le(index + 4 * i);
  }
  ps.entropy_base = reader.byte_position();
  if (ps.entropy_base + ps.row_offsets[mcu_rows] > bytes.size()) {
    return Status::Corruption("entropy data truncated");
  }
  // Every block costs at least 2 bits (a DC code, then an EOB or AC code),
  // so a header claiming more blocks than the entropy data can hold is
  // rejected here, before a decoder allocates planes for it.
  const uint64_t blocks = static_cast<uint64_t>(mcu_rows) *
                          ps.header.mcu_cols * (color ? 6 : 1);
  if (blocks * 2 > static_cast<uint64_t>(ps.row_offsets[mcu_rows]) * 8) {
    return Status::Corruption("entropy data too short for the image size");
  }
  return ps;
}

// The block decoder's tables for one decode, built once from the stream's
// Huffman tables (gray streams carry no chroma ones), and the per-slot
// view DecodeBlocks reads: an MCU's blocks in stream order, each with its
// tables and its DC predictor.
struct EntropyTables {
  explicit EntropyTables(const ParsedStream& ps)
      : luma(ps.dc_luma, ps.ac_luma) {
    if (ps.header.channels == 3) chroma.emplace(ps.dc_chroma, ps.ac_chroma);
    for (int b = 0; b < 6; ++b) {
      component[b] = kColorBlocks[b].component;
      slot[b] = component[b] != 0 && chroma ? &*chroma : &luma;
    }
  }

  BlockDecodeTables luma;
  std::optional<BlockDecodeTables> chroma;
  const BlockDecodeTables* slot[6];
  int component[6];
};

}  // namespace

Result<SjpgHeader> SjpgPeekHeader(const std::vector<uint8_t>& bytes) {
  SMOL_ASSIGN_OR_RETURN(ParsedStream ps, ParseStream(bytes));
  return ps.header;
}

namespace {

// The MCU band one decode covers and the part of it the output keeps: MCU
// rows [mr0, mr1) and columns [mc0, mc1), and `crop` in the band's output
// pixels (origin at MCU (mr0, mc0)).
struct Band {
  int mr0, mr1, mc0, mc1;
  Roi crop;
};

// The one SJPG decode loop, shared by full, ROI and reduced-resolution
// decodes (§6.4: decode only the rows, columns and coefficients the output
// needs). Seeks each MCU row of the band through the row index and
// entropy-decodes it up to column mc1 (raster early stop) into a row buffer
// with one DecodeBlocks call, then inverse-transforms and stores only the
// MCUs in [mc0, mc1), at N x N samples per block (N = 8 / scale_denom).
// Last, it converts the band to RGB and emits its crop.
// N is a compile-time constant so every instance keeps constant block
// sizes: N = 8 is the full-size loop, with no scaled arithmetic in it.
template <int N>
Status DecodeBand(const ParsedStream& ps, const std::vector<uint8_t>& bytes,
                  const Band& band, Image* out, SjpgDecodeStats* stats) {
  const bool color = ps.header.channels == 3;
  const int mcu = color ? 2 * N : N;  // MCU side in output pixels
  Ycbcr420 planes;
  planes.width = (band.mc1 - band.mc0) * mcu;
  planes.height = (band.mr1 - band.mr0) * mcu;
  const int cw = planes.width / 2;
  const int ch = planes.height / 2;
  planes.y.assign(static_cast<size_t>(planes.width) * planes.height, 0);
  if (color) {
    planes.cb.assign(static_cast<size_t>(cw) * ch, 128);
    planes.cr.assign(static_cast<size_t>(cw) * ch, 128);
  }
  const BlockRef* blocks = color ? kColorBlocks : kGrayBlocks;
  const int blocks_per_mcu = color ? 6 : 1;

  const EntropyTables tables(ps);
  // One MCU row's blocks, entropy-decoded up to column mc1 in one call.
  const int row_blocks = band.mc1 * blocks_per_mcu;
  const int skipped = band.mc0 * blocks_per_mcu;  // left of the band
  std::vector<DecodedBlock> row_coefs(static_cast<size_t>(row_blocks));
  BitReader reader(bytes.data(), bytes.size());
  for (int mr = band.mr0; mr < band.mr1; ++mr) {
    // Seek via the row index: rows outside the band cost nothing.
    SMOL_RETURN_IF_ERROR(
        reader.SeekToByte(ps.entropy_base + ps.row_offsets[mr]));
    int dc_pred[3] = {0, 0, 0};
    int decoded = 0;
    const Status status =
        DecodeBlocks(&reader, tables.slot, tables.component, blocks_per_mcu,
                     row_blocks, dc_pred, row_coefs.data(), &decoded);
    if (stats != nullptr) {
      // Counted as if each block were transformed as soon as it decoded.
      stats->entropy_blocks += decoded;
      stats->idct_blocks += std::max(0, decoded - skipped);
    }
    SMOL_RETURN_IF_ERROR(status);
    const int row = mr - band.mr0;
    for (int mc = band.mc0; mc < band.mc1; ++mc) {
      const int col = mc - band.mc0;
      const DecodedBlock* mcu_coefs = &row_coefs[mc * blocks_per_mcu];
      for (int b = 0; b < blocks_per_mcu; ++b) {
        const BlockRef& ref = blocks[b];
        const QuantTable& qt = ref.component == 0 ? ps.luma_qt : ps.chroma_qt;
        int16_t samples[N * N];
        if constexpr (N == 8) {
          ReconstructBlock(mcu_coefs[b], qt, samples);
        } else {
          ReconstructBlockScaled(mcu_coefs[b], qt, N, samples);
        }
        if (ref.component == 0) {
          StoreBlock(samples, N, planes.y, planes.width, planes.height,
                     col * mcu + ref.dx * N / 8, row * mcu + ref.dy * N / 8);
        } else {
          StoreBlock(samples, N, ref.component == 1 ? planes.cb : planes.cr,
                     cw, ch, col * N, row * N);
        }
      }
    }
    if (stats != nullptr) stats->mcu_rows_decoded++;
  }

  // Colour conversion of the band, then the crop. When the crop is the
  // whole band (a full decode whose size is a multiple of the MCU, or an
  // MCU-aligned ROI), convert straight into *out: no band image, no copy.
  const bool exact = band.crop == Roi{0, 0, planes.width, planes.height};
  Image band_image;
  Image* dst = exact ? out : &band_image;
  if (color) {
    Ycbcr420ToRgbInto(planes, dst);
  } else {
    dst->Reshape(planes.width, planes.height, 1);
    std::memcpy(dst->data(), planes.y.data(), planes.y.size());
  }
  if (exact) return Status::OK();
  return CropImageInto(band_image, band.crop, out);
}

}  // namespace

Result<Image> SjpgDecode(const std::vector<uint8_t>& bytes,
                         const SjpgDecodeOptions& options,
                         SjpgDecodeStats* stats) {
  Image out;
  SMOL_RETURN_IF_ERROR(SjpgDecodeInto(bytes, options, &out, stats));
  return out;
}

Status SjpgDecodeInto(const std::vector<uint8_t>& bytes,
                      const SjpgDecodeOptions& options, Image* out,
                      SjpgDecodeStats* stats) {
  if (out == nullptr) return Status::InvalidArgument("null output");
  SMOL_ASSIGN_OR_RETURN(ParsedStream ps, ParseStream(bytes));
  const SjpgHeader& hdr = ps.header;
  const int denom = options.scale_denom;
  if (denom != 1 && denom != 2 && denom != 4 && denom != 8) {
    return Status::InvalidArgument("scale_denom must be 1, 2, 4 or 8");
  }

  // The output rectangle, in output pixels: the ROI, or the whole image at
  // 1/denom size (rounded up).
  Roi rect = options.roi;
  if (!rect.empty()) {
    if (denom != 1) {
      return Status::InvalidArgument(
          "scaled decoding cannot be combined with an ROI");
    }
    // The ROI comes from the request: compare without forming rect.x +
    // rect.width, which can overflow int.
    if (rect.x < 0 || rect.y < 0 || rect.width > hdr.width - rect.x ||
        rect.height > hdr.height - rect.y) {
      return Status::OutOfRange("ROI exceeds image bounds");
    }
  } else {
    rect = Roi{0, 0, (hdr.width + denom - 1) / denom,
               (hdr.height + denom - 1) / denom};
  }
  // Its MCU coverage, and the crop of that band the output keeps.
  const int mcu = hdr.mcu_size / denom;  // MCU side in output pixels
  Band band;
  band.mr0 = rect.y / mcu;
  band.mr1 = (rect.y + rect.height + mcu - 1) / mcu;
  band.mc0 = rect.x / mcu;
  band.mc1 = (rect.x + rect.width + mcu - 1) / mcu;
  band.crop = Roi{rect.x - band.mc0 * mcu, rect.y - band.mr0 * mcu,
                  rect.width, rect.height};
  switch (denom) {
    case 1:
      return DecodeBand<8>(ps, bytes, band, out, stats);
    case 2:
      return DecodeBand<4>(ps, bytes, band, out, stats);
    case 4:
      return DecodeBand<2>(ps, bytes, band, out, stats);
    default:  // 8: DC only
      return DecodeBand<1>(ps, bytes, band, out, stats);
  }
}

}  // namespace smol
