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

// The block decoder's tables for one decode: the fast-AC tables are built
// once from the stream's Huffman tables (gray streams carry no chroma ones).
struct EntropyTables {
  explicit EntropyTables(const ParsedStream& ps)
      : luma(ps.dc_luma, ps.ac_luma) {
    if (ps.header.channels == 3) chroma.emplace(ps.dc_chroma, ps.ac_chroma);
  }
  const BlockDecodeTables& For(int component) const {
    return component == 0 ? luma : *chroma;
  }

  BlockDecodeTables luma;
  std::optional<BlockDecodeTables> chroma;
};

}  // namespace

Result<SjpgHeader> SjpgPeekHeader(const std::vector<uint8_t>& bytes) {
  SMOL_ASSIGN_OR_RETURN(ParsedStream ps, ParseStream(bytes));
  return ps.header;
}

namespace {

// Multi-resolution decode path: full entropy decode, scaled inverse
// transforms (n = 8 / scale_denom per block side), output at 1/denom size.
// Emits into *out, reusing its storage.
Status DecodeScaled(const ParsedStream& ps, const std::vector<uint8_t>& bytes,
                    int denom, Image* out, SjpgDecodeStats* stats) {
  const SjpgHeader& hdr = ps.header;
  const bool color = hdr.channels == 3;
  const int n = 8 / denom;  // scaled block side
  const int out_w = (hdr.width + denom - 1) / denom;
  const int out_h = (hdr.height + denom - 1) / denom;

  PlaneSet planes;
  planes.w = ps.header.mcu_cols * (color ? 2 * n : n);
  planes.h = ps.header.mcu_rows * (color ? 2 * n : n);
  planes.y.assign(static_cast<size_t>(planes.w) * planes.h, 0);
  if (color) {
    planes.cw = planes.w / 2;
    planes.ch = planes.h / 2;
    planes.cb.assign(static_cast<size_t>(planes.cw) * planes.ch, 128);
    planes.cr.assign(static_cast<size_t>(planes.cw) * planes.ch, 128);
  }
  const BlockRef* blocks = color ? kColorBlocks : kGrayBlocks;
  const int blocks_per_mcu = color ? 6 : 1;

  const EntropyTables tables(ps);
  BitReader reader(bytes.data(), bytes.size());
  int16_t scaled[64];
  for (int mr = 0; mr < hdr.mcu_rows; ++mr) {
    SMOL_RETURN_IF_ERROR(
        reader.SeekToByte(ps.entropy_base + ps.row_offsets[mr]));
    int dc_pred[3] = {0, 0, 0};
    for (int mc = 0; mc < hdr.mcu_cols; ++mc) {
      for (int b = 0; b < blocks_per_mcu; ++b) {
        const BlockRef& ref = blocks[b];
        DecodedBlock cb;
        SMOL_RETURN_IF_ERROR(DecodeBlock(&reader, tables.For(ref.component),
                                         &dc_pred[ref.component], &cb));
        if (stats != nullptr) {
          stats->entropy_blocks++;
          stats->idct_blocks++;  // counted, but each costs ~n^2/64 of full
        }
        if (ref.component == 0) {
          ReconstructBlockScaled(cb, ps.luma_qt, n, scaled);
          StoreBlock(scaled, n, planes.y, planes.w, planes.h,
                     mc * (color ? 2 * n : n) + ref.dx / denom,
                     mr * (color ? 2 * n : n) + ref.dy / denom);
        } else {
          ReconstructBlockScaled(cb, ps.chroma_qt, n, scaled);
          auto& plane = ref.component == 1 ? planes.cb : planes.cr;
          StoreBlock(scaled, n, plane, planes.cw, planes.ch, mc * n, mr * n);
        }
      }
    }
    if (stats != nullptr) stats->mcu_rows_decoded++;
  }

  // When the MCU grid already matches the output size, emit straight into
  // *out — no full-grid intermediate, no crop copy.
  const bool exact = planes.w == out_w && planes.h == out_h;
  if (color) {
    Ycbcr420 ycc;
    ycc.width = planes.w;
    ycc.height = planes.h;
    ycc.y = std::move(planes.y);
    ycc.cb = std::move(planes.cb);
    ycc.cr = std::move(planes.cr);
    if (exact) {
      Ycbcr420ToRgbInto(ycc, out);
      return Status::OK();
    }
    Image full_grid;
    Ycbcr420ToRgbInto(ycc, &full_grid);
    return CropImageInto(full_grid, Roi{0, 0, out_w, out_h}, out);
  }
  if (exact) {
    out->Reshape(planes.w, planes.h, 1);
    std::memcpy(out->data(), planes.y.data(), planes.y.size());
    return Status::OK();
  }
  Image full_grid(planes.w, planes.h, 1);
  std::memcpy(full_grid.data(), planes.y.data(), planes.y.size());
  return CropImageInto(full_grid, Roi{0, 0, out_w, out_h}, out);
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
  const bool color = hdr.channels == 3;
  const int mcu = hdr.mcu_size;

  if (options.scale_denom != 1) {
    if (options.scale_denom != 2 && options.scale_denom != 4 &&
        options.scale_denom != 8) {
      return Status::InvalidArgument("scale_denom must be 1, 2, 4 or 8");
    }
    if (!options.roi.empty() || options.max_rows > 0) {
      return Status::InvalidArgument(
          "scaled decoding cannot be combined with ROI/early stop");
    }
    return DecodeScaled(ps, bytes, options.scale_denom, out, stats);
  }

  // Determine the band of MCU rows/cols to decode.
  Roi roi = options.roi;
  if (!roi.empty()) {
    // The ROI comes from the request: compare without forming roi.x +
    // roi.width, which can overflow int.
    if (roi.x < 0 || roi.y < 0 || roi.width > hdr.width - roi.x ||
        roi.height > hdr.height - roi.y) {
      return Status::OutOfRange("ROI exceeds image bounds");
    }
  } else if (options.max_rows > 0) {
    roi = Roi{0, 0, hdr.width, std::min(options.max_rows, hdr.height)};
  } else {
    roi = Roi{0, 0, hdr.width, hdr.height};
  }
  const int mr0 = roi.y / mcu;
  const int mr1 = (roi.y + roi.height + mcu - 1) / mcu;
  const int mc0 = roi.x / mcu;
  const int mc1 = (roi.x + roi.width + mcu - 1) / mcu;

  // Decode into a band-sized plane set (full MCU coverage of the ROI).
  const int band_w = (mc1 - mc0) * mcu;
  const int band_h = (mr1 - mr0) * mcu;
  PlaneSet planes;
  planes.w = band_w;
  planes.h = band_h;
  planes.y.assign(static_cast<size_t>(band_w) * band_h, 0);
  if (color) {
    planes.cw = band_w / 2;
    planes.ch = band_h / 2;
    planes.cb.assign(static_cast<size_t>(planes.cw) * planes.ch, 128);
    planes.cr.assign(static_cast<size_t>(planes.cw) * planes.ch, 128);
  }

  const BlockRef* blocks = color ? kColorBlocks : kGrayBlocks;
  const int blocks_per_mcu = color ? 6 : 1;

  const EntropyTables tables(ps);
  BitReader reader(bytes.data(), bytes.size());
  for (int mr = mr0; mr < mr1; ++mr) {
    // Seek via the row index: rows outside the band cost nothing.
    SMOL_RETURN_IF_ERROR(
        reader.SeekToByte(ps.entropy_base + ps.row_offsets[mr]));
    int dc_pred[3] = {0, 0, 0};
    for (int mc = 0; mc < hdr.mcu_cols; ++mc) {
      if (mc >= mc1) break;  // raster early stop within the row
      const bool in_roi = mc >= mc0;
      for (int b = 0; b < blocks_per_mcu; ++b) {
        const BlockRef& ref = blocks[b];
        DecodedBlock cb;
        SMOL_RETURN_IF_ERROR(DecodeBlock(&reader, tables.For(ref.component),
                                         &dc_pred[ref.component], &cb));
        if (stats != nullptr) stats->entropy_blocks++;
        if (!in_roi) continue;  // skip the inverse transform outside the ROI
        if (stats != nullptr) stats->idct_blocks++;
        int16_t samples[64];
        if (ref.component == 0) {
          ReconstructBlock(cb, ps.luma_qt, samples);
          StoreBlock(samples, 8, planes.y, planes.w, planes.h,
                     (mc - mc0) * mcu + ref.dx, (mr - mr0) * mcu + ref.dy);
        } else {
          ReconstructBlock(cb, ps.chroma_qt, samples);
          auto& plane = ref.component == 1 ? planes.cb : planes.cr;
          StoreBlock(samples, 8, plane, planes.cw, planes.ch, (mc - mc0) * 8,
                     (mr - mr0) * 8);
        }
      }
    }
    if (stats != nullptr) stats->mcu_rows_decoded++;
  }

  // Colorspace conversion for the decoded band, then exact crop to the ROI.
  // When the ROI's MCU coverage is exact (aligned ROI or dimensions that are
  // a multiple of the MCU size), the band IS the output: convert straight
  // into *out instead of materializing the band and copying it (the seed's
  // CropImage here was a full-image copy for every aligned decode).
  const Roi band_roi{roi.x - mc0 * mcu, roi.y - mr0 * mcu, roi.width,
                     roi.height};
  const bool exact = band_roi.x == 0 && band_roi.y == 0 &&
                     band_roi.width == band_w && band_roi.height == band_h;
  if (color) {
    Ycbcr420 ycc;
    ycc.width = band_w;
    ycc.height = band_h;
    ycc.y = std::move(planes.y);
    ycc.cb = std::move(planes.cb);
    ycc.cr = std::move(planes.cr);
    if (exact) {
      Ycbcr420ToRgbInto(ycc, out);
      return Status::OK();
    }
    Image band;
    Ycbcr420ToRgbInto(ycc, &band);
    return CropImageInto(band, band_roi, out);
  }
  if (exact) {
    out->Reshape(band_w, band_h, 1);
    std::memcpy(out->data(), planes.y.data(), planes.y.size());
    return Status::OK();
  }
  Image band(band_w, band_h, 1);
  std::memcpy(band.data(), planes.y.data(), planes.y.size());
  return CropImageInto(band, band_roi, out);
}

}  // namespace smol
