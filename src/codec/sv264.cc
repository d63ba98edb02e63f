#include "src/codec/sv264.h"

#include <algorithm>
#include <cstring>

#include "src/codec/bitstream.h"
#include "src/codec/block_codec.h"
#include "src/codec/dct.h"
#include "src/codec/huffman.h"
#include "src/util/macros.h"

namespace smol {

namespace {

constexpr uint32_t kMagic = 0x3130'5653;  // "SV01" little-endian.

enum MbMode : uint8_t {
  kModeSkip = 0,   // MV (0,0), no residual
  kModeInter = 1,  // MV + residual
  kModeIntra = 2,  // intra-coded (always used in I-frames)
};

struct MotionVector {
  int dx = 0;
  int dy = 0;
};

int Clamp(int v, int lo, int hi) { return v < lo ? lo : (v > hi ? hi : v); }

// --- Plane helpers ----------------------------------------------------------

// Motion-compensated 16x16 luma / 8x8 chroma prediction with edge clamping.
void PredictBlock(const std::vector<uint8_t>& ref, int ref_w, int ref_h,
                  int bx, int by, int mvx, int mvy, int size,
                  uint8_t* out /* size*size */) {
  for (int y = 0; y < size; ++y) {
    const int sy = Clamp(by + y + mvy, 0, ref_h - 1);
    for (int x = 0; x < size; ++x) {
      const int sx = Clamp(bx + x + mvx, 0, ref_w - 1);
      out[y * size + x] = ref[static_cast<size_t>(sy) * ref_w + sx];
    }
  }
}

// Sum of absolute differences between a 16x16 region and a prediction.
int64_t Sad16(const std::vector<uint8_t>& cur, int w, int h, int bx, int by,
              const uint8_t pred[256]) {
  int64_t sad = 0;
  for (int y = 0; y < 16; ++y) {
    const int sy = Clamp(by + y, 0, h - 1);
    for (int x = 0; x < 16; ++x) {
      const int sx = Clamp(bx + x, 0, w - 1);
      sad += std::abs(static_cast<int>(cur[static_cast<size_t>(sy) * w + sx]) -
                      static_cast<int>(pred[y * 16 + x]));
    }
  }
  return sad;
}

// Diamond motion search around (0,0) and the previous MV, on luma.
MotionVector MotionSearch(const std::vector<uint8_t>& cur,
                          const std::vector<uint8_t>& ref, int w, int h,
                          int bx, int by, int range, MotionVector hint,
                          int64_t* best_sad_out) {
  uint8_t pred[256];
  auto eval = [&](int dx, int dy) {
    PredictBlock(ref, w, h, bx, by, dx, dy, 16, pred);
    return Sad16(cur, w, h, bx, by, pred);
  };
  MotionVector best{0, 0};
  int64_t best_sad = eval(0, 0);
  // Try the neighbour hint as a second seed.
  if (hint.dx != 0 || hint.dy != 0) {
    const int hx = Clamp(hint.dx, -range, range);
    const int hy = Clamp(hint.dy, -range, range);
    const int64_t sad = eval(hx, hy);
    if (sad < best_sad) {
      best_sad = sad;
      best = {hx, hy};
    }
  }
  // Large diamond until no improvement, then small diamond.
  const int ldp[4][2] = {{2, 0}, {-2, 0}, {0, 2}, {0, -2}};
  const int sdp[4][2] = {{1, 0}, {-1, 0}, {0, 1}, {0, -1}};
  bool improved = true;
  while (improved) {
    improved = false;
    for (auto& d : ldp) {
      const int nx = Clamp(best.dx + d[0], -range, range);
      const int ny = Clamp(best.dy + d[1], -range, range);
      if (nx == best.dx && ny == best.dy) continue;
      const int64_t sad = eval(nx, ny);
      if (sad < best_sad) {
        best_sad = sad;
        best = {nx, ny};
        improved = true;
      }
    }
  }
  for (auto& d : sdp) {
    const int nx = Clamp(best.dx + d[0], -range, range);
    const int ny = Clamp(best.dy + d[1], -range, range);
    const int64_t sad = eval(nx, ny);
    if (sad < best_sad) {
      best_sad = sad;
      best = {nx, ny};
    }
  }
  *best_sad_out = best_sad;
  return best;
}

// --- Deblocking -------------------------------------------------------------

// Simplified H.264-style edge filter: for each pair of pixels straddling a
// block edge, apply a clipped delta when the step is small (a real edge is
// left alone, a quantization seam is smoothed).
void DeblockPlane(std::vector<uint8_t>& plane, int w, int h, int block,
                  int alpha, int beta, int64_t* edges_filtered) {
  auto filter_pair = [&](size_t p1i, size_t p0i, size_t q0i, size_t q1i) {
    const int p1 = plane[p1i], p0 = plane[p0i];
    const int q0 = plane[q0i], q1 = plane[q1i];
    if (std::abs(p0 - q0) >= alpha) return;
    if (std::abs(p1 - p0) >= beta || std::abs(q1 - q0) >= beta) return;
    const int c = beta;
    // (q0 - p0) can be negative; multiply instead of shifting (UB on
    // negative values) — same result for the value range here.
    int delta = ((q0 - p0) * 4 + (p1 - q1) + 4) >> 3;
    delta = Clamp(delta, -c, c);
    plane[p0i] = static_cast<uint8_t>(Clamp(p0 + delta, 0, 255));
    plane[q0i] = static_cast<uint8_t>(Clamp(q0 - delta, 0, 255));
    if (edges_filtered != nullptr) ++(*edges_filtered);
  };
  // Vertical edges.
  for (int x = block; x < w; x += block) {
    for (int y = 0; y < h; ++y) {
      const size_t row = static_cast<size_t>(y) * w;
      filter_pair(row + x - 2, row + x - 1, row + x, row + x + 1 < row + w
                                                         ? row + x + 1
                                                         : row + x);
    }
  }
  // Horizontal edges.
  for (int y = block; y < h; y += block) {
    for (int x = 0; x < w; ++x) {
      const size_t up2 = static_cast<size_t>(y - 2) * w + x;
      const size_t up1 = static_cast<size_t>(y - 1) * w + x;
      const size_t dn0 = static_cast<size_t>(y) * w + x;
      const size_t dn1 =
          static_cast<size_t>(y + 1 < h ? y + 1 : y) * w + x;
      filter_pair(up2, up1, dn0, dn1);
    }
  }
}

void DeblockFrame(Ycbcr420& frame, int quality, int64_t* edges_filtered) {
  // Stronger filtering at lower quality (larger quant steps leave bigger
  // seams), mirroring H.264's QP-indexed alpha/beta tables.
  const int alpha = Clamp(60 - quality / 2, 4, 48);
  const int beta = Clamp((60 - quality / 2) / 4, 2, 12);
  DeblockPlane(frame.y, frame.width, frame.height, 8, alpha, beta,
               edges_filtered);
  DeblockPlane(frame.cb, frame.chroma_width(), frame.chroma_height(), 8,
               alpha, beta, edges_filtered);
  DeblockPlane(frame.cr, frame.chroma_width(), frame.chroma_height(), 8,
               alpha, beta, edges_filtered);
}

// --- Frame coding -----------------------------------------------------------

struct FrameTables {
  HuffmanTable dc_luma, ac_luma, dc_chroma, ac_chroma;
};

// Extracts a block of residuals (cur - pred), not level-shifted.
void ExtractResidual(const std::vector<uint8_t>& cur, int w, int h, int bx,
                     int by, const uint8_t* pred, int pred_stride,
                     int pred_x, int pred_y, int16_t out[64]) {
  for (int y = 0; y < 8; ++y) {
    const int sy = Clamp(by + y, 0, h - 1);
    for (int x = 0; x < 8; ++x) {
      const int sx = Clamp(bx + x, 0, w - 1);
      out[y * 8 + x] = static_cast<int16_t>(
          static_cast<int>(cur[static_cast<size_t>(sy) * w + sx]) -
          static_cast<int>(
              pred[(pred_y + y) * pred_stride + (pred_x + x)]));
    }
  }
}

// Adds reconstructed residual samples onto a prediction and stores.
void StoreResidual(const int16_t res[64], const uint8_t* pred,
                   int pred_stride, int pred_x, int pred_y,
                   std::vector<uint8_t>& plane, int w, int h, int bx, int by) {
  for (int y = 0; y < 8; ++y) {
    const int sy = by + y;
    if (sy >= h) break;
    for (int x = 0; x < 8; ++x) {
      const int sx = bx + x;
      if (sx >= w) break;
      const int v = res[y * 8 + x] +
                    pred[(pred_y + y) * pred_stride + (pred_x + x)];
      plane[static_cast<size_t>(sy) * w + sx] =
          static_cast<uint8_t>(Clamp(v, 0, 255));
    }
  }
}

// Encodes a signed MV component (size category + value bits, like DC diffs).
void WriteMvComponent(BitWriter* writer, int v) {
  const int size = BitSize(v);
  writer->WriteBits(static_cast<uint32_t>(size), 4);
  if (size > 0) writer->WriteBits(EncodeValueBits(v, size), size);
}

Result<int> ReadMvComponent(BitReader* reader) {
  SMOL_ASSIGN_OR_RETURN(uint32_t size, reader->ReadBits(4));
  if (size == 0) return 0;
  if (size > 12) return Status::Corruption("bad MV size");
  SMOL_ASSIGN_OR_RETURN(uint32_t bits, reader->ReadBits(static_cast<int>(size)));
  return DecodeValueBits(bits, static_cast<int>(size));
}

// Per-frame coefficient collection for two-pass Huffman coding.
struct FrameCoder {
  std::vector<uint64_t> dc_luma_freq = std::vector<uint64_t>(17, 0);
  std::vector<uint64_t> ac_luma_freq = std::vector<uint64_t>(256, 0);
  std::vector<uint64_t> dc_chroma_freq = std::vector<uint64_t>(17, 0);
  std::vector<uint64_t> ac_chroma_freq = std::vector<uint64_t>(256, 0);
};

}  // namespace

Result<std::vector<uint8_t>> Sv264Encode(const std::vector<Image>& frames,
                                         const Sv264EncodeOptions& options) {
  if (frames.empty()) return Status::InvalidArgument("no frames");
  const int w = frames[0].width();
  const int h = frames[0].height();
  for (const Image& f : frames) {
    if (f.width() != w || f.height() != h || f.channels() != 3) {
      return Status::InvalidArgument("all frames must be WxHx3 and equal");
    }
  }
  const int gop = options.gop < 1 ? 1 : options.gop;
  const int mb_cols = (w + 15) / 16;
  const int mb_rows = (h + 15) / 16;
  const QuantTable luma_qt = QuantTable::Luma(options.quality);
  const QuantTable chroma_qt = QuantTable::Chroma(options.quality);

  Ycbcr420 reference;  // last reconstructed frame
  std::vector<std::vector<uint8_t>> payloads;
  std::vector<uint8_t> types;
  payloads.reserve(frames.size());

  for (size_t fi = 0; fi < frames.size(); ++fi) {
    const bool intra = (fi % static_cast<size_t>(gop)) == 0;
    Ycbcr420 cur = RgbToYcbcr420(frames[fi]);
    Ycbcr420 recon;
    recon.width = w;
    recon.height = h;
    recon.y.assign(cur.y.size(), 0);
    recon.cb.assign(cur.cb.size(), 128);
    recon.cr.assign(cur.cr.size(), 128);
    const int cw = cur.chroma_width();
    const int ch = cur.chroma_height();

    // Per-MB decisions and coefficients, gathered in pass 1.
    struct MbData {
      MbMode mode;
      MotionVector mv;
      CoeffBlock blocks[6];  // 4 luma + cb + cr (intra or residual)
      bool coded[6];
    };
    std::vector<MbData> mbs(static_cast<size_t>(mb_rows) * mb_cols);
    FrameCoder fc;

    for (int mr = 0; mr < mb_rows; ++mr) {
      int dc_pred[3] = {0, 0, 0};
      MotionVector mv_hint{0, 0};
      for (int mc = 0; mc < mb_cols; ++mc) {
        MbData& mb = mbs[static_cast<size_t>(mr) * mb_cols + mc];
        const int bx = mc * 16;
        const int by = mr * 16;
        if (intra) {
          mb.mode = kModeIntra;
          // 4 luma blocks.
          for (int b = 0; b < 4; ++b) {
            int16_t samples[64];
            ExtractBlock(cur.y, w, h, bx + (b % 2) * 8, by + (b / 2) * 8,
                         /*bias=*/128, samples);
            mb.blocks[b] = TransformBlock(samples, luma_qt);
            mb.coded[b] = true;
            AccumulateBlockStats(mb.blocks[b], &dc_pred[0], fc.dc_luma_freq,
                                 fc.ac_luma_freq);
          }
          // Chroma blocks.
          for (int b = 4; b < 6; ++b) {
            auto& plane = b == 4 ? cur.cb : cur.cr;
            int16_t samples[64];
            ExtractBlock(plane, cw, ch, mc * 8, mr * 8, /*bias=*/128, samples);
            mb.blocks[b] = TransformBlock(samples, chroma_qt);
            mb.coded[b] = true;
            AccumulateBlockStats(mb.blocks[b], &dc_pred[b - 3],
                                 fc.dc_chroma_freq, fc.ac_chroma_freq);
          }
          // Reconstruct for the reference.
          for (int b = 0; b < 4; ++b) {
            int16_t rec[64];
            ReconstructBlock(mb.blocks[b], luma_qt, rec);
            StoreBlock(rec, 8, recon.y, w, h, bx + (b % 2) * 8,
                       by + (b / 2) * 8);
          }
          for (int b = 4; b < 6; ++b) {
            int16_t rec[64];
            ReconstructBlock(mb.blocks[b], chroma_qt, rec);
            StoreBlock(rec, 8, b == 4 ? recon.cb : recon.cr, cw, ch, mc * 8,
                       mr * 8);
          }
          continue;
        }

        // P-frame: motion search on luma.
        int64_t sad = 0;
        mb.mv = MotionSearch(cur.y, reference.y, w, h, bx, by,
                             options.search_range, mv_hint, &sad);
        mv_hint = mb.mv;
        // Build the 16x16 luma prediction and 8x8 chroma predictions.
        uint8_t pred_y[256], pred_cb[64], pred_cr[64];
        PredictBlock(reference.y, w, h, bx, by, mb.mv.dx, mb.mv.dy, 16,
                     pred_y);
        PredictBlock(reference.cb, cw, ch, mc * 8, mr * 8, mb.mv.dx / 2,
                     mb.mv.dy / 2, 8, pred_cb);
        PredictBlock(reference.cr, cw, ch, mc * 8, mr * 8, mb.mv.dx / 2,
                     mb.mv.dy / 2, 8, pred_cr);

        // SKIP decision: MV == 0 and tiny SAD.
        if (mb.mv.dx == 0 && mb.mv.dy == 0 && sad < 256) {
          mb.mode = kModeSkip;
          // Copy prediction into reconstruction.
          for (int y = 0; y < 16; ++y) {
            for (int x = 0; x < 16; ++x) {
              const int sy = by + y, sx = bx + x;
              if (sy < h && sx < w) {
                recon.y[static_cast<size_t>(sy) * w + sx] = pred_y[y * 16 + x];
              }
            }
          }
          for (int y = 0; y < 8; ++y) {
            for (int x = 0; x < 8; ++x) {
              const int sy = mr * 8 + y, sx = mc * 8 + x;
              if (sy < ch && sx < cw) {
                recon.cb[static_cast<size_t>(sy) * cw + sx] =
                    pred_cb[y * 8 + x];
                recon.cr[static_cast<size_t>(sy) * cw + sx] =
                    pred_cr[y * 8 + x];
              }
            }
          }
          continue;
        }

        mb.mode = kModeInter;
        for (int b = 0; b < 4; ++b) {
          int16_t res[64];
          ExtractResidual(cur.y, w, h, bx + (b % 2) * 8, by + (b / 2) * 8,
                          pred_y, 16, (b % 2) * 8, (b / 2) * 8, res);
          mb.blocks[b] = TransformBlock(res, luma_qt);
          mb.coded[b] = true;
          AccumulateBlockStats(mb.blocks[b], &dc_pred[0], fc.dc_luma_freq,
                               fc.ac_luma_freq);
          int16_t rec[64];
          ReconstructBlock(mb.blocks[b], luma_qt, rec);
          StoreResidual(rec, pred_y, 16, (b % 2) * 8, (b / 2) * 8, recon.y, w,
                        h, bx + (b % 2) * 8, by + (b / 2) * 8);
        }
        for (int b = 4; b < 6; ++b) {
          auto& plane = b == 4 ? cur.cb : cur.cr;
          const uint8_t* pred = b == 4 ? pred_cb : pred_cr;
          int16_t res[64];
          ExtractResidual(plane, cw, ch, mc * 8, mr * 8, pred, 8, 0, 0, res);
          mb.blocks[b] = TransformBlock(res, chroma_qt);
          mb.coded[b] = true;
          AccumulateBlockStats(mb.blocks[b], &dc_pred[b - 3],
                               fc.dc_chroma_freq, fc.ac_chroma_freq);
          int16_t rec[64];
          ReconstructBlock(mb.blocks[b], chroma_qt, rec);
          StoreResidual(rec, pred, 8, 0, 0, b == 4 ? recon.cb : recon.cr, cw,
                        ch, mc * 8, mr * 8);
        }
      }
    }

    // In-loop deblocking on the reconstruction (reference matches decoders
    // that run the filter).
    if (options.deblock) {
      DeblockFrame(recon, options.quality, nullptr);
    }

    // Build the frame's Huffman tables.
    fc.dc_luma_freq[0] += 1;
    fc.ac_luma_freq[0x00] += 1;
    fc.dc_chroma_freq[0] += 1;
    fc.ac_chroma_freq[0x00] += 1;
    SMOL_ASSIGN_OR_RETURN(HuffmanTable dc_luma,
                          HuffmanTable::FromFrequencies(fc.dc_luma_freq));
    SMOL_ASSIGN_OR_RETURN(HuffmanTable ac_luma,
                          HuffmanTable::FromFrequencies(fc.ac_luma_freq));
    SMOL_ASSIGN_OR_RETURN(HuffmanTable dc_chroma,
                          HuffmanTable::FromFrequencies(fc.dc_chroma_freq));
    SMOL_ASSIGN_OR_RETURN(HuffmanTable ac_chroma,
                          HuffmanTable::FromFrequencies(fc.ac_chroma_freq));

    // Pass 2: serialize the frame.
    BitWriter fw;
    dc_luma.Serialize(&fw);
    ac_luma.Serialize(&fw);
    dc_chroma.Serialize(&fw);
    ac_chroma.Serialize(&fw);
    for (int mr = 0; mr < mb_rows; ++mr) {
      int dc_pred[3] = {0, 0, 0};
      for (int mc = 0; mc < mb_cols; ++mc) {
        MbData& mb = mbs[static_cast<size_t>(mr) * mb_cols + mc];
        if (!intra) {
          fw.WriteBits(static_cast<uint32_t>(mb.mode), 2);
          if (mb.mode == kModeSkip) continue;
          if (mb.mode == kModeInter) {
            WriteMvComponent(&fw, mb.mv.dx);
            WriteMvComponent(&fw, mb.mv.dy);
          }
        }
        for (int b = 0; b < 4; ++b) {
          EncodeBlock(mb.blocks[b], &dc_pred[0], dc_luma, ac_luma, &fw);
        }
        for (int b = 4; b < 6; ++b) {
          EncodeBlock(mb.blocks[b], &dc_pred[b - 3], dc_chroma, ac_chroma,
                      &fw);
        }
      }
    }
    payloads.push_back(fw.Finish());
    types.push_back(intra ? 'I' : 'P');
    reference = std::move(recon);
  }

  // Container: header + frame index + payloads.
  BitWriter out;
  out.WriteU32(kMagic);
  out.WriteU16(static_cast<uint16_t>(w));
  out.WriteU16(static_cast<uint16_t>(h));
  out.WriteU16(static_cast<uint16_t>(frames.size()));
  out.WriteByte(static_cast<uint8_t>(gop > 255 ? 255 : gop));
  out.WriteByte(static_cast<uint8_t>(options.quality));
  out.WriteByte(options.deblock ? 1 : 0);
  uint32_t offset = 0;
  for (size_t i = 0; i < payloads.size(); ++i) {
    out.WriteByte(types[i]);
    out.WriteU32(offset);
    offset += static_cast<uint32_t>(payloads[i].size());
  }
  out.WriteU32(offset);
  for (auto& p : payloads) {
    for (uint8_t b : p) out.WriteByte(b);
  }
  return out.Finish();
}

Result<std::unique_ptr<Sv264Decoder>> Sv264Decoder::Open(
    const std::vector<uint8_t>& bytes) {
  return Open(bytes, Options());
}

Result<std::unique_ptr<Sv264Decoder>> Sv264Decoder::Open(
    const std::vector<uint8_t>& bytes, const Options& options) {
  BitReader reader(bytes.data(), bytes.size());
  SMOL_ASSIGN_OR_RETURN(uint32_t magic, reader.ReadU32());
  if (magic != kMagic) return Status::Corruption("not an SV264 stream");
  auto decoder = std::unique_ptr<Sv264Decoder>(new Sv264Decoder());
  decoder->bytes_ = &bytes;
  decoder->options_ = options;
  SMOL_ASSIGN_OR_RETURN(uint16_t w, reader.ReadU16());
  SMOL_ASSIGN_OR_RETURN(uint16_t h, reader.ReadU16());
  SMOL_ASSIGN_OR_RETURN(uint16_t n, reader.ReadU16());
  SMOL_ASSIGN_OR_RETURN(uint8_t gop, reader.ReadByte());
  SMOL_ASSIGN_OR_RETURN(uint8_t quality, reader.ReadByte());
  SMOL_ASSIGN_OR_RETURN(uint8_t deblock, reader.ReadByte());
  if (w == 0 || h == 0 || n == 0) return Status::Corruption("bad header");
  decoder->header_.width = w;
  decoder->header_.height = h;
  decoder->header_.num_frames = n;
  decoder->header_.gop = gop;
  decoder->header_.quality = quality;
  decoder->header_.encoded_with_deblock = deblock != 0;
  decoder->frame_offsets_.resize(n + 1);
  decoder->frame_types_.resize(n);
  for (int i = 0; i < n; ++i) {
    SMOL_ASSIGN_OR_RETURN(decoder->frame_types_[i], reader.ReadByte());
    SMOL_ASSIGN_OR_RETURN(decoder->frame_offsets_[i], reader.ReadU32());
  }
  SMOL_ASSIGN_OR_RETURN(decoder->frame_offsets_[n], reader.ReadU32());
  // Rebase offsets onto absolute positions.
  const uint32_t base = static_cast<uint32_t>(reader.byte_position());
  for (auto& off : decoder->frame_offsets_) off += base;
  if (decoder->frame_offsets_[n] > bytes.size()) {
    return Status::Corruption("frame data truncated");
  }
  return decoder;
}

void Sv264Decoder::Reset() {
  last_decoded_ = -1;
  reference_ = Ycbcr420();
}

Status Sv264Decoder::DecodeStoredFrame(int index) {
  const int w = header_.width;
  const int h = header_.height;
  const int mb_cols = (w + 15) / 16;
  const int mb_rows = (h + 15) / 16;
  const bool intra = frame_types_[index] == 'I';
  // A P-frame predicts from the frame before it; frame 0 (or a P-frame
  // reached with no I-frame before it) has nothing to predict from.
  if (!intra && (index == 0 || last_decoded_ != index - 1)) {
    return Status::Corruption("P-frame without a decoded reference");
  }
  const QuantTable luma_qt = QuantTable::Luma(header_.quality);
  const QuantTable chroma_qt = QuantTable::Chroma(header_.quality);

  BitReader reader(bytes_->data(), bytes_->size());
  SMOL_RETURN_IF_ERROR(reader.SeekToByte(frame_offsets_[index]));
  SMOL_ASSIGN_OR_RETURN(HuffmanTable dc_luma, HuffmanTable::Deserialize(&reader));
  SMOL_ASSIGN_OR_RETURN(HuffmanTable ac_luma, HuffmanTable::Deserialize(&reader));
  SMOL_ASSIGN_OR_RETURN(HuffmanTable dc_chroma,
                        HuffmanTable::Deserialize(&reader));
  SMOL_ASSIGN_OR_RETURN(HuffmanTable ac_chroma,
                        HuffmanTable::Deserialize(&reader));
  const BlockDecodeTables luma_tables(dc_luma, ac_luma);
  const BlockDecodeTables chroma_tables(dc_chroma, ac_chroma);

  Ycbcr420 recon;
  recon.width = w;
  recon.height = h;
  const int cw = recon.chroma_width();
  const int ch = recon.chroma_height();
  recon.y.assign(static_cast<size_t>(w) * h, 0);
  recon.cb.assign(static_cast<size_t>(cw) * ch, 128);
  recon.cr.assign(static_cast<size_t>(cw) * ch, 128);

  for (int mr = 0; mr < mb_rows; ++mr) {
    int dc_pred[3] = {0, 0, 0};
    for (int mc = 0; mc < mb_cols; ++mc) {
      const int bx = mc * 16;
      const int by = mr * 16;
      MbMode mode = kModeIntra;
      MotionVector mv{0, 0};
      if (!intra) {
        SMOL_ASSIGN_OR_RETURN(uint32_t mode_bits, reader.ReadBits(2));
        if (mode_bits > kModeIntra) {
          return Status::Corruption("bad macroblock mode");
        }
        mode = static_cast<MbMode>(mode_bits);
        if (mode == kModeInter) {
          SMOL_ASSIGN_OR_RETURN(mv.dx, ReadMvComponent(&reader));
          SMOL_ASSIGN_OR_RETURN(mv.dy, ReadMvComponent(&reader));
        }
      }
      uint8_t pred_y[256], pred_cb[64], pred_cr[64];
      if (mode == kModeSkip || mode == kModeInter) {
        PredictBlock(reference_.y, w, h, bx, by, mv.dx, mv.dy, 16, pred_y);
        PredictBlock(reference_.cb, cw, ch, mc * 8, mr * 8, mv.dx / 2,
                     mv.dy / 2, 8, pred_cb);
        PredictBlock(reference_.cr, cw, ch, mc * 8, mr * 8, mv.dx / 2,
                     mv.dy / 2, 8, pred_cr);
      }
      if (mode == kModeSkip) {
        stats_.mbs_skipped++;
        for (int y = 0; y < 16; ++y) {
          for (int x = 0; x < 16; ++x) {
            const int sy = by + y, sx = bx + x;
            if (sy < h && sx < w) {
              recon.y[static_cast<size_t>(sy) * w + sx] = pred_y[y * 16 + x];
            }
          }
        }
        for (int y = 0; y < 8; ++y) {
          for (int x = 0; x < 8; ++x) {
            const int sy = mr * 8 + y, sx = mc * 8 + x;
            if (sy < ch && sx < cw) {
              recon.cb[static_cast<size_t>(sy) * cw + sx] = pred_cb[y * 8 + x];
              recon.cr[static_cast<size_t>(sy) * cw + sx] = pred_cr[y * 8 + x];
            }
          }
        }
        continue;
      }
      // Decode 6 blocks.
      for (int b = 0; b < 6; ++b) {
        DecodedBlock cb;
        SMOL_RETURN_IF_ERROR(DecodeBlock(
            &reader, b < 4 ? luma_tables : chroma_tables,
            &dc_pred[b < 4 ? 0 : b - 3], &cb));
        stats_.blocks_decoded++;
        int16_t rec[64];
        ReconstructBlock(cb, b < 4 ? luma_qt : chroma_qt, rec);
        if (mode == kModeIntra) {
          if (b < 4) {
            StoreBlock(rec, 8, recon.y, w, h, bx + (b % 2) * 8,
                       by + (b / 2) * 8);
          } else {
            StoreBlock(rec, 8, b == 4 ? recon.cb : recon.cr, cw, ch, mc * 8,
                       mr * 8);
          }
        } else {
          if (b < 4) {
            StoreResidual(rec, pred_y, 16, (b % 2) * 8, (b / 2) * 8, recon.y,
                          w, h, bx + (b % 2) * 8, by + (b / 2) * 8);
          } else {
            StoreResidual(rec, b == 4 ? pred_cb : pred_cr, 8, 0, 0,
                          b == 4 ? recon.cb : recon.cr, cw, ch, mc * 8,
                          mr * 8);
          }
        }
      }
    }
  }

  // Reduced-fidelity decoding skips this pass (paper §6.4): faster, but the
  // reference drifts from the encoder's deblocked reconstruction.
  if (options_.deblock && header_.encoded_with_deblock) {
    DeblockFrame(recon, header_.quality, &stats_.deblock_edges);
  }
  reference_ = std::move(recon);
  last_decoded_ = index;
  stats_.frames_decoded++;
  return Status::OK();
}

Result<Image> Sv264Decoder::DecodeFrame(int index) {
  if (index < 0 || index >= header_.num_frames) {
    return Status::OutOfRange("frame index out of range");
  }
  if (index != last_decoded_) {
    int start;
    if (index > last_decoded_ && last_decoded_ >= 0 &&
        frame_types_[index] != 'I') {
      // Roll forward from current position if it is behind the target…
      start = last_decoded_ + 1;
      // …unless an I-frame in between gives a shorter path.
      for (int i = index; i > last_decoded_; --i) {
        if (frame_types_[i] == 'I') {
          start = i;
          break;
        }
      }
    } else {
      // Seek to the nearest preceding I-frame.
      start = index;
      while (start > 0 && frame_types_[start] != 'I') --start;
    }
    for (int i = start; i <= index; ++i) {
      SMOL_RETURN_IF_ERROR(DecodeStoredFrame(i));
    }
  }
  return Ycbcr420ToRgb(reference_);
}

Result<Image> Sv264Decoder::DecodeNext() {
  return DecodeFrame(last_decoded_ + 1);
}

}  // namespace smol
