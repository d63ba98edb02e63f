#include "src/codec/color.h"

#include "src/codec/simd_bytes.h"
#include "src/util/simd.h"

namespace smol {

namespace {

#if SMOL_SIMD_X86

// Integer math below reproduces the scalar RgbToYcc/YccToRgb fixed-point
// formulas exactly, so the vector paths are bit-identical to the scalar
// reference: RgbRowToYccAvx2 with the same products, rounding adds and
// arithmetic shifts, YccRowToRgbAvx2 with its products split to fit 16-bit
// lanes (see there).

// Two i32x8 halves (pixels 0-7, 8-15) -> u8x16.
SMOL_TARGET_AVX2 inline __m128i PackU8x16(__m256i lo, __m256i hi) {
  const __m256i i16 = _mm256_packs_epi32(lo, hi);
  const __m256i ordered = _mm256_permute4x64_epi64(i16, _MM_SHUFFLE(3, 1, 2, 0));
  return _mm_packus_epi16(_mm256_castsi256_si128(ordered),
                          _mm256_extracti128_si256(ordered, 1));
}

SMOL_TARGET_AVX2 inline __m256i WidenLo(__m128i u8x16) {
  return _mm256_cvtepu8_epi32(u8x16);
}

SMOL_TARGET_AVX2 inline __m256i WidenHi(__m128i u8x16) {
  return _mm256_cvtepu8_epi32(_mm_srli_si128(u8x16, 8));
}

// One row of full-resolution RGB -> Y/Cb/Cr, 16 pixels per iteration.
SMOL_TARGET_AVX2 void RgbRowToYccAvx2(const uint8_t* src, int w, uint8_t* yp,
                                      uint8_t* cbp, uint8_t* crp) {
  const simd_bytes::Masks3* masks = simd_bytes::DeinterleaveMaskTable();
  const __m256i round = _mm256_set1_epi32(128);
  const __m256i bias = _mm256_set1_epi32(128);
  int x = 0;
  for (; x + 16 <= w; x += 16) {
    const uint8_t* p = src + x * 3;
    const __m128i l0 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
    const __m128i l1 =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(p + 16));
    const __m128i l2 =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(p + 32));
    const __m128i r8 = simd_bytes::Shuffle3(l0, l1, l2, masks[0]);
    const __m128i g8 = simd_bytes::Shuffle3(l0, l1, l2, masks[1]);
    const __m128i b8 = simd_bytes::Shuffle3(l0, l1, l2, masks[2]);
    __m256i yq[2], cbq[2], crq[2];
    for (int half = 0; half < 2; ++half) {
      const __m256i r = half ? WidenHi(r8) : WidenLo(r8);
      const __m256i g = half ? WidenHi(g8) : WidenLo(g8);
      const __m256i b = half ? WidenHi(b8) : WidenLo(b8);
      // y  = (77 r + 150 g + 29 b + 128) >> 8
      yq[half] = _mm256_srai_epi32(
          _mm256_add_epi32(
              _mm256_add_epi32(
                  _mm256_mullo_epi32(r, _mm256_set1_epi32(77)),
                  _mm256_mullo_epi32(g, _mm256_set1_epi32(150))),
              _mm256_add_epi32(_mm256_mullo_epi32(b, _mm256_set1_epi32(29)),
                               round)),
          8);
      // cb = ((-43 r - 85 g + 128 b + 128) >> 8) + 128
      cbq[half] = _mm256_add_epi32(
          _mm256_srai_epi32(
              _mm256_add_epi32(
                  _mm256_add_epi32(
                      _mm256_mullo_epi32(r, _mm256_set1_epi32(-43)),
                      _mm256_mullo_epi32(g, _mm256_set1_epi32(-85))),
                  _mm256_add_epi32(
                      _mm256_mullo_epi32(b, _mm256_set1_epi32(128)), round)),
              8),
          bias);
      // cr = ((128 r - 107 g - 21 b + 128) >> 8) + 128
      crq[half] = _mm256_add_epi32(
          _mm256_srai_epi32(
              _mm256_add_epi32(
                  _mm256_add_epi32(
                      _mm256_mullo_epi32(r, _mm256_set1_epi32(128)),
                      _mm256_mullo_epi32(g, _mm256_set1_epi32(-107))),
                  _mm256_add_epi32(
                      _mm256_mullo_epi32(b, _mm256_set1_epi32(-21)), round)),
              8),
          bias);
    }
    _mm_storeu_si128(reinterpret_cast<__m128i*>(yp + x),
                     PackU8x16(yq[0], yq[1]));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(cbp + x),
                     PackU8x16(cbq[0], cbq[1]));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(crp + x),
                     PackU8x16(crq[0], crq[1]));
  }
  for (; x < w; ++x) {
    RgbToYcc(src[x * 3], src[x * 3 + 1], src[x * 3 + 2], yp + x, cbp + x,
             crp + x);
  }
}

// i16x16 -> u8x16 with unsigned saturation, pixels in order.
SMOL_TARGET_AVX2 inline __m128i NarrowU8x16(__m256i v) {
  return _mm_packus_epi16(_mm256_castsi256_si128(v),
                          _mm256_extracti128_si256(v, 1));
}

// One output row of Y + half-res Cb/Cr -> interleaved RGB, 16 px/iteration
// in 16-bit lanes. YccToRgb's products reach 454 * 127 and overflow int16,
// so each coefficient splits into a power of two and a small remainder:
// 359 = 256 + 103, 183 = 256 - 73, 454 = 512 - 58. With d = cb - 128 and
// e = cr - 128, exactly (a multiple of 256 added before an arithmetic >> 8
// adds its quotient after):
//   (359 e + 128) >> 8        = e + ((103 e + 128) >> 8)
//   (88 d + 183 e + 128) >> 8 = e + ((88 d - 73 e + 128) >> 8)
//   (454 d + 128) >> 8        = 2 d + ((128 - 58 d) >> 8)
// Every remainder sum lies within [-20407, 20648] and every other partial
// sum within [-256, 509]: all inside int16, so the saturating pack sees the
// scalar result.
SMOL_TARGET_AVX2 void YccRowToRgbAvx2(const uint8_t* yp, const uint8_t* cbp,
                                      const uint8_t* crp, int w,
                                      uint8_t* dst) {
  static const simd_bytes::Masks3 imasks[3] = {
      simd_bytes::RgbInterleaveMasks(0), simd_bytes::RgbInterleaveMasks(1),
      simd_bytes::RgbInterleaveMasks(2)};
  const __m256i c128 = _mm256_set1_epi16(128);
  const __m256i k103 = _mm256_set1_epi16(103);
  const __m256i k88 = _mm256_set1_epi16(88);
  const __m256i k73 = _mm256_set1_epi16(73);
  const __m256i k58 = _mm256_set1_epi16(58);
  int x = 0;
  for (; x + 16 <= w; x += 16) {
    const __m256i y = _mm256_cvtepu8_epi16(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(yp + x)));
    // 8 chroma samples cover these 16 luma pixels: each byte is doubled
    // before widening.
    const __m128i cb8 =
        _mm_loadl_epi64(reinterpret_cast<const __m128i*>(cbp + x / 2));
    const __m128i cr8 =
        _mm_loadl_epi64(reinterpret_cast<const __m128i*>(crp + x / 2));
    const __m256i d = _mm256_sub_epi16(
        _mm256_cvtepu8_epi16(_mm_unpacklo_epi8(cb8, cb8)), c128);
    const __m256i e = _mm256_sub_epi16(
        _mm256_cvtepu8_epi16(_mm_unpacklo_epi8(cr8, cr8)), c128);
    // r = y + e + ((103 e + 128) >> 8)
    const __m256i r = _mm256_add_epi16(
        _mm256_add_epi16(y, e),
        _mm256_srai_epi16(
            _mm256_add_epi16(_mm256_mullo_epi16(e, k103), c128), 8));
    // g = y - e - ((88 d - 73 e + 128) >> 8)
    const __m256i g = _mm256_sub_epi16(
        _mm256_sub_epi16(y, e),
        _mm256_srai_epi16(
            _mm256_add_epi16(_mm256_sub_epi16(_mm256_mullo_epi16(d, k88),
                                              _mm256_mullo_epi16(e, k73)),
                             c128),
            8));
    // b = y + 2 d + ((128 - 58 d) >> 8)
    const __m256i b = _mm256_add_epi16(
        _mm256_add_epi16(y, _mm256_add_epi16(d, d)),
        _mm256_srai_epi16(_mm256_sub_epi16(c128, _mm256_mullo_epi16(d, k58)),
                          8));
    const __m128i r8 = NarrowU8x16(r);
    const __m128i g8 = NarrowU8x16(g);
    const __m128i b8 = NarrowU8x16(b);
    uint8_t* out = dst + x * 3;
    for (int chunk = 0; chunk < 3; ++chunk) {
      _mm_storeu_si128(reinterpret_cast<__m128i*>(out + chunk * 16),
                       simd_bytes::Shuffle3(r8, g8, b8, imasks[chunk]));
    }
  }
  for (; x < w; ++x) {
    YccToRgb(yp[x], cbp[x / 2], crp[x / 2], dst + x * 3, dst + x * 3 + 1,
             dst + x * 3 + 2);
  }
}

#endif  // SMOL_SIMD_X86

}  // namespace

Ycbcr420 RgbToYcbcr420(const Image& rgb) {
  Ycbcr420 out;
  out.width = rgb.width();
  out.height = rgb.height();
  const int w = out.width;
  const int h = out.height;
  const int cw = out.chroma_width();
  const int ch = out.chroma_height();
  out.y.resize(static_cast<size_t>(w) * h);
  out.cb.resize(static_cast<size_t>(cw) * ch);
  out.cr.resize(static_cast<size_t>(cw) * ch);

  // Full-resolution conversion into temporary chroma planes.
  std::vector<uint8_t> cb_full(static_cast<size_t>(w) * h);
  std::vector<uint8_t> cr_full(static_cast<size_t>(w) * h);
  const bool gray = rgb.channels() == 1;
#if SMOL_SIMD_X86
  const bool avx2 = !gray && simd::Avx2();
#endif
  for (int y = 0; y < h; ++y) {
    const uint8_t* src = rgb.row(y);
    uint8_t* yp = out.y.data() + static_cast<size_t>(y) * w;
    uint8_t* cbp = cb_full.data() + static_cast<size_t>(y) * w;
    uint8_t* crp = cr_full.data() + static_cast<size_t>(y) * w;
#if SMOL_SIMD_X86
    if (avx2) {
      RgbRowToYccAvx2(src, w, yp, cbp, crp);
      continue;
    }
#endif
    for (int x = 0; x < w; ++x) {
      uint8_t r, g, b;
      if (gray) {
        r = g = b = src[x];
      } else {
        r = src[x * 3];
        g = src[x * 3 + 1];
        b = src[x * 3 + 2];
      }
      RgbToYcc(r, g, b, yp + x, cbp + x, crp + x);
    }
  }
  // 2x2 box filter then subsample.
  for (int cy = 0; cy < ch; ++cy) {
    for (int cx = 0; cx < cw; ++cx) {
      int sum_cb = 0, sum_cr = 0, count = 0;
      for (int dy = 0; dy < 2; ++dy) {
        for (int dx = 0; dx < 2; ++dx) {
          const int sy = cy * 2 + dy;
          const int sx = cx * 2 + dx;
          if (sy < h && sx < w) {
            sum_cb += cb_full[static_cast<size_t>(sy) * w + sx];
            sum_cr += cr_full[static_cast<size_t>(sy) * w + sx];
            ++count;
          }
        }
      }
      out.cb[static_cast<size_t>(cy) * cw + cx] =
          static_cast<uint8_t>(sum_cb / count);
      out.cr[static_cast<size_t>(cy) * cw + cx] =
          static_cast<uint8_t>(sum_cr / count);
    }
  }
  return out;
}

Image Ycbcr420ToRgb(const Ycbcr420& ycc) {
  Image out;
  Ycbcr420ToRgbInto(ycc, &out);
  return out;
}

void Ycbcr420ToRgbInto(const Ycbcr420& ycc, Image* out) {
  out->Reshape(ycc.width, ycc.height, 3);
  const int w = ycc.width;
  const int h = ycc.height;
  const int cw = ycc.chroma_width();
#if SMOL_SIMD_X86
  const bool avx2 = simd::Avx2();
#endif
  for (int y = 0; y < h; ++y) {
    uint8_t* dst = out->row(y);
    const int cy = y / 2;
    const uint8_t* yp = ycc.y.data() + static_cast<size_t>(y) * w;
    const uint8_t* cbp = ycc.cb.data() + static_cast<size_t>(cy) * cw;
    const uint8_t* crp = ycc.cr.data() + static_cast<size_t>(cy) * cw;
#if SMOL_SIMD_X86
    if (avx2) {
      YccRowToRgbAvx2(yp, cbp, crp, w, dst);
      continue;
    }
#endif
    for (int x = 0; x < w; ++x) {
      YccToRgb(yp[x], cbp[x / 2], crp[x / 2], dst + x * 3, dst + x * 3 + 1,
               dst + x * 3 + 2);
    }
  }
}

}  // namespace smol
