#include "src/preproc/resize.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include "src/util/simd.h"

namespace smol {

namespace {

// Per-output-coordinate source taps: two clamped source offsets (already
// multiplied by the element stride) and the lerp weight between them. The
// right/bottom edge is handled here once — i1 is clamped to the last valid
// element — so the inner loops never index past the source extent, scalar or
// vector alike.
struct Taps {
  std::vector<int32_t> i0;
  std::vector<int32_t> i1;
  std::vector<float> w;
};

Taps MakeTaps(int src_extent, int dst_extent, int stride) {
  Taps taps;
  taps.i0.resize(dst_extent);
  taps.i1.resize(dst_extent);
  taps.w.resize(dst_extent);
  const float scale = static_cast<float>(src_extent) / dst_extent;
  for (int d = 0; d < dst_extent; ++d) {
    const float f = (d + 0.5f) * scale - 0.5f;
    int s0 = static_cast<int>(std::floor(f));
    taps.w[d] = f - s0;
    const int s1 = std::clamp(s0 + 1, 0, src_extent - 1);
    s0 = std::clamp(s0, 0, src_extent - 1);
    taps.i0[d] = s0 * stride;
    taps.i1[d] = s1 * stride;
  }
  return taps;
}

// --- Vertical pass: blend two source rows into a float row -------------------

void VBlendU8Scalar(const uint8_t* r0, const uint8_t* r1, float wy, int n,
                    float* out) {
  for (int i = 0; i < n; ++i) {
    const float a = static_cast<float>(r0[i]);
    const float b = static_cast<float>(r1[i]);
    out[i] = a + (b - a) * wy;
  }
}

void VBlendF32Scalar(const float* r0, const float* r1, float wy, int n,
                     float* out) {
  for (int i = 0; i < n; ++i) {
    out[i] = r0[i] + (r1[i] - r0[i]) * wy;
  }
}

#if SMOL_SIMD_X86

SMOL_TARGET_SSE4 void VBlendU8Sse4(const uint8_t* r0, const uint8_t* r1,
                                   float wy, int n, float* out) {
  const __m128 wv = _mm_set1_ps(wy);
  int i = 0;
  for (; i + 4 <= n; i += 4) {
    int32_t w0, w1;  // unaligned 4-byte chunks; memcpy keeps UBSan happy
    std::memcpy(&w0, r0 + i, sizeof(w0));
    std::memcpy(&w1, r1 + i, sizeof(w1));
    const __m128 a = _mm_cvtepi32_ps(_mm_cvtepu8_epi32(_mm_cvtsi32_si128(w0)));
    const __m128 b = _mm_cvtepi32_ps(_mm_cvtepu8_epi32(_mm_cvtsi32_si128(w1)));
    _mm_storeu_ps(out + i,
                  _mm_add_ps(a, _mm_mul_ps(_mm_sub_ps(b, a), wv)));
  }
  for (; i < n; ++i) {
    const float a = static_cast<float>(r0[i]);
    const float b = static_cast<float>(r1[i]);
    out[i] = a + (b - a) * wy;
  }
}

SMOL_TARGET_AVX2 void VBlendU8Avx2(const uint8_t* r0, const uint8_t* r1,
                                   float wy, int n, float* out) {
  const __m256 wv = _mm256_set1_ps(wy);
  int i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 a = _mm256_cvtepi32_ps(_mm256_cvtepu8_epi32(
        _mm_loadl_epi64(reinterpret_cast<const __m128i*>(r0 + i))));
    const __m256 b = _mm256_cvtepi32_ps(_mm256_cvtepu8_epi32(
        _mm_loadl_epi64(reinterpret_cast<const __m128i*>(r1 + i))));
    _mm256_storeu_ps(out + i,
                     _mm256_add_ps(a, _mm256_mul_ps(_mm256_sub_ps(b, a), wv)));
  }
  for (; i < n; ++i) {
    const float a = static_cast<float>(r0[i]);
    const float b = static_cast<float>(r1[i]);
    out[i] = a + (b - a) * wy;
  }
}

SMOL_TARGET_AVX2 void VBlendF32Avx2(const float* r0, const float* r1, float wy,
                                    int n, float* out) {
  const __m256 wv = _mm256_set1_ps(wy);
  int i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 a = _mm256_loadu_ps(r0 + i);
    const __m256 b = _mm256_loadu_ps(r1 + i);
    _mm256_storeu_ps(out + i,
                     _mm256_add_ps(a, _mm256_mul_ps(_mm256_sub_ps(b, a), wv)));
  }
  for (; i < n; ++i) {
    out[i] = r0[i] + (r1[i] - r0[i]) * wy;
  }
}

#endif  // SMOL_SIMD_X86

// --- Horizontal pass ---------------------------------------------------------

inline uint8_t RoundToU8(float v) {
  const int iv = static_cast<int>(v + 0.5f);
  return static_cast<uint8_t>(iv > 255 ? 255 : iv);
}

void HLerpU8Scalar(const float* vrow, const Taps& tx, int out_w, int c,
                   uint8_t* dst) {
  for (int x = 0; x < out_w; ++x) {
    const float* s0 = vrow + tx.i0[x];
    const float* s1 = vrow + tx.i1[x];
    const float wx = tx.w[x];
    for (int ch = 0; ch < c; ++ch) {
      dst[x * c + ch] = RoundToU8(s0[ch] + (s1[ch] - s0[ch]) * wx);
    }
  }
}

void HLerpF32Scalar(const float* vrow, const Taps& tx, int out_w, int c,
                    float* dst) {
  for (int x = 0; x < out_w; ++x) {
    const float* s0 = vrow + tx.i0[x];
    const float* s1 = vrow + tx.i1[x];
    const float wx = tx.w[x];
    for (int ch = 0; ch < c; ++ch) {
      dst[x * c + ch] = s0[ch] + (s1[ch] - s0[ch]) * wx;
    }
  }
}

#if SMOL_SIMD_X86

// 8 output pixels per iteration via per-channel gathers through the tap
// offsets; results spill through a small int buffer for the interleaved u8
// store. Only the taps' clamped offsets are ever gathered, so the right edge
// needs no special casing here.
SMOL_TARGET_AVX2 void HLerpU8Avx2(const float* vrow, const Taps& tx, int out_w,
                                  int c, uint8_t* dst) {
  const __m256 half = _mm256_set1_ps(0.5f);
  const __m256 max_u8 = _mm256_set1_ps(255.0f);
  alignas(32) int32_t buf[8];
  int x = 0;
  for (; x + 8 <= out_w; x += 8) {
    const __m256i i0 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(tx.i0.data() + x));
    const __m256i i1 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(tx.i1.data() + x));
    const __m256 wv = _mm256_loadu_ps(tx.w.data() + x);
    for (int ch = 0; ch < c; ++ch) {
      const __m256 a = _mm256_i32gather_ps(vrow + ch, i0, 4);
      const __m256 b = _mm256_i32gather_ps(vrow + ch, i1, 4);
      __m256 v = _mm256_add_ps(a, _mm256_mul_ps(_mm256_sub_ps(b, a), wv));
      v = _mm256_min_ps(_mm256_add_ps(v, half), max_u8);
      _mm256_store_si256(reinterpret_cast<__m256i*>(buf),
                         _mm256_cvttps_epi32(v));
      for (int i = 0; i < 8; ++i) {
        dst[(x + i) * c + ch] = static_cast<uint8_t>(buf[i]);
      }
    }
  }
  if (x < out_w) {
    for (; x < out_w; ++x) {
      const float* s0 = vrow + tx.i0[x];
      const float* s1 = vrow + tx.i1[x];
      const float wx = tx.w[x];
      for (int ch = 0; ch < c; ++ch) {
        dst[x * c + ch] = RoundToU8(s0[ch] + (s1[ch] - s0[ch]) * wx);
      }
    }
  }
}

// 3-channel rows without gathers: one output pixel per step, its three
// channels lerped in the low lanes of two unaligned 4-float loads at the
// taps. The fourth lane reads the next source pixel's first channel (at the
// right edge, the initialized float past the row's end) and is discarded.
// Each pixel stores 4 bytes and the next pixel overwrites the extra one; the
// last stores exactly 3. The lerp is an explicit fmadd because the compiler
// contracts HLerpU8Avx2's lerp into one, so both kernels round alike.
SMOL_TARGET_AVX2 inline int32_t LerpRgbPixelAvx2(const float* s0,
                                                 const float* s1, float wx) {
  const __m128 a = _mm_loadu_ps(s0);
  const __m128 b = _mm_loadu_ps(s1);
  const __m128 v = _mm_fmadd_ps(_mm_sub_ps(b, a), _mm_set1_ps(wx), a);
  const __m128i iv = _mm_cvttps_epi32(
      _mm_min_ps(_mm_add_ps(v, _mm_set1_ps(0.5f)), _mm_set1_ps(255.0f)));
  const __m128i i16 = _mm_packs_epi32(iv, iv);
  return _mm_cvtsi128_si32(_mm_packus_epi16(i16, i16));
}

SMOL_TARGET_AVX2 void HLerpRgbAvx2(const float* vrow, const Taps& tx,
                                   int out_w, uint8_t* dst) {
  int x = 0;
  for (; x + 1 < out_w; ++x) {
    const int32_t px =
        LerpRgbPixelAvx2(vrow + tx.i0[x], vrow + tx.i1[x], tx.w[x]);
    std::memcpy(dst + x * 3, &px, 4);
  }
  if (x < out_w) {
    const int32_t px =
        LerpRgbPixelAvx2(vrow + tx.i0[x], vrow + tx.i1[x], tx.w[x]);
    std::memcpy(dst + x * 3, &px, 3);
  }
}

SMOL_TARGET_AVX2 void HLerpF32Avx2(const float* vrow, const Taps& tx,
                                   int out_w, int c, float* dst) {
  alignas(32) float buf[8];
  int x = 0;
  for (; x + 8 <= out_w; x += 8) {
    const __m256i i0 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(tx.i0.data() + x));
    const __m256i i1 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(tx.i1.data() + x));
    const __m256 wv = _mm256_loadu_ps(tx.w.data() + x);
    for (int ch = 0; ch < c; ++ch) {
      const __m256 a = _mm256_i32gather_ps(vrow + ch, i0, 4);
      const __m256 b = _mm256_i32gather_ps(vrow + ch, i1, 4);
      const __m256 v = _mm256_add_ps(a, _mm256_mul_ps(_mm256_sub_ps(b, a), wv));
      _mm256_store_ps(buf, v);
      for (int i = 0; i < 8; ++i) {
        dst[(x + i) * c + ch] = buf[i];
      }
    }
  }
  for (; x < out_w; ++x) {
    const float* s0 = vrow + tx.i0[x];
    const float* s1 = vrow + tx.i1[x];
    const float wx = tx.w[x];
    for (int ch = 0; ch < c; ++ch) {
      dst[x * c + ch] = s0[ch] + (s1[ch] - s0[ch]) * wx;
    }
  }
}

#endif  // SMOL_SIMD_X86

}  // namespace

Image ResizeBilinear(const Image& src, int out_w, int out_h) {
  if (src.width() == out_w && src.height() == out_h) return src;
  Image out;
  ResizeBilinearInto(src, out_w, out_h, &out);
  return out;
}

void ResizeBilinearInto(const Image& src, int out_w, int out_h, Image* dst) {
  const int c = src.channels();
  dst->Reshape(out_w, out_h, c);
  if (src.width() == out_w && src.height() == out_h) {
    std::memcpy(dst->data(), src.data(), src.size_bytes());
    return;
  }
  const int row_elems = src.width() * c;
  const Taps tx = MakeTaps(src.width(), out_w, c);
  const Taps ty = MakeTaps(src.height(), out_h, 1);
  // One zeroed float past the row for HLerpRgbAvx2's fourth lane.
  std::vector<float> vrow(row_elems + 1);
#if SMOL_SIMD_X86
  const bool avx2 = simd::Avx2();
  const bool sse4 = simd::Sse4();
#endif
  for (int y = 0; y < out_h; ++y) {
    const uint8_t* r0 = src.row(ty.i0[y]);
    const uint8_t* r1 = src.row(ty.i1[y]);
    const float wy = ty.w[y];
#if SMOL_SIMD_X86
    if (avx2) {
      VBlendU8Avx2(r0, r1, wy, row_elems, vrow.data());
      if (c == 3) {
        HLerpRgbAvx2(vrow.data(), tx, out_w, dst->row(y));
      } else {
        HLerpU8Avx2(vrow.data(), tx, out_w, c, dst->row(y));
      }
      continue;
    }
    if (sse4) {
      VBlendU8Sse4(r0, r1, wy, row_elems, vrow.data());
      HLerpU8Scalar(vrow.data(), tx, out_w, c, dst->row(y));
      continue;
    }
#endif
    VBlendU8Scalar(r0, r1, wy, row_elems, vrow.data());
    HLerpU8Scalar(vrow.data(), tx, out_w, c, dst->row(y));
  }
}

namespace internal {

// f32 HWC resize core shared with ops.cc (ResizeF32).
void ResizeBilinearF32(const float* src, int src_w, int src_h, int c,
                       int out_w, int out_h, float* dst) {
  const int row_elems = src_w * c;
  const Taps tx = MakeTaps(src_w, out_w, c);
  const Taps ty = MakeTaps(src_h, out_h, 1);
  std::vector<float> vrow(row_elems);
#if SMOL_SIMD_X86
  const bool avx2 = simd::Avx2();
#endif
  for (int y = 0; y < out_h; ++y) {
    const float* r0 = src + static_cast<size_t>(ty.i0[y]) * row_elems;
    const float* r1 = src + static_cast<size_t>(ty.i1[y]) * row_elems;
    float* drow = dst + static_cast<size_t>(y) * out_w * c;
#if SMOL_SIMD_X86
    if (avx2) {
      VBlendF32Avx2(r0, r1, ty.w[y], row_elems, vrow.data());
      HLerpF32Avx2(vrow.data(), tx, out_w, c, drow);
      continue;
    }
#endif
    VBlendF32Scalar(r0, r1, ty.w[y], row_elems, vrow.data());
    HLerpF32Scalar(vrow.data(), tx, out_w, c, drow);
  }
}

}  // namespace internal

}  // namespace smol
