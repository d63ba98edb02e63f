// Scalar-vs-SIMD parity for every runtime-dispatched kernel.
//
// Each test runs the kernel once under ScopedSimdLevelCap(kScalar) and once
// per wider level the host supports, over randomized shapes (including 1-px
// and non-multiple-of-8 extents, which exercise every vector tail path).
// Pure-integer kernels (YCbCr conversion) must match bit-exactly; kernels
// with float interiors but integer outputs (u8 resize, inverse DCT) may
// differ by 1 LSB where FMA contraction shifts a result across a rounding
// boundary; float-output kernels use a ULP-scaled tolerance.
#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "src/codec/block_codec.h"
#include "src/codec/color.h"
#include "src/codec/dct.h"
#include "src/codec/image.h"
#include "src/dnn/gemm.h"
#include "src/preproc/fused.h"
#include "src/preproc/ops.h"
#include "src/preproc/resize.h"
#include "src/util/cpu_features.h"
#include "src/util/rng.h"
#include "tests/test_util.h"

namespace smol {
namespace {

// Levels above scalar that this host can actually run.
std::vector<SimdLevel> WiderLevels() {
  std::vector<SimdLevel> levels;
  if (DetectedSimdLevel() >= SimdLevel::kSSE4) levels.push_back(SimdLevel::kSSE4);
  if (DetectedSimdLevel() >= SimdLevel::kAVX2) levels.push_back(SimdLevel::kAVX2);
  return levels;
}

Image RandomImage(Rng* rng, int w, int h, int c) {
  Image img(w, h, c);
  for (size_t i = 0; i < img.size_bytes(); ++i) {
    img.data()[i] = static_cast<uint8_t>(rng->UniformInt(0, 255));
  }
  return img;
}

TEST(CpuFeaturesTest, LevelsAreOrderedAndNamed) {
  EXPECT_STREQ(SimdLevelName(SimdLevel::kScalar), "scalar");
  EXPECT_STREQ(SimdLevelName(SimdLevel::kSSE4), "sse4");
  EXPECT_STREQ(SimdLevelName(SimdLevel::kAVX2), "avx2");
  EXPECT_LE(ActiveSimdLevel(), DetectedSimdLevel());
}

TEST(CpuFeaturesTest, ScopedCapLowersAndRestores) {
  const SimdLevel before = ActiveSimdLevel();
  {
    ScopedSimdLevelCap cap(SimdLevel::kScalar);
    EXPECT_EQ(ActiveSimdLevel(), SimdLevel::kScalar);
    {
      ScopedSimdLevelCap inner(SimdLevel::kSSE4);
      // Caps do not widen beyond detection.
      EXPECT_LE(ActiveSimdLevel(), DetectedSimdLevel());
    }
    EXPECT_EQ(ActiveSimdLevel(), SimdLevel::kScalar);
  }
  EXPECT_EQ(ActiveSimdLevel(), before);
}

// --- GEMM --------------------------------------------------------------------

void CheckGemmParity(int m, int k, int n, bool accumulate, int variant,
                     SimdLevel level) {
  Rng rng(static_cast<uint64_t>(m * 73 + k * 31 + n * 7 + variant));
  std::vector<float> a(static_cast<size_t>(m) * k);
  std::vector<float> b(static_cast<size_t>(k) * n);
  std::vector<float> c_init(static_cast<size_t>(m) * n);
  for (auto& v : a) v = static_cast<float>(rng.UniformDouble(-1, 1));
  for (auto& v : b) v = static_cast<float>(rng.UniformDouble(-1, 1));
  for (auto& v : c_init) v = static_cast<float>(rng.UniformDouble(-1, 1));

  auto run = [&](SimdLevel cap) {
    ScopedSimdLevelCap scoped(cap);
    std::vector<float> c = c_init;
    switch (variant) {
      case 0:
        Gemm(a.data(), b.data(), c.data(), m, k, n, accumulate);
        break;
      case 1:  // a stored [k x m]
        GemmTransA(a.data(), b.data(), c.data(), m, k, n, accumulate);
        break;
      default:  // b stored [n x k]
        GemmTransB(a.data(), b.data(), c.data(), m, k, n, accumulate);
        break;
    }
    return c;
  };

  const std::vector<float> ref = run(SimdLevel::kScalar);
  const std::vector<float> got = run(level);
  // ULP-scaled: |values| <= 1, so each of the k products carries at most a
  // few eps of reassociation/FMA error.
  const float tol = 8.0f * std::numeric_limits<float>::epsilon() *
                    (static_cast<float>(k) + 1.0f);
  for (size_t i = 0; i < ref.size(); ++i) {
    ASSERT_NEAR(ref[i], got[i], tol)
        << "variant " << variant << " m=" << m << " k=" << k << " n=" << n
        << " accumulate=" << accumulate << " level=" << SimdLevelName(level)
        << " index " << i;
  }
}

TEST(SimdParityTest, GemmAllVariantsRandomShapes) {
  const int shapes[][3] = {{1, 1, 1},   {1, 7, 16},  {2, 3, 5},   {5, 8, 13},
                           {6, 16, 16}, {7, 17, 15}, {13, 9, 33}, {16, 32, 8},
                           {31, 64, 17}, {64, 64, 64}, {65, 128, 30}};
  for (SimdLevel level : WiderLevels()) {
    for (const auto& s : shapes) {
      for (int variant = 0; variant < 3; ++variant) {
        for (bool accumulate : {false, true}) {
          CheckGemmParity(s[0], s[1], s[2], accumulate, variant, level);
        }
      }
    }
  }
}

// --- Resize ------------------------------------------------------------------

TEST(SimdParityTest, ResizeU8RandomShapes) {
  Rng rng(11);
  const int shapes[][4] = {{16, 16, 8, 8},   {16, 16, 32, 32}, {33, 17, 15, 9},
                           {224, 224, 64, 64}, {7, 5, 13, 11},  {1, 16, 8, 8},
                           {16, 1, 8, 8},    {9, 9, 1, 1},     {2, 2, 3, 3}};
  for (SimdLevel level : WiderLevels()) {
    for (const auto& s : shapes) {
      for (int c : {1, 3}) {
        const Image src = RandomImage(&rng, s[0], s[1], c);
        Image ref, got;
        {
          ScopedSimdLevelCap cap(SimdLevel::kScalar);
          ref = ResizeBilinear(src, s[2], s[3]);
        }
        {
          ScopedSimdLevelCap cap(level);
          got = ResizeBilinear(src, s[2], s[3]);
        }
        ASSERT_EQ(ref.size_bytes(), got.size_bytes());
        for (size_t i = 0; i < ref.size_bytes(); ++i) {
          ASSERT_NEAR(ref.data()[i], got.data()[i], 1)
              << s[0] << "x" << s[1] << "c" << c << " -> " << s[2] << "x"
              << s[3] << " level=" << SimdLevelName(level) << " byte " << i;
        }
      }
    }
  }
}

TEST(SimdParityTest, ResizeF32RandomShapes) {
  Rng rng(12);
  const int shapes[][4] = {{16, 16, 9, 7}, {33, 17, 64, 64}, {1, 9, 5, 5},
                           {9, 1, 5, 5},   {50, 31, 224, 3}};
  for (SimdLevel level : WiderLevels()) {
    for (const auto& s : shapes) {
      FloatImage src;
      src.width = s[0];
      src.height = s[1];
      src.channels = 3;
      src.chw = false;
      src.data.resize(static_cast<size_t>(s[0]) * s[1] * 3);
      for (auto& v : src.data) {
        v = static_cast<float>(rng.UniformDouble(0, 255));
      }
      FloatImage ref, got;
      {
        ScopedSimdLevelCap cap(SimdLevel::kScalar);
        ASSERT_OK_AND_ASSIGN(ref, ResizeF32(src, s[2], s[3]));
      }
      {
        ScopedSimdLevelCap cap(level);
        ASSERT_OK_AND_ASSIGN(got, ResizeF32(src, s[2], s[3]));
      }
      ASSERT_EQ(ref.data.size(), got.data.size());
      // Lerp of values <= 255: a few ULP at that magnitude.
      const float tol = 255.0f * 8.0f * std::numeric_limits<float>::epsilon();
      for (size_t i = 0; i < ref.data.size(); ++i) {
        ASSERT_NEAR(ref.data[i], got.data[i], tol)
            << "level=" << SimdLevelName(level) << " index " << i;
      }
    }
  }
}

// --- Fused preprocessing tail ------------------------------------------------

TEST(SimdParityTest, FusedTailRandomShapes) {
  Rng rng(13);
  NormalizeParams params;
  const int shapes[][2] = {{16, 16}, {17, 9}, {1, 1},  {1, 13},
                           {13, 1},  {224, 3}, {15, 15}};
  for (SimdLevel level : WiderLevels()) {
    for (const auto& s : shapes) {
      for (int c : {1, 3}) {
        const Image src = RandomImage(&rng, s[0], s[1], c);
        FloatImage ref, got;
        {
          ScopedSimdLevelCap cap(SimdLevel::kScalar);
          ASSERT_OK(FusedConvertNormalizeSplit(src, params, &ref));
        }
        {
          ScopedSimdLevelCap cap(level);
          ASSERT_OK(FusedConvertNormalizeSplit(src, params, &got));
        }
        ASSERT_EQ(ref.data.size(), got.data.size());
        const float tol = 8.0f * std::numeric_limits<float>::epsilon() * 3.0f;
        for (size_t i = 0; i < ref.data.size(); ++i) {
          ASSERT_NEAR(ref.data[i], got.data[i], tol)
              << s[0] << "x" << s[1] << "c" << c
              << " level=" << SimdLevelName(level) << " index " << i;
        }
      }
    }
  }
}

// --- YCbCr color conversion (pure integer: exact) ----------------------------

TEST(SimdParityTest, ColorConversionExact) {
  Rng rng(14);
  const int shapes[][2] = {{16, 16}, {17, 9}, {1, 1},  {1, 8},
                           {8, 1},   {31, 3}, {48, 2}, {15, 16}};
  for (SimdLevel level : WiderLevels()) {
    for (const auto& s : shapes) {
      const Image src = RandomImage(&rng, s[0], s[1], 3);
      Ycbcr420 ref_ycc, got_ycc;
      {
        ScopedSimdLevelCap cap(SimdLevel::kScalar);
        ref_ycc = RgbToYcbcr420(src);
      }
      {
        ScopedSimdLevelCap cap(level);
        got_ycc = RgbToYcbcr420(src);
      }
      ASSERT_EQ(ref_ycc.y, got_ycc.y)
          << s[0] << "x" << s[1] << " level=" << SimdLevelName(level);
      ASSERT_EQ(ref_ycc.cb, got_ycc.cb);
      ASSERT_EQ(ref_ycc.cr, got_ycc.cr);

      Image ref_rgb, got_rgb;
      {
        ScopedSimdLevelCap cap(SimdLevel::kScalar);
        ref_rgb = Ycbcr420ToRgb(ref_ycc);
      }
      {
        ScopedSimdLevelCap cap(level);
        got_rgb = Ycbcr420ToRgb(ref_ycc);
      }
      ASSERT_TRUE(ref_rgb == got_rgb)
          << s[0] << "x" << s[1] << " level=" << SimdLevelName(level);
    }
  }
}

// --- DCT ---------------------------------------------------------------------

TEST(SimdParityTest, DctForwardAndInverse) {
  Rng rng(15);
  for (SimdLevel level : WiderLevels()) {
    for (int trial = 0; trial < 32; ++trial) {
      int16_t block[64];
      for (auto& v : block) {
        v = static_cast<int16_t>(rng.UniformInt(-255, 255));
      }
      float ref_coeffs[64], got_coeffs[64];
      {
        ScopedSimdLevelCap cap(SimdLevel::kScalar);
        ForwardDct8x8(block, ref_coeffs);
      }
      {
        ScopedSimdLevelCap cap(level);
        ForwardDct8x8(block, got_coeffs);
      }
      // Coefficients reach |8 * 255|; scale tolerance accordingly.
      const float tol = 2048.0f * 8.0f * std::numeric_limits<float>::epsilon();
      for (int i = 0; i < 64; ++i) {
        ASSERT_NEAR(ref_coeffs[i], got_coeffs[i], tol)
            << "forward, level=" << SimdLevelName(level) << " index " << i;
      }

      int16_t ref_out[64], got_out[64];
      {
        ScopedSimdLevelCap cap(SimdLevel::kScalar);
        InverseDct8x8(ref_coeffs, ref_out);
      }
      {
        ScopedSimdLevelCap cap(level);
        InverseDct8x8(ref_coeffs, got_out);
      }
      for (int i = 0; i < 64; ++i) {
        ASSERT_NEAR(ref_out[i], got_out[i], 1)
            << "inverse, level=" << SimdLevelName(level) << " index " << i;
      }
    }
  }
}

// --- Exact kernels -----------------------------------------------------------
// Kernels whose SIMD paths must reproduce the scalar reference byte for byte.

// The SJPG/SV264 block store: interior blocks take the SIMD row store,
// blocks clipped at the plane's right or bottom edge the scalar loop. Every
// block position on each plane, fresh samples each time. The IDCTs clamp
// samples to [-256, 255]; the store is also exact over all of int16.
TEST(SimdExactTest, BlockStoreMatchesScalar) {
  Rng rng(19);
  const int planes[][2] = {{16, 16}, {13, 11}, {20, 9}, {8, 8}, {4, 3}};
  for (int n : {8, 4}) {
    for (const auto& p : planes) {
      const int w = p[0];
      const int h = p[1];
      for (int by = 0; by < h; ++by) {
        for (int bx = 0; bx < w; ++bx) {
          const bool wide = rng.Bernoulli(0.25);
          std::vector<int16_t> samples(static_cast<size_t>(n) * n);
          for (int16_t& v : samples) {
            v = static_cast<int16_t>(wide ? rng.UniformInt(-32768, 32767)
                                          : rng.UniformInt(-256, 255));
          }
          samples[rng.UniformInt(0, n * n - 1)] = -256;
          samples[rng.UniformInt(0, n * n - 1)] = 255;
          std::vector<uint8_t> base(static_cast<size_t>(w) * h);
          for (uint8_t& v : base) {
            v = static_cast<uint8_t>(rng.UniformInt(0, 255));
          }
          std::vector<uint8_t> ref = base;
          {
            ScopedSimdLevelCap cap(SimdLevel::kScalar);
            StoreBlock(samples.data(), n, ref, w, h, bx, by);
          }
          for (SimdLevel level : WiderLevels()) {
            ScopedSimdLevelCap cap(level);
            std::vector<uint8_t> got = base;
            StoreBlock(samples.data(), n, got, w, h, bx, by);
            ASSERT_EQ(ref, got) << "n=" << n << " plane " << w << "x" << h
                                << " at (" << bx << ", " << by
                                << ") level=" << SimdLevelName(level);
          }
        }
      }
    }
  }
}

// The YCbCr -> RGB row kernel against YccToRgb for all 2^24 (y, cb, cr),
// extreme chroma with extreme luma included. 256 frames of 128x512: chroma
// sample (row k, column j) of frame c holds cr = k and cb = (c + j) mod 256,
// and the four luma pixels it covers hold 4j .. 4j + 3, so each triple lands
// on exactly one pixel and neighbouring chroma samples always differ. Only
// AVX2 has a row kernel; below it the sweep would check YccToRgb against
// itself.
TEST(SimdExactTest, YccToRgbEveryTriple) {
  if (DetectedSimdLevel() < SimdLevel::kAVX2) {
    GTEST_SKIP() << "no AVX2 row kernel on this host";
  }
  Ycbcr420 ycc;
  ycc.width = 128;
  ycc.height = 512;
  const int cw = ycc.chroma_width();
  ycc.y.resize(static_cast<size_t>(ycc.width) * ycc.height);
  ycc.cb.resize(static_cast<size_t>(cw) * ycc.chroma_height());
  ycc.cr.resize(ycc.cb.size());
  for (int y = 0; y < ycc.height; ++y) {
    for (int x = 0; x < ycc.width; ++x) {
      ycc.y[static_cast<size_t>(y) * ycc.width + x] =
          static_cast<uint8_t>(4 * (x / 2) + 2 * (y % 2) + x % 2);
    }
  }
  ScopedSimdLevelCap cap(SimdLevel::kAVX2);
  Image rgb;
  for (int c = 0; c < 256; ++c) {
    for (int k = 0; k < ycc.chroma_height(); ++k) {
      for (int j = 0; j < cw; ++j) {
        ycc.cb[static_cast<size_t>(k) * cw + j] =
            static_cast<uint8_t>((c + j) & 255);
        ycc.cr[static_cast<size_t>(k) * cw + j] = static_cast<uint8_t>(k);
      }
    }
    Ycbcr420ToRgbInto(ycc, &rgb);
    for (int y = 0; y < ycc.height; ++y) {
      for (int x = 0; x < ycc.width; ++x) {
        const size_t chroma = static_cast<size_t>(y / 2) * cw + x / 2;
        uint8_t want[3];
        YccToRgb(ycc.y[static_cast<size_t>(y) * ycc.width + x],
                 ycc.cb[chroma], ycc.cr[chroma], &want[0], &want[1],
                 &want[2]);
        const uint8_t* got = rgb.row(y) + x * 3;
        if (std::memcmp(want, got, 3) != 0) {
          FAIL() << "y " << int{ycc.y[static_cast<size_t>(y) * ycc.width + x]}
                 << " cb " << int{ycc.cb[chroma]} << " cr "
                 << int{ycc.cr[chroma]} << ": (" << int{got[0]} << ", "
                 << int{got[1]} << ", " << int{got[2]} << ") vs ("
                 << int{want[0]} << ", " << int{want[1]} << ", "
                 << int{want[2]} << ")";
        }
      }
    }
  }
}

// Each channel of a 3-channel resize is the 1-channel resize of that
// channel, byte for byte, at every level: the RGB pass rounds like the
// general one. Covers the rung-0 plan's 113 -> 85, random shapes both ways,
// and every output width from 1 to 18 (the last pixel's 3-byte store).
TEST(SimdExactTest, RgbResizeEqualsThreePlaneResizes) {
  Rng rng(20);
  std::vector<std::array<int, 4>> shapes = {{113, 113, 85, 85},
                                            {128, 128, 96, 96}};
  for (int out_w = 1; out_w <= 18; ++out_w) {
    shapes.push_back({static_cast<int>(rng.UniformInt(1, 40)),
                      static_cast<int>(rng.UniformInt(1, 9)), out_w,
                      static_cast<int>(rng.UniformInt(1, 9))});
  }
  for (int i = 0; i < 24; ++i) {
    shapes.push_back({static_cast<int>(rng.UniformInt(1, 130)),
                      static_cast<int>(rng.UniformInt(1, 40)),
                      static_cast<int>(rng.UniformInt(1, 130)),
                      static_cast<int>(rng.UniformInt(1, 40))});
  }
  std::vector<SimdLevel> levels = WiderLevels();
  levels.insert(levels.begin(), SimdLevel::kScalar);
  for (const auto& s : shapes) {
    const Image src = RandomImage(&rng, s[0], s[1], 3);
    Image planes[3];
    for (int ch = 0; ch < 3; ++ch) {
      planes[ch] = Image(s[0], s[1], 1);
      for (size_t i = 0; i < planes[ch].size_bytes(); ++i) {
        planes[ch].data()[i] = src.data()[i * 3 + ch];
      }
    }
    for (SimdLevel level : levels) {
      ScopedSimdLevelCap cap(level);
      const Image rgb = ResizeBilinear(src, s[2], s[3]);
      for (int ch = 0; ch < 3; ++ch) {
        const Image gray = ResizeBilinear(planes[ch], s[2], s[3]);
        ASSERT_EQ(gray.size_bytes() * 3, rgb.size_bytes());
        for (size_t i = 0; i < gray.size_bytes(); ++i) {
          ASSERT_EQ(rgb.data()[i * 3 + ch], gray.data()[i])
              << s[0] << "x" << s[1] << " -> " << s[2] << "x" << s[3]
              << " level=" << SimdLevelName(level) << " pixel " << i
              << " channel " << ch;
        }
      }
    }
  }
}

// --- Border regressions ------------------------------------------------------
// The vector paths over-read nothing: 1-px and non-multiple-of-8 extents run
// entirely through the tail code, and the clamped taps keep the right/bottom
// edge inside the source. Run (with ASan in the sanitizer config) over every
// awkward extent up to 2 vector widths.

TEST(SimdBorderTest, ResizeEveryTinyExtent) {
  Rng rng(16);
  for (int w = 1; w <= 18; ++w) {
    for (int h : {1, 2, 3, 9, 17}) {
      for (int c : {1, 3}) {
        const Image src = RandomImage(&rng, w, h, c);
        const Image up = ResizeBilinear(src, w * 2 + 1, h * 2 + 1);
        EXPECT_EQ(up.width(), w * 2 + 1);
        const Image down = ResizeBilinear(up, w, h);
        EXPECT_EQ(down.height(), h);
      }
    }
  }
}

TEST(SimdBorderTest, ColorRoundtripEveryTinyWidth) {
  Rng rng(17);
  for (int w = 1; w <= 34; ++w) {
    const Image src = RandomImage(&rng, w, 3, 3);
    const Ycbcr420 ycc = RgbToYcbcr420(src);
    const Image back = Ycbcr420ToRgb(ycc);
    ASSERT_EQ(back.width(), w);
    ASSERT_EQ(back.height(), 3);
  }
}

TEST(SimdBorderTest, FusedTailOddPixelCounts) {
  Rng rng(18);
  NormalizeParams params;
  for (int pixels = 1; pixels <= 33; ++pixels) {
    const Image src = RandomImage(&rng, pixels, 1, 3);
    FloatImage out;
    ASSERT_OK(FusedConvertNormalizeSplit(src, params, &out));
    ASSERT_EQ(out.data.size(), static_cast<size_t>(pixels) * 3);
  }
}

}  // namespace
}  // namespace smol
