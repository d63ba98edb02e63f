// Tests for SJPG multi-resolution (scaled) decoding — the §6.4 / Table 4
// "multi-resolution decoding" feature, implemented as libjpeg-style
// scale_denom decoding (partial inverse transforms on the top-left
// coefficient sub-grid).
#include <gtest/gtest.h>

#include <algorithm>

#include "src/codec/dct.h"
#include "src/codec/sjpg.h"
#include "src/dnn/trainer.h"
#include "src/util/stopwatch.h"
#include "tests/test_util.h"

namespace smol {
namespace {

using smol::testing::MakeTestImage;

TEST(ScaledDctTest, Denominator8GivesBlockMean) {
  // A flat block's scaled-to-1x1 reconstruction is its mean value.
  int16_t flat[64];
  for (auto& v : flat) v = 77;
  float coeffs[64];
  ForwardDct8x8(flat, coeffs);
  int16_t out1;
  InverseDctScaled(coeffs, 1, &out1);
  EXPECT_NEAR(out1, 77, 1);
}

TEST(ScaledDctTest, SmoothBlockDownsamplesAccurately) {
  // On low-frequency content the scaled inverse matches the 2x2 box
  // downsample of the full inverse closely (the truncated coefficients
  // carry almost no energy).
  int16_t block[64];
  for (int y = 0; y < 8; ++y) {
    for (int x = 0; x < 8; ++x) {
      block[y * 8 + x] = static_cast<int16_t>(10 * x + 5 * y - 40);
    }
  }
  float coeffs[64];
  ForwardDct8x8(block, coeffs);
  int16_t full[64];
  InverseDct8x8(coeffs, full);
  int16_t quarter[16];
  InverseDctScaled(coeffs, 4, quarter);
  for (int y = 0; y < 4; ++y) {
    for (int x = 0; x < 4; ++x) {
      const int mean = (full[(2 * y) * 8 + 2 * x] + full[(2 * y) * 8 + 2 * x + 1] +
                        full[(2 * y + 1) * 8 + 2 * x] +
                        full[(2 * y + 1) * 8 + 2 * x + 1]) /
                       4;
      EXPECT_NEAR(quarter[y * 4 + x], mean, 4) << y << "," << x;
    }
  }
}

TEST(ScaledDctTest, RandomBlocksBoundedInAggregate) {
  // On arbitrary content the scaled inverse is a low-pass approximation:
  // individual pixels may deviate, but the mean absolute deviation from the
  // box downsample stays bounded.
  Rng rng(3);
  double total_dev = 0.0;
  int count = 0;
  for (int trial = 0; trial < 20; ++trial) {
    int16_t block[64];
    for (auto& v : block) v = static_cast<int16_t>(rng.UniformInt(-100, 100));
    float coeffs[64];
    ForwardDct8x8(block, coeffs);
    int16_t full[64];
    InverseDct8x8(coeffs, full);
    int16_t quarter[16];
    InverseDctScaled(coeffs, 4, quarter);
    for (int y = 0; y < 4; ++y) {
      for (int x = 0; x < 4; ++x) {
        const int mean =
            (full[(2 * y) * 8 + 2 * x] + full[(2 * y) * 8 + 2 * x + 1] +
             full[(2 * y + 1) * 8 + 2 * x] +
             full[(2 * y + 1) * 8 + 2 * x + 1]) /
            4;
        total_dev += std::abs(quarter[y * 4 + x] - mean);
        ++count;
      }
    }
  }
  // Pure noise has sample std ~58; the low-pass approximation must track the
  // box mean far better than that.
  EXPECT_LT(total_dev / count, 20.0);
}

class ScaledDecodeTest : public ::testing::TestWithParam<int> {};

TEST_P(ScaledDecodeTest, OutputTracksDownsampledOriginal) {
  const int denom = GetParam();
  const Image img = MakeTestImage(128, 96, 3, 11);
  ASSERT_OK_AND_ASSIGN(auto bytes, SjpgEncode(img, {.quality = 90}));
  SjpgDecodeOptions opts;
  opts.scale_denom = denom;
  SjpgDecodeStats stats;
  ASSERT_OK_AND_ASSIGN(Image scaled, SjpgDecode(bytes, opts, &stats));
  EXPECT_EQ(scaled.width(), 128 / denom);
  EXPECT_EQ(scaled.height(), 96 / denom);
  // The scaled decode approximates a downsample of the original.
  const Image reference = ResizeBilinear(img, 128 / denom, 96 / denom);
  ASSERT_OK_AND_ASSIGN(double psnr, Psnr(scaled, reference));
  EXPECT_GT(psnr, denom == 8 ? 17.0 : 20.0) << "denom " << denom;
}

INSTANTIATE_TEST_SUITE_P(Denoms, ScaledDecodeTest, ::testing::Values(2, 4, 8));

TEST(ScaledDecodeTest, ScaleOneMatchesPlainDecode) {
  const Image img = MakeTestImage(64, 64, 3, 12);
  ASSERT_OK_AND_ASSIGN(auto bytes, SjpgEncode(img));
  ASSERT_OK_AND_ASSIGN(Image plain, SjpgDecode(bytes));
  SjpgDecodeOptions opts;
  opts.scale_denom = 1;
  ASSERT_OK_AND_ASSIGN(Image scaled, SjpgDecode(bytes, opts));
  EXPECT_EQ(plain, scaled);
}

TEST(ScaledDecodeTest, GrayscaleSupported) {
  const Image img = MakeTestImage(64, 48, 1, 13);
  ASSERT_OK_AND_ASSIGN(auto bytes, SjpgEncode(img, {.quality = 90}));
  SjpgDecodeOptions opts;
  opts.scale_denom = 4;
  ASSERT_OK_AND_ASSIGN(Image scaled, SjpgDecode(bytes, opts));
  EXPECT_EQ(scaled.width(), 16);
  EXPECT_EQ(scaled.height(), 12);
  EXPECT_EQ(scaled.channels(), 1);
}

TEST(ScaledDecodeTest, InvalidCombinationsRejected) {
  const Image img = MakeTestImage(64, 64, 3, 14);
  ASSERT_OK_AND_ASSIGN(auto bytes, SjpgEncode(img));
  SjpgDecodeOptions opts;
  opts.scale_denom = 3;
  EXPECT_FALSE(SjpgDecode(bytes, opts).ok());
  opts.scale_denom = 2;
  opts.roi = Roi{0, 0, 16, 16};
  EXPECT_FALSE(SjpgDecode(bytes, opts).ok());
}

TEST(ScaledDecodeTest, ScaledDecodeIsFasterThanFull) {
  const Image img = MakeTestImage(256, 256, 3, 15);
  ASSERT_OK_AND_ASSIGN(auto bytes, SjpgEncode(img, {.quality = 85}));
  // Min-of-3 so a scheduler preemption mid-pass (ctest runs suites in
  // parallel on one core) cannot flip the comparison.
  auto time_decode = [&](int denom) {
    SjpgDecodeOptions opts;
    opts.scale_denom = denom;
    double best = 1e18;
    for (int rep = 0; rep < 3; ++rep) {
      Stopwatch sw;
      for (int i = 0; i < 20; ++i) {
        auto out = SjpgDecode(bytes, opts);
        EXPECT_TRUE(out.ok());
      }
      best = std::min(best, sw.ElapsedMicros());
    }
    return best;
  };
  const double full_us = time_decode(1);
  const double half_us = time_decode(2);
  const double eighth_us = time_decode(8);
  // Entropy decoding is shared; the transform + colorspace work shrinks by
  // ~64x at 1/8, so the total must drop clearly.
  EXPECT_LT(eighth_us, full_us * 0.8)
      << "full " << full_us << "us vs 1/8 " << eighth_us << "us";
  // The 1/2 path (n = 4) must not cost meaningfully more than full decode —
  // it is the adaptive ladder's workhorse rung, and a naive per-coefficient
  // inverse once made it ~10x slower than the SIMD full IDCT. The 1.1x
  // headroom absorbs residual timer noise without masking that pathology.
  EXPECT_LT(half_us, full_us * 1.1)
      << "full " << full_us << "us vs 1/2 " << half_us << "us";
}

}  // namespace
}  // namespace smol
