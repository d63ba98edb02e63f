// Shared helpers for the test suites.
#ifndef SMOL_TESTS_TEST_UTIL_H_
#define SMOL_TESTS_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "src/codec/image.h"
#include "src/preproc/graph.h"
#include "src/util/macros.h"
#include "src/util/rng.h"

#define ASSERT_OK(expr)                                     \
  do {                                                      \
    const ::smol::Status _st = (expr);                      \
    ASSERT_TRUE(_st.ok()) << "status: " << _st.ToString();  \
  } while (false)

#define EXPECT_OK(expr)                                     \
  do {                                                      \
    const ::smol::Status _st = (expr);                      \
    EXPECT_TRUE(_st.ok()) << "status: " << _st.ToString();  \
  } while (false)

#define ASSERT_OK_AND_ASSIGN(lhs, expr)                              \
  ASSERT_OK_AND_ASSIGN_IMPL(SMOL_CONCAT(_test_res_, __LINE__), lhs,  \
                            expr)

#define ASSERT_OK_AND_ASSIGN_IMPL(tmp, lhs, expr)                       \
  auto tmp = (expr);                                                    \
  ASSERT_TRUE(tmp.ok()) << "status: " << tmp.status().ToString();       \
  lhs = std::move(tmp).MoveValue()

namespace smol::testing {

/// Smooth synthetic image: low-frequency gradients + a few rectangles.
/// Compresses like a natural photo (good for codec tests).
inline Image MakeTestImage(int w, int h, int channels, uint64_t seed = 42) {
  Image img(w, h, channels);
  Rng rng(seed);
  const double fx = rng.UniformDouble(0.005, 0.03);
  const double fy = rng.UniformDouble(0.005, 0.03);
  const int base = static_cast<int>(rng.Uniform(100)) + 60;
  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) {
      for (int c = 0; c < channels; ++c) {
        const double v = base + 60.0 * std::sin(fx * x * (c + 1)) +
                         50.0 * std::cos(fy * y * (c + 1));
        int iv = static_cast<int>(v);
        if (iv < 0) iv = 0;
        if (iv > 255) iv = 255;
        img.at(x, y, c) = static_cast<uint8_t>(iv);
      }
    }
  }
  // A few solid rectangles add hard edges.
  for (int r = 0; r < 4; ++r) {
    const int rx = static_cast<int>(rng.Uniform(static_cast<uint64_t>(w)));
    const int ry = static_cast<int>(rng.Uniform(static_cast<uint64_t>(h)));
    const int rw = 4 + static_cast<int>(rng.Uniform(16));
    const int rh = 4 + static_cast<int>(rng.Uniform(16));
    const uint8_t color = static_cast<uint8_t>(rng.Uniform(256));
    for (int y = ry; y < std::min(h, ry + rh); ++y) {
      for (int x = rx; x < std::min(w, rx + rw); ++x) {
        for (int c = 0; c < channels; ++c) img.at(x, y, c) = color;
      }
    }
  }
  return img;
}

/// Pure-noise image (worst case for compression).
inline Image MakeNoiseImage(int w, int h, int channels, uint64_t seed = 7) {
  Image img(w, h, channels);
  Rng rng(seed);
  for (size_t i = 0; i < img.size_bytes(); ++i) {
    img.data()[i] = static_cast<uint8_t>(rng.Uniform(256));
  }
  return img;
}

/// ExecutePlanInto split as the serving tensor cache splits it: the plan's
/// u8 prefix, a copy of its output into a fresh Image (the cached entry),
/// then another image through \p scratch so that the scratch no longer
/// holds this one's state, then the float suffix from the copy. Returns the
/// suffix's \p floats outputs.
inline Result<std::vector<float>> ExecutePlanSplit(const PreprocPlan& plan,
                                                   const PipelineSpec& spec,
                                                   const Image& decoded,
                                                   PreprocScratch& scratch,
                                                   size_t floats) {
  SMOL_ASSIGN_OR_RETURN(const Image* prefix,
                        ExecutePlanPrefix(plan, spec, decoded, scratch));
  const Image cached = *prefix;
  const Image other = MakeTestImage(decoded.width() + 2, decoded.height() + 2,
                                    decoded.channels(), 977);
  SMOL_ASSIGN_OR_RETURN(const size_t other_floats,
                        PlanOutputFloats(plan, spec, other.width(),
                                         other.height(), other.channels()));
  std::vector<float> other_out(other_floats);
  SMOL_RETURN_IF_ERROR(ExecutePlanInto(plan, spec, other, scratch,
                                       other_out.data(), other_floats)
                           .status());
  std::vector<float> out(floats, -1.0e30f);
  SMOL_ASSIGN_OR_RETURN(const size_t written,
                        ExecutePlanSuffix(plan, spec, cached, scratch,
                                          out.data(), out.size()));
  if (written != floats) return Status::Internal("suffix output count");
  return out;
}

}  // namespace smol::testing

#endif  // SMOL_TESTS_TEST_UTIL_H_
