// Tests for src/preproc: operators, fused kernels, the DAG optimizer
// (legality + cost ordering + result equivalence), and placement.
#include <gtest/gtest.h>

#include <climits>
#include <cmath>
#include <cstring>
#include <utility>
#include <vector>

#include "src/preproc/fused.h"
#include "src/preproc/graph.h"
#include "src/preproc/ops.h"
#include "src/preproc/placement.h"
#include "tests/test_util.h"

namespace smol {
namespace {

using smol::testing::ExecutePlanSplit;
using smol::testing::MakeTestImage;

// --- Operators ------------------------------------------------------------------

TEST(OpsTest, ResizeShortSidePreservesAspect) {
  const Image img = MakeTestImage(100, 50, 3);
  ASSERT_OK_AND_ASSIGN(Image out, ResizeShortSide(img, 25));
  EXPECT_EQ(out.height(), 25);
  EXPECT_EQ(out.width(), 50);
  const Image tall = MakeTestImage(40, 80, 3);
  ASSERT_OK_AND_ASSIGN(Image out2, ResizeShortSide(tall, 20));
  EXPECT_EQ(out2.width(), 20);
  EXPECT_EQ(out2.height(), 40);
}

// Edge-tap regression: 1-px-wide/tall sources and non-multiple-of-8 extents
// must resize without reading outside the image (the sanitizer config runs
// this suite under ASan).
TEST(OpsTest, ResizeHandlesDegenerateAndOddSizes) {
  for (const auto& shape : {std::pair<int, int>{1, 9},
                            std::pair<int, int>{9, 1},
                            std::pair<int, int>{1, 1},
                            std::pair<int, int>{13, 7},
                            std::pair<int, int>{17, 23}}) {
    const Image img = MakeTestImage(shape.first, shape.second, 3);
    ASSERT_OK_AND_ASSIGN(Image up, ResizeExact(img, 15, 11));
    EXPECT_EQ(up.width(), 15);
    EXPECT_EQ(up.height(), 11);
    ASSERT_OK_AND_ASSIGN(Image one, ResizeExact(img, 1, 1));
    EXPECT_EQ(one.width(), 1);
    // The 1x1 result is a blend of in-bounds pixels only, so it is a valid
    // u8 value by construction; just make sure the op produced data.
    EXPECT_EQ(one.size_bytes(), 3u);
  }
  // f32 path, odd sizes both directions.
  FloatImage f;
  f.width = 13;
  f.height = 1;
  f.channels = 3;
  f.chw = false;
  f.data.assign(13 * 3, 1.0f);
  ASSERT_OK_AND_ASSIGN(FloatImage fup, ResizeF32(f, 30, 5));
  EXPECT_EQ(fup.width, 30);
  for (float v : fup.data) EXPECT_FLOAT_EQ(v, 1.0f);
}

TEST(OpsTest, CenterCropIsCentered) {
  Image img(8, 8, 1);
  img.at(3, 3, 0) = 200;  // center-ish marker
  ASSERT_OK_AND_ASSIGN(Image out, CenterCrop(img, 4, 4));
  EXPECT_EQ(out.width(), 4);
  EXPECT_EQ(out.at(1, 1, 0), 200);
  EXPECT_FALSE(CenterCrop(img, 20, 20).ok());
}

TEST(OpsTest, ConvertScalesTo01) {
  Image img(2, 1, 1);
  img.at(0, 0, 0) = 0;
  img.at(1, 0, 0) = 255;
  ASSERT_OK_AND_ASSIGN(FloatImage f, ConvertToFloat(img));
  EXPECT_FLOAT_EQ(f.data[0], 0.0f);
  EXPECT_FLOAT_EQ(f.data[1], 1.0f);
  EXPECT_FALSE(f.chw);
}

TEST(OpsTest, NormalizeHwcAndChwAgree) {
  const Image img = MakeTestImage(16, 12, 3);
  NormalizeParams params;
  // Path 1: convert -> normalize -> split.
  ASSERT_OK_AND_ASSIGN(FloatImage hwc, ConvertToFloat(img));
  ASSERT_OK(Normalize(&hwc, params));
  ASSERT_OK_AND_ASSIGN(FloatImage path1, ChannelSplit(hwc));
  // Path 2: convert -> split -> normalize.
  ASSERT_OK_AND_ASSIGN(FloatImage tmp, ConvertToFloat(img));
  ASSERT_OK_AND_ASSIGN(FloatImage chw, ChannelSplit(tmp));
  ASSERT_OK(Normalize(&chw, params));
  ASSERT_EQ(path1.data.size(), chw.data.size());
  for (size_t i = 0; i < path1.data.size(); ++i) {
    EXPECT_NEAR(path1.data[i], chw.data[i], 1e-6f);
  }
}

TEST(OpsTest, ChannelSplitTransposesLayout) {
  Image img(2, 1, 3);
  for (int c = 0; c < 3; ++c) {
    img.at(0, 0, c) = static_cast<uint8_t>(10 * (c + 1));
    img.at(1, 0, c) = static_cast<uint8_t>(10 * (c + 1) + 5);
  }
  ASSERT_OK_AND_ASSIGN(FloatImage f, ConvertToFloat(img));
  ASSERT_OK_AND_ASSIGN(FloatImage chw, ChannelSplit(f));
  EXPECT_TRUE(chw.chw);
  // Plane 0 = channel 0 of both pixels.
  EXPECT_NEAR(chw.data[0] * 255.0f, 10.0f, 0.01f);
  EXPECT_NEAR(chw.data[1] * 255.0f, 15.0f, 0.01f);
  EXPECT_NEAR(chw.data[2] * 255.0f, 20.0f, 0.01f);
}

// An ROI whose end overflows int is rejected, not wrapped past the check.
TEST(OpsTest, CropF32RejectsRoiWhoseEndOverflows) {
  ASSERT_OK_AND_ASSIGN(FloatImage f, ConvertToFloat(MakeTestImage(32, 32, 3)));
  EXPECT_EQ(CropF32(f, Roi{INT_MAX - 7, 0, 16, 16}).status().code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(CropF32(f, Roi{0, INT_MAX - 7, 16, 16}).status().code(),
            StatusCode::kOutOfRange);
}

// --- Fused kernel ------------------------------------------------------------------

TEST(FusedTest, MatchesUnfusedPipelineExactly) {
  const Image img = MakeTestImage(32, 24, 3);
  NormalizeParams params;
  // Unfused reference.
  ASSERT_OK_AND_ASSIGN(FloatImage f, ConvertToFloat(img));
  ASSERT_OK(Normalize(&f, params));
  ASSERT_OK_AND_ASSIGN(FloatImage reference, ChannelSplit(f));
  // Fused.
  FloatImage fused;
  ASSERT_OK(FusedConvertNormalizeSplit(img, params, &fused));
  ASSERT_EQ(fused.data.size(), reference.data.size());
  EXPECT_TRUE(fused.chw);
  for (size_t i = 0; i < fused.data.size(); ++i) {
    EXPECT_NEAR(fused.data[i], reference.data[i], 2e-6f) << i;
  }
}

TEST(FusedTest, IntoVariantWritesCallerBuffer) {
  const Image img = MakeTestImage(8, 8, 3);
  NormalizeParams params;
  std::vector<float> buffer(8 * 8 * 3);
  ASSERT_OK(FusedConvertNormalizeSplitInto(img, params, buffer.data(),
                                           buffer.size()));
  // Too-small buffer is rejected.
  EXPECT_FALSE(
      FusedConvertNormalizeSplitInto(img, params, buffer.data(), 10).ok());
}

TEST(FusedTest, RoiIntoRejectsRoiWhoseEndOverflows) {
  const Image img = MakeTestImage(32, 32, 3);
  NormalizeParams params;
  std::vector<float> buffer(16 * 16 * 3);
  for (const Roi& roi :
       {Roi{INT_MAX - 7, 0, 16, 16}, Roi{0, INT_MAX - 7, 16, 16}}) {
    EXPECT_EQ(FusedConvertNormalizeSplitRoiInto(img, roi, params,
                                                buffer.data(), buffer.size())
                  .code(),
              StatusCode::kOutOfRange);
  }
}

// --- DAG optimizer --------------------------------------------------------------------

PipelineSpec TestSpec(int in_w = 96, int in_h = 96) {
  PipelineSpec spec;
  spec.input_width = in_w;
  spec.input_height = in_h;
  spec.resize_short_side = 72;
  spec.crop_width = 64;
  spec.crop_height = 64;
  return spec;
}

TEST(GraphTest, EnumerationProducesMultiplePlans) {
  const auto plans = PreprocOptimizer::EnumeratePlans(TestSpec());
  EXPECT_GT(plans.size(), 4u);
  // Every plan starts with decode.
  for (const auto& plan : plans) {
    ASSERT_FALSE(plan.steps.empty());
    EXPECT_EQ(plan.steps[0].kind, OpKind::kDecode);
  }
}

TEST(GraphTest, PruningDropsFloatResizeAndUnfusedPlans) {
  auto spec = TestSpec();
  auto plans = PreprocOptimizer::EnumeratePlans(spec);
  auto kept = PreprocOptimizer::PrunePlans(spec, plans);
  ASSERT_FALSE(kept.empty());
  EXPECT_LT(kept.size(), plans.size());
  for (const auto& plan : kept) {
    bool convert_seen = false;
    bool fused = false;
    for (const auto& step : plan.steps) {
      if (step.kind == OpKind::kConvertFloat) convert_seen = true;
      if (step.kind == OpKind::kFusedTail) fused = true;
      // P2: no resize after conversion to float.
      if (step.kind == OpKind::kResize) {
        EXPECT_FALSE(convert_seen);
      }
    }
    // P3: with fusion allowed, survivors are fused.
    EXPECT_TRUE(fused);
  }
}

TEST(GraphTest, OptimizedPlanIsCheaperThanReference) {
  const auto spec = TestSpec();
  ASSERT_OK_AND_ASSIGN(PreprocPlan best, PreprocOptimizer::Optimize(spec));
  const PreprocPlan reference = PreprocOptimizer::ReferencePlan(spec);
  EXPECT_LT(best.estimated_cost, reference.estimated_cost);
}

TEST(GraphTest, FusionDisabledStillOptimizes) {
  auto spec = TestSpec();
  spec.allow_fusion = false;
  ASSERT_OK_AND_ASSIGN(PreprocPlan best, PreprocOptimizer::Optimize(spec));
  for (const auto& step : best.steps) {
    EXPECT_NE(step.kind, OpKind::kFusedTail);
  }
}

// The load-bearing legality property: every enumerated plan computes (nearly)
// the same result as the reference §2 ordering on real images.
class GraphEquivalenceTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(GraphEquivalenceTest, AllPlansAgreeWithReference) {
  const auto spec = TestSpec();
  const Image img = MakeTestImage(spec.input_width, spec.input_height, 3,
                                  GetParam());
  const PreprocPlan reference = PreprocOptimizer::ReferencePlan(spec);
  ASSERT_OK_AND_ASSIGN(FloatImage ref_out, ExecutePlan(reference, spec, img));
  const auto plans = PreprocOptimizer::EnumeratePlans(spec);
  for (const auto& plan : plans) {
    // Skip crop-before-resize orderings: they are throughput-equivalent but
    // not bit-identical (resampling grid differs); check shape only.
    const bool crop_first = plan.steps.size() > 1 &&
                            (plan.steps[1].kind == OpKind::kCrop ||
                             (plan.steps[1].kind == OpKind::kConvertFloat &&
                              plan.steps[3].kind == OpKind::kCrop));
    ASSERT_OK_AND_ASSIGN(FloatImage out, ExecutePlan(plan, spec, img));
    EXPECT_TRUE(out.chw);
    EXPECT_EQ(out.width, spec.crop_width) << plan.ToString();
    EXPECT_EQ(out.height, spec.crop_height) << plan.ToString();
    if (crop_first) continue;
    ASSERT_EQ(out.data.size(), ref_out.data.size()) << plan.ToString();
    double max_diff = 0.0;
    for (size_t i = 0; i < out.data.size(); ++i) {
      max_diff = std::max(
          max_diff,
          static_cast<double>(std::abs(out.data[i] - ref_out.data[i])));
    }
    // Reordered normalize/convert commute up to the u8 quantization of the
    // resize intermediate: a u8 resize rounds to integers, a float resize
    // does not, bounding the difference by (0.5/255)/min(std) ~ 0.0098.
    EXPECT_LT(max_diff, 0.01) << plan.ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GraphEquivalenceTest,
                         ::testing::Values(1, 2, 3, 4, 5));

// The zero-copy executor is the serving hot path: for every enumerated plan
// it must write bit-identical output to ExecutePlan, and PlanOutputFloats
// must predict the exact element count (the runtime sizes pooled staging
// buffers from it before executing). Scratch is reused across plans on
// purpose — stale intermediate shapes must not leak between runs. The split
// path the tensor cache takes (prefix, cached copy, suffix) must write the
// same bytes.
TEST(GraphTest, ExecutePlanIntoMatchesExecutePlanExactly) {
  const auto spec = TestSpec();
  PreprocScratch scratch;
  for (uint64_t seed : {1, 2, 3}) {
    const Image img =
        MakeTestImage(spec.input_width, spec.input_height, 3, seed);
    for (const auto& plan : PreprocOptimizer::EnumeratePlans(spec)) {
      ASSERT_OK_AND_ASSIGN(FloatImage ref, ExecutePlan(plan, spec, img));
      ASSERT_OK_AND_ASSIGN(
          size_t predicted,
          PlanOutputFloats(plan, spec, img.width(), img.height(),
                           img.channels()));
      ASSERT_EQ(predicted, ref.data.size()) << plan.ToString();
      std::vector<float> dst(predicted, -1.0e30f);
      ASSERT_OK_AND_ASSIGN(
          size_t written,
          ExecutePlanInto(plan, spec, img, scratch, dst.data(), dst.size()));
      ASSERT_EQ(written, predicted) << plan.ToString();
      ASSERT_EQ(0, std::memcmp(dst.data(), ref.data.data(),
                               predicted * sizeof(float)))
          << plan.ToString();
      ASSERT_OK_AND_ASSIGN(std::vector<float> split,
                           ExecutePlanSplit(plan, spec, img, scratch,
                                            predicted));
      ASSERT_EQ(0, std::memcmp(split.data(), ref.data.data(),
                               predicted * sizeof(float)))
          << plan.ToString();
    }
  }
}

// Non-square inputs exercise the short-side scaling and the crop-fused tail's
// row-strided path (ROI narrower than the resized image). At 72x96 the
// resize to a short side of 72 is a no-op, so a resize-first plan whose
// prefix ends there hands back the decoded image itself.
TEST(GraphTest, ExecutePlanIntoMatchesOnNonSquareInputs) {
  PreprocScratch scratch;
  for (auto dims :
       {std::pair<int, int>{128, 96}, {96, 128}, {131, 97}, {72, 96}}) {
    const auto spec = TestSpec(dims.first, dims.second);
    const Image img = MakeTestImage(dims.first, dims.second, 3, 9);
    int borrowed_past_resize = 0;
    for (const auto& plan : PreprocOptimizer::EnumeratePlans(spec)) {
      ASSERT_OK_AND_ASSIGN(FloatImage ref, ExecutePlan(plan, spec, img));
      std::vector<float> dst(ref.data.size());
      ASSERT_OK_AND_ASSIGN(
          size_t written,
          ExecutePlanInto(plan, spec, img, scratch, dst.data(), dst.size()));
      ASSERT_EQ(written, ref.data.size()) << plan.ToString();
      ASSERT_EQ(0, std::memcmp(dst.data(), ref.data.data(),
                               written * sizeof(float)))
          << plan.ToString();
      ASSERT_OK_AND_ASSIGN(const Image* prefix,
                           ExecutePlanPrefix(plan, spec, img, scratch));
      if (plan.steps[1].kind == OpKind::kResize && prefix == &img) {
        ++borrowed_past_resize;
      }
      ASSERT_OK_AND_ASSIGN(std::vector<float> split,
                           ExecutePlanSplit(plan, spec, img, scratch,
                                            written));
      ASSERT_EQ(0, std::memcmp(split.data(), ref.data.data(),
                               written * sizeof(float)))
          << plan.ToString();
    }
    EXPECT_EQ(borrowed_past_resize > 0, dims.first == 72)
        << dims.first << "x" << dims.second;
  }
}

TEST(GraphTest, ExecutePlanIntoRejectsSmallDestination) {
  const auto spec = TestSpec();
  const Image img = MakeTestImage(spec.input_width, spec.input_height, 3);
  PreprocScratch scratch;
  for (const auto& plan : PreprocOptimizer::EnumeratePlans(spec)) {
    ASSERT_OK_AND_ASSIGN(
        size_t floats,
        PlanOutputFloats(plan, spec, img.width(), img.height(),
                         img.channels()));
    std::vector<float> dst(floats - 1);
    auto result =
        ExecutePlanInto(plan, spec, img, scratch, dst.data(), dst.size());
    EXPECT_FALSE(result.ok()) << plan.ToString();
  }
}

TEST(GraphTest, CostAccountsForDataTypes) {
  // A plan that converts to float before cropping must cost more than one
  // that crops first (same work on more/wider elements).
  auto spec = TestSpec();
  spec.allow_fusion = false;
  const auto plans = PreprocOptimizer::EnumeratePlans(spec);
  double early_convert_cost = -1, late_convert_cost = -1;
  for (const auto& plan : plans) {
    if (plan.steps.size() < 3) continue;
    if (plan.steps[1].kind == OpKind::kConvertFloat &&
        plan.steps[3].kind == OpKind::kResize) {
      early_convert_cost = PreprocOptimizer::EstimateCost(spec, plan);
    }
    if (plan.steps[1].kind == OpKind::kResize &&
        plan.steps[3].kind == OpKind::kConvertFloat) {
      late_convert_cost = PreprocOptimizer::EstimateCost(spec, plan);
    }
  }
  ASSERT_GT(early_convert_cost, 0);
  ASSERT_GT(late_convert_cost, 0);
  EXPECT_GT(early_convert_cost, late_convert_cost);
}

// A non-square crop: the crop-first ordering resizes to exactly 224x160
// (35,840 px), the resize-first one by short side to 256x256 (65,536 px).
PipelineSpec NonSquareCropSpec() {
  PipelineSpec spec;
  spec.input_width = 320;
  spec.input_height = 320;
  spec.resize_short_side = 256;
  spec.crop_width = 224;
  spec.crop_height = 160;
  return spec;
}

TEST(GraphTest, NonSquareCropOptimizesToCropFirst) {
  ASSERT_OK_AND_ASSIGN(PreprocPlan best,
                       PreprocOptimizer::Optimize(NonSquareCropSpec()));
  const std::vector<PlanStep> crop_first = {{OpKind::kDecode, 0, 0},
                                            {OpKind::kCrop, -1, -1},
                                            {OpKind::kResize, 224, 160},
                                            {OpKind::kFusedTail, 0, 0}};
  EXPECT_EQ(best.steps, crop_first) << best.ToString();
}

// For every enumerated plan, the cost estimate charges the resize at the
// geometry ExecutePlan resizes to: the estimate of the plan through its
// resize, less the estimate before it, is 8 ops per output element.
TEST(GraphTest, CostChargesResizeAtExecutedGeometry) {
  const auto spec = NonSquareCropSpec();
  const Image img = MakeTestImage(spec.input_width, spec.input_height, 3);
  for (const auto& plan : PreprocOptimizer::EnumeratePlans(spec)) {
    size_t r = 0;
    bool in_float = false;
    for (; r < plan.steps.size() && plan.steps[r].kind != OpKind::kResize;
         ++r) {
      in_float = in_float || plan.steps[r].kind == OpKind::kConvertFloat;
    }
    ASSERT_LT(r, plan.steps.size()) << plan.ToString();
    PreprocPlan before;
    before.steps.assign(plan.steps.begin(), plan.steps.begin() + r);
    PreprocPlan through;
    through.steps.assign(plan.steps.begin(), plan.steps.begin() + r + 1);
    // ExecutePlan returns floats, so a u8 prefix gets a conversion appended.
    PreprocPlan executed = through;
    if (!in_float) executed.steps.push_back({OpKind::kConvertFloat, 0, 0});
    ASSERT_OK_AND_ASSIGN(FloatImage out, ExecutePlan(executed, spec, img));
    const double resize_cost = PreprocOptimizer::EstimateCost(spec, through) -
                               PreprocOptimizer::EstimateCost(spec, before);
    EXPECT_DOUBLE_EQ(resize_cost, 8.0 * out.width * out.height *
                                      spec.channels * (in_float ? 4.0 : 1.0))
        << plan.ToString();
  }
}

TEST(GraphTest, BadSpecRejected) {
  PipelineSpec bad;
  EXPECT_FALSE(PreprocOptimizer::Optimize(bad).ok());
}

// --- Placement ---------------------------------------------------------------------

TEST(PlacementTest, PreprocBoundMovesOpsToAccelerator) {
  PlacementOptimizer::Inputs inputs;
  inputs.format = PreprocFormat::kFullResJpeg;
  inputs.vcpus = 4;
  inputs.dnn_throughput = 12592.0;  // fast specialized NN: preproc-bound
  ASSERT_OK_AND_ASSIGN(Placement p, PlacementOptimizer::Choose(inputs));
  EXPECT_GT(p.stages_on_accelerator, 0);
}

TEST(PlacementTest, DnnBoundKeepsOpsOnCpu) {
  PlacementOptimizer::Inputs inputs;
  inputs.format = PreprocFormat::kThumbnailJpeg;  // cheap preprocessing
  inputs.vcpus = 32;
  inputs.dnn_throughput = 400.0;  // Mask R-CNN-class target: DNN-bound
  ASSERT_OK_AND_ASSIGN(Placement p, PlacementOptimizer::Choose(inputs));
  EXPECT_EQ(p.stages_on_accelerator, 0);
}

TEST(PlacementTest, EnumerationIsSortedAndSmall) {
  PlacementOptimizer::Inputs inputs;
  auto placements = PlacementOptimizer::EnumeratePlacements(inputs);
  // §6.3: "typically under 5" configurations.
  EXPECT_LE(placements.size(), 5u);
  for (size_t i = 1; i < placements.size(); ++i) {
    EXPECT_GE(placements[i - 1].end_to_end_throughput,
              placements[i].end_to_end_throughput);
  }
}

TEST(PlacementTest, ChoiceNeverWorseThanAllCpu) {
  for (double dnn_tput : {300.0, 2000.0, 4513.0, 12592.0, 100000.0}) {
    PlacementOptimizer::Inputs inputs;
    inputs.dnn_throughput = dnn_tput;
    auto placements = PlacementOptimizer::EnumeratePlacements(inputs);
    const Placement* all_cpu = nullptr;
    for (const auto& p : placements) {
      if (p.stages_on_accelerator == 0) all_cpu = &p;
    }
    ASSERT_NE(all_cpu, nullptr);
    ASSERT_OK_AND_ASSIGN(Placement best, PlacementOptimizer::Choose(inputs));
    EXPECT_GE(best.end_to_end_throughput,
              all_cpu->end_to_end_throughput - 1e-9);
  }
}

}  // namespace
}  // namespace smol
