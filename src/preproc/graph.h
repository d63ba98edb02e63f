// Preprocessing DAG optimizer (§6.2).
//
// The preprocessing recipe is a linear chain of operators over one image, so
// the "DAG" is a sequence; the interesting structure is in the *rewrites*:
//
//   Reordering rules (legal transformations):
//     R1. Normalize and data-type conversion may be placed at any point after
//         decode (they commute with resize/crop up to float rounding).
//     R2. Normalize + convert + channel split can be fused into one kernel.
//     R3. Resize and crop may be swapped (cropping first shrinks the resize).
//
//   Pruning rules (§6.2's cost heuristics):
//     P1. Resizing is cheaper with fewer pixels.
//     P2. Resizing is cheaper on smaller data types (u8 before f32).
//     P3. Fusion always improves performance.
//
// The optimizer exhaustively enumerates orderings, applies the pruning rules,
// then scores remaining plans by counting arithmetic operations per data type
// and picks the cheapest. Plans remain executable unoptimized, so tests can
// assert the optimized plan computes the same result.
#ifndef SMOL_PREPROC_GRAPH_H_
#define SMOL_PREPROC_GRAPH_H_

#include <string>
#include <vector>

#include "src/preproc/ops.h"
#include "src/util/result.h"

namespace smol {

/// \brief One step of a preprocessing plan.
struct PlanStep {
  OpKind kind;
  /// Resize target (short side) for kResize; crop size for kCrop.
  int arg0 = 0;
  int arg1 = 0;

  bool operator==(const PlanStep& other) const {
    return kind == other.kind && arg0 == other.arg0 && arg1 == other.arg1;
  }
};

/// \brief A fully ordered preprocessing plan.
struct PreprocPlan {
  std::vector<PlanStep> steps;
  /// Estimated arithmetic cost (abstract units; lower is better).
  double estimated_cost = 0.0;

  std::string ToString() const;
};

/// \brief The pipeline specification the optimizer works from.
struct PipelineSpec {
  int input_width = 0;    ///< decoded image width
  int input_height = 0;   ///< decoded image height
  int channels = 3;
  int resize_short_side = 256;  ///< §2 step 2: aspect resize short side
  int crop_width = 224;
  int crop_height = 224;
  NormalizeParams normalize;
  bool allow_fusion = true;  ///< lesion toggle for the DAG optimization
};

/// \brief Rule- and cost-based optimizer over preprocessing plans.
class PreprocOptimizer {
 public:
  /// Enumerates all legal plans for \p spec (before pruning).
  static std::vector<PreprocPlan> EnumeratePlans(const PipelineSpec& spec);

  /// Applies the §6.2 pruning rules; the survivors are cost-scored.
  static std::vector<PreprocPlan> PrunePlans(const PipelineSpec& spec,
                                             std::vector<PreprocPlan> plans);

  /// Counts arithmetic operations of a plan given the spec's geometry.
  static double EstimateCost(const PipelineSpec& spec, const PreprocPlan& plan);

  /// Full optimization: enumerate, prune, score, pick the cheapest.
  static Result<PreprocPlan> Optimize(const PipelineSpec& spec);

  /// The naive reference plan (§2 order: resize, crop, convert, normalize,
  /// split; no fusion) — the baseline the lesion studies compare against.
  static PreprocPlan ReferencePlan(const PipelineSpec& spec);
};

/// Executes \p plan on a decoded image, producing the f32 CHW DNN input.
/// Works for any legal plan ordering (optimized or reference).
Result<FloatImage> ExecutePlan(const PreprocPlan& plan,
                               const PipelineSpec& spec, const Image& decoded);

/// \brief Reusable intermediates for ExecutePlanInto.
///
/// One instance per producer thread: the ping-pong slots keep their
/// allocations across calls, so the steady-state preprocessing path performs
/// no per-sample heap allocation for u8 intermediates.
struct PreprocScratch {
  Image u8_a, u8_b;
  FloatImage f32_a, f32_b;
};

/// Output element count of \p plan for a decoded image of the given shape
/// (pure geometry walk; matches what ExecutePlan/ExecutePlanInto produce).
/// Callers use it to size the pooled staging buffer before executing.
Result<size_t> PlanOutputFloats(const PreprocPlan& plan,
                                const PipelineSpec& spec, int width,
                                int height, int channels);

/// Zero-copy ExecutePlan (§6.1): runs \p plan on \p decoded writing the final
/// f32 CHW tensor directly into \p dst (capacity \p dst_floats) — the plan's
/// terminal fused-tail / channel-split op IS the write into the destination,
/// so no separate staging copy of the output tensor ever exists. A trailing
/// u8 center-crop followed by the fused tail is additionally collapsed into
/// one crop-windowed tail pass (the cropped image is never materialized).
/// Numerically identical to ExecutePlan. Returns the float count written.
///
/// It is ExecutePlanPrefix followed by ExecutePlanSuffix. The split falls
/// where the plan leaves u8: at its first step that writes floats, or at the
/// crop that feeds a terminal fused tail, which stays one windowed pass.
Result<size_t> ExecutePlanInto(const PreprocPlan& plan,
                               const PipelineSpec& spec, const Image& decoded,
                               PreprocScratch& scratch, float* dst,
                               size_t dst_floats);

/// The u8 prefix of ExecutePlanInto: the steps that read and write u8
/// (decode, crop, resize) before the plan's float suffix. Returns their
/// output: \p decoded itself when every prefix step is a no-op, otherwise a
/// u8 slot of \p scratch, valid until \p scratch is used again.
Result<const Image*> ExecutePlanPrefix(const PreprocPlan& plan,
                                       const PipelineSpec& spec,
                                       const Image& decoded,
                                       PreprocScratch& scratch);

/// The float suffix of ExecutePlanInto: runs the rest of \p plan on
/// \p prefix, an ExecutePlanPrefix output or a copy of one, and writes the
/// f32 CHW tensor into \p dst. It writes only the float slots of \p scratch,
/// so \p prefix may live in a u8 slot of the same scratch. Returns the float
/// count written.
Result<size_t> ExecutePlanSuffix(const PreprocPlan& plan,
                                 const PipelineSpec& spec, const Image& prefix,
                                 PreprocScratch& scratch, float* dst,
                                 size_t dst_floats);

}  // namespace smol

#endif  // SMOL_PREPROC_GRAPH_H_
