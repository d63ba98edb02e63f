#include "src/preproc/graph.h"

#include <algorithm>
#include <cmath>

#include "src/preproc/fused.h"
#include "src/preproc/resize.h"
#include "src/util/macros.h"

namespace smol {

std::string PreprocPlan::ToString() const {
  std::string out;
  for (size_t i = 0; i < steps.size(); ++i) {
    if (i > 0) out += " -> ";
    out += OpKindName(steps[i].kind);
  }
  return out;
}

namespace {

// Geometry tracking while walking a plan: pixel count before/after each step.
struct Geometry {
  int width;
  int height;
};

// The geometry a step leaves behind, as ExecutePlan computes it: a resize
// with arg1 > 0 goes to exactly arg0 x arg1, otherwise its short side goes
// to arg0; a crop clamps to the image, and arg0 == -1 (crop-before-resize)
// takes the spec's crop share of the current short side.
Geometry StepGeometry(const PipelineSpec& spec, const PlanStep& step,
                      Geometry g) {
  switch (step.kind) {
    case OpKind::kResize: {
      if (step.arg1 > 0) return {step.arg0, step.arg1};
      const double scale = static_cast<double>(step.arg0) /
                           std::max(1, std::min(g.width, g.height));
      return {std::max(1, static_cast<int>(std::lround(g.width * scale))),
              std::max(1, static_cast<int>(std::lround(g.height * scale)))};
    }
    case OpKind::kCrop: {
      int cw = step.arg0;
      int ch = step.arg1;
      if (cw == -1) {
        const double short_side = std::min(g.width, g.height);
        const auto share = [&](int crop) {
          return std::max(1, static_cast<int>(std::lround(
                                 short_side * crop / spec.resize_short_side)));
        };
        cw = share(spec.crop_width);
        ch = share(spec.crop_height);
      }
      return {std::min(g.width, cw), std::min(g.height, ch)};
    }
    default:
      return g;  // dtype/layout ops leave geometry unchanged
  }
}

// The four orderable tail ops. Decode is always first (it produces pixels);
// the tail is some interleaving of {resize, crop} with {convert, normalize,
// split} subject to: split last among float ops unless fused; normalize after
// convert (normalization is defined on floats).
struct TailOrdering {
  // Positions: resize/crop order flag, and where convert+normalize sit
  // relative to the geometry ops (before resize, between, after crop).
  bool crop_before_resize;
  int convert_pos;  // 0: before geometry ops; 1: between; 2: after
  bool fused_tail;  // replace convert/normalize/split with the fused kernel
};

}  // namespace

std::vector<PreprocPlan> PreprocOptimizer::EnumeratePlans(
    const PipelineSpec& spec) {
  std::vector<PreprocPlan> plans;
  for (bool crop_first : {false, true}) {
    for (int convert_pos : {0, 1, 2}) {
      for (bool fused : {false, true}) {
        if (!spec.allow_fusion && fused) continue;
        // Fused tail performs convert+normalize+split in one pass at the end;
        // it is only available when conversion happens after geometry ops.
        if (fused && convert_pos != 2) continue;
        TailOrdering ord{crop_first, convert_pos, fused};
        PreprocPlan plan;
        plan.steps.push_back({OpKind::kDecode, 0, 0});
        auto add_convert_chain = [&] {
          plan.steps.push_back({OpKind::kConvertFloat, 0, 0});
          plan.steps.push_back({OpKind::kNormalize, 0, 0});
        };
        if (ord.convert_pos == 0) add_convert_chain();
        auto add_geometry = [&] {
          if (ord.crop_before_resize) {
            // Cropping first at the *scaled* crop size, then resizing, is the
            // geometry-preserving swap of rule R3: crop a proportionally
            // larger region, then resize it to the final crop size.
            plan.steps.push_back({OpKind::kCrop, -1, -1});  // -1 = scaled
            plan.steps.push_back(
                {OpKind::kResize, spec.crop_width, spec.crop_height});
          } else {
            plan.steps.push_back({OpKind::kResize, spec.resize_short_side, 0});
            plan.steps.push_back(
                {OpKind::kCrop, spec.crop_width, spec.crop_height});
          }
        };
        if (ord.convert_pos == 1) {
          // Convert between resize and crop.
          if (ord.crop_before_resize) {
            plan.steps.push_back({OpKind::kCrop, -1, -1});
            add_convert_chain();
            plan.steps.push_back(
                {OpKind::kResize, spec.crop_width, spec.crop_height});
          } else {
            plan.steps.push_back({OpKind::kResize, spec.resize_short_side, 0});
            add_convert_chain();
            plan.steps.push_back(
                {OpKind::kCrop, spec.crop_width, spec.crop_height});
          }
        } else {
          add_geometry();
        }
        if (ord.convert_pos == 2) {
          if (ord.fused_tail) {
            plan.steps.push_back({OpKind::kFusedTail, 0, 0});
          } else {
            add_convert_chain();
          }
        }
        if (!ord.fused_tail) {
          plan.steps.push_back({OpKind::kChannelSplit, 0, 0});
        }
        plans.push_back(std::move(plan));
      }
    }
  }
  return plans;
}

double PreprocOptimizer::EstimateCost(const PipelineSpec& spec,
                                      const PreprocPlan& plan) {
  // Arithmetic-op counting per §6.2: each op charges ops-per-element times
  // elements at its input geometry; float elements cost 4x u8 elements
  // (vectorization width ratio), and bilinear resize charges ~8 ops/output
  // pixel.
  Geometry g{spec.input_width, spec.input_height};
  DataType dtype = DataType::kU8;
  double cost = 0.0;
  const double c = spec.channels;
  auto dtype_mult = [&] { return dtype == DataType::kU8 ? 1.0 : 4.0; };
  for (const PlanStep& step : plan.steps) {
    switch (step.kind) {
      case OpKind::kDecode:
        // Decode cost is charged by the codec, not the DAG optimizer.
        break;
      case OpKind::kResize:
        g = StepGeometry(spec, step, g);
        cost += 8.0 * g.width * g.height * c * dtype_mult();
        break;
      case OpKind::kCrop:
        // Crop is a copy: 1 op per output element.
        g = StepGeometry(spec, step, g);
        cost += 1.0 * g.width * g.height * c * dtype_mult();
        break;
      case OpKind::kConvertFloat:
        cost += 2.0 * g.width * g.height * c;  // widen + scale
        dtype = DataType::kF32;
        break;
      case OpKind::kNormalize:
        cost += 2.0 * g.width * g.height * c * dtype_mult();
        break;
      case OpKind::kChannelSplit:
        cost += 1.0 * g.width * g.height * c * dtype_mult();
        break;
      case OpKind::kFusedTail:
        // One fused pass: multiply-add + scatter, on u8 input.
        cost += 2.5 * g.width * g.height * c;
        dtype = DataType::kF32;
        break;
    }
  }
  return cost;
}

std::vector<PreprocPlan> PreprocOptimizer::PrunePlans(
    const PipelineSpec& spec, std::vector<PreprocPlan> plans) {
  std::vector<PreprocPlan> kept;
  const bool any_fused = std::any_of(
      plans.begin(), plans.end(), [](const PreprocPlan& p) {
        return std::any_of(p.steps.begin(), p.steps.end(), [](const PlanStep& s) {
          return s.kind == OpKind::kFusedTail;
        });
      });
  for (auto& plan : plans) {
    bool convert_seen = false;
    bool resize_after_convert = false;
    bool has_fused = false;
    for (const PlanStep& step : plan.steps) {
      if (step.kind == OpKind::kConvertFloat) convert_seen = true;
      if (step.kind == OpKind::kResize && convert_seen) {
        resize_after_convert = true;
      }
      if (step.kind == OpKind::kFusedTail) has_fused = true;
    }
    // P2: drop plans that resize in f32 when a u8-resize ordering exists.
    if (resize_after_convert) continue;
    // P3: fusion always improves performance — when fusion is allowed and a
    // fused plan exists, drop unfused equivalents.
    if (spec.allow_fusion && any_fused && !has_fused) continue;
    kept.push_back(std::move(plan));
  }
  return kept;
}

Result<PreprocPlan> PreprocOptimizer::Optimize(const PipelineSpec& spec) {
  if (spec.input_width <= 0 || spec.input_height <= 0) {
    return Status::InvalidArgument("bad input geometry");
  }
  auto plans = EnumeratePlans(spec);
  plans = PrunePlans(spec, std::move(plans));
  if (plans.empty()) return Status::Internal("no plans survived pruning");
  PreprocPlan* best = nullptr;
  for (auto& plan : plans) {
    plan.estimated_cost = EstimateCost(spec, plan);
    if (best == nullptr || plan.estimated_cost < best->estimated_cost) {
      best = &plan;
    }
  }
  return *best;
}

PreprocPlan PreprocOptimizer::ReferencePlan(const PipelineSpec& spec) {
  PreprocPlan plan;
  plan.steps = {
      {OpKind::kDecode, 0, 0},
      {OpKind::kResize, spec.resize_short_side, 0},
      {OpKind::kCrop, spec.crop_width, spec.crop_height},
      {OpKind::kConvertFloat, 0, 0},
      {OpKind::kNormalize, 0, 0},
      {OpKind::kChannelSplit, 0, 0},
  };
  plan.estimated_cost = EstimateCost(spec, plan);
  return plan;
}

Result<FloatImage> ExecutePlan(const PreprocPlan& plan,
                               const PipelineSpec& spec,
                               const Image& decoded) {
  // State: at any time we hold either a u8 image or a float image.
  Image u8 = decoded;
  FloatImage f32;
  bool in_float = false;
  for (const PlanStep& step : plan.steps) {
    switch (step.kind) {
      case OpKind::kDecode:
        break;  // caller already decoded
      case OpKind::kResize: {
        if (in_float) {
          if (step.arg1 > 0) {
            SMOL_ASSIGN_OR_RETURN(f32, ResizeF32(f32, step.arg0, step.arg1));
          } else {
            const int cur_short = std::min(f32.width, f32.height);
            const double scale =
                static_cast<double>(step.arg0) / std::max(1, cur_short);
            SMOL_ASSIGN_OR_RETURN(
                f32, ResizeF32(f32,
                               std::max(1, static_cast<int>(std::lround(
                                               f32.width * scale))),
                               std::max(1, static_cast<int>(std::lround(
                                               f32.height * scale)))));
          }
        } else {
          if (step.arg1 > 0) {
            SMOL_ASSIGN_OR_RETURN(u8, ResizeExact(u8, step.arg0, step.arg1));
          } else {
            SMOL_ASSIGN_OR_RETURN(u8, ResizeShortSide(u8, step.arg0));
          }
        }
        break;
      }
      case OpKind::kCrop: {
        int cw = step.arg0;
        int ch = step.arg1;
        if (cw == -1) {
          // Scaled crop for the crop-before-resize ordering.
          const int short_side =
              in_float ? std::min(f32.width, f32.height)
                       : std::min(u8.width(), u8.height());
          cw = std::max(1, static_cast<int>(std::lround(
                               short_side * static_cast<double>(spec.crop_width) /
                               spec.resize_short_side)));
          ch = std::max(1, static_cast<int>(std::lround(
                               short_side *
                               static_cast<double>(spec.crop_height) /
                               spec.resize_short_side)));
        }
        if (in_float) {
          const Roi roi = Roi::CenterCrop(f32.width, f32.height, cw, ch);
          SMOL_ASSIGN_OR_RETURN(f32, CropF32(f32, roi));
        } else {
          SMOL_ASSIGN_OR_RETURN(u8, CenterCrop(u8, std::min(cw, u8.width()),
                                               std::min(ch, u8.height())));
        }
        break;
      }
      case OpKind::kConvertFloat: {
        if (in_float) return Status::Internal("double conversion in plan");
        SMOL_ASSIGN_OR_RETURN(f32, ConvertToFloat(u8));
        in_float = true;
        break;
      }
      case OpKind::kNormalize: {
        if (!in_float) return Status::Internal("normalize before convert");
        SMOL_RETURN_IF_ERROR(Normalize(&f32, spec.normalize));
        break;
      }
      case OpKind::kChannelSplit: {
        if (!in_float) return Status::Internal("split before convert");
        SMOL_ASSIGN_OR_RETURN(f32, ChannelSplit(f32));
        break;
      }
      case OpKind::kFusedTail: {
        if (in_float) return Status::Internal("fused tail on float input");
        SMOL_RETURN_IF_ERROR(
            FusedConvertNormalizeSplit(u8, spec.normalize, &f32));
        in_float = true;
        break;
      }
    }
  }
  if (!in_float) return Status::Internal("plan produced no float output");
  return f32;
}

Result<size_t> PlanOutputFloats(const PreprocPlan& plan,
                                const PipelineSpec& spec, int width,
                                int height, int channels) {
  if (width <= 0 || height <= 0 || channels <= 0) {
    return Status::InvalidArgument("bad input geometry");
  }
  Geometry g{width, height};
  for (const PlanStep& step : plan.steps) {
    if (step.kind == OpKind::kResize && step.arg0 <= 0) {
      return Status::InvalidArgument("bad resize target");
    }
    g = StepGeometry(spec, step, g);
  }
  return static_cast<size_t>(g.width) * static_cast<size_t>(g.height) *
         static_cast<size_t>(channels);
}

namespace {

// Where ExecutePlanInto splits \p plan: the first step that writes floats,
// or the crop feeding a terminal fused tail, so that the crop and the tail
// still run as one windowed pass. Every step before it reads and writes u8.
size_t SuffixStart(const PreprocPlan& plan) {
  const size_t n = plan.steps.size();
  for (size_t si = 0; si < n; ++si) {
    const OpKind kind = plan.steps[si].kind;
    if (kind == OpKind::kCrop && si + 2 == n &&
        plan.steps[si + 1].kind == OpKind::kFusedTail) {
      return si;
    }
    if (kind != OpKind::kDecode && kind != OpKind::kResize &&
        kind != OpKind::kCrop) {
      return si;
    }
  }
  return n;
}

// The step loop behind ExecutePlanPrefix and ExecutePlanSuffix: runs
// plan.steps[begin, end) starting on the *borrowed* u8 image \p u8, so
// unlike ExecutePlan there is no entry copy. Until the first float step the
// state stays a borrowed u8 image, then it is a float image in one of the
// ping-pong scratch slots. The write target of each step always differs
// from its source (u8 -> slot A -> slot B -> A ...), so in-place hazards
// cannot arise. A walk that stops on u8 (the prefix) leaves its output in
// \p u8 and returns 0; one that reaches the plan's float output writes it
// into \p dst and returns its float count.
Result<size_t> RunSteps(const PreprocPlan& plan, const PipelineSpec& spec,
                        size_t begin, size_t end, const Image*& u8,
                        PreprocScratch& scratch, float* dst,
                        size_t dst_floats) {
  Image* u8_slots[2] = {&scratch.u8_a, &scratch.u8_b};
  int u8_next = 0;
  FloatImage* f32 = nullptr;
  FloatImage* f32_slots[2] = {&scratch.f32_a, &scratch.f32_b};
  int f32_next = 0;
  bool in_float = false;
  for (size_t si = begin; si < end; ++si) {
    const PlanStep& step = plan.steps[si];
    const bool is_last = si + 1 == plan.steps.size();
    switch (step.kind) {
      case OpKind::kDecode:
        break;  // caller already decoded
      case OpKind::kResize: {
        if (in_float) {
          int out_w = step.arg0;
          int out_h = step.arg1;
          if (out_h <= 0) {
            const int cur_short = std::min(f32->width, f32->height);
            const double scale =
                static_cast<double>(step.arg0) / std::max(1, cur_short);
            out_w = std::max(
                1, static_cast<int>(std::lround(f32->width * scale)));
            out_h = std::max(
                1, static_cast<int>(std::lround(f32->height * scale)));
          }
          SMOL_ASSIGN_OR_RETURN(*f32_slots[f32_next],
                                ResizeF32(*f32, out_w, out_h));
          f32 = f32_slots[f32_next];
          f32_next ^= 1;
        } else {
          if (u8->empty()) return Status::InvalidArgument("empty image");
          if (step.arg0 <= 0) {
            return Status::InvalidArgument("bad resize target");
          }
          int out_w = step.arg0;
          int out_h = step.arg1;
          if (out_h <= 0) {
            const int cur_short = std::min(u8->width(), u8->height());
            const double scale =
                static_cast<double>(step.arg0) / std::max(1, cur_short);
            out_w = std::max(
                1, static_cast<int>(std::lround(u8->width() * scale)));
            out_h = std::max(
                1, static_cast<int>(std::lround(u8->height() * scale)));
          }
          if (out_w == u8->width() && out_h == u8->height()) {
            break;  // no-op resize: keep borrowing, no copy
          }
          Image* slot = u8_slots[u8_next];
          ResizeBilinearInto(*u8, out_w, out_h, slot);
          u8 = slot;
          u8_next ^= 1;
        }
        break;
      }
      case OpKind::kCrop: {
        int cw = step.arg0;
        int ch = step.arg1;
        if (cw == -1) {
          // Scaled crop for the crop-before-resize ordering.
          const int short_side = in_float
                                     ? std::min(f32->width, f32->height)
                                     : std::min(u8->width(), u8->height());
          cw = std::max(
              1, static_cast<int>(std::lround(
                     short_side * static_cast<double>(spec.crop_width) /
                     spec.resize_short_side)));
          ch = std::max(
              1, static_cast<int>(std::lround(
                     short_side * static_cast<double>(spec.crop_height) /
                     spec.resize_short_side)));
        }
        if (in_float) {
          const Roi roi = Roi::CenterCrop(f32->width, f32->height, cw, ch);
          SMOL_ASSIGN_OR_RETURN(*f32_slots[f32_next], CropF32(*f32, roi));
          f32 = f32_slots[f32_next];
          f32_next ^= 1;
        } else {
          if (u8->empty()) return Status::InvalidArgument("empty image");
          const Roi roi =
              Roi::CenterCrop(u8->width(), u8->height(),
                              std::min(cw, u8->width()),
                              std::min(ch, u8->height()));
          if (si + 2 == plan.steps.size() &&
              plan.steps[si + 1].kind == OpKind::kFusedTail) {
            // Crop feeding a terminal fused tail: run the crop-windowed tail
            // straight into the destination; the cropped u8 image is never
            // materialized.
            const size_t count = static_cast<size_t>(roi.width) * roi.height *
                                 u8->channels();
            if (dst_floats < count) {
              return Status::InvalidArgument("destination too small");
            }
            SMOL_RETURN_IF_ERROR(FusedConvertNormalizeSplitRoiInto(
                *u8, roi, spec.normalize, dst, dst_floats));
            return count;
          }
          Image* slot = u8_slots[u8_next];
          SMOL_RETURN_IF_ERROR(CropImageInto(*u8, roi, slot));
          u8 = slot;
          u8_next ^= 1;
        }
        break;
      }
      case OpKind::kConvertFloat: {
        if (in_float) return Status::Internal("double conversion in plan");
        SMOL_RETURN_IF_ERROR(ConvertToFloatInto(*u8, f32_slots[f32_next]));
        f32 = f32_slots[f32_next];
        f32_next ^= 1;
        in_float = true;
        break;
      }
      case OpKind::kNormalize: {
        if (!in_float) return Status::Internal("normalize before convert");
        SMOL_RETURN_IF_ERROR(Normalize(f32, spec.normalize));
        break;
      }
      case OpKind::kChannelSplit: {
        if (!in_float) return Status::Internal("split before convert");
        if (is_last) {
          const size_t count = f32->data.size();
          if (dst_floats < count) {
            return Status::InvalidArgument("destination too small");
          }
          SMOL_RETURN_IF_ERROR(ChannelSplitInto(*f32, dst, dst_floats));
          return count;
        }
        SMOL_ASSIGN_OR_RETURN(*f32_slots[f32_next], ChannelSplit(*f32));
        f32 = f32_slots[f32_next];
        f32_next ^= 1;
        break;
      }
      case OpKind::kFusedTail: {
        if (in_float) return Status::Internal("fused tail on float input");
        if (is_last) {
          const size_t count = u8->size_bytes();
          if (dst_floats < count) {
            return Status::InvalidArgument("destination too small");
          }
          SMOL_RETURN_IF_ERROR(FusedConvertNormalizeSplitInto(
              *u8, spec.normalize, dst, dst_floats));
          return count;
        }
        SMOL_RETURN_IF_ERROR(FusedConvertNormalizeSplit(*u8, spec.normalize,
                                                        f32_slots[f32_next]));
        f32 = f32_slots[f32_next];
        f32_next ^= 1;
        in_float = true;
        break;
      }
    }
  }
  if (!in_float) {
    if (end < plan.steps.size()) return size_t{0};  // the u8 prefix
    return Status::Internal("plan produced no float output");
  }
  // Plan ended on a non-materializing float op (not produced by the
  // enumerator, but legal): copy the final tensor out.
  const size_t count = f32->data.size();
  if (dst_floats < count) {
    return Status::InvalidArgument("destination too small");
  }
  std::copy(f32->data.begin(), f32->data.end(), dst);
  return count;
}

}  // namespace

Result<const Image*> ExecutePlanPrefix(const PreprocPlan& plan,
                                       const PipelineSpec& spec,
                                       const Image& decoded,
                                       PreprocScratch& scratch) {
  const Image* u8 = &decoded;
  SMOL_RETURN_IF_ERROR(
      RunSteps(plan, spec, 0, SuffixStart(plan), u8, scratch, nullptr, 0)
          .status());
  return u8;
}

Result<size_t> ExecutePlanSuffix(const PreprocPlan& plan,
                                 const PipelineSpec& spec, const Image& prefix,
                                 PreprocScratch& scratch, float* dst,
                                 size_t dst_floats) {
  if (dst == nullptr) return Status::InvalidArgument("null destination");
  const Image* u8 = &prefix;
  return RunSteps(plan, spec, SuffixStart(plan), plan.steps.size(), u8,
                  scratch, dst, dst_floats);
}

Result<size_t> ExecutePlanInto(const PreprocPlan& plan,
                               const PipelineSpec& spec, const Image& decoded,
                               PreprocScratch& scratch, float* dst,
                               size_t dst_floats) {
  SMOL_ASSIGN_OR_RETURN(const Image* prefix,
                        ExecutePlanPrefix(plan, spec, decoded, scratch));
  return ExecutePlanSuffix(plan, spec, *prefix, scratch, dst, dst_floats);
}

}  // namespace smol
