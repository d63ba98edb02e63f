#include "src/runtime/plan_controller.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "src/runtime/pipeline.h"
#include "src/util/macros.h"
#include "src/util/tensor_cache.h"

namespace smol {

namespace {

// Pressure: admission queue at/above this fraction of capacity (or any
// shedding).
constexpr double kQueueHighFraction = 0.5;
// Calm: admission queue at/below this fraction of capacity and no shedding.
constexpr double kQueueLowFraction = 0.15;
// Ticks to wait after a degrade step before degrading again, so one burst
// steps down rung by rung instead of free-falling.
constexpr int kCooldownTicks = 2;
// Consecutive calm ticks required before stepping one rung up.
constexpr int kRecoverTicks = 4;

// Largest multi-resolution decode denominator (1/2/4/8) whose decoded short
// side still covers the rung's resize target, so the pipeline never
// upsamples what the decoder threw away.
int DecodeDenomFor(int input_short, int resize_short) {
  int denom = 1;
  while (denom < 8 && input_short / (denom * 2) >= resize_short) denom *= 2;
  return denom;
}

std::string RungName(int index, const PlanRung& rung) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "rung%d x%.2f d%d r%d c%dx%d", index,
                rung.scale, rung.decode_scale_denom,
                rung.spec.resize_short_side, rung.spec.crop_width,
                rung.spec.crop_height);
  return buf;
}

}  // namespace

const char* RequestClassName(RequestClass klass) {
  switch (klass) {
    case RequestClass::kBestAccuracy:
      return "best_accuracy";
    case RequestClass::kLatencySlo:
      return "latency_slo";
  }
  return "unknown";
}

Result<std::vector<PlanRung>> BuildPlanLadder(const PipelineSpec& base_spec,
                                              const std::vector<double>& scales,
                                              bool enable_dag_opt) {
  if (scales.empty()) {
    return Status::InvalidArgument("ladder needs at least one scale");
  }
  if (std::abs(scales.front() - 1.0) > 1e-9) {
    return Status::InvalidArgument("ladder scales must start at 1.0");
  }
  if (base_spec.input_width <= 0 || base_spec.input_height <= 0) {
    return Status::InvalidArgument("ladder base spec needs input dimensions");
  }
  for (size_t i = 0; i < scales.size(); ++i) {
    if (!(scales[i] > 0.0) || scales[i] > 1.0) {
      return Status::InvalidArgument("ladder scales must lie in (0, 1]");
    }
    if (i > 0 && scales[i] >= scales[i - 1]) {
      return Status::InvalidArgument("ladder scales must strictly decrease");
    }
  }

  const int input_short =
      std::min(base_spec.input_width, base_spec.input_height);
  std::vector<PlanRung> ladder;
  ladder.reserve(scales.size());
  double base_cost = 0.0;
  for (double scale : scales) {
    PlanRung rung;
    rung.scale = scale;
    rung.spec = base_spec;
    // Scale the geometry, keeping everything executable: resize short side
    // at least 8 px, crop no larger than the resized short side.
    rung.spec.resize_short_side = std::max(
        8, static_cast<int>(std::lround(base_spec.resize_short_side * scale)));
    rung.spec.crop_width = std::max(
        8, static_cast<int>(std::lround(base_spec.crop_width * scale)));
    rung.spec.crop_height = std::max(
        8, static_cast<int>(std::lround(base_spec.crop_height * scale)));
    rung.spec.crop_width =
        std::min(rung.spec.crop_width, rung.spec.resize_short_side);
    rung.spec.crop_height =
        std::min(rung.spec.crop_height, rung.spec.resize_short_side);
    rung.decode_scale_denom =
        DecodeDenomFor(input_short, rung.spec.resize_short_side);
    // The rung's spec describes what its decoder emits, so plan compilation
    // and cost estimation see the reduced-resolution input.
    rung.spec.input_width =
        (base_spec.input_width + rung.decode_scale_denom - 1) /
        rung.decode_scale_denom;
    rung.spec.input_height =
        (base_spec.input_height + rung.decode_scale_denom - 1) /
        rung.decode_scale_denom;

    if (!ladder.empty()) {
      const PlanRung& prev = ladder.back();
      if (rung.spec.resize_short_side == prev.spec.resize_short_side &&
          rung.spec.crop_width == prev.spec.crop_width &&
          rung.spec.crop_height == prev.spec.crop_height &&
          rung.decode_scale_denom == prev.decode_scale_denom) {
        continue;  // clamping collapsed this rung onto the previous one
      }
    }

    rung.plan = CompilePipelinePlan(rung.spec, enable_dag_opt);
    const double cost = PreprocOptimizer::EstimateCost(rung.spec, rung.plan);
    if (ladder.empty()) base_cost = cost;
    rung.relative_cost = base_cost > 0.0 ? cost / base_cost : 1.0;
    rung.fingerprint = TensorCache::HashCombine(
        PipelinePlanFingerprint(rung.plan, rung.spec),
        static_cast<uint64_t>(rung.decode_scale_denom));
    rung.name = RungName(static_cast<int>(ladder.size()), rung);
    ladder.push_back(std::move(rung));
  }
  return ladder;
}

PlanController::PlanController(PlanControllerOptions options, int num_rungs)
    : num_rungs_(std::max(1, num_rungs)) {
  for (int c = 0; c < kNumRequestClasses; ++c) {
    int floor = options.floor_rung[c];
    if (floor < 0 || floor >= num_rungs_) floor = num_rungs_ - 1;
    floor_[c] = floor;
  }
}

int PlanController::Observe(const LoadSignals& signals) {
  const int capacity = std::max(1, signals.queue_capacity);
  const double fill =
      static_cast<double>(signals.queue_depth) / static_cast<double>(capacity);
  const bool pressure = signals.shed_delta > 0 || fill >= kQueueHighFraction;
  const bool calm = signals.shed_delta == 0 && fill <= kQueueLowFraction;

  if (cooldown_ > 0) --cooldown_;
  const int level = level_.load(std::memory_order_relaxed);
  if (pressure) {
    calm_streak_ = 0;
    if (cooldown_ == 0 && level < num_rungs_ - 1) {
      level_.store(level + 1, std::memory_order_relaxed);
      switches_.fetch_add(1, std::memory_order_relaxed);
      cooldown_ = kCooldownTicks;
    }
  } else if (calm) {
    if (++calm_streak_ >= kRecoverTicks && level > 0) {
      level_.store(level - 1, std::memory_order_relaxed);
      switches_.fetch_add(1, std::memory_order_relaxed);
      calm_streak_ = 0;
    }
  } else {
    // Ambiguous zone between the low and high watermarks: hold the rung and
    // restart the calm count — hysteresis against flapping.
    calm_streak_ = 0;
  }
  return level_.load(std::memory_order_relaxed);
}

}  // namespace smol
