#include "src/runtime/pipeline.h"

#include "src/util/tensor_cache.h"

namespace smol {

PreprocPlan CompilePipelinePlan(const PipelineSpec& spec,
                                bool enable_dag_opt) {
  PipelineSpec compiled = spec;
  compiled.allow_fusion = enable_dag_opt;
  if (enable_dag_opt) {
    auto optimized = PreprocOptimizer::Optimize(compiled);
    return optimized.ok() ? optimized.value()
                          : PreprocOptimizer::ReferencePlan(compiled);
  }
  return PreprocOptimizer::ReferencePlan(compiled);
}

uint64_t PipelinePlanFingerprint(const PreprocPlan& plan,
                                 const PipelineSpec& spec) {
  uint64_t h = TensorCache::HashCombine(0x736d6f6c706c616eull,  // "smolplan"
                                        plan.steps.size());
  for (const PlanStep& step : plan.steps) {
    h = TensorCache::HashCombine(h, static_cast<uint64_t>(step.kind));
    h = TensorCache::HashCombine(h, static_cast<uint64_t>(
                                        static_cast<int64_t>(step.arg0)));
    h = TensorCache::HashCombine(h, static_cast<uint64_t>(
                                        static_cast<int64_t>(step.arg1)));
  }
  h = TensorCache::HashCombine(h, static_cast<uint64_t>(spec.channels));
  h = TensorCache::HashCombine(h,
                               static_cast<uint64_t>(spec.resize_short_side));
  h = TensorCache::HashCombine(h, static_cast<uint64_t>(spec.crop_width));
  h = TensorCache::HashCombine(h, static_cast<uint64_t>(spec.crop_height));
  h = TensorCache::HashBytes(spec.normalize.mean, sizeof(spec.normalize.mean),
                             h);
  h = TensorCache::HashBytes(spec.normalize.std, sizeof(spec.normalize.std),
                             h);
  return h;
}

}  // namespace smol
