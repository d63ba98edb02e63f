#include "src/runtime/baselines.h"

namespace smol {

const char* RuntimeBaselineName(RuntimeBaseline baseline) {
  switch (baseline) {
    case RuntimeBaseline::kSmol:
      return "SMOL";
    case RuntimeBaseline::kDaliLike:
      return "DALI-like";
    case RuntimeBaseline::kPyTorchLike:
      return "PyTorch-like";
  }
  return "?";
}

PipelineOptions BaselinePipelineOptions(RuntimeBaseline baseline,
                                        int num_producers) {
  PipelineOptions opts;
  opts.num_producers = num_producers;
  switch (baseline) {
    case RuntimeBaseline::kSmol:
      break;  // all optimizations on
    case RuntimeBaseline::kDaliLike:
      // Training integration: buffers are handed to the caller, so the pool
      // cannot recycle them; pipeline is fixed (no DAG optimization).
      opts.enable_memory_reuse = false;
      opts.enable_dag_opt = false;
      break;
    case RuntimeBaseline::kPyTorchLike:
      opts.enable_dag_opt = false;
      opts.enable_pinned = false;
      opts.enable_memory_reuse = false;
      break;
  }
  return opts;
}

double BaselinePerImageOverheadUs(RuntimeBaseline baseline) {
  switch (baseline) {
    case RuntimeBaseline::kSmol:
      return 0.0;
    case RuntimeBaseline::kDaliLike:
      // One extra full-image copy to hand data to the inference library.
      return 120.0;
    case RuntimeBaseline::kPyTorchLike:
      // Python-level per-item dispatch.
      return 250.0;
  }
  return 0.0;
}

double BaselineDnnThroughputFactor(RuntimeBaseline baseline) {
  switch (baseline) {
    case RuntimeBaseline::kSmol:
    case RuntimeBaseline::kDaliLike:
      return 1.0;  // both sit in front of TensorRT-class execution
    case RuntimeBaseline::kPyTorchLike:
      return 424.0 / 4513.0;  // Table 1
  }
  return 1.0;
}

}  // namespace smol
