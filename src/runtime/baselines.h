// Baseline runtime configurations for the Appendix A.1 comparison (Fig. 10).
//
// Neither baseline is a reimplementation of the external library; each is
// this repo's Server pipeline deliberately configured with the structural
// limitations the paper attributes to DALI and PyTorch for *inference*
// workloads:
//
//  * DALI-like: training-oriented loader — must hand fresh buffers to the
//    caller (no memory reuse), uses a fixed preprocessing pipeline regardless
//    of core count, and pays an extra copy to integrate with the inference
//    runtime (no official TensorRT integration).
//  * PyTorch-like: per-item dispatch overhead (Python-loop analogue), no
//    optimized inference compiler (framework efficiency of Table 1), no DAG
//    fusion, no pinned staging by default.
#ifndef SMOL_RUNTIME_BASELINES_H_
#define SMOL_RUNTIME_BASELINES_H_

#include "src/runtime/server.h"

namespace smol {

/// Baseline selector for comparison benches.
enum class RuntimeBaseline { kSmol, kDaliLike, kPyTorchLike };

const char* RuntimeBaselineName(RuntimeBaseline baseline);

/// Pipeline options that express each baseline's structural limitations.
PipelineOptions BaselinePipelineOptions(RuntimeBaseline baseline,
                                        int num_producers);

/// Per-image extra host overhead (microseconds) each baseline pays on the
/// producer path: DALI's extra inference-integration copy, PyTorch's
/// dispatch overhead. Smol pays none.
double BaselinePerImageOverheadUs(RuntimeBaseline baseline);

/// Multiplier on the modelled accelerator throughput: PyTorch lacks the
/// optimized inference compiler (Table 1: 424 vs 4513 im/s).
double BaselineDnnThroughputFactor(RuntimeBaseline baseline);

}  // namespace smol

#endif  // SMOL_RUNTIME_BASELINES_H_
