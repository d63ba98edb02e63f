// Pipeline vocabulary shared by the serving runtime (runtime/server.h), its
// plan ladder (runtime/plan_controller.h) and the decoders callers plug in.
//
// The runtime moves work through the §6.1 / Appendix A stages:
//
//   decode -> preprocess (DAG-optimized plan) -> pooled (pinned) staging
//   buffer -> coalesced batch -> simulated accelerator
//
// This header holds what more than one of those users names: the decode
// descriptor the server hands the decoder, the decoder signature, and plan
// compilation plus its cache fingerprint. The stage bodies themselves
// live in runtime/server.cc.
#ifndef SMOL_RUNTIME_PIPELINE_H_
#define SMOL_RUNTIME_PIPELINE_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "src/codec/image.h"
#include "src/preproc/graph.h"
#include "src/util/status.h"

namespace smol {

/// \brief What the server hands the decoder for one request: the encoded
/// image plus how to decode it.
///
/// The bytes belong to the request's caller, who keeps them alive until the
/// reply is delivered.
struct WorkItem {
  const std::vector<uint8_t>* bytes = nullptr;  ///< encoded stream
  int label = 0;
  /// Optional ROI for partial decoding (empty = full decode).
  Roi roi;
  /// Multi-resolution decode denominator (1, 2, 4, or 8): decode at
  /// 1/denom scale straight from the DCT domain (§6.4), the adaptive
  /// ladder's cheap-decode lever. Honored by SJPG-backed decode fns when no
  /// ROI is set (the codec cannot combine the two); 1 = full resolution.
  int decode_scale_denom = 1;
};

/// Maps an item to pixels, emitting into \p out, whose storage the producer
/// reuses across items (codecs expose matching *Into entry points, e.g.
/// SjpgDecodeInto). Pluggable so the pipeline serves images (SJPG/SPNG) and
/// video frames alike.
using DecodeIntoFn = std::function<Status(const WorkItem&, Image* out)>;

/// Compiles the preprocessing plan once (§6.2). With \p enable_dag_opt off
/// (the Fig. 7/8 lesion) this returns the naive §2 reference ordering.
PreprocPlan CompilePipelinePlan(const PipelineSpec& spec, bool enable_dag_opt);

/// Fingerprint of (plan, spec) covering everything that affects the output
/// tensor — plan steps, geometry, normalization constants — so tensors cached
/// under one plan are never served to a pipeline compiled differently.
uint64_t PipelinePlanFingerprint(const PreprocPlan& plan,
                                 const PipelineSpec& spec);

}  // namespace smol

#endif  // SMOL_RUNTIME_PIPELINE_H_
