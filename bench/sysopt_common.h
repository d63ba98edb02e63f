// Shared machinery for the Figure 7/8 systems-optimization benches: serves an
// encoded image set as one batch run on the REAL runtime (real SJPG decode,
// real preprocessing, simulated accelerator) under a given set of pipeline
// toggles and reports measured wall-clock throughput.
#ifndef SMOL_BENCH_SYSOPT_COMMON_H_
#define SMOL_BENCH_SYSOPT_COMMON_H_

#include <memory>
#include <vector>

#include "bench/bench_common.h"
#include "src/codec/sjpg.h"
#include "src/data/synth_image.h"
#include "src/runtime/server.h"

namespace smol::bench {

/// Encoded workload: images at one resolution, SJPG-compressed.
struct SysoptWorkload {
  std::vector<std::vector<uint8_t>> encoded;
  std::vector<InferenceRequest> items;
  PipelineSpec spec;
};

/// Builds a workload of \p count SJPG images at \p size x \p size, with the
/// standard resize/crop pipeline scaled to the resolution.
inline SysoptWorkload MakeSysoptWorkload(int count, int size,
                                         uint64_t seed = 900) {
  SysoptWorkload w;
  SynthImageOptions opts;
  opts.width = size;
  opts.height = size;
  opts.num_classes = 8;
  opts.seed = seed;
  SynthImageGenerator gen(opts);
  for (int i = 0; i < count; ++i) {
    auto bytes = SjpgEncode(gen.Generate(i % 8, i), {.quality = 85});
    w.encoded.push_back(std::move(bytes).MoveValue());
  }
  for (auto& bytes : w.encoded) {
    InferenceRequest item;
    item.bytes = &bytes;
    w.items.push_back(item);
  }
  w.spec.input_width = size;
  w.spec.input_height = size;
  w.spec.resize_short_side = size * 3 / 4;
  w.spec.crop_width = size * 2 / 3;
  w.spec.crop_height = size * 2 / 3;
  return w;
}

/// The standard bench decode: honors a request ROI, and the adaptive
/// ladder's multi-resolution lever on full-frame requests (the codec rejects
/// combining scale_denom with an ROI). Emits into the worker's scratch image.
inline Status SysoptDecode(const WorkItem& item, Image* out) {
  SjpgDecodeOptions opts;
  opts.roi = item.roi;
  if (item.roi.empty()) opts.scale_denom = item.decode_scale_denom;
  return SjpgDecodeInto(*item.bytes, opts, out);
}

/// Server options of a one-shot batch run over \p pipeline: batches of up
/// to 16 images behind blocking admission. A preprocessing-bound run
/// submits what is queued rather than leave the device idle.
inline ServerOptions BatchRunOptions(const PipelineOptions& pipeline) {
  ServerOptions opts;
  opts.pipeline = pipeline;
  opts.max_batch = 16;
  opts.overload = OverloadPolicy::kBlock;
  opts.admission_capacity = 64;
  return opts;
}

/// Serves the workload once as a batch run and returns measured throughput
/// (im/s).
inline double RunSysoptOnce(const SysoptWorkload& workload,
                            PipelineOptions pipeline) {
  SimAccelerator::Options aopts;
  // Fast accelerator: the run is preprocessing-bound, so the CPU-side
  // optimizations under study are what the measurement sees.
  aopts.dnn_throughput_ims = 200000.0;
  // One consumer is plenty (it mostly sleeps in the simulator) and keeps the
  // thread count at producers+1 so producers are not descheduled.
  pipeline.num_consumers = 1;
  Server server(BatchRunOptions(pipeline), workload.spec, SysoptDecode,
                std::make_shared<SimAccelerator>(aopts));
  auto stats = RunToCompletion(server, workload.items);
  return stats.ok() ? stats->throughput_ims : 0.0;
}

/// Measures a set of pipeline configurations round-robin over several rounds
/// and reports each configuration's best round. Interleaving makes host
/// drift (VM steal, frequency scaling) hit every configuration equally —
/// essential on small shared machines.
inline std::vector<double> MeasureConfigs(
    const SysoptWorkload& workload, const std::vector<PipelineOptions>& configs,
    int rounds = 4) {
  std::vector<double> best(configs.size(), 0.0);
  for (int r = 0; r < rounds; ++r) {
    for (size_t i = 0; i < configs.size(); ++i) {
      best[i] = std::max(best[i], RunSysoptOnce(workload, configs[i]));
    }
  }
  return best;
}

}  // namespace smol::bench

#endif  // SMOL_BENCH_SYSOPT_COMMON_H_
