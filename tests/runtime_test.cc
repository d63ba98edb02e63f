// Tests for src/runtime batch runs: RunToCompletion over a Server end-to-end
// (real codecs, real preprocessing, simulated accelerator), the lesion
// toggles, pipelining's min-throughput behaviour, and the baseline
// configurations.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "src/codec/sjpg.h"
#include "src/hw/fleet.h"
#include "src/runtime/baselines.h"
#include "src/runtime/server.h"
#include "tests/test_util.h"

namespace smol {
namespace {

using smol::testing::MakeTestImage;

// Shared fixture: a handful of SJPG-encoded images plus batch-run options.
class RunToCompletionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    for (int i = 0; i < 32; ++i) {
      const Image img = MakeTestImage(96, 96, 3, 100 + i);
      auto encoded = SjpgEncode(img, {.quality = 85});
      ASSERT_TRUE(encoded.ok());
      encoded_.push_back(std::move(encoded).MoveValue());
    }
    for (auto& bytes : encoded_) {
      InferenceRequest request;
      request.bytes = &bytes;
      requests_.push_back(request);
    }
    spec_.input_width = 96;
    spec_.input_height = 96;
    spec_.resize_short_side = 72;
    spec_.crop_width = 64;
    spec_.crop_height = 64;
  }

  /// A batch run's server shape: batches of up to \p max_batch, filled from
  /// whatever is queued, behind blocking admission.
  static ServerOptions BatchOptions(int max_batch) {
    ServerOptions opts;
    opts.max_batch = max_batch;
    opts.overload = OverloadPolicy::kBlock;
    opts.admission_capacity = 64;
    return opts;
  }

  static std::shared_ptr<SimAccelerator> MakeAccel(double throughput) {
    SimAccelerator::Options opts;
    opts.dnn_throughput_ims = throughput;
    return std::make_shared<SimAccelerator>(opts);
  }

  static Status DecodeSjpg(const WorkItem& item, Image* out) {
    SjpgDecodeOptions opts;
    opts.roi = item.roi;
    return SjpgDecodeInto(*item.bytes, opts, out);
  }

  std::vector<std::vector<uint8_t>> encoded_;
  std::vector<InferenceRequest> requests_;
  PipelineSpec spec_;
};

TEST_F(RunToCompletionTest, ProcessesAllImages) {
  Server server(BatchOptions(8), spec_, DecodeSjpg, MakeAccel(100000.0));
  ASSERT_OK_AND_ASSIGN(ServerStats stats, RunToCompletion(server, requests_));
  EXPECT_EQ(stats.completed, requests_.size());
  EXPECT_GT(stats.throughput_ims, 0.0);
  EXPECT_EQ(stats.accel_stats.images, requests_.size());
  // The fleet roll-up carries the wall time batches spent in the device,
  // which never falls below their modelled time.
  EXPECT_GE(stats.accel_stats.wall_seconds,
            stats.accel_stats.compute_seconds +
                stats.accel_stats.transfer_seconds);
  EXPECT_GT(stats.accel_stats.wall_seconds, 0.0);
  // The run ends with the server shut down: later traffic is cancelled.
  EXPECT_EQ(server.Submit(requests_[0]).get().status.code(),
            StatusCode::kCancelled);
}

TEST_F(RunToCompletionTest, DagToggleChangesCompiledPlan) {
  ServerOptions on;
  Server opt_server(on, spec_, DecodeSjpg, MakeAccel(1e5));
  ServerOptions off;
  off.pipeline.enable_dag_opt = false;
  Server ref_server(off, spec_, DecodeSjpg, MakeAccel(1e5));
  EXPECT_LT(opt_server.plan().estimated_cost,
            ref_server.plan().estimated_cost);
  // The reference plan is the naive §2 ordering (6 steps, no fusion).
  bool has_fused = false;
  for (const auto& s : ref_server.plan().steps) {
    has_fused |= (s.kind == OpKind::kFusedTail);
  }
  EXPECT_FALSE(has_fused);
}

TEST_F(RunToCompletionTest, MemoryReuseToggleVisibleInStats) {
  // Live staged buffers are capped at shard_queue_capacity (queued) +
  // num_producers (staged, waiting to enqueue) + num_consumers * max_batch
  // (in open batches) = 4 + 2 + 1 * 4 = 10, below the 32 images. So batches
  // must recycle buffers before the last image is staged, on any core count.
  ServerOptions on = BatchOptions(4);
  on.shard_queue_capacity = 4;
  on.pipeline.num_producers = 2;
  on.pipeline.num_consumers = 1;
  ASSERT_LT(on.shard_queue_capacity + on.pipeline.num_producers +
                on.pipeline.num_consumers * on.max_batch,
            static_cast<int>(requests_.size()));
  Server reuse_server(on, spec_, DecodeSjpg, MakeAccel(1e5));
  ASSERT_OK_AND_ASSIGN(ServerStats with_reuse,
                       RunToCompletion(reuse_server, requests_));
  ServerOptions off = on;
  off.pipeline.enable_memory_reuse = false;
  Server fresh_server(off, spec_, DecodeSjpg, MakeAccel(1e5));
  ASSERT_OK_AND_ASSIGN(ServerStats without_reuse,
                       RunToCompletion(fresh_server, requests_));
  EXPECT_GT(with_reuse.buffer_stats.reuses, 0u);
  EXPECT_EQ(without_reuse.buffer_stats.reuses, 0u);
  EXPECT_GT(without_reuse.buffer_stats.allocations,
            with_reuse.buffer_stats.allocations);
}

// The cost-model-defining property (§4, Eq. 4): with a slow accelerator, the
// pipeline is DNN-bound and e2e throughput tracks the accelerator, not the
// sum of stage times.
TEST_F(RunToCompletionTest, PipelinedThroughputApproachesMin) {
  // DNN at 100 im/s is far slower than our real preprocessing here, even
  // under sanitizers: the device idles only while the first batch of 8 is
  // decoded, a small share of the 320 ms it spends on all 32 images.
  constexpr double kDeviceIms = 100.0;
  Server server(BatchOptions(8), spec_, DecodeSjpg, MakeAccel(kDeviceIms));
  ASSERT_OK_AND_ASSIGN(ServerStats stats, RunToCompletion(server, requests_));
  // Throughput should be near the device rate (within pipeline warmup
  // slack), and decisively above what the no-pipelining sum model would
  // predict if preprocessing were serialized with execution.
  EXPECT_GT(stats.throughput_ims, kDeviceIms * 0.6);
  EXPECT_LT(stats.throughput_ims, kDeviceIms * 1.3);
}

// The device-count axis: a homogeneous fleet behind the same batch run.
// Every image still completes exactly once, and the rolled-up device
// counters account for all of them (the per-device split is exercised in
// serving_test; the modeled scaling curve in bench_serving).
TEST_F(RunToCompletionTest, MultiDeviceRunCompletesAllImagesOnce) {
  ServerOptions opts = BatchOptions(4);
  SimAccelerator::Options accel_opts;
  accel_opts.dnn_throughput_ims = 1e5;
  opts.devices = MakeHomogeneousFleet(3, accel_opts);
  Server server(opts, spec_, DecodeSjpg, nullptr);
  ASSERT_OK_AND_ASSIGN(ServerStats stats, RunToCompletion(server, requests_));
  EXPECT_EQ(stats.completed, requests_.size());
  EXPECT_EQ(stats.accel_stats.images, requests_.size());
  EXPECT_EQ(stats.accel_stats.bytes,
            requests_.size() * 64ull * 64ull * 3ull * sizeof(float));
}

TEST_F(RunToCompletionTest, RoiDecodingReducesDecodeTime) {
  std::vector<InferenceRequest> roi_requests = requests_;
  for (auto& request : roi_requests) {
    request.roi = Roi::CenterCrop(96, 96, 48, 48);
  }
  PipelineSpec roi_spec = spec_;
  roi_spec.input_width = 48;
  roi_spec.input_height = 48;
  roi_spec.resize_short_side = 48;
  roi_spec.crop_width = 48;
  roi_spec.crop_height = 48;
  // decode_seconds is wall time, which preemption only ever lengthens: one
  // producer, and the fastest of several interleaved runs per flavour, keep
  // a busy host from inflating one side alone.
  ServerOptions opts = BatchOptions(16);
  opts.pipeline.num_producers = 1;
  double full_s = 1e9, roi_s = 1e9;
  for (int round = 0; round < 5; ++round) {
    Server full_server(opts, spec_, DecodeSjpg, MakeAccel(1e5));
    ASSERT_OK_AND_ASSIGN(ServerStats full,
                         RunToCompletion(full_server, requests_));
    full_s = std::min(full_s, full.decode_seconds);
    Server roi_server(opts, roi_spec, DecodeSjpg, MakeAccel(1e5));
    ASSERT_OK_AND_ASSIGN(ServerStats roi,
                         RunToCompletion(roi_server, roi_requests));
    roi_s = std::min(roi_s, roi.decode_seconds);
  }
  EXPECT_LT(roi_s, full_s);
}

TEST_F(RunToCompletionTest, DecodeErrorsPropagate) {
  std::vector<uint8_t> garbage = {1, 2, 3, 4};
  InferenceRequest bad;
  bad.bytes = &garbage;
  Server server(BatchOptions(16), spec_, DecodeSjpg, MakeAccel(1e5));
  auto result = RunToCompletion(server, {bad});
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCorruption);
}

TEST_F(RunToCompletionTest, EmptyInputRejected) {
  Server server(BatchOptions(16), spec_, DecodeSjpg, MakeAccel(1e5));
  EXPECT_EQ(RunToCompletion(server, {}).status().code(),
            StatusCode::kInvalidArgument);
}

// --- Baselines -----------------------------------------------------------------------

TEST(BaselineTest, OptionsEncodeStructuralLimitations) {
  const auto smol = BaselinePipelineOptions(RuntimeBaseline::kSmol, 4);
  EXPECT_TRUE(smol.enable_memory_reuse);
  EXPECT_TRUE(smol.enable_dag_opt);
  EXPECT_EQ(smol.num_producers, 4);
  const auto dali = BaselinePipelineOptions(RuntimeBaseline::kDaliLike, 4);
  EXPECT_FALSE(dali.enable_memory_reuse);  // training-loader contract
  EXPECT_FALSE(dali.enable_dag_opt);
  EXPECT_TRUE(dali.enable_pinned);  // DALI does pin memory
  const auto pytorch =
      BaselinePipelineOptions(RuntimeBaseline::kPyTorchLike, 4);
  EXPECT_FALSE(pytorch.enable_pinned);
}

TEST(BaselineTest, OverheadAndDnnFactors) {
  EXPECT_EQ(BaselinePerImageOverheadUs(RuntimeBaseline::kSmol), 0.0);
  EXPECT_GT(BaselinePerImageOverheadUs(RuntimeBaseline::kDaliLike), 0.0);
  EXPECT_GT(BaselinePerImageOverheadUs(RuntimeBaseline::kPyTorchLike),
            BaselinePerImageOverheadUs(RuntimeBaseline::kDaliLike));
  // PyTorch forgoes the optimized inference compiler (Table 1 ratio).
  EXPECT_NEAR(BaselineDnnThroughputFactor(RuntimeBaseline::kPyTorchLike),
              424.0 / 4513.0, 1e-9);
  EXPECT_EQ(BaselineDnnThroughputFactor(RuntimeBaseline::kDaliLike), 1.0);
}

}  // namespace
}  // namespace smol
