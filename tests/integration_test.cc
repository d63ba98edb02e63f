// Integration tests across module boundaries: the full paths a deployment
// exercises — dataset -> codec -> preprocessing plan -> serving runtime ->
// optimizer -> analytics — with real data flowing end to end.
#include <gtest/gtest.h>

#include <memory>

#include "src/analytics/blazeit.h"
#include "src/analytics/tahoma.h"
#include "src/codec/sjpg.h"
#include "src/codec/spng.h"
#include "src/codec/sv264.h"
#include "src/core/optimizer.h"
#include "src/data/datasets.h"
#include "src/data/synth_video.h"
#include "src/dnn/model.h"
#include "src/dnn/trainer.h"
#include "src/hw/throughput_model.h"
#include "src/preproc/graph.h"
#include "src/runtime/server.h"
#include "tests/test_util.h"

namespace smol {
namespace {

// --- Dataset -> codec -> preprocessing -> tensor -----------------------------

TEST(IntegrationTest, StoredImageToDnnInputPipeline) {
  // Generate, encode, decode via format, run the optimized preprocessing
  // plan, and verify the tensor is sane for every stored format.
  auto spec = FindImageDataset("bike-bird").MoveValue();
  spec.train_size = 2;
  spec.test_size = 6;
  ASSERT_OK_AND_ASSIGN(ImageDataset ds, ImageDataset::Generate(spec));
  for (StorageFormat fmt :
       {StorageFormat::kFullSpng, StorageFormat::kFullSjpg,
        StorageFormat::kThumbSpng, StorageFormat::kThumbSjpgQ75}) {
    ASSERT_OK_AND_ASSIGN(auto stored, ds.EncodeTestSet(fmt));
    ASSERT_OK_AND_ASSIGN(Image decoded,
                         ImageDataset::DecodeStored(stored[0], fmt));
    PipelineSpec pspec;
    pspec.input_width = decoded.width();
    pspec.input_height = decoded.height();
    pspec.resize_short_side = decoded.width() * 3 / 4;
    pspec.crop_width = decoded.width() / 2;
    pspec.crop_height = decoded.height() / 2;
    ASSERT_OK_AND_ASSIGN(PreprocPlan plan, PreprocOptimizer::Optimize(pspec));
    ASSERT_OK_AND_ASSIGN(FloatImage tensor,
                         ExecutePlan(plan, pspec, decoded));
    EXPECT_TRUE(tensor.chw);
    EXPECT_EQ(tensor.width, pspec.crop_width);
    // Normalized values live in a plausible band.
    for (float v : tensor.data) {
      ASSERT_GT(v, -4.0f);
      ASSERT_LT(v, 4.0f);
    }
  }
}

// --- Server batch run over a real encoded dataset with ROI decoding ----------

TEST(IntegrationTest, BatchRunServesDatasetWithRoiDecoding) {
  auto spec = FindImageDataset("animals-10").MoveValue();
  spec.train_size = 2;
  spec.test_size = 96;
  ASSERT_OK_AND_ASSIGN(ImageDataset ds, ImageDataset::Generate(spec));
  ASSERT_OK_AND_ASSIGN(auto stored,
                       ds.EncodeTestSet(StorageFormat::kFullSjpg));
  std::vector<InferenceRequest> requests;
  const Roi roi = Roi::CenterCrop(spec.full_width, spec.full_height, 32, 32);
  for (const auto& s : stored) {
    InferenceRequest request;
    request.bytes = &s.bytes;
    request.label = s.label;
    request.roi = roi;  // §6.4: decode only the central crop
    requests.push_back(request);
  }
  PipelineSpec pspec;
  pspec.input_width = 32;
  pspec.input_height = 32;
  pspec.resize_short_side = 32;
  pspec.crop_width = 32;
  pspec.crop_height = 32;
  SimAccelerator::Options aopts;
  aopts.dnn_throughput_ims = 50000.0;
  auto accel = std::make_shared<SimAccelerator>(aopts);
  // A small queue + small batches force buffers to cycle mid-run so the
  // reuse assertion below is deterministic: at most 8 queued + 2 staging
  // + 2 * 4 batched buffers are live at once, far below the 96 images.
  ServerOptions opts;
  opts.pipeline.num_producers = 2;
  opts.pipeline.num_consumers = 2;
  opts.shard_queue_capacity = 8;
  opts.max_batch = 4;
  opts.admission_capacity = 8;
  opts.overload = OverloadPolicy::kBlock;
  Server server(opts, pspec,
                [](const WorkItem& item, Image* out) {
                  SjpgDecodeOptions decode;
                  decode.roi = item.roi;
                  return SjpgDecodeInto(*item.bytes, decode, out);
                },
                accel);
  ASSERT_OK_AND_ASSIGN(ServerStats stats, RunToCompletion(server, requests));
  EXPECT_EQ(stats.completed, requests.size());
  EXPECT_GT(stats.buffer_stats.reuses, 0u);
}

// --- Trained model -> cascade -> optimizer -----------------------------------

TEST(IntegrationTest, TrainProfileOptimizeSelectsSensiblePlan) {
  // A miniature version of the image_classification example, asserted.
  auto spec = FindImageDataset("bike-bird").MoveValue();
  spec.train_size = 160;
  spec.test_size = 80;
  ASSERT_OK_AND_ASSIGN(ImageDataset ds, ImageDataset::Generate(spec));
  ASSERT_OK_AND_ASSIGN(auto net_spec,
                       GetSmolNetSpec("smolnet18", spec.num_classes));
  ASSERT_OK_AND_ASSIGN(auto model, BuildSmolNet(net_spec, 5));
  TrainOptions topts;
  topts.epochs = 3;
  topts.lowres_target = spec.thumb_size;
  ASSERT_OK(TrainModel(model.get(), ds.train(), {}, topts).status());

  SmolOptimizer::Inputs inputs;
  CandidateModel candidate;
  candidate.name = "smolnet18";
  candidate.exec_throughput_ims = 12592.0;
  candidate.accuracy_by_format.assign(5, 0.0);
  for (StorageFormat fmt :
       {StorageFormat::kFullSpng, StorageFormat::kThumbSpng}) {
    ASSERT_OK_AND_ASSIGN(auto via, ds.TestSetViaFormat(fmt));
    ASSERT_OK_AND_ASSIGN(double acc, EvaluateModel(model.get(), via));
    candidate.accuracy_by_format[static_cast<int>(fmt)] = acc;
    EXPECT_GT(acc, 1.2 / spec.num_classes);  // decisively above chance
  }
  inputs.models.push_back(candidate);
  inputs.formats = {{StorageFormat::kFullSpng, 534.0},
                    {StorageFormat::kThumbSpng, 1995.0}};
  ASSERT_OK_AND_ASSIGN(QueryPlan plan, SmolOptimizer::SelectPlan(inputs, {}));
  // Unconstrained: the thumbnail plan wins on throughput.
  EXPECT_TRUE(IsThumbnail(plan.format));
  EXPECT_GT(plan.throughput_ims, 534.0);
}

// --- Video: codec -> proxy -> control variate --------------------------------

TEST(IntegrationTest, VideoQueryEndToEnd) {
  auto spec = FindVideoDataset("amsterdam").MoveValue();
  spec.num_frames = 150;
  ASSERT_OK_AND_ASSIGN(SyntheticVideo video, GenerateVideo(spec));
  ASSERT_OK_AND_ASSIGN(auto bytes,
                       Sv264Encode(video.frames, {.quality = 80, .gop = 30}));
  ASSERT_OK_AND_ASSIGN(auto decoder, Sv264Decoder::Open(bytes));
  // Proxy: ground truth + bounded noise (a well-trained specialized NN).
  Rng rng(5);
  std::vector<double> proxy;
  for (int i = 0; i < decoder->num_frames(); ++i) {
    ASSERT_OK(decoder->DecodeNext().status());
    proxy.push_back(video.object_counts[i] + rng.Normal(0.0, 0.4));
  }
  AggregationQuery query;
  query.error_target = 0.25;
  query.min_samples = 24;
  ASSERT_OK_AND_ASSIGN(
      AggregationResult result,
      ControlVariateEstimator::Run(
          query, decoder->num_frames(), proxy, [&](int64_t f) {
            return static_cast<double>(video.object_counts[f]);
          }));
  EXPECT_NEAR(result.estimate, video.MeanCount(), 0.5);
  EXPECT_LT(result.target_invocations, decoder->num_frames());
}

// --- Model serialization across the toolchain --------------------------------

TEST(IntegrationTest, SavedModelServesInCascade) {
  auto spec = FindImageDataset("bike-bird").MoveValue();
  spec.train_size = 120;
  spec.test_size = 60;
  ASSERT_OK_AND_ASSIGN(ImageDataset ds, ImageDataset::Generate(spec));
  ASSERT_OK_AND_ASSIGN(auto net_spec, GetSmolNetSpec("smolnet18", 2));
  ASSERT_OK_AND_ASSIGN(auto trained, BuildSmolNet(net_spec, 9));
  TrainOptions topts;
  topts.epochs = 2;
  ASSERT_OK(TrainModel(trained.get(), ds.train(), {}, topts).status());
  // Round-trip through the serialized form (the deployment artifact).
  ASSERT_OK_AND_ASSIGN(auto blob, SaveModel(trained.get()));
  ASSERT_OK_AND_ASSIGN(auto restored, LoadModel(blob));
  // The restored model behaves identically inside a cascade.
  Cascade original(trained.get(), trained.get(), 0.9);
  Cascade reloaded(restored.get(), restored.get(), 0.9);
  ASSERT_OK_AND_ASSIGN(auto calib_a, original.Calibrate(ds.test()));
  ASSERT_OK_AND_ASSIGN(auto calib_b, reloaded.Calibrate(ds.test()));
  EXPECT_NEAR(calib_a.accuracy, calib_b.accuracy, 1e-9);
  EXPECT_NEAR(calib_a.pass_through_rate, calib_b.pass_through_rate, 1e-9);
}

// --- Cost model consistency with the live runtime ----------------------------

TEST(IntegrationTest, MinModelPredictsServedThroughputDirection) {
  // Two batch runs against a slow vs fast accelerator: the min cost model
  // must predict which run is faster, from stage rates measured in isolation.
  auto spec = FindImageDataset("bike-bird").MoveValue();
  spec.train_size = 2;
  spec.test_size = 48;
  ASSERT_OK_AND_ASSIGN(ImageDataset ds, ImageDataset::Generate(spec));
  ASSERT_OK_AND_ASSIGN(auto stored,
                       ds.EncodeTestSet(StorageFormat::kFullSjpg));
  std::vector<InferenceRequest> requests;
  for (const auto& s : stored) {
    InferenceRequest request;
    request.bytes = &s.bytes;
    requests.push_back(request);
  }
  PipelineSpec pspec;
  pspec.input_width = spec.full_width;
  pspec.input_height = spec.full_height;
  pspec.resize_short_side = 36;
  pspec.crop_width = 32;
  pspec.crop_height = 32;
  auto run_with = [&](double accel_ims) {
    SimAccelerator::Options aopts;
    aopts.dnn_throughput_ims = accel_ims;
    auto accel = std::make_shared<SimAccelerator>(aopts);
    ServerOptions opts;
    opts.max_batch = 16;
    opts.admission_capacity = 64;
    opts.overload = OverloadPolicy::kBlock;
    Server server(opts, pspec,
                  [](const WorkItem& item, Image* out) {
                    return SjpgDecodeInto(*item.bytes, {}, out);
                  },
                  accel);
    auto stats = RunToCompletion(server, requests);
    return stats.ok() ? stats->throughput_ims : 0.0;
  };
  const double slow = run_with(120.0);   // decisively DNN-bound
  const double fast = run_with(50000.0); // decisively preprocessing-bound
  EXPECT_LT(slow, fast);
  // The DNN-bound run tracks the accelerator rate, not the sum model.
  EXPECT_GT(slow, 120.0 * 0.5);
  EXPECT_LT(slow, 120.0 * 1.4);
}

}  // namespace
}  // namespace smol
