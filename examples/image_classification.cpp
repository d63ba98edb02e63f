// Image classification end to end: train a specialized ladder, profile
// accuracy per stored format, let the Smol optimizer pick a plan under an
// accuracy constraint, and execute it as one batch run on the serving
// runtime.
//
// This is the §3.2 "classification example" (Tahoma-style deployment) on the
// synthetic animals-10 dataset.
#include <cstdio>
#include <memory>

#include "src/analytics/tahoma.h"
#include "src/codec/sjpg.h"
#include "src/codec/spng.h"
#include "src/core/optimizer.h"
#include "src/data/datasets.h"
#include "src/hw/throughput_model.h"
#include "src/runtime/server.h"
#include "src/util/macros.h"

using namespace smol;

int main() {
  // --- Dataset: animals-10 (kept small so the example runs in ~a minute). --
  auto spec = FindImageDataset("animals-10").MoveValue();
  spec.train_size = 400;
  spec.test_size = 160;
  auto dataset = ImageDataset::Generate(spec);
  SMOL_CHECK_OK(dataset.status());
  std::printf("Dataset: %s, %d classes, %zu train / %zu test images\n",
              spec.name.c_str(), spec.num_classes, dataset->train().size(),
              dataset->test().size());

  // --- Train two rungs of the specialized ladder. ---------------------------
  auto small_spec = GetSmolNetSpec("smolnet18", spec.num_classes).MoveValue();
  auto big_spec = GetSmolNetSpec("smolnet50", spec.num_classes).MoveValue();
  auto small = BuildSmolNet(small_spec, 7).MoveValue();
  auto big = BuildSmolNet(big_spec, 8).MoveValue();
  TrainOptions topts;
  topts.epochs = 3;
  topts.lowres_target = spec.thumb_size;  // low-res aware training (§5.3)
  std::printf("Training smolnet18 and smolnet50 (low-res augmented)...\n");
  SMOL_CHECK_OK(TrainModel(small.get(), dataset->train(), {}, topts).status());
  SMOL_CHECK_OK(TrainModel(big.get(), dataset->train(), {}, topts).status());

  // --- Profile accuracy per stored format (the calibration step). -----------
  const StorageFormat formats[] = {StorageFormat::kFullSpng,
                                   StorageFormat::kThumbSpng,
                                   StorageFormat::kThumbSjpgQ75};
  SmolOptimizer::Inputs inputs;
  DnnThroughputModel tm;
  for (auto& [model, arch, paper] :
       {std::tuple<Model*, const char*, const char*>{small.get(), "smolnet18",
                                                     "resnet18"},
        std::tuple<Model*, const char*, const char*>{big.get(), "smolnet50",
                                                     "resnet50"}}) {
    CandidateModel candidate;
    candidate.name = arch;
    candidate.exec_throughput_ims =
        tm.Throughput(paper, GpuModel::kT4).ValueOr(4513.0);
    candidate.accuracy_by_format.assign(5, 0.0);
    for (StorageFormat fmt : formats) {
      auto via = dataset->TestSetViaFormat(fmt);
      SMOL_CHECK_OK(via.status());
      auto acc = EvaluateModel(model, *via);
      SMOL_CHECK_OK(acc.status());
      candidate.accuracy_by_format[static_cast<int>(fmt)] = *acc;
      std::printf("  %s @ %-18s accuracy %.1f%%\n", arch,
                  StorageFormatName(fmt), *acc * 100);
    }
    inputs.models.push_back(std::move(candidate));
  }
  inputs.formats = {{StorageFormat::kFullSpng, 534.0},
                    {StorageFormat::kThumbSpng, 1995.0},
                    {StorageFormat::kThumbSjpgQ75, 5900.0}};

  // --- Let the optimizer pick a plan under an accuracy constraint. ----------
  PlanConstraints constraints;
  constraints.min_accuracy =
      inputs.models[0].accuracy_by_format[0] * 0.95;  // near-small-model-acc
  auto plan = SmolOptimizer::SelectPlan(inputs, constraints);
  SMOL_CHECK_OK(plan.status());
  std::printf("\nSelected plan: %s\n", plan->ToString().c_str());

  // --- Execute the plan in the pipelined runtime. ----------------------------
  auto stored = dataset->EncodeTestSet(plan->format);
  SMOL_CHECK_OK(stored.status());
  std::vector<InferenceRequest> requests;
  for (const auto& s : *stored) {
    InferenceRequest request;
    request.bytes = &s.bytes;
    request.label = s.label;
    requests.push_back(request);
  }
  PipelineSpec pspec;
  const bool thumb = IsThumbnail(plan->format);
  pspec.input_width = thumb ? spec.thumb_size : spec.full_width;
  pspec.input_height = thumb ? spec.thumb_size : spec.full_height;
  pspec.resize_short_side = pspec.input_width;
  pspec.crop_width = pspec.input_width;
  pspec.crop_height = pspec.input_height;
  SimAccelerator::Options aopts;
  aopts.dnn_throughput_ims = plan->exec_ims;
  auto accel = std::make_shared<SimAccelerator>(aopts);
  // A batch run: batches of up to 16 images, filled from the backlog,
  // behind blocking admission.
  ServerOptions opts;
  opts.max_batch = 16;
  opts.admission_capacity = 64;
  opts.overload = OverloadPolicy::kBlock;
  Server server(
      opts, pspec,
      [&](const WorkItem& item, Image* out) -> Status {
        SMOL_ASSIGN_OR_RETURN(
            *out, ImageDataset::DecodeStored(
                      StoredImage{*item.bytes, item.label}, plan->format));
        return Status::OK();
      },
      accel);
  auto stats = RunToCompletion(server, requests);
  SMOL_CHECK_OK(stats.status());
  std::printf("Runtime: %llu images at %.0f im/s measured on this host "
              "(decode %.0f ms, preprocess %.0f ms)\n",
              static_cast<unsigned long long>(stats->completed),
              stats->throughput_ims, stats->decode_seconds * 1e3,
              stats->preprocess_seconds * 1e3);
  std::printf("Done: plan estimated %.0f im/s end-to-end at %.1f%% accuracy "
              "on paper-scale hardware.\n",
              plan->throughput_ims, plan->accuracy * 100);
  return 0;
}
