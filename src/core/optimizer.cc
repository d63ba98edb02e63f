#include "src/core/optimizer.h"

#include <utility>

#include "src/util/macros.h"

namespace smol {

namespace {

// Maps a storage format to the preprocessing-model class used for operator
// placement decisions.
PreprocFormat ToPreprocFormat(StorageFormat format) {
  switch (format) {
    case StorageFormat::kFullSpng:
    case StorageFormat::kFullSjpg:
      return PreprocFormat::kFullResJpeg;
    case StorageFormat::kThumbSpng:
      return PreprocFormat::kThumbnailPng;
    case StorageFormat::kThumbSjpgQ95:
    case StorageFormat::kThumbSjpgQ75:
      return PreprocFormat::kThumbnailJpeg;
  }
  return PreprocFormat::kFullResJpeg;
}

}  // namespace

Result<std::vector<QueryPlan>> SmolOptimizer::GeneratePlans(
    const Inputs& inputs) {
  if (inputs.models.empty()) return Status::InvalidArgument("no models");
  if (inputs.formats.empty()) return Status::InvalidArgument("no formats");
  std::vector<QueryPlan> plans;
  for (const CandidateModel& model : inputs.models) {
    for (const CandidateFormat& fmt : inputs.formats) {
      if (!inputs.toggles.use_low_resolution && IsThumbnail(fmt.format)) {
        continue;  // lesion: thumbnails unavailable
      }
      QueryPlan plan;
      plan.model_name = model.name;
      plan.format = fmt.format;
      const int fidx = static_cast<int>(fmt.format);
      if (fidx < 0 ||
          fidx >= static_cast<int>(model.accuracy_by_format.size())) {
        return Status::InvalidArgument("missing accuracy for format");
      }
      plan.accuracy = model.accuracy_by_format[fidx];
      plan.exec_ims = model.exec_throughput_ims;
      plan.preproc_ims = fmt.preproc_throughput_ims;

      if (inputs.toggles.use_preproc_opt) {
        // §6.3: choose the CPU/accelerator cut that maximizes min(cpu, dnn).
        PlacementOptimizer::Inputs pin;
        pin.format = ToPreprocFormat(fmt.format);
        pin.vcpus = inputs.vcpus;
        pin.gpu = inputs.gpu;
        pin.dnn_throughput = model.exec_throughput_ims;
        SMOL_ASSIGN_OR_RETURN(Placement placement,
                              PlacementOptimizer::Choose(pin));
        plan.stages_on_accelerator = placement.stages_on_accelerator;
        // Scale the model-relative placement effect onto this format's
        // measured preprocessing throughput.
        const double all_cpu_tput =
            PreprocThroughputModel::Throughput(pin.format, inputs.vcpus);
        if (all_cpu_tput > 0.0) {
          const double boost = placement.cpu_throughput / all_cpu_tput;
          plan.preproc_ims = fmt.preproc_throughput_ims * boost;
        }
        plan.exec_ims = placement.effective_dnn_throughput;
      }

      CostModelInputs cmi;
      cmi.preproc_throughput_ims = plan.preproc_ims;
      cmi.cascade = {{model.name, plan.exec_ims, 1.0}};
      SMOL_ASSIGN_OR_RETURN(
          plan.throughput_ims,
          CostModel::Estimate(inputs.toggles.cost_model, cmi));
      plans.push_back(std::move(plan));
    }
  }
  return plans;
}

Result<std::vector<QueryPlan>> SmolOptimizer::ParetoPlans(
    const Inputs& inputs) {
  SMOL_ASSIGN_OR_RETURN(auto plans, GeneratePlans(inputs));
  return ParetoFrontier(std::move(plans));
}

Result<QueryPlan> SmolOptimizer::SelectPlan(const Inputs& inputs,
                                            const PlanConstraints& constraints) {
  SMOL_ASSIGN_OR_RETURN(auto plans, GeneratePlans(inputs));
  const QueryPlan* best = nullptr;
  for (const QueryPlan& plan : plans) {
    if (constraints.min_throughput_ims.has_value() &&
        plan.throughput_ims < *constraints.min_throughput_ims) {
      continue;
    }
    if (constraints.min_accuracy.has_value() &&
        plan.accuracy < *constraints.min_accuracy) {
      continue;
    }
    if (best == nullptr) {
      best = &plan;
      continue;
    }
    if (constraints.min_throughput_ims.has_value()) {
      // Throughput-constrained: maximize accuracy (break ties on throughput).
      if (plan.accuracy > best->accuracy ||
          (plan.accuracy == best->accuracy &&
           plan.throughput_ims > best->throughput_ims)) {
        best = &plan;
      }
    } else {
      // Accuracy-constrained or unconstrained: maximize throughput.
      if (plan.throughput_ims > best->throughput_ims ||
          (plan.throughput_ims == best->throughput_ims &&
           plan.accuracy > best->accuracy)) {
        best = &plan;
      }
    }
  }
  if (best == nullptr) {
    return Status::Infeasible("no plan satisfies the requested constraints");
  }
  return *best;
}

}  // namespace smol
