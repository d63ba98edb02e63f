// The Smol plan optimizer (§3.1's plan generation / cost estimation / plan
// selection loop): generates D x F plans, estimates throughput with the
// preprocessing-aware min cost model, chooses operator placement per plan,
// profiles accuracy on a calibration set, and returns either the Pareto
// frontier or the best plan under a constraint.
#ifndef SMOL_CORE_OPTIMIZER_H_
#define SMOL_CORE_OPTIMIZER_H_

#include <optional>
#include <string>
#include <vector>

#include "src/core/plan.h"
#include "src/hw/throughput_model.h"
#include "src/preproc/placement.h"
#include "src/util/result.h"

namespace smol {

/// \brief Optional constraints (§3.1: throughput- or accuracy-constrained).
struct PlanConstraints {
  std::optional<double> min_throughput_ims;  ///< throughput-constrained accuracy
  std::optional<double> min_accuracy;        ///< accuracy-constrained throughput
};

/// \brief Optimization toggles for the §8.3 lesion/factor studies.
struct OptimizerToggles {
  bool use_low_resolution = true;   ///< consider thumbnail formats (§5.2)
  bool use_preproc_opt = true;      ///< DAG + placement + partial decode (§6)
  /// When false, fall back to the Tahoma sum model (for comparison benches).
  CostModelKind cost_model = CostModelKind::kSmolMin;
};

/// \brief The optimizer over candidate models and formats.
class SmolOptimizer {
 public:
  struct Inputs {
    std::vector<CandidateModel> models;    ///< D, with per-format accuracy
    std::vector<CandidateFormat> formats;  ///< F, with preproc throughput
    int vcpus = 4;
    GpuModel gpu = GpuModel::kT4;
    OptimizerToggles toggles;
  };

  /// Generates and scores every plan in D x F (§3.1: exhaustive — cheap
  /// relative to training).
  static Result<std::vector<QueryPlan>> GeneratePlans(const Inputs& inputs);

  /// The Pareto frontier of GeneratePlans (accuracy vs throughput).
  static Result<std::vector<QueryPlan>> ParetoPlans(const Inputs& inputs);

  /// Plan selection under constraints (§4): with a throughput floor, returns
  /// the most accurate plan meeting it; with an accuracy floor, the fastest
  /// plan meeting it; with neither, the highest-throughput plan. Infeasible
  /// constraints return StatusCode::kInfeasible.
  static Result<QueryPlan> SelectPlan(const Inputs& inputs,
                                      const PlanConstraints& constraints);
};

}  // namespace smol

#endif  // SMOL_CORE_OPTIMIZER_H_
