// Tests for src/core: the three cost models (Eq. 2-4 behaviour), cascade
// throughput math, Pareto frontier invariants, and the plan optimizer's
// constraint handling.
#include <gtest/gtest.h>

#include "src/core/cost_model.h"
#include "src/core/optimizer.h"
#include "src/core/plan.h"
#include "tests/test_util.h"

namespace smol {
namespace {

// --- Cascade throughput ----------------------------------------------------------

TEST(CascadeThroughputTest, SingleStageIsItsThroughput) {
  ASSERT_OK_AND_ASSIGN(double t, CostModel::CascadeExecThroughput(
                                     {{"m", 5000.0, 1.0}}));
  EXPECT_DOUBLE_EQ(t, 5000.0);
}

TEST(CascadeThroughputTest, FilteringReducesTargetLoad) {
  // Specialized NN at 100k im/s passing 10% to a 1k im/s target:
  // 1 / (1/100k + 0.1/1k) = 1 / (0.00001 + 0.0001) ~ 9090.9.
  ASSERT_OK_AND_ASSIGN(
      double t, CostModel::CascadeExecThroughput(
                    {{"spec", 100000.0, 0.1}, {"target", 1000.0, 1.0}}));
  EXPECT_NEAR(t, 9090.9, 1.0);
  // Pass-through 1.0 makes the cascade slower than the target alone.
  ASSERT_OK_AND_ASSIGN(
      double worst, CostModel::CascadeExecThroughput(
                        {{"spec", 100000.0, 1.0}, {"target", 1000.0, 1.0}}));
  EXPECT_LT(worst, 1000.0);
}

TEST(CascadeThroughputTest, ThreeStageReachComposition) {
  // Reach of stage 3 = alpha1 * alpha2.
  ASSERT_OK_AND_ASSIGN(double t,
                       CostModel::CascadeExecThroughput(
                           {{"a", 10000.0, 0.5},
                            {"b", 5000.0, 0.5},
                            {"c", 1000.0, 1.0}}));
  const double expected = 1.0 / (1.0 / 10000 + 0.5 / 5000 + 0.25 / 1000);
  EXPECT_NEAR(t, expected, 1e-6);
}

TEST(CascadeThroughputTest, InvalidInputsRejected) {
  EXPECT_FALSE(CostModel::CascadeExecThroughput({}).ok());
  EXPECT_FALSE(CostModel::CascadeExecThroughput({{"m", 0.0, 1.0}}).ok());
  EXPECT_FALSE(CostModel::CascadeExecThroughput({{"m", 100.0, 1.5}}).ok());
}

// --- The three cost models (Table 3 behaviour) --------------------------------------

CostModelInputs MakeInputs(double preproc, double exec) {
  CostModelInputs inputs;
  inputs.preproc_throughput_ims = preproc;
  inputs.cascade = {{"dnn", exec, 1.0}};
  return inputs;
}

TEST(CostModelTest, PreprocBoundRegime) {
  // Table 3 preproc-bound: preproc 534, DNN 4999, measured pipelined 557.
  const auto inputs = MakeInputs(534.0, 4999.0);
  ASSERT_OK_AND_ASSIGN(double smol_est,
                       CostModel::Estimate(CostModelKind::kSmolMin, inputs));
  ASSERT_OK_AND_ASSIGN(
      double blazeit_est,
      CostModel::Estimate(CostModelKind::kBlazeItDnnOnly, inputs));
  ASSERT_OK_AND_ASSIGN(double tahoma_est,
                       CostModel::Estimate(CostModelKind::kTahomaSum, inputs));
  EXPECT_DOUBLE_EQ(smol_est, 534.0);
  EXPECT_DOUBLE_EQ(blazeit_est, 4999.0);  // wildly wrong here (797% in paper)
  EXPECT_NEAR(tahoma_est, 482.0, 2.0);    // close but underestimates
  const double measured = 557.0;
  EXPECT_LT(CostModel::PercentError(smol_est, measured),
            CostModel::PercentError(blazeit_est, measured));
}

TEST(CostModelTest, BalancedRegimeOnlyMinIsClose) {
  // Table 3 balanced: preproc 4001, DNN 4999, measured pipelined 4056.
  const auto inputs = MakeInputs(4001.0, 4999.0);
  const double measured = 4056.0;
  ASSERT_OK_AND_ASSIGN(double smol_est,
                       CostModel::Estimate(CostModelKind::kSmolMin, inputs));
  ASSERT_OK_AND_ASSIGN(
      double blazeit_est,
      CostModel::Estimate(CostModelKind::kBlazeItDnnOnly, inputs));
  ASSERT_OK_AND_ASSIGN(double tahoma_est,
                       CostModel::Estimate(CostModelKind::kTahomaSum, inputs));
  EXPECT_LT(CostModel::PercentError(smol_est, measured), 2.0);
  EXPECT_GT(CostModel::PercentError(blazeit_est, measured), 20.0);
  EXPECT_GT(CostModel::PercentError(tahoma_est, measured), 40.0);
}

TEST(CostModelTest, DnnBoundRegimeDnnOnlyIsFine) {
  // Table 3 DNN-bound: preproc 5876, DNN 1844, measured 1720. Here the
  // dnn-only estimate works; the sum model underestimates.
  const auto inputs = MakeInputs(5876.0, 1844.0);
  const double measured = 1720.0;
  ASSERT_OK_AND_ASSIGN(double smol_est,
                       CostModel::Estimate(CostModelKind::kSmolMin, inputs));
  ASSERT_OK_AND_ASSIGN(
      double blazeit_est,
      CostModel::Estimate(CostModelKind::kBlazeItDnnOnly, inputs));
  EXPECT_DOUBLE_EQ(smol_est, blazeit_est);  // min picks the DNN side
  EXPECT_LT(CostModel::PercentError(smol_est, measured), 10.0);
}

TEST(CostModelTest, InvalidPreprocRejectedWhereUsed) {
  const auto inputs = MakeInputs(0.0, 1000.0);
  EXPECT_FALSE(CostModel::Estimate(CostModelKind::kSmolMin, inputs).ok());
  EXPECT_FALSE(CostModel::Estimate(CostModelKind::kTahomaSum, inputs).ok());
  // The dnn-only model never looks at preprocessing.
  EXPECT_TRUE(CostModel::Estimate(CostModelKind::kBlazeItDnnOnly, inputs).ok());
}

// --- Pareto frontier ------------------------------------------------------------------

QueryPlan MakePlan(double acc, double tput) {
  QueryPlan p;
  p.accuracy = acc;
  p.throughput_ims = tput;
  return p;
}

TEST(ParetoTest, DominatedPlansRemoved) {
  auto frontier = ParetoFrontier({
      MakePlan(0.9, 1000),
      MakePlan(0.8, 900),   // dominated by the first on both axes
      MakePlan(0.95, 500),  // kept: more accurate
      MakePlan(0.7, 2000),  // kept: faster
  });
  EXPECT_EQ(frontier.size(), 3u);
  for (const auto& p : frontier) {
    EXPECT_NE(p.accuracy, 0.8);
  }
}

TEST(ParetoTest, FrontierSortedByThroughput) {
  auto frontier = ParetoFrontier({MakePlan(0.9, 100), MakePlan(0.5, 900),
                                  MakePlan(0.7, 500)});
  for (size_t i = 1; i < frontier.size(); ++i) {
    EXPECT_GE(frontier[i - 1].throughput_ims, frontier[i].throughput_ims);
    EXPECT_LE(frontier[i - 1].accuracy, frontier[i].accuracy);
  }
}

TEST(ParetoTest, NoFrontierPointDominatesAnother) {
  std::vector<QueryPlan> plans;
  Rng rng(9);
  for (int i = 0; i < 100; ++i) {
    plans.push_back(
        MakePlan(rng.UniformDouble(0.5, 1.0), rng.UniformDouble(100, 5000)));
  }
  auto frontier = ParetoFrontier(plans);
  ASSERT_FALSE(frontier.empty());
  for (const auto& a : frontier) {
    for (const auto& b : frontier) {
      EXPECT_FALSE(Dominates(a, b) && !(a.accuracy == b.accuracy &&
                                        a.throughput_ims == b.throughput_ims));
    }
  }
  // Every input plan is dominated by or equal to some frontier point.
  for (const auto& p : plans) {
    bool covered = false;
    for (const auto& f : frontier) {
      if ((f.accuracy >= p.accuracy && f.throughput_ims >= p.throughput_ims)) {
        covered = true;
        break;
      }
    }
    EXPECT_TRUE(covered);
  }
}

TEST(ParetoTest, IdenticalPointsDeduplicated) {
  auto frontier =
      ParetoFrontier({MakePlan(0.9, 100), MakePlan(0.9, 100)});
  EXPECT_EQ(frontier.size(), 1u);
}

// --- SmolOptimizer ----------------------------------------------------------------------

SmolOptimizer::Inputs MakeOptimizerInputs() {
  SmolOptimizer::Inputs inputs;
  // Two models: an accurate slow one and a cheap fast one. Accuracy indexed
  // by StorageFormat: {fullSPNG, fullSJPG, thumbSPNG, thumbQ95, thumbQ75}.
  inputs.models.push_back(
      {"big", 4513.0, {0.75, 0.748, 0.75, 0.72, 0.64}});
  inputs.models.push_back(
      {"small", 12592.0, {0.68, 0.678, 0.675, 0.66, 0.60}});
  inputs.formats.push_back({StorageFormat::kFullSpng, 534.0});
  inputs.formats.push_back({StorageFormat::kThumbSpng, 1995.0});
  inputs.formats.push_back({StorageFormat::kThumbSjpgQ75, 5900.0});
  return inputs;
}

TEST(OptimizerTest, GeneratesFullCrossProduct) {
  auto inputs = MakeOptimizerInputs();
  inputs.toggles.use_preproc_opt = false;
  ASSERT_OK_AND_ASSIGN(auto plans, SmolOptimizer::GeneratePlans(inputs));
  EXPECT_EQ(plans.size(), 6u);  // 2 models x 3 formats
}

TEST(OptimizerTest, LowResLesionRestrictsFormats) {
  auto inputs = MakeOptimizerInputs();
  inputs.toggles.use_low_resolution = false;
  ASSERT_OK_AND_ASSIGN(auto plans, SmolOptimizer::GeneratePlans(inputs));
  EXPECT_EQ(plans.size(), 2u);  // only the full-res format remains
  for (const auto& p : plans) {
    EXPECT_FALSE(IsThumbnail(p.format));
  }
}

// §5.2's headline behaviour: when preprocessing-bound, a BIGGER model on
// LOWER resolution data beats a smaller model on full resolution.
TEST(OptimizerTest, PrefersBigModelOnThumbnailsWhenPreprocBound) {
  auto inputs = MakeOptimizerInputs();
  inputs.toggles.use_preproc_opt = false;  // isolate the low-res effect
  PlanConstraints constraints;
  constraints.min_accuracy = 0.70;
  ASSERT_OK_AND_ASSIGN(QueryPlan plan,
                       SmolOptimizer::SelectPlan(inputs, constraints));
  EXPECT_EQ(plan.model_name, "big");
  EXPECT_TRUE(IsThumbnail(plan.format));
  // And it beats the small model on full resolution data.
  EXPECT_GT(plan.throughput_ims, 534.0);
}

TEST(OptimizerTest, ThroughputConstrainedPicksMostAccurate) {
  auto inputs = MakeOptimizerInputs();
  PlanConstraints constraints;
  constraints.min_throughput_ims = 1000.0;
  ASSERT_OK_AND_ASSIGN(QueryPlan plan,
                       SmolOptimizer::SelectPlan(inputs, constraints));
  EXPECT_GE(plan.throughput_ims, 1000.0);
  // No other feasible plan is more accurate.
  ASSERT_OK_AND_ASSIGN(auto all, SmolOptimizer::GeneratePlans(inputs));
  for (const auto& p : all) {
    if (p.throughput_ims >= 1000.0) {
      EXPECT_LE(p.accuracy, plan.accuracy + 1e-12);
    }
  }
}

TEST(OptimizerTest, InfeasibleConstraintsReported) {
  auto inputs = MakeOptimizerInputs();
  PlanConstraints constraints;
  constraints.min_accuracy = 0.99;
  auto result = SmolOptimizer::SelectPlan(inputs, constraints);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInfeasible);
}

TEST(OptimizerTest, UnconstrainedPicksFastest) {
  auto inputs = MakeOptimizerInputs();
  ASSERT_OK_AND_ASSIGN(QueryPlan plan, SmolOptimizer::SelectPlan(inputs, {}));
  ASSERT_OK_AND_ASSIGN(auto all, SmolOptimizer::GeneratePlans(inputs));
  for (const auto& p : all) {
    EXPECT_LE(p.throughput_ims, plan.throughput_ims + 1e-12);
  }
}

TEST(OptimizerTest, ParetoPlansAreNonDominated) {
  auto inputs = MakeOptimizerInputs();
  ASSERT_OK_AND_ASSIGN(auto frontier, SmolOptimizer::ParetoPlans(inputs));
  ASSERT_FALSE(frontier.empty());
  for (const auto& a : frontier) {
    for (const auto& b : frontier) {
      if (a.model_name == b.model_name && a.format == b.format) continue;
      EXPECT_FALSE(Dominates(a, b));
    }
  }
}

TEST(OptimizerTest, PlacementImprovesPreprocBoundPlans) {
  auto inputs = MakeOptimizerInputs();
  inputs.toggles.use_preproc_opt = false;
  ASSERT_OK_AND_ASSIGN(auto without, SmolOptimizer::GeneratePlans(inputs));
  inputs.toggles.use_preproc_opt = true;
  ASSERT_OK_AND_ASSIGN(auto with, SmolOptimizer::GeneratePlans(inputs));
  ASSERT_EQ(without.size(), with.size());
  double best_without = 0, best_with = 0;
  for (const auto& p : without) best_without = std::max(best_without, p.throughput_ims);
  for (const auto& p : with) best_with = std::max(best_with, p.throughput_ims);
  EXPECT_GE(best_with, best_without);
}

TEST(OptimizerTest, EmptyInputsRejected) {
  SmolOptimizer::Inputs inputs;
  EXPECT_FALSE(SmolOptimizer::GeneratePlans(inputs).ok());
}

}  // namespace
}  // namespace smol
