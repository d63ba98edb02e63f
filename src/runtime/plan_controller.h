// Load-adaptive plan selection for the serving runtime (ROADMAP's flagship
// scenario; the paper's §3.1 plan selection made online).
//
// The optimizer picks one static Pareto-optimal plan at startup; a server
// under bursty load should instead degrade gracefully along the
// accuracy/throughput ladder — decode at lower resolution, preprocess a
// smaller tensor — and recover to best accuracy when load subsides. This
// header provides the two pieces the Server composes:
//
//   * A plan *ladder*: the base PipelineSpec scaled down rung by rung, each
//     rung precompiled (plan + fingerprint + multi-resolution decode
//     denominator) so switching plans at runtime is a single index change,
//     never a recompilation.
//   * A PlanController: a small hysteresis automaton that watches admission
//     pressure (queue depth, shed deltas), steps the active rung down under
//     sustained pressure (with a cooldown so one burst cannot cascade
//     straight to the bottom) and back up only after several consecutive
//     calm ticks (so it does not flap on the burst's trailing edge).
//
// Requests carry a RequestClass; each class has a *floor* — the deepest rung
// it may be degraded to. The default policy pins kBestAccuracy to rung 0 and
// lets kLatencySlo ride the whole ladder, so SLO traffic absorbs bursts
// while accuracy-critical traffic keeps the full-fidelity plan.
#ifndef SMOL_RUNTIME_PLAN_CONTROLLER_H_
#define SMOL_RUNTIME_PLAN_CONTROLLER_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "src/preproc/graph.h"
#include "src/util/result.h"

namespace smol {

/// \brief QoS tier of an InferenceRequest.
enum class RequestClass : int {
  /// Accuracy-critical traffic: by default never degraded (floor = rung 0).
  kBestAccuracy = 0,
  /// Latency-SLO traffic: rides the full ladder under load by default.
  kLatencySlo = 1,
};

inline constexpr int kNumRequestClasses = 2;

/// Stable display name ("best_accuracy" / "latency_slo").
const char* RequestClassName(RequestClass klass);

/// \brief One precompiled rung of the serving ladder.
///
/// Rung 0 is the base (most accurate) pipeline; deeper rungs decode and
/// preprocess at reduced resolution for throughput.
struct PlanRung {
  std::string name;        ///< e.g. "rung1 x0.50 d2 r36 c32x32"
  PipelineSpec spec;       ///< scaled geometry (input dims reflect the decode)
  PreprocPlan plan;        ///< compiled for this rung's spec
  uint64_t fingerprint = 0;  ///< tensor-cache plan fingerprint (per rung)
  int decode_scale_denom = 1;  ///< DCT-domain decode downscale (1/2/4/8)
  double scale = 1.0;          ///< geometry scale vs rung 0
  double relative_cost = 1.0;  ///< estimated preproc cost vs rung 0 (<= 1)
};

/// Compiles the ladder: one rung per entry of \p scales (must start at 1.0
/// and be strictly decreasing in (0, 1]). Each rung scales the base spec's
/// resize/crop geometry, picks the deepest multi-resolution decode
/// denominator the geometry permits, compiles the plan, and fingerprints it
/// so cache entries never cross rungs. Rungs that collapse to identical
/// geometry are dropped, so the result may be shorter than \p scales.
Result<std::vector<PlanRung>> BuildPlanLadder(const PipelineSpec& base_spec,
                                              const std::vector<double>& scales,
                                              bool enable_dag_opt);

/// The controller's tick: each tick observes the load signals and makes at
/// most one rung step.
inline constexpr int kControllerTickUs = 5000;

/// \brief Per-class floors of the adaptive controller.
struct PlanControllerOptions {
  /// Per-class floor: the deepest rung index the class may be served at.
  /// -1 = the ladder's bottom rung. Defaults pin kBestAccuracy to rung 0.
  std::array<int, kNumRequestClasses> floor_rung = {0, -1};
};

/// \brief One controller tick's inputs.
struct LoadSignals {
  int queue_depth = 0;     ///< admission queue depth at sample time
  int queue_capacity = 1;  ///< admission capacity
  /// Requests shed since the previous tick (any shedding is pressure).
  uint64_t shed_delta = 0;
};

/// \brief Hysteresis automaton choosing the active rung per request class.
///
/// Observe() is called by one controller thread; RungFor() is read by many
/// worker threads (a single relaxed atomic load — cheap enough for the
/// per-request hot path).
class PlanController {
 public:
  PlanController(PlanControllerOptions options, int num_rungs);

  /// One tick: classifies \p signals as pressure / calm / ambiguous and
  /// steps the ladder level accordingly. Pressure (any shedding, or an
  /// admission queue at least half full) steps one rung down, then holds for
  /// a 2-tick cooldown. Calm (no shedding, queue at most 15% full) for 4
  /// consecutive ticks steps one rung up. Anything between holds the rung
  /// and restarts the calm count. Returns the level after the tick
  /// (0 = best accuracy .. num_rungs-1 = cheapest).
  int Observe(const LoadSignals& signals);

  /// The rung \p klass is currently served at: the ladder level clamped to
  /// the class's floor.
  int RungFor(RequestClass klass) const {
    const int level = level_.load(std::memory_order_relaxed);
    const int floor = floor_[static_cast<int>(klass)];
    return level < floor ? level : floor;
  }

  /// The unclamped ladder level.
  int level() const { return level_.load(std::memory_order_relaxed); }

  /// Total rung switches (degrade + recover steps) since construction.
  uint64_t switches() const {
    return switches_.load(std::memory_order_relaxed);
  }

 private:
  int num_rungs_;
  std::array<int, kNumRequestClasses> floor_;  ///< resolved (-1 -> bottom)
  std::atomic<int> level_{0};
  std::atomic<uint64_t> switches_{0};
  // Controller-thread-only state.
  int calm_streak_ = 0;
  int cooldown_ = 0;
};

}  // namespace smol

#endif  // SMOL_RUNTIME_PLAN_CONTROLLER_H_
