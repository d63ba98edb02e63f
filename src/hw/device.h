// Hardware descriptors and calibration data.
//
// There is no GPU in this environment, so the accelerator side of the paper
// is reproduced as a *calibrated performance model*: every constant in this
// file is a measurement published in the paper itself (Tables 1, 2, 5, §7).
// The cost optimizer consumes throughput numbers, not CUDA kernels, so the
// model preserves exactly the behaviour the paper's optimizer depends on.
#ifndef SMOL_HW_DEVICE_H_
#define SMOL_HW_DEVICE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "src/util/result.h"

namespace smol {

/// \brief Cumulative per-device execution counters.
///
/// Shared by every Device implementation so the serving runtime can roll a
/// fleet's counters up into one ServerStats without knowing device types.
struct DeviceStats {
  uint64_t batches = 0;
  uint64_t images = 0;
  uint64_t max_batch = 0;         ///< largest single batch submitted
  uint64_t bytes = 0;             ///< total input bytes transferred
  uint64_t chunks = 0;            ///< total scatter-gather descriptors
  double compute_seconds = 0.0;   ///< modelled device-busy time
  double transfer_seconds = 0.0;  ///< modelled DMA time
  /// Summed real time callers spent inside ExecuteBatch. With one caller
  /// at a time, its excess over the modelled seconds (times any time scale)
  /// is how late a simulated device's wake-ups run; concurrent callers add
  /// the time a batch queued behind another's.
  double wall_seconds = 0.0;
};

/// \brief One inference device behind the serving runtime.
///
/// The runtime's per-shard batchers drive exactly this surface: submit a
/// coalesced batch, drain in-flight work at shutdown, read counters, and ask
/// for modelled capacity so dispatch policies can weight heterogeneous
/// fleets. SimAccelerator is the calibrated wall-clock implementation; a real
/// CUDA/TensorRT backend would slot in behind the same four calls.
class Device {
 public:
  virtual ~Device() = default;

  /// Executes one batch of \p batch_size images totalling \p input_bytes,
  /// submitted as \p chunks scatter-gather descriptors (1 = contiguous).
  /// Blocks the calling thread until the batch completes.
  virtual void ExecuteBatch(int batch_size, size_t input_bytes, bool pinned,
                            int chunks = 1) = 0;

  /// Blocks until every in-flight ExecuteBatch has completed.
  virtual void Drain() = 0;

  virtual DeviceStats stats() const = 0;

  /// Modelled steady-state serving capacity (images/second) — the weight the
  /// capacity-aware dispatch policy uses for heterogeneous fleets.
  virtual double capacity_ims() const = 0;

  /// Human-readable device name ("T4#1", ...) for per-shard stats.
  virtual const std::string& name() const = 0;
};

/// GPU generations benchmarked in the paper (Table 5).
enum class GpuModel { kK80, kP100, kV100, kT4, kRtx };

/// DNN software stacks benchmarked in the paper (Table 1).
enum class Framework { kKeras, kPyTorch, kTensorRt };

const char* GpuModelName(GpuModel gpu);
const char* FrameworkName(Framework fw);

/// \brief Static facts about one GPU model.
struct GpuSpec {
  GpuModel model;
  std::string name;
  int release_year;
  /// ResNet-50 throughput at batch 64 with TensorRT (Table 5, im/s).
  double resnet50_throughput;
  /// Board power in watts (T4 70 W per §7; others from public TDPs).
  double power_watts;
};

/// Returns the spec table for all modelled GPUs (Table 5 order).
const std::vector<GpuSpec>& AllGpuSpecs();
Result<GpuSpec> FindGpu(GpuModel model);

/// \brief An AWS-style instance: one GPU plus a number of vCPUs.
///
/// §7: the g4dn.xlarge (T4 + 4 vCPUs) is approximately cost-balanced between
/// the accelerator and the vCPUs.
struct InstanceSpec {
  std::string name;
  GpuModel gpu = GpuModel::kT4;
  int vcpus = 4;

  /// §7 price decomposition: T4 ≈ $0.218/hr, vCPU ≈ $0.0639/hr (R² = 0.999).
  static constexpr double kGpuHourlyUsd = 0.218;
  static constexpr double kVcpuHourlyUsd = 0.0639;
  /// §7 power: 210 W CPU package / 48 vCPUs = 4.375 W per vCPU.
  static constexpr double kWattsPerVcpu = 4.375;

  double HourlyPriceUsd() const {
    return kGpuHourlyUsd + kVcpuHourlyUsd * vcpus;
  }

  /// The standard evaluation environment (g4dn.xlarge).
  static InstanceSpec G4dnXlarge() { return {"g4dn.xlarge", GpuModel::kT4, 4}; }
  /// Variants used by Table 8 (g4dn.2xlarge / 4xlarge).
  static InstanceSpec G4dn(int vcpus) {
    return {"g4dn." + std::to_string(vcpus) + "vcpu", GpuModel::kT4, vcpus};
  }
};

/// Effective parallelism of \p vcpus hyperthreads (§8.1: a vCPU is a
/// hyperthread; compute-bound preprocessing scales sublinearly past the
/// physical core count). Physical cores = vcpus / 2; the second hyperthread
/// of a core contributes ~30%.
double EffectiveCores(int vcpus);

/// Dollar cost to process \p num_images at \p throughput_ims on \p instance.
double CostUsd(const InstanceSpec& instance, double throughput_ims,
               double num_images);

/// Cents per million images (the unit of Table 8).
double CentsPerMillionImages(const InstanceSpec& instance,
                             double throughput_ims);

}  // namespace smol

#endif  // SMOL_HW_DEVICE_H_
