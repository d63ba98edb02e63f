// Fleet construction: many simulated devices behind one serving front end.
//
// §7's cost analysis co-provisions preprocessing vCPUs against one
// accelerator; production fleets put several — often heterogeneous —
// accelerators behind the same front end. These factories turn the Table 5
// calibration (GpuSpec + DnnThroughputModel) into ready-to-serve Device
// instances, so a mixed K80+T4+V100 fleet is one line:
//
//   auto fleet = MakeSimFleet({GpuModel::kK80, GpuModel::kT4,
//                              GpuModel::kV100});
#ifndef SMOL_HW_FLEET_H_
#define SMOL_HW_FLEET_H_

#include <memory>
#include <string>
#include <vector>

#include "src/hw/device.h"
#include "src/hw/sim_accelerator.h"
#include "src/util/result.h"

namespace smol {

/// \brief Knobs shared by every device a fleet factory builds.
///
/// Named for the simulated-device factories it drives; the serving-side
/// fleet is the device list in ServerOptions::devices (runtime/server.h).
struct SimFleetOptions {
  /// Reference architecture whose Table 1/2/5 calibration sets each GPU's
  /// modelled throughput (and hence its capacity weight).
  std::string arch = "resnet50";
  int batch_size = 64;  ///< batch size for the throughput model's efficiency
  Framework framework = Framework::kTensorRt;
  double time_scale = 1.0;  ///< forwarded to every SimAccelerator
  int num_streams = 4;
  TransferModel transfer;
};

/// Builds one simulated device per entry of \p gpus, each calibrated to its
/// Table 5 throughput for options.arch. Devices are named "<GPU>#<index>".
/// Fails if any GPU/arch combination is unknown to the throughput model.
Result<std::vector<std::shared_ptr<Device>>> MakeSimFleet(
    const std::vector<GpuModel>& gpus, const SimFleetOptions& options = {});

/// Builds \p count identical devices from \p base (a homogeneous fleet —
/// the bench_serving scaling axis). Names get a "#<index>" suffix.
std::vector<std::shared_ptr<Device>> MakeHomogeneousFleet(
    int count, SimAccelerator::Options base);

}  // namespace smol

#endif  // SMOL_HW_FLEET_H_
