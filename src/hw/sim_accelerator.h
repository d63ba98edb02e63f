// Simulated DNN accelerator.
//
// The runtime engine's consumers submit batches here; the simulator enforces
// calibrated service times (compute from the throughput model, transfers from
// the transfer model) by blocking the caller, so pipelining CPU preprocessing
// against the "device" is a real wall-clock phenomenon measurable by benches —
// while the host CPUs stay free for preprocessing, exactly like a real
// accelerator.
//
// Concurrency model: a device clock with one compute engine (batches
// serialize on it) plus a DMA engine, each recording when it is next free.
// Under one short lock a batch reserves its transfer at max(now, DMA free)
// and its compute at max(end of transfer, compute free). With >= 2 streams,
// transfer for batch i+1 overlaps compute for batch i (copy/compute
// overlap); with 1 stream one engine does both, so they serialize. The
// caller then waits once, outside the lock, until the reserved completion
// time. A late wake-up delays only that batch's return; the next batch's
// modelled start does not move.
//
// The wait does not spin (host CPU stays free). On Linux it sleeps on an
// absolute CLOCK_MONOTONIC deadline and, on the first batch a thread
// submits, sets that thread's timer slack to 1 us (prctl PR_SET_TIMERSLACK):
// the default 50 us slack makes every sleep wake ~60 us late, which would
// swamp a ~20 us modelled batch. The lower slack stays on the calling thread
// and applies to its other timed waits too. Elsewhere it uses
// std::this_thread::sleep_until.
#ifndef SMOL_HW_SIM_ACCELERATOR_H_
#define SMOL_HW_SIM_ACCELERATOR_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>

#include "src/hw/device.h"
#include "src/hw/transfer.h"
#include "src/util/status.h"

namespace smol {

/// \brief Wall-clock simulator of one inference accelerator.
class SimAccelerator : public Device {
 public:
  struct Options {
    GpuModel gpu = GpuModel::kT4;
    /// Modelled DNN throughput for the deployed model, images/second.
    double dnn_throughput_ims = 4513.0;
    /// Extra accelerator-side preprocessing throughput (0 = none placed).
    /// When > 0, each image also costs 1/this seconds of device time.
    double gpu_preproc_throughput_ims = 0.0;
    int num_streams = 4;
    TransferModel transfer;
    /// Scales all modelled durations (1.0 = real time). Benches may shrink
    /// durations to run faster; ratios between stages are preserved.
    double time_scale = 1.0;
    /// Display name for fleet stats; empty = the GPU model's name.
    std::string name;
  };

  explicit SimAccelerator(Options options);

  /// Executes one batch: charges transfer (overlappable) + compute time.
  /// Blocks the calling thread until the batch's reserved completion time
  /// on the device clock. \p chunks is the scatter-gather descriptor count
  /// of the submission (1 = contiguous; the zero-copy runtime submits one
  /// chunk per pooled sample buffer).
  void ExecuteBatch(int batch_size, size_t input_bytes, bool pinned,
                    int chunks = 1) override;

  /// Waits until no ExecuteBatch is in flight (the in-flight count reaches
  /// zero). Submissions that start after Drain returns are the caller's
  /// problem, as with cudaDeviceSynchronize.
  void Drain() override;

  /// Cumulative counters (the fleet-generic DeviceStats).
  using Stats = DeviceStats;
  Stats stats() const override;

  /// Modelled images/second at steady state: the DNN rate, in series with
  /// the device-side preprocessing rate when any is placed there.
  double capacity_ims() const override;

  const std::string& name() const override { return options_.name; }

  const Options& options() const { return options_; }

 private:
  using Clock = std::chrono::steady_clock;

  Options options_;
  mutable std::mutex mutex_;  // guards the clock, in_flight_ and stats_
  std::condition_variable drained_;
  Clock::time_point dma_free_{};      // when the DMA engine is next idle
  Clock::time_point compute_free_{};  // when the compute engine is next idle
  int in_flight_ = 0;
  Stats stats_;
};

}  // namespace smol

#endif  // SMOL_HW_SIM_ACCELERATOR_H_
