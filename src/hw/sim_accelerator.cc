#include "src/hw/sim_accelerator.h"

#include <algorithm>
#include <utility>

#if defined(__linux__)
#include <sys/prctl.h>
#include <time.h>

#include <cerrno>
#else
#include <thread>
#endif

namespace smol {
namespace {

// Real time for a modelled duration, rounded up so a batch never completes
// before its modelled time.
std::chrono::steady_clock::duration RealTime(double modelled_seconds,
                                             double time_scale) {
  if (modelled_seconds <= 0.0) return std::chrono::steady_clock::duration{};
  return std::chrono::ceil<std::chrono::steady_clock::duration>(
      std::chrono::duration<double>(modelled_seconds * time_scale));
}

// Blocks the calling thread until steady_clock reaches \p deadline, without
// spinning. On Linux steady_clock reads CLOCK_MONOTONIC, so the deadline is
// handed to the kernel as an absolute time on that clock.
void WaitUntil(std::chrono::steady_clock::time_point deadline) {
#if defined(__linux__)
  // Once per thread: at the default 50 us timer slack each sleep wakes
  // ~60 us late; at 1 us, under 10 us.
  thread_local const bool slack_set =
      prctl(PR_SET_TIMERSLACK, 1000UL, 0UL, 0UL, 0UL) == 0;
  static_cast<void>(slack_set);
  const int64_t ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                         deadline.time_since_epoch())
                         .count();
  timespec ts;
  ts.tv_sec = static_cast<time_t>(ns / 1000000000);
  ts.tv_nsec = static_cast<long>(ns % 1000000000);
  while (clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) ==
         EINTR) {
  }
#else
  std::this_thread::sleep_until(deadline);
#endif
}

}  // namespace

SimAccelerator::SimAccelerator(Options options) : options_(std::move(options)) {
  if (options_.dnn_throughput_ims <= 0.0) options_.dnn_throughput_ims = 1.0;
  if (options_.time_scale <= 0.0) options_.time_scale = 1.0;
  if (options_.name.empty()) options_.name = GpuModelName(options_.gpu);
}

void SimAccelerator::ExecuteBatch(int batch_size, size_t input_bytes,
                                  bool pinned, int chunks) {
  if (batch_size <= 0) return;
  if (chunks < 1) chunks = 1;
  const double transfer_s =
      options_.transfer.GatherMicros(input_bytes, chunks, pinned) * 1e-6;
  double compute_s =
      static_cast<double>(batch_size) / options_.dnn_throughput_ims;
  if (options_.gpu_preproc_throughput_ims > 0.0) {
    compute_s += static_cast<double>(batch_size) /
                 options_.gpu_preproc_throughput_ims;
  }

  const Clock::time_point start = Clock::now();
  Clock::time_point done;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const Clock::time_point transfer_end =
        std::max(start, dma_free_) + RealTime(transfer_s, options_.time_scale);
    compute_free_ = std::max(transfer_end, compute_free_) +
                    RealTime(compute_s, options_.time_scale);
    // With >= 2 streams the DMA engine takes the next transfer as soon as
    // this one ends (copy/compute overlap); with one stream a single engine
    // does both, so the next transfer waits for this compute.
    dma_free_ = options_.num_streams >= 2 ? transfer_end : compute_free_;
    done = compute_free_;
    ++in_flight_;
  }
  WaitUntil(done);
  const double wall_s =
      std::chrono::duration<double>(Clock::now() - start).count();

  std::lock_guard<std::mutex> lock(mutex_);
  stats_.batches++;
  stats_.images += static_cast<uint64_t>(batch_size);
  stats_.max_batch =
      std::max(stats_.max_batch, static_cast<uint64_t>(batch_size));
  stats_.bytes += static_cast<uint64_t>(input_bytes);
  stats_.chunks += static_cast<uint64_t>(chunks);
  stats_.compute_seconds += compute_s;
  stats_.transfer_seconds += transfer_s;
  stats_.wall_seconds += wall_s;
  if (--in_flight_ == 0) drained_.notify_all();
}

void SimAccelerator::Drain() {
  std::unique_lock<std::mutex> lock(mutex_);
  drained_.wait(lock, [this] { return in_flight_ == 0; });
}

double SimAccelerator::capacity_ims() const {
  double per_image_s = 1.0 / options_.dnn_throughput_ims;
  if (options_.gpu_preproc_throughput_ims > 0.0) {
    per_image_s += 1.0 / options_.gpu_preproc_throughput_ims;
  }
  return 1.0 / per_image_s;
}

SimAccelerator::Stats SimAccelerator::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

}  // namespace smol
